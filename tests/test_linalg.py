"""Tests for the dense symmetric linear algebra kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmat.graph import GraphError, MatrixWeightedGraph, from_edges, path_graph
from resmat.linalg import (
    EPS,
    SYMMETRY_RTOL,
    DimensionError,
    NumericError,
    _inverse_sqrt,
    _not_definite,
    _symmetric_inverse,
    _symmetric_mean_in_place,
    block_cofactor_slog,
    certified_definite,
    count_inertia,
    default_rank_tol,
    max_norm,
    pseudo_inverse,
    slogdet_lu,
    sym_eigenvalues,
    symmetric_mean,
    symmetrize,
    value_from_slog,
)


def random_symmetric(rng, n, scale=1.0):
    b = rng.uniform(-scale, scale, size=(n, n))
    return (b + b.T) / 2.0


def random_psd(rng, n, scale=1.0):
    b = rng.uniform(-scale, scale, size=(n, n))
    return b.T @ b


seeds = st.integers(min_value=0, max_value=2**32 - 1)
orders = st.integers(min_value=1, max_value=8)


class TestAsDense:
    """:func:`symmetrize` takes any array-like as a dense float64 matrix."""

    def test_copies_input(self):
        src = np.eye(2)
        out = symmetrize(src)
        out[0, 0] = 5.0
        assert src[0, 0] == 1.0

    def test_accepts_nested_lists(self):
        out = symmetrize([[1, 2], [2, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    @pytest.mark.parametrize("bad", [[1.0, 2.0], np.zeros((2, 2, 2)), 3.0])
    def test_rejects_non_2d(self, bad):
        with pytest.raises(DimensionError):
            symmetrize(bad)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            symmetrize(np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(NumericError):
            symmetrize([[1.0, value], [value, 1.0]])


class TestMaxNorm:
    def test_plain(self):
        assert max_norm([[1.0, -3.0], [2.0, 0.5]]) == 3.0

    def test_empty(self):
        assert max_norm(np.zeros((0,))) == 0.0

    @pytest.mark.parametrize(
        "entries",
        [
            [-0.0],
            [-0.0, 0.0],
            [0.0, -0.0],
            [5e-324, -5e-324],
            [-1e-310, 2.2e-308],
            [1.7e308, -1.7e308],
            [-1.7976931348623157e308, 1.0],
            [3.0, -3.0, 2.0],
            [-3.0, 3.0],
        ],
    )
    def test_bitwise_the_absolute_maximum(self, entries):
        a = np.array(entries)
        expected = float(np.abs(a).max())
        result = max_norm(a)
        assert type(result) is float
        assert math.copysign(1.0, result) == 1.0
        assert np.array([result]).tobytes() == np.array([expected]).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds, log_scale=st.integers(min_value=-320, max_value=300))
    def test_bitwise_the_absolute_maximum_on_random_input(self, seed, log_scale):
        a = np.random.default_rng(seed).standard_normal((5, 4)) * 10.0**log_scale
        expected = float(np.abs(a).max())
        assert np.array([max_norm(a)]).tobytes() == np.array([expected]).tobytes()

    def test_nan_propagates(self):
        assert math.isnan(max_norm([1.0, np.nan, -2.0]))
        assert math.isnan(max_norm([np.nan]))


class TestDefinitenessRule:
    def test_batched_rule_is_the_per_matrix_eigenvalue_rule(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        stack = np.array([
            np.eye(3),
            symmetric_mean((q * [1.0, 2.0, 3.0]) @ q.T),  # definite, rotated
            np.diag([1.0, 1.0, 6 * EPS]),  # above the cutoff 3 eps lambda_max
            np.diag([1.0, 1.0, 3 * EPS]),  # at it
            np.diag([2.0, 1.0, 0.0]),  # semidefinite
            symmetric_mean((q * [1.0, 0.0, 2.0]) @ q.T),  # semidefinite, rotated
            np.diag([1.0, -1.0, 2.0]),  # indefinite
            -np.eye(3),  # lambda_max < 0
            np.zeros((3, 3)),  # lambda_max = 0
        ])
        lost, smallest = _not_definite(stack)
        expected = []
        for k, w in enumerate(stack):
            values = np.linalg.eigvalsh(w)
            expected.append(values[-1] <= 0.0 or values[0] <= 3 * EPS * values[-1])
            assert smallest[k] == values[0]
        assert lost.tolist() == expected
        assert expected == [False, False, False, True, True, True, True, True, True]

    def test_one_matrix(self):
        lost, smallest = _not_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert (bool(lost), float(smallest)) == (True, -1.0)


class TestSymmetricMean:
    @settings(deadline=None, max_examples=40)
    @given(seed=seeds, n=orders, log_scale=st.integers(min_value=-320, max_value=300))
    def test_bitwise_the_plain_mean_in_range(self, seed, n, log_scale):
        # Down to subnormal entries, where halving first would round.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, n, n)) * 10.0**log_scale
        plain = (a + a.transpose(0, 2, 1)) / 2.0
        assert np.array_equal(symmetric_mean(a), plain)

    def test_no_overflow_near_float_max(self):
        big = np.finfo(np.float64).max
        a = np.array([[big, 0.75 * big], [big, 5e-324]])
        mean = symmetric_mean(a)
        assert mean.tolist() == [[big, 0.875 * big], [0.875 * big, 5e-324]]

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 9, 50])
    def test_in_place_is_the_mean_bit_for_bit(self, rows):
        # Bands that end inside the matrix and past it; entries whose sum
        # overflows, signed zeros and subnormals.
        big = np.finfo(np.float64).max
        rng = np.random.default_rng(rows)
        a = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-320, 300, (9, 9))
        a[0, 5], a[5, 0] = big, 0.75 * big
        a[2, 3], a[3, 2] = -0.0, -0.0
        a[4, 1], a[1, 4] = -0.0, 0.0
        a[8, 7], a[7, 8] = 5e-324, -big
        expected = symmetric_mean(a)
        _symmetric_mean_in_place(a, rows)
        assert a.tobytes() == expected.tobytes()

    def test_infinities_of_both_signs_mean_nan_without_a_warning(self):
        inf = math.inf
        mean = symmetric_mean(np.array([[1.0, inf], [-inf, inf]]))
        assert mean[0, 0] == 1.0 and mean[1, 1] == inf
        assert np.isnan(mean[0, 1]) and np.isnan(mean[1, 0])

    def test_symmetrize_takes_no_overflow(self):
        big = np.finfo(np.float64).max
        assert symmetrize([[big, 1.0], [1.0, big]]).tolist() == [[big, 1.0], [1.0, big]]
        with pytest.raises(NumericError, match="max asymmetry inf"):
            symmetrize([[1.0, big], [-big, 1.0]])


class TestSymmetrize:
    @staticmethod
    def counting_means(monkeypatch):
        calls = []

        def recording(a):
            calls.append(a.shape)
            return symmetric_mean(a)

        monkeypatch.setattr("resmat.linalg.symmetric_mean", recording)
        return calls

    def test_exactly_symmetric_input_is_copied(self, monkeypatch):
        # Signed zeros, subnormals and entries whose sum overflows: the
        # mean of a bitwise symmetric matrix is the matrix, and so is the
        # copy returned at once.
        big = 1.7e308
        a = np.array(
            [
                [-0.0, 5e-324, -big, 0.0],
                [5e-324, big, -0.0, 3e-310],
                [-big, -0.0, -5e-324, 1.0],
                [0.0, 3e-310, 1.0, big],
            ]
        )
        calls = self.counting_means(monkeypatch)
        out = symmetrize(a)
        assert calls == []
        assert out.tobytes() == symmetric_mean(a).tobytes() == a.tobytes()
        assert out is not a and not np.shares_memory(out, a)
        assert out.flags.writeable

    def test_mismatched_signed_zeros_take_the_mean(self, monkeypatch):
        a = np.array([[1.0, -0.0, 2.0], [0.0, 1.0, 3.0], [2.0, 3.0, 1.0]])
        calls = self.counting_means(monkeypatch)
        out = symmetrize(a)
        assert calls == [(3, 3)]
        assert out.tobytes() == symmetric_mean(a).tobytes()
        assert not np.signbit(out).any()

    def test_averages_roundoff_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
        out = symmetrize(a)
        assert np.array_equal(out, out.T)

    def test_rejects_material_asymmetry(self):
        with pytest.raises(NumericError, match="not symmetric"):
            symmetrize([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            symmetrize(np.ones((2, 3)))

    def test_fixed_tolerance_boundary(self):
        # The limit is SYMMETRY_RTOL * (1 + max|A|); with max|A| = 1 an
        # asymmetry of exactly 2 * SYMMETRY_RTOL is averaged, more is not.
        limit = 2.0 * SYMMETRY_RTOL
        symmetrize([[1.0, 0.0], [limit, 1.0]])
        with pytest.raises(NumericError, match="not symmetric"):
            symmetrize([[1.0, 0.0], [1.01 * limit, 1.0]])


class TestSymEigen:
    def test_diagonal_is_exact(self):
        values = sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert values.tolist() == [3.0, 2.0, -1.0]

    def test_two_by_two_hand_values(self):
        # [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        values = sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert values == pytest.approx([3.0, 1.0], abs=1e-14)

    def test_descending_order_with_negatives(self):
        values = sym_eigenvalues([[0.0, 2.0], [2.0, -3.0]])
        assert values[0] > values[1]
        assert values[0] == pytest.approx(1.0, abs=1e-13)
        assert values[1] == pytest.approx(-4.0, abs=1e-13)

    def test_one_by_one(self):
        assert sym_eigenvalues([[7.0]]).tolist() == [7.0]

    def test_rejects_asymmetric(self):
        # Nearly symmetric is not enough: 1e-6 relative is far beyond
        # SYMMETRY_RTOL.
        with pytest.raises(NumericError, match="not symmetric"):
            sym_eigenvalues([[1.0, 1.0], [1.0 + 1e-6, 1.0]])

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds, n=orders)
    def test_values_only_match_decomposition(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n)
        values = sym_eigenvalues(a)
        scale = 1.0 + max_norm(a)
        reference = np.linalg.eigh(a)[0][::-1]
        assert max_norm(values - reference) <= 1e-13 * scale
        assert np.all(np.diff(values) <= 0.0)
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_values_only_rejects_asymmetric(self):
        with pytest.raises(NumericError):
            sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, n=orders)
    def test_trace_and_frobenius_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n)
        values = sym_eigenvalues(a)
        assert float(np.sum(values)) == pytest.approx(float(np.trace(a)), abs=1e-12 * n)
        assert float(np.sum(values**2)) == pytest.approx(
            float(np.sum(a * a)), rel=1e-12, abs=1e-12
        )


class TestCertifiedDefinite:
    def test_stack_of_definite_matrices(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_psd(rng, 4) + 4.0 * np.eye(4) for _ in range(6)])
        before = stack.copy()
        assert certified_definite(stack, 1e-10)
        assert np.array_equal(stack, before)

    def test_one_indefinite_matrix_spoils_the_stack(self):
        stack = np.array([np.eye(3), np.diag([1.0, -1.0, 2.0]), np.eye(3)])
        before = stack.copy()
        assert not certified_definite(stack, EPS)
        assert np.array_equal(stack, before)

    def test_margin_is_relative_to_the_norm(self):
        # lambda_min / ||A||_inf = 1e-9 clears 1e-10 with room, 1e-10 does not.
        assert certified_definite(1e-140 * np.diag([1.0, 1e-9]), 1e-10)
        assert not certified_definite(1e140 * np.diag([1.0, 1e-10]), 1e-10)

    def test_underflow_margin(self):
        # The absolute margin tiny keeps subnormal matrices unproven.
        assert certified_definite(1e-300 * np.eye(3), EPS)
        assert not certified_definite(1e-310 * np.eye(3), EPS)

    @pytest.mark.parametrize("a", [
        np.diag([np.inf, 1.0]),
        np.diag([np.nan, 1.0]),
        np.array([[1.7e308, 1e308], [1e308, 1.7e308]]),
        np.zeros((2, 2)),
    ])
    def test_no_proof_for_non_finite_huge_or_zero(self, a):
        # These give no proof and raise no numpy warning.
        before = a.copy()
        assert not certified_definite(a, EPS)
        assert np.array_equal(a, before, equal_nan=True)


class TestPseudoInverse:
    def test_two_vertex_laplacian(self):
        # pinv([[1, -1], [-1, 1]]) = (1/4) [[1, -1], [-1, 1]].
        g = pseudo_inverse([[1.0, -1.0], [-1.0, 1.0]])
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert max_norm(g - expected) <= 1e-14

    def test_zero_matrix(self):
        assert np.array_equal(pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_invertible_matches_inverse(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert max_norm(pseudo_inverse(a) @ a - np.eye(2)) <= 1e-13

    def test_rejects_indefinite(self):
        with pytest.raises(NumericError, match="not positive semidefinite"):
            pseudo_inverse([[1.0, 2.0], [2.0, 1.0]])

    def test_rank_tol_controls_cutoff(self):
        # The cutoff is default_rank_tol(2) * max|eigenvalue| = 2 EPS here:
        # an eigenvalue on it counts as zero, one just above is inverted.
        band = default_rank_tol(2)
        on = pseudo_inverse(np.diag([1.0, band]))
        assert on[1, 1] == 0.0
        above = pseudo_inverse(np.diag([1.0, 2.0 * band]))
        assert above[1, 1] == pytest.approx(1.0 / (2.0 * band), rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds, n=orders)
    def test_penrose_axioms(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n)
        # Force a kernel half the time by projecting out a direction.
        if seed % 2 and n > 1:
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            p = np.eye(n) - np.outer(u, u)
            a = p @ a @ p
        a = (a + a.T) / 2.0
        g = pseudo_inverse(a)
        tol = 1e-10 * (1.0 + max_norm(a) + max_norm(g)) ** 2
        assert max_norm(a @ g @ a - a) <= tol
        assert max_norm(g @ a @ g - g) <= tol
        assert max_norm(a @ g - (a @ g).T) <= tol
        assert max_norm(g @ a - (g @ a).T) <= tol


class TestPdInverse:
    """The batched inverse behind the Laplacian's off-diagonal blocks.  It
    tests nothing itself: the graph's constructor rejects every weight
    that is not positive definite, so the rejection cases build graphs."""

    def test_hand_value(self):
        inv = _symmetric_inverse(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert max_norm(inv - expected) <= 1e-14

    def test_rejects_singular(self):
        with pytest.raises(GraphError, match="not positive definite"):
            from_edges(2, 2, [(0, 1, [[1.0, 1.0], [1.0, 1.0]])])

    def test_rejects_negative(self):
        with pytest.raises(GraphError, match="not positive definite"):
            from_edges(2, 1, [(0, 1, [[-1.0]])])

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, n=orders)
    def test_inverse_property(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n) + 0.5 * np.eye(n)
        a = (a + a.T) / 2.0
        inv = _symmetric_inverse(a)
        assert max_norm(inv @ a - np.eye(n)) <= 1e-11 * (1.0 + max_norm(a))
        assert np.array_equal(inv, inv.T)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(12)
        stack = np.stack([random_psd(rng, 3) + 0.5 * np.eye(3) for _ in range(6)])
        stack = (stack + stack.transpose(0, 2, 1)) / 2.0
        inv = _symmetric_inverse(stack)
        assert inv.shape == (6, 3, 3)
        for k in range(6):
            assert np.array_equal(inv[k], _symmetric_inverse(stack[k]))

    def test_stack_rejects_one_bad_matrix(self):
        weights = [np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)]
        with pytest.raises(GraphError) as exc:
            path_graph(4, 2, weights)
        assert str(exc.value) == (
            "edge #2 (2, 3): weight is not positive definite "
            "(smallest eigenvalue 0.000000e+00)"
        )


class TestPdInverseSqrt:
    """The batched inverse square root behind the incidence matrix, as
    unchecked as :class:`TestPdInverse`'s kernel."""

    def test_hand_eigenvalues(self):
        # Spectrum of [[2, 1], [1, 2]] is {3, 1}, so the inverse square root
        # has spectrum {1, 1/sqrt(3)}.
        s = _inverse_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        values = sym_eigenvalues(s)
        assert values[0] == pytest.approx(1.0, abs=1e-14)
        assert values[1] == pytest.approx(1 / math.sqrt(3), abs=1e-14)

    def test_diagonal(self):
        s = _inverse_sqrt(np.diag([4.0, 9.0]))
        assert max_norm(s - np.diag([0.5, 1.0 / 3.0])) <= 1e-15

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, n=orders)
    def test_sws_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        w = random_psd(rng, n) + 0.5 * np.eye(n)
        w = (w + w.T) / 2.0
        s = _inverse_sqrt(w)
        assert max_norm(s @ w @ s - np.eye(n)) <= 1e-11 * (1.0 + max_norm(w))
        assert np.array_equal(s, s.T)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_psd(rng, 3) + 0.5 * np.eye(3) for _ in range(6)])
        stack = (stack + stack.transpose(0, 2, 1)) / 2.0
        roots = _inverse_sqrt(stack)
        assert roots.shape == (6, 3, 3)
        for k in range(6):
            assert np.array_equal(roots[k], _inverse_sqrt(stack[k]))

    def test_stack_rejects_one_bad_matrix(self):
        # Constructed directly, as dataclasses.replace does, the graph is
        # tested all the same.
        stack = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)])
        with pytest.raises(GraphError, match="edge #2 .*not positive definite"):
            MatrixWeightedGraph(4, 2, [(0, 1), (1, 2), (2, 3)], stack)


def plain_det(a):
    """The plain value of the LU determinant pair."""
    return value_from_slog(*slogdet_lu(a))


class TestLU:
    def test_identity_det_exact(self):
        assert plain_det(np.eye(5)) == 1.0

    def test_permutation_sign(self):
        p = np.eye(3)[[1, 0, 2]]
        assert plain_det(p) == -1.0

    def test_hand_determinant(self):
        # Path-graph distance matrix on 3 vertices has determinant 4.
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert plain_det(d) == pytest.approx(4.0, rel=1e-14)

    def test_singular_det_is_exact_zero(self):
        assert plain_det([[1.0, 2.0], [2.0, 4.0]]) == 0.0

    def test_slogdet_singular(self):
        sign, log_abs = slogdet_lu([[1.0, 2.0], [2.0, 4.0]])
        assert sign == 0.0
        assert log_abs == -math.inf

    def test_slogdet_matches_det(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        sign, log_abs = slogdet_lu(a)
        assert sign * math.exp(log_abs) == pytest.approx(np.linalg.det(a), rel=1e-12)

    def test_slogdet_large_order_no_overflow(self):
        a = 10.0 * np.eye(400)
        sign, log_abs = slogdet_lu(a)
        assert sign == 1.0
        assert log_abs == pytest.approx(400 * math.log(10.0), rel=1e-14)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            slogdet_lu(np.ones((2, 3)))

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds, n=orders)
    def test_det_product_rule(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=(n, n))
        assert plain_det(a @ b) == pytest.approx(
            plain_det(a) * plain_det(b), rel=1e-9, abs=1e-12
        )


def block_cofactor_value(a, i, j, s):
    return value_from_slog(*block_cofactor_slog(a, i, j, s))


class TestBlockCofactor:
    def test_scalar_blocks_match_classical_cofactor(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]])
        # Classical cofactor C_{01} = -det [[4, 6], [7, 10]] = -(40 - 42) = 2.
        assert block_cofactor_value(a, 0, 1, 1) == pytest.approx(2.0, rel=1e-14)

    def test_expansion_recovers_determinant(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        expansion = sum(a[0, j] * block_cofactor_value(a, 0, j, 1) for j in range(5))
        assert expansion == pytest.approx(np.linalg.det(a), rel=1e-11)

    def test_full_deletion_gives_sign(self):
        # Deleting the only block leaves the empty minor with determinant 1.
        assert block_cofactor_value(np.ones((2, 2)), 0, 0, 2) == 1.0

    def test_two_by_two_blocks(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        # Deleting block row 0 and block column 0 (s = 2) leaves diag(3, 4);
        # the deleted 1-based indices sum to (1 + 2) + (1 + 2) = 6, so +1.
        assert block_cofactor_value(a, 0, 0, 2) == pytest.approx(12.0, rel=1e-14)

    def test_off_diagonal_block_sign(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        # s = 2, blocks 3x3: deleting block row 0, block column 1 removes
        # rows {1, 2} and columns {3, 4} (1-based), exponent 10, sign +1;
        # the minor is [[0, 0], [a_50 a_51], rows 5,6 x cols 1,2 ...] -- for a
        # diagonal matrix this minor is singular, so the cofactor is 0.
        assert block_cofactor_value(a, 0, 1, 2) == 0.0

    def test_slog_matches_plain(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
        sign, log_abs = block_cofactor_slog(a, 1, 2, 2)
        # Block (1, 2) of s = 2 deletes 1-based rows {3, 4} and columns
        # {5, 6}: exponent 18, sign +1.
        plain = np.linalg.det(np.delete(np.delete(a, [2, 3], 0), [4, 5], 1))
        assert sign * math.exp(log_abs) == pytest.approx(plain, rel=1e-12)

    def test_rejects_bad_block_size(self):
        with pytest.raises(DimensionError):
            block_cofactor_value(np.eye(4), 0, 0, 3)

    def test_rejects_out_of_range_block(self):
        with pytest.raises(DimensionError):
            block_cofactor_value(np.eye(4), 2, 0, 2)


class TestInertia:
    def test_hand_counts(self):
        inertia = count_inertia([3.0, 1e-18, -2.0, 0.0])
        assert inertia.as_tuple() == (1, 1, 2)

    def test_relative_band(self):
        # 1e-10 is far above the default band for max 1.0, so it counts
        # as positive; scale the matrix up and it still does.
        assert count_inertia([1.0, 1e-10]).as_tuple() == (2, 0, 0)
        assert count_inertia([1e12, 1e-4]).as_tuple() == (1, 0, 1)

    def test_matrix_route(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert count_inertia(sym_eigenvalues(a)).as_tuple() == (1, 1, 0)

    def test_zero_matrix(self):
        assert count_inertia(sym_eigenvalues(np.zeros((3, 3)))).as_tuple() == (0, 0, 3)

    def test_zero_band_boundary(self):
        # The zero band is default_rank_tol(count) * max|value|, 2 EPS here,
        # closed on both sides.
        band = default_rank_tol(2)
        assert count_inertia([1.0, band]).as_tuple() == (1, 0, 1)
        assert count_inertia([1.0, -band]).as_tuple() == (1, 0, 1)
        assert count_inertia([1.0, 2.0 * band]).as_tuple() == (2, 0, 0)
        assert count_inertia([1.0, -2.0 * band]).as_tuple() == (1, 1, 0)


class TestDefaults:
    def test_default_rank_tol_scales_with_order(self):
        assert default_rank_tol(1) == EPS
        assert default_rank_tol(10) == 10 * EPS
        assert default_rank_tol(0) == EPS
