"""Tests for the dense symmetric linear algebra kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmat.linalg import (
    EPS,
    DimensionError,
    NumericError,
    block_cofactor_slog,
    count_inertia,
    default_rank_tol,
    det_lu,
    max_norm,
    pd_inverse,
    pd_inverse_sqrt,
    pseudo_inverse,
    pseudo_inverse_from,
    slogdet_lu,
    sym_eigen,
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


class TestSymmetrize:
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


class TestSymEigen:
    def test_diagonal_is_exact(self):
        dec = sym_eigen(np.diag([3.0, -1.0, 2.0]))
        assert dec.eigenvalues.tolist() == [3.0, 2.0, -1.0]
        assert np.array_equal(np.abs(dec.eigenvectors), np.eye(3)[:, [0, 2, 1]])

    def test_two_by_two_hand_values(self):
        # [[2, 1], [1, 2]] has eigenvalues 3 and 1 with eigenvectors along
        # (1, 1) and (1, -1).
        dec = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert dec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-14)
        v0 = dec.eigenvectors[:, 0]
        assert abs(v0[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert v0[0] == pytest.approx(v0[1], abs=1e-14)

    def test_descending_order_with_negatives(self):
        dec = sym_eigen([[0.0, 2.0], [2.0, -3.0]])
        assert dec.eigenvalues[0] > dec.eigenvalues[1]
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-13)
        assert dec.eigenvalues[1] == pytest.approx(-4.0, abs=1e-13)

    def test_one_by_one(self):
        dec = sym_eigen([[7.0]])
        assert dec.eigenvalues.tolist() == [7.0]
        assert dec.eigenvectors.tolist() == [[1.0]]

    def test_rejects_asymmetric(self):
        with pytest.raises(NumericError):
            sym_eigen([[0.0, 1.0], [0.0, 0.0]])

    @settings(deadline=None, max_examples=40)
    @given(seed=seeds, n=orders)
    def test_reconstruction_and_orthogonality(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n)
        dec = sym_eigen(a)
        scale = 1.0 + max_norm(a)
        assert max_norm(dec.reconstruct() - a) <= 1e-13 * scale
        v = dec.eigenvectors
        assert max_norm(v @ v.T - np.eye(n)) <= 1e-13
        assert np.all(np.diff(dec.eigenvalues) <= 1e-15 * scale)

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, n=orders)
    def test_trace_and_frobenius_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n)
        values = sym_eigen(a).eigenvalues
        assert float(np.sum(values)) == pytest.approx(float(np.trace(a)), abs=1e-12 * n)
        assert float(np.sum(values**2)) == pytest.approx(
            float(np.sum(a * a)), rel=1e-12, abs=1e-12
        )


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
        a = np.diag([1.0, 1e-6])
        sharp = pseudo_inverse(a, rank_tol=1e-8)
        assert sharp[1, 1] == pytest.approx(1e6, rel=1e-12)
        blunt = pseudo_inverse(a, rank_tol=1e-3)
        assert blunt[1, 1] == 0.0

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

    def test_from_decomposition_matches(self):
        rng = np.random.default_rng(7)
        a = random_psd(rng, 5)
        dec = sym_eigen(a)
        assert np.array_equal(pseudo_inverse_from(dec), pseudo_inverse(a))


class TestPdInverse:
    def test_hand_value(self):
        inv = pd_inverse([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert max_norm(inv - expected) <= 1e-14

    def test_rejects_singular(self):
        with pytest.raises(NumericError, match="not positive definite"):
            pd_inverse([[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_negative(self):
        with pytest.raises(NumericError, match="not positive definite"):
            pd_inverse([[-1.0]])

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, n=orders)
    def test_inverse_property(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n) + 0.5 * np.eye(n)
        inv = pd_inverse(a)
        assert max_norm(inv @ a - np.eye(n)) <= 1e-11 * (1.0 + max_norm(a))
        assert np.array_equal(inv, inv.T)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(12)
        stack = np.stack([random_psd(rng, 3) + 0.5 * np.eye(3) for _ in range(6)])
        inv = pd_inverse(stack)
        assert inv.shape == (6, 3, 3)
        for k in range(6):
            assert np.array_equal(inv[k], pd_inverse(stack[k]))

    def test_stack_rejects_one_bad_matrix(self):
        stack = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)])
        with pytest.raises(NumericError, match="not positive definite"):
            pd_inverse(stack)


class TestPdInverseSqrt:
    def test_hand_eigenvalues(self):
        # Spectrum of [[2, 1], [1, 2]] is {3, 1}, so the inverse square root
        # has spectrum {1, 1/sqrt(3)}.
        s = pd_inverse_sqrt([[2.0, 1.0], [1.0, 2.0]])
        values = sym_eigen(s).eigenvalues
        assert values[0] == pytest.approx(1.0, abs=1e-14)
        assert values[1] == pytest.approx(1 / math.sqrt(3), abs=1e-14)

    def test_diagonal(self):
        s = pd_inverse_sqrt(np.diag([4.0, 9.0]))
        assert max_norm(s - np.diag([0.5, 1.0 / 3.0])) <= 1e-15

    @settings(deadline=None, max_examples=25)
    @given(seed=seeds, n=orders)
    def test_sws_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        w = random_psd(rng, n) + 0.5 * np.eye(n)
        s = pd_inverse_sqrt(w)
        assert max_norm(s @ w @ s - np.eye(n)) <= 1e-11 * (1.0 + max_norm(w))
        assert np.array_equal(s, s.T)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_psd(rng, 3) + 0.5 * np.eye(3) for _ in range(6)])
        roots = pd_inverse_sqrt(stack)
        assert roots.shape == (6, 3, 3)
        for k in range(6):
            assert np.array_equal(roots[k], pd_inverse_sqrt(stack[k]))

    def test_stack_rejects_one_bad_matrix(self):
        stack = np.stack([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], 2.0 * np.eye(2)])
        with pytest.raises(NumericError, match="not positive definite"):
            pd_inverse_sqrt(stack)


class TestLU:
    def test_identity_det_exact(self):
        assert det_lu(np.eye(5)) == 1.0

    def test_permutation_sign(self):
        p = np.eye(3)[[1, 0, 2]]
        assert det_lu(p) == -1.0

    def test_hand_determinant(self):
        # Path-graph distance matrix on 3 vertices has determinant 4.
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert det_lu(d) == pytest.approx(4.0, rel=1e-14)

    def test_singular_det_is_exact_zero(self):
        assert det_lu([[1.0, 2.0], [2.0, 4.0]]) == 0.0

    def test_slogdet_singular(self):
        sign, log_abs = slogdet_lu([[1.0, 2.0], [2.0, 4.0]])
        assert sign == 0.0
        assert log_abs == -math.inf

    def test_slogdet_matches_det(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        sign, log_abs = slogdet_lu(a)
        assert sign * math.exp(log_abs) == pytest.approx(det_lu(a), rel=1e-12)

    def test_slogdet_large_order_no_overflow(self):
        a = 10.0 * np.eye(400)
        sign, log_abs = slogdet_lu(a)
        assert sign == 1.0
        assert log_abs == pytest.approx(400 * math.log(10.0), rel=1e-14)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            det_lu(np.ones((2, 3)))

    @settings(deadline=None, max_examples=30)
    @given(seed=seeds, n=orders)
    def test_det_product_rule(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        b = rng.uniform(-1.0, 1.0, size=(n, n))
        assert det_lu(a @ b) == pytest.approx(
            det_lu(a) * det_lu(b), rel=1e-9, abs=1e-12
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
        assert expansion == pytest.approx(det_lu(a), rel=1e-11)

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
        assert count_inertia(sym_eigen(a).eigenvalues).as_tuple() == (1, 1, 0)

    def test_zero_matrix(self):
        assert count_inertia(sym_eigen(np.zeros((3, 3))).eigenvalues).as_tuple() == (
            0,
            0,
            3,
        )

    def test_explicit_zero_tol(self):
        assert count_inertia([1.0, 1e-6], zero_tol=1e-3).as_tuple() == (1, 0, 1)


class TestDefaults:
    def test_default_rank_tol_scales_with_order(self):
        assert default_rank_tol(1) == EPS
        assert default_rank_tol(10) == 10 * EPS
        assert default_rank_tol(0) == EPS
