"""Tests for the resistance workspace: blocks, closed forms, spectra.

Hand-checked values for the 2-path, 3-path, and triangle anchor the suite;
random graphs exercise every identity against independent routes (spectral
pseudoinverse, brute-force LU inversion, path sums on trees).
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmat import linalg, resistance
from resmat.graph import (
    adjacency,
    complete_graph,
    cycle_graph,
    from_edges,
    path_graph,
    random_graph,
    random_pd_weight,
)
from resmat.laplacian import (
    _add_shift,
    build_incidence,
    build_laplacian,
    laplacian_cofactor_slog,
    shifted_cholesky,
    stacked_identity,
)
from resmat.linalg import (
    NumericError,
    max_norm,
    pseudo_inverse,
    sym_eigenvalues,
    symmetrize,
    value_from_slog,
)
from resmat.resistance import (
    CONDITION_CONFIDENCE_LIMIT,
    INTERLACE_SLACK_RTOL,
    InterlaceRow,
    ResistanceWorkspace,
    _LEAF_ORDER,
    _invert_lower,
)
from resmat.verify import run_suite, standard_corpus


def _shift(body, n, s, scale=1.0):
    """``body + scale P`` with ``P = (1/n) J (x) I_s``, as a new array."""
    shifted = body.copy()
    _add_shift(shifted, n, s, scale)
    return shifted


@pytest.fixture(scope="module")
def p2():
    return ResistanceWorkspace(path_graph(2))


@pytest.fixture(scope="module")
def p3():
    return ResistanceWorkspace(path_graph(3))


@pytest.fixture(scope="module")
def k3():
    return ResistanceWorkspace(complete_graph(3))


def resistance_from_pseudoinverse(pinv, s):
    """Textbook definition route, block by block:
    ``R_{ij} = K_ii + K_jj - 2 K_ij`` from pseudoinverse blocks."""
    n = pinv.shape[0] // s
    k = pinv.reshape(n, s, n, s)
    body = np.zeros_like(pinv)
    for i in range(n):
        kii = k[i, :, i, :]
        for j in range(n):
            body[i * s : (i + 1) * s, j * s : (j + 1) * s] = (
                kii + k[j, :, j, :] - 2.0 * k[i, :, j, :]
            )
    return body


def tree_path_blocks(g, start, goal):
    """Sum of edge weight matrices along the unique tree path start -> goal."""
    table = adjacency(g)
    stack = [(start, -1, np.zeros((g.s, g.s)))]
    while stack:
        vertex, parent, total = stack.pop()
        if vertex == goal:
            return total
        for neighbor, edge_index in table[vertex]:
            if neighbor != parent:
                weight = g.edges[edge_index].weight
                stack.append((neighbor, vertex, total + weight))
    raise AssertionError("tree path not found")


class TestHandValuesP2:
    """Unit 2-path: every object is known exactly."""

    def test_shifted_inverse(self, p2):
        expected = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert max_norm(p2.shifted_inverse - expected) <= 1e-14

    def test_pseudoinverse(self, p2):
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert max_norm(p2.pseudoinverse() - expected) <= 1e-14

    def test_resistance(self, p2):
        expected = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert max_norm(p2.resistance - expected) <= 1e-14

    def test_deficit(self, p2):
        assert max_norm(p2.deficit - np.array([[1.0], [1.0]])) <= 1e-14

    def test_deficit_form(self, p2):
        assert p2.deficit_form[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_determinant(self, p2):
        # n = 2, s = 1: (-1)^1 2^{-1} det([2]) / 1 = -1.
        assert p2.determinant() == pytest.approx(-1.0, rel=1e-14)
        assert np.linalg.det(p2.resistance) == pytest.approx(-1.0, rel=1e-14)

    def test_determinant_slog(self, p2):
        sign, log_abs = p2.determinant_slog()
        assert sign == -1.0
        assert log_abs == pytest.approx(0.0, abs=1e-14)

    def test_inverse(self, p2):
        expected = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert max_norm(p2.inverse() - expected) <= 1e-14

    def test_inertia(self, p2):
        assert p2.inertia().as_tuple() == (1, 1, 0)

    def test_interlacing_is_tight(self, p2):
        rows = p2.interlacing()
        assert len(rows) == 1
        row = rows[0]
        # lambda_1 = 2, so the bound -2/2 = -1 equals both resistance
        # eigenvalues mu_1 = 1? No: mu = {1, -1}; the row is
        # mu_2 <= -1 <= mu_1 with mu_2 = -1 exactly.
        assert row.index == 1
        assert row.bound == pytest.approx(-1.0, abs=1e-12)
        assert row.lower == pytest.approx(-1.0, abs=1e-12)
        assert row.upper == pytest.approx(1.0, abs=1e-12)
        assert row.holds

    def test_cofactor(self, p2):
        cofactor = value_from_slog(*p2.laplacian_cofactor_slog)
        assert cofactor == pytest.approx(1.0, rel=1e-14)


class TestHandValuesP3:
    """Unit 3-path: resistance equals hop distance."""

    def test_resistance_is_distance(self, p3):
        expected = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert max_norm(p3.resistance - expected) <= 1e-13

    def test_deficit(self, p3):
        assert max_norm(p3.deficit - np.array([[1.0], [0.0], [1.0]])) <= 1e-13

    def test_deficit_form(self, p3):
        assert p3.deficit_form[0, 0] == pytest.approx(4.0, abs=1e-13)

    def test_determinant(self, p3):
        # (-1)^2 2^0 det([4]) / 1 = 4.
        assert p3.determinant() == pytest.approx(4.0, rel=1e-13)
        assert np.linalg.det(p3.resistance) == pytest.approx(4.0, rel=1e-12)

    def test_inertia(self, p3):
        assert p3.inertia().as_tuple() == (1, 2, 0)


class TestHandValuesK3:
    """Unit triangle: fully symmetric, everything known in closed form."""

    def test_resistance(self, k3):
        r = k3.resistance
        expected = (2.0 / 3.0) * (np.ones((3, 3)) - np.eye(3))
        assert max_norm(r - expected) <= 1e-13

    def test_deficit(self, k3):
        assert max_norm(k3.deficit - (2.0 / 3.0) * np.ones((3, 1))) <= 1e-13

    def test_deficit_form(self, k3):
        assert k3.deficit_form[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-13)

    def test_cofactor_counts_spanning_trees(self, k3):
        cofactor = value_from_slog(*k3.laplacian_cofactor_slog)
        assert cofactor == pytest.approx(3.0, rel=1e-13)

    def test_determinant(self, k3):
        # (-1)^2 2^0 (16/9) / 3 = 16/27.
        assert k3.determinant() == pytest.approx(16.0 / 27.0, rel=1e-13)
        assert np.linalg.det(k3.resistance) == pytest.approx(16.0 / 27.0, rel=1e-12)

    def test_inverse(self, k3):
        inverse = k3.inverse()
        expected = 0.75 * (np.ones((3, 3)) - np.eye(3)) - 0.75 * np.eye(3) * 0.0
        expected = np.full((3, 3), 0.75)
        np.fill_diagonal(expected, -0.75)
        assert max_norm(inverse - expected) <= 1e-13

    def test_inertia(self, k3):
        assert k3.inertia().as_tuple() == (1, 2, 0)


class TestWorkspaceStructure:
    @pytest.mark.parametrize(
        "name", ["laplacian_eigenvalues", "resistance_eigenvalues"]
    )
    def test_cached_spectra_are_read_only(self, name):
        ws = ResistanceWorkspace(cycle_graph(5, 2))
        with pytest.raises(ValueError):
            getattr(ws, name)[:] = 1.0
        assert ws.inertia().as_tuple() == (2, 8, 0)

    def test_resistance_diag_blocks_vanish(self):
        ws = ResistanceWorkspace(random_graph(5, 3, "complete", seed=40))
        for i in range(5):
            assert max_norm(ws.resistance_block(i, i)) <= 1e-12

    def test_resistance_symmetric_blockwise(self):
        ws = ResistanceWorkspace(random_graph(6, 2, "gnp", seed=41, p=0.6))
        r = ws.resistance
        assert max_norm(r - r.T) <= 1e-12 * (1.0 + max_norm(r))
        # Block symmetry too: R_ij = R_ji' (each block is symmetric here
        # because X is symmetric, so R_ij' = R_ij as well).
        for i in range(6):
            for j in range(6):
                gap = max_norm(ws.resistance_block(i, j) - ws.resistance_block(j, i).T)
                assert gap <= 1e-12 * (1.0 + max_norm(r))

    def test_resistance_matches_blockwise_definition_bitwise(self):
        # The broadcast assembly computes X_ii + X_jj - 2 X_ij in the same
        # order as a block-by-block loop over the same X.
        ws = ResistanceWorkspace(random_graph(7, 2, "gnp", seed=47, p=0.6))
        x = ws.shifted_inverse.reshape(7, 2, 7, 2)
        expected = np.zeros_like(ws.resistance)
        for i in range(7):
            for j in range(7):
                expected[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = (
                    x[i, :, i, :] + x[j, :, j, :] - 2.0 * x[i, :, j, :]
                )
        assert np.array_equal(ws.resistance, expected)

    def test_resistance_block_returns_copy(self):
        ws = ResistanceWorkspace(path_graph(3))
        block = ws.resistance_block(0, 1)
        block[0, 0] = 77.0
        assert ws.resistance_block(0, 1)[0, 0] != 77.0

    def test_pseudoinverse_matches_spectral_route(self):
        ws = ResistanceWorkspace(random_graph(6, 2, "tree", seed=42))
        spectral = pseudo_inverse(ws.laplacian)
        gap = max_norm(ws.pseudoinverse() - spectral)
        assert gap <= 1e-9 * (1.0 + max_norm(spectral))

    def test_definition_route_matches_workspace(self):
        ws = ResistanceWorkspace(random_graph(5, 2, "gnp", seed=43, p=0.7))
        direct = resistance_from_pseudoinverse(ws.pseudoinverse(), ws.graph.s)
        assert max_norm(direct - ws.resistance) <= 1e-10 * (
            1.0 + max_norm(ws.resistance)
        )

    def test_diag_stack_assembly_expression(self):
        # R also equals Xbar (J (x) I) + (J (x) I) Xbar - 2 X with Xbar the
        # block diagonal of the shifted inverse; the blockwise build must
        # agree with this matrix-level expression.
        ws = ResistanceWorkspace(random_graph(5, 2, "complete", seed=46))
        n, s = ws.graph.n, ws.graph.s
        ones_kron = np.kron(np.ones((n, n)), np.eye(s))
        xbar = np.zeros((n * s, n * s))
        vertices = np.arange(n)
        xbar.reshape(n, s, n, s)[vertices, :, vertices, :] = ws.diag_stack.reshape(
            n, s, s
        )
        expression = xbar @ ones_kron + ones_kron @ xbar - 2.0 * ws.shifted_inverse
        gap = max_norm(expression - ws.resistance)
        assert gap <= 1e-10 * (1.0 + max_norm(ws.resistance))

    def test_definition_route_from_spectral_pinv(self):
        ws = ResistanceWorkspace(random_graph(5, 2, "cycle", seed=44))
        spectral = pseudo_inverse(ws.laplacian)
        direct = resistance_from_pseudoinverse(spectral, ws.graph.s)
        assert max_norm(direct - ws.resistance) <= 1e-9 * (
            1.0 + max_norm(ws.resistance)
        )

    def test_deficit_blocks_sum_to_two_identity(self):
        # T' (1 (x) I_s) = 2 I_s: the deficit blocks always sum to 2 I.
        ws = ResistanceWorkspace(random_graph(7, 3, "gnp", seed=45, p=0.5))
        ones = stacked_identity(ws.graph.n, ws.graph.s)
        total = ws.deficit.T @ ones
        assert max_norm(total - 2.0 * np.eye(3)) <= 1e-10

    def test_condition_and_confidence(self):
        ws = ResistanceWorkspace(path_graph(2))
        # Shift spectrum of the unit 2-path is {2, 1}.
        assert ws.condition == pytest.approx(2.0, rel=1e-12)
        assert not ws.low_confidence
        assert CONDITION_CONFIDENCE_LIMIT == 1e12

    def test_interlace_row_dataclass(self):
        row = InterlaceRow(1, -1.0, -0.5, 2.0, True)
        assert (row.index, row.lower, row.bound, row.upper) == (1, -1.0, -0.5, 2.0)
        assert row.holds


class TestLaplacianAnnihilation:
    """L R L = -2 L, L R + 2 I = T (1' (x) I), (L R + 2 I) annihilates T."""

    @pytest.mark.parametrize("seed,model,n,s,p", [
        (50, "tree", 6, 2, None),
        (51, "cycle", 5, 3, None),
        (52, "gnp", 6, 2, 0.6),
        (53, "complete", 5, 2, None),
    ])
    def test_sandwich(self, seed, model, n, s, p):
        ws = ResistanceWorkspace(random_graph(n, s, model, seed=seed, p=p))
        lap = ws.laplacian
        gap = max_norm(lap @ ws.resistance @ lap + 2.0 * lap)
        assert gap <= 1e-8 * (1.0 + max_norm(lap))

    @pytest.mark.parametrize("seed", [54, 55])
    def test_lr_plus_two_identity_factors_through_deficit(self, seed):
        # L R + 2 I_{ns} = T (1' (x) I_s): the rank-s correction to -2 I.
        ws = ResistanceWorkspace(random_graph(6, 2, "gnp", seed=seed, p=0.6))
        n, s = ws.graph.n, ws.graph.s
        ones = stacked_identity(n, s)
        left = ws.laplacian @ ws.resistance + 2.0 * np.eye(n * s)
        right = ws.deficit @ ones.T
        scale = 1.0 + max_norm(left)
        assert max_norm(left - right) <= 1e-8 * scale

    @pytest.mark.parametrize("seed", [56, 57])
    def test_lr_annihilates_deficit(self, seed):
        # (L R + 2 I) T = 2 T, equivalently L R T = 0.
        ws = ResistanceWorkspace(random_graph(5, 3, "tree", seed=seed))
        product = ws.laplacian @ ws.resistance @ ws.deficit
        scale = 1.0 + max_norm(ws.resistance) * max_norm(ws.laplacian)
        assert max_norm(product) <= 1e-8 * scale


class TestClosedForms:
    @pytest.mark.parametrize("seed,model,n,s,p", [
        (60, "tree", 5, 1, None),
        (61, "tree", 6, 3, None),
        (62, "cycle", 6, 2, None),
        (63, "gnp", 7, 2, 0.5),
        (64, "complete", 5, 3, None),
    ])
    def test_determinant_matches_lu(self, seed, model, n, s, p):
        ws = ResistanceWorkspace(random_graph(n, s, model, seed=seed, p=p))
        closed = ws.determinant()
        brute = np.linalg.det(ws.resistance)
        assert closed == pytest.approx(brute, rel=1e-9)

    def test_determinant_slog_matches(self):
        import math

        ws = ResistanceWorkspace(random_graph(7, 3, "complete", seed=65))
        sign, log_abs = ws.determinant_slog()
        plain = ws.determinant()
        assert sign == np.sign(plain)
        assert log_abs == pytest.approx(math.log(abs(plain)), rel=1e-12)

    @pytest.mark.parametrize("n, sign", [(40, -1.0), (41, 1.0)])
    def test_determinant_beyond_double_range_is_signed_inf(self, n, sign):
        # |det R| = 2^(n-2) 1e10^(n-1) (n-1) 1e10 is far above the largest
        # double; the sign is (-1)^(n-1).  Any warning fails the test.
        ws = ResistanceWorkspace(path_graph(n, 1, np.array([[1e10]])))
        assert ws.determinant() == sign * np.inf
        assert ws.determinant_slog()[0] == sign

    @pytest.mark.parametrize("seed,model,n,s,p", [
        (66, "tree", 6, 2, None),
        (67, "gnp", 6, 3, 0.6),
    ])
    def test_inverse_against_identity(self, seed, model, n, s, p):
        ws = ResistanceWorkspace(random_graph(n, s, model, seed=seed, p=p))
        product = ws.inverse() @ ws.resistance
        assert max_norm(product - np.eye(n * s)) <= 1e-8

    @pytest.mark.parametrize("seed", [68, 69])
    def test_inverse_against_lu_inversion(self, seed):
        ws = ResistanceWorkspace(random_graph(6, 2, "cycle", seed=seed))
        closed = ws.inverse()
        brute = np.linalg.solve(ws.resistance, np.eye(12))
        assert max_norm(closed - brute) <= 1e-7 * (1.0 + max_norm(closed))

    @pytest.mark.parametrize("seed,model,n,s,p", [
        (70, "tree", 7, 2, None),
        (71, "complete", 5, 3, None),
        (72, "gnp", 6, 1, 0.7),
    ])
    def test_deficit_form_closed_expression(self, seed, model, n, s, p):
        ws = ResistanceWorkspace(random_graph(n, s, model, seed=seed, p=p))
        direct = ws.deficit.T @ ws.resistance @ ws.deficit
        closed = ws.deficit_form
        assert max_norm(direct - closed) <= 1e-9 * (1.0 + max_norm(direct))

    def test_deficit_form_positive_definite(self):
        for seed in (73, 74):
            ws = ResistanceWorkspace(random_graph(6, 3, "gnp", seed=seed, p=0.6))
            values = sym_eigenvalues(ws.deficit_form)
            assert float(values[-1]) > 0.0


class TestSpectralFacts:
    @pytest.mark.parametrize("seed,model,n,s,p", [
        (80, "tree", 5, 1, None),
        (81, "cycle", 5, 2, None),
        (82, "gnp", 6, 3, 0.5),
    ])
    def test_inertia_split(self, seed, model, n, s, p):
        ws = ResistanceWorkspace(random_graph(n, s, model, seed=seed, p=p))
        assert ws.inertia().as_tuple() == (s, n * s - s, 0)

    @pytest.mark.parametrize("seed,model,n,s,p", [
        (83, "tree", 6, 2, None),
        (84, "complete", 5, 2, None),
        (85, "gnp", 7, 1, 0.5),
    ])
    def test_interlacing_holds(self, seed, model, n, s, p):
        ws = ResistanceWorkspace(random_graph(n, s, model, seed=seed, p=p))
        rows = ws.interlacing()
        assert len(rows) == n * s - s
        assert all(row.holds for row in rows)

    def test_interlacing_row_structure(self):
        ws = ResistanceWorkspace(random_graph(5, 2, "tree", seed=86))
        lam = ws.laplacian_eigenvalues
        rows = ws.interlacing()
        for row in rows:
            assert row.bound == pytest.approx(-2.0 / float(lam[row.index - 1]))
            assert row.lower <= row.upper


class TestTreeResistance:
    """On trees the resistance block is the sum of path edge weights."""

    def test_unit_path_distances(self):
        ws = ResistanceWorkspace(path_graph(5))
        for i in range(5):
            for j in range(5):
                assert ws.resistance_block(i, j)[0, 0] == pytest.approx(
                    abs(i - j), abs=1e-12
                )

    @pytest.mark.parametrize("seed,n,s", [(90, 6, 1), (91, 7, 2), (92, 5, 3)])
    def test_path_sum_oracle(self, seed, n, s):
        g = random_graph(n, s, "tree", seed=seed)
        ws = ResistanceWorkspace(g)
        for i in range(n):
            for j in range(n):
                expected = tree_path_blocks(g, i, j)
                gap = max_norm(ws.resistance_block(i, j) - expected)
                assert gap <= 1e-10 * (1.0 + max_norm(expected))

    def test_series_law_two_edges(self):
        # Two edges in series: end-to-end resistance is the weight sum.
        w1 = np.array([[2.0, 0.5], [0.5, 1.0]])
        w2 = np.array([[3.0, -1.0], [-1.0, 2.0]])
        g = from_edges(3, 2, [(0, 1, w1), (1, 2, w2)])
        ws = ResistanceWorkspace(g)
        assert max_norm(ws.resistance_block(0, 2) - (w1 + w2)) <= 1e-12


class TestScalarSpecialization:
    def test_unit_weights_factor_as_kron(self):
        # With unit weights everything is the scalar object (x) I_s.
        scalar = ResistanceWorkspace(cycle_graph(5))
        blocked = ResistanceWorkspace(cycle_graph(5, 3))
        expected = np.kron(scalar.resistance, np.eye(3))
        assert max_norm(blocked.resistance - expected) <= 1e-12

    def test_effective_resistance_parallel_edges(self):
        # Triangle with one heavy edge: r_12 = w (w + w) / (w + 2w) series
        # parallel rule; check against the classic formula
        # r_uv = (direct) * (detour) / (direct + detour) for a 3-cycle.
        w = np.array([[4.0]])
        g = from_edges(3, 1, [(0, 1, w), (1, 2, np.eye(1)), (0, 2, np.eye(1))])
        ws = ResistanceWorkspace(g)
        # Paths between 1 and 2 (0-based 0,1): direct 4, detour 1 + 1 = 2;
        # parallel: 4 * 2 / 6 = 4/3.
        assert ws.resistance_block(0, 1)[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


class TestPropertyBased:
    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=7),
        s=st.integers(min_value=1, max_value=3),
    )
    def test_random_tree_invariants(self, seed, n, s):
        ws = ResistanceWorkspace(random_graph(n, s, "tree", seed=seed))
        lap = ws.laplacian
        r = ws.resistance
        scale = 1.0 + max_norm(lap) * max_norm(r)
        assert max_norm(lap @ r @ lap + 2.0 * lap) <= 1e-8 * scale
        assert ws.inertia().as_tuple() == (s, n * s - s, 0)
        assert ws.determinant() == pytest.approx(np.linalg.det(r), rel=1e-8)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_gnp_determinant(self, seed):
        try:
            g = random_graph(6, 2, "gnp", seed=seed, p=0.5)
        except Exception:
            return
        ws = ResistanceWorkspace(g)
        assert ws.determinant() == pytest.approx(np.linalg.det(ws.resistance), rel=1e-8)


class TestTreeIncidence:
    def test_qrq_on_trees(self):
        # Q' R Q = -2 I holds exactly when the incidence matrix has full
        # column rank, i.e. on trees.
        for seed in (95, 96):
            g = random_graph(6, 2, "tree", seed=seed)
            ws = ResistanceWorkspace(g)
            q = build_incidence(g)
            product = q.T @ ws.resistance @ q
            gap = max_norm(product + 2.0 * np.eye(q.shape[1]))
            assert gap <= 1e-8

    def test_qrq_fails_off_trees(self):
        # The triangle is the smallest counterexample: Q has a kernel, and
        # Q' R Q has it too, so it cannot equal -2 I.
        ws = ResistanceWorkspace(complete_graph(3))
        q = build_incidence(ws.graph)
        product = q.T @ ws.resistance @ q
        assert max_norm(product + 2.0 * np.eye(3)) > 0.5


class TestErrorPaths:
    def test_interlacing_slack_parameter(self):
        # P2: both ties land exactly in floating point, so they hold with no
        # slack at all.
        ws = ResistanceWorkspace(path_graph(2))
        (row,) = ws.interlacing()
        assert row.lower <= row.bound <= row.upper
        # Move the lower resistance eigenvalue to the edge of the fixed slack
        # band: on it the row holds, beyond it the row fails.
        slack = INTERLACE_SLACK_RTOL * (1.0 + abs(row.bound))
        for lower, holds in ((row.bound + slack, True), (row.bound + 2 * slack, False)):
            ws.resistance_eigenvalues = np.array([row.upper, lower])
            assert [r.holds for r in ws.interlacing()] == [holds]
        # P3 has a tie (mu_3 = -2 = -2/lambda_2) that Jacobi resolves only to
        # roundoff, so zero slack may flag it while the default slack holds.
        ws3 = ResistanceWorkspace(path_graph(3))
        assert all(row.holds for row in ws3.interlacing())

    def test_deficit_form_not_definite_is_refused(self, monkeypatch):
        # A shift understated by 1e20 puts -(8/n) I/alpha' into T' R T,
        # which the shared definiteness rule refuses.
        cholesky, rule, calls = resistance.shifted_cholesky, linalg._not_definite, []

        def understated(laplacian, n, s):
            factor, alpha, cofactor = cholesky(laplacian, n, s)
            return factor, 1e-20 * alpha, cofactor

        def counted(a):
            calls.append(a.shape)
            return rule(a)

        monkeypatch.setattr(resistance, "shifted_cholesky", understated)
        monkeypatch.setattr(linalg, "_not_definite", counted)
        with pytest.raises(NumericError) as exc:
            ResistanceWorkspace(path_graph(3, 2))
        assert calls == [(2, 2)]
        assert re.fullmatch(
            r"deficit quadratic form is not positive definite \(smallest "
            r"eigenvalue -\d\.\d{6}e\+\d\d\); this indicates an upstream "
            r"computation bug",
            str(exc.value),
        )

    def test_interlacing_refuses_a_nonpositive_laplacian_eigenvalue(self):
        ws = ResistanceWorkspace(path_graph(3))
        lam = ws.laplacian_eigenvalues.copy()
        lam[1] = 0.0
        ws.__dict__["laplacian_eigenvalues"] = lam
        with pytest.raises(NumericError) as exc:
            ws.interlacing()
        assert str(exc.value) == (
            "Laplacian eigenvalue 2 is not positive (0.000000e+00); "
            "rank deficiency exceeds the kernel dimension"
        )

    def test_workspace_graph_attribute(self):
        g = path_graph(4)
        ws = ResistanceWorkspace(g)
        assert ws.graph is g

    def test_near_singular_weight_rejected_upstream(self):
        # A weight this ill-conditioned still passes validation (it is PD),
        # and the workspace still builds; nothing blows up.
        w = np.array([[1.0, 0.0], [0.0, 1e-6]])
        g = from_edges(2, 2, [(0, 1, w)])
        ws = ResistanceWorkspace(g)
        assert max_norm(ws.resistance_block(0, 1) - w) <= 1e-9


def lu_shifted_inverse(g):
    """``M^{-1}`` for ``M = L + alpha P`` with ``alpha = tr(L)/ns``, by one
    LAPACK LU inverse, symmetrized."""
    laplacian = build_laplacian(g)
    alpha = np.trace(laplacian) / (g.n * g.s)
    x = np.linalg.inv(_shift(laplacian, g.n, g.s, alpha))
    symmetric = x + x.T
    symmetric /= 2.0
    return symmetric


def disjoint_paths_laplacian(first, second):
    """Laplacian of two vertex-disjoint unit paths (a disconnected graph,
    which graph validation would reject before any workspace sees it)."""
    body = np.zeros((first + second, first + second))
    body[:first, :first] = build_laplacian(path_graph(first))
    body[first:, first:] = build_laplacian(path_graph(second))
    return body


# Graphs above the leaf order (ns > 64): the 33-vertex s = 3 tree puts the
# first split (49 rows) inside a vertex block.
ABOVE_LEAF = [
    ("gnp", 40, 3, 0.3),
    ("tree", 200, 1, None),
    ("cycle", 65, 1, None),
    ("tree", 33, 3, None),
    ("gnp", 120, 2, 0.1),
]

# Graphs whose whole factor is one leaf (ns <= 64).
UP_TO_LEAF = [
    ("path", 2, 1, None),
    ("gnp", 12, 3, 0.5),
    ("tree", 21, 3, None),
    ("cycle", 32, 2, None),
    ("tree", 64, 1, None),
]


def kernel_graph(model, n, s, p):
    if model == "cycle":
        return cycle_graph(n, s)
    if model == "path":
        return path_graph(n, s)
    return random_graph(n, s, model, seed=1, p=p)


class TestShiftedInverseKernel:
    """The Cholesky verdict and the inverse built from its factor."""

    @pytest.mark.parametrize("order", [64, 65, 129, 300, 601])
    def test_lower_inverse_matches_lapack(self, order):
        # Graded rows make entries below the diagonal outgrow the pivots,
        # so LU with partial pivoting leaves roundoff above the diagonal.
        rng = np.random.default_rng(order)
        a = rng.standard_normal((order, order))
        grade = np.geomspace(1.0, 100.0, order)
        spd = (a @ a.T / order + np.eye(order)) * np.outer(grade, grade)
        factor = np.linalg.cholesky(spd)
        expected = np.linalg.inv(factor)
        z = factor.copy()
        _invert_lower(z)
        assert not np.triu(z, 1).any()
        assert max_norm(z - expected) <= 1e-13 * max_norm(expected)

    @pytest.mark.parametrize("model,n,s,p", UP_TO_LEAF + ABOVE_LEAF)
    def test_matches_lu_inverse(self, model, n, s, p):
        g = kernel_graph(model, n, s, p)
        laplacian = build_laplacian(g)
        alpha = np.trace(laplacian) / (n * s)
        assert np.linalg.cond(_shift(laplacian, n, s, alpha)) <= 1e5
        x = ResistanceWorkspace(g).shifted_inverse
        expected = lu_shifted_inverse(g)
        assert max_norm(x - expected) <= 1e-12 * max_norm(expected)

    @pytest.mark.parametrize("model,n,s,p", UP_TO_LEAF + ABOVE_LEAF)
    def test_exactly_symmetric(self, model, n, s, p):
        # Z'Z on one buffer runs as a symmetric rank-k update (SYRK), which
        # writes one triangle and mirrors it; the engine relies on this
        # instead of symmetrizing X.
        x = ResistanceWorkspace(kernel_graph(model, n, s, p)).shifted_inverse
        assert np.array_equal(x, x.T)

    @pytest.mark.parametrize("first,second", [(11, 12), (101, 102)])
    def test_disconnected_laplacian_is_singular(self, first, second):
        message = (
            "shifted Laplacian is numerically singular; "
            "the graph is not usably connected"
        )
        with pytest.raises(NumericError, match=f"^{message}$"):
            shifted_cholesky(
                disjoint_paths_laplacian(first, second), first + second, 1
            )

    @pytest.mark.parametrize("model,n,s,p", ABOVE_LEAF)
    def test_registry_passes_above_leaf(self, model, n, s, p):
        assert n * s > _LEAF_ORDER
        report = run_suite(kernel_graph(model, n, s, p))
        assert [c.check_id for c in report.checks if not c.passed] == []


def copy_route(g):
    """The shifted Laplacian factored in a copy of the frozen ``L``: the
    factor, ``alpha = tr(L)/ns`` and the cofactor from the pivots."""
    n, s = g.n, g.s
    laplacian = build_laplacian(g)
    alpha = float(np.trace(laplacian)) / (n * s)
    factor = np.linalg.cholesky(_shift(laplacian, n, s, alpha))
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return factor, alpha, (1.0, log_det - s * math.log(alpha * n))


#: The benchmark's dense and tree inputs at seed 11.
BENCH_GRAPHS = [(100, 3, "gnp", 11000, 0.25), (600, 1, "tree", 11000)]


class TestFactorInLaplacianBuffer:
    """The workspace shifts and factors a fresh ``L`` in place and then
    scatters ``L`` again from its terms: every result is bitwise that of
    factoring a copy of ``L``."""

    def test_same_bits_as_the_copy_route(self, corpus, monkeypatch):
        factors = []

        def recording(body, n, s):
            result = shifted_cholesky(body, n, s)
            factors.append(result[0].copy())  # before it is inverted in place
            return result

        monkeypatch.setattr(resistance, "shifted_cholesky", recording)
        graphs = [g for _, g in corpus] + [random_graph(*a) for a in BENCH_GRAPHS]
        for g in graphs:
            factors.clear()
            ws = ResistanceWorkspace(g)
            factor, alpha, cofactor = copy_route(g)
            assert ws.laplacian.tobytes() == build_laplacian(g).tobytes()
            assert factors[0].tobytes() == factor.tobytes()
            assert ws.shift_scale == alpha
            assert ws.laplacian_cofactor_slog == cofactor
            assert laplacian_cofactor_slog(g) == cofactor

    @pytest.mark.parametrize(
        "g",
        # Identity weights put -0.0 in L, which the shift makes 0.0; and
        # random weights, whose entries the shift rounds.
        [path_graph(4, 2), random_graph(12, 3, "gnp", seed=5, p=0.5)],
        ids=["signed-zeros", "rounding"],
    )
    def test_laplacian_back_where_subtracting_the_shift_is_not_exact(self, g):
        n, s = g.n, g.s
        laplacian = build_laplacian(g)
        alpha = float(np.trace(laplacian)) / (n * s)
        subtracted = _shift(_shift(laplacian, n, s, alpha), n, s, -alpha)
        assert subtracted.tobytes() != laplacian.tobytes()
        ws = ResistanceWorkspace(g)
        assert ws.laplacian.tobytes() == laplacian.tobytes()
        assert not ws.laplacian.flags.writeable

    def test_a_read_only_laplacian_is_not_written(self):
        g = random_graph(9, 2, "complete", seed=6)
        ws = ResistanceWorkspace(g)
        before = ws.laplacian.tobytes()
        assert laplacian_cofactor_slog(g, ws.laplacian) == ws.laplacian_cofactor_slog
        assert not ws.laplacian.flags.writeable
        assert ws.laplacian.tobytes() == before

    @pytest.mark.parametrize("n", [21, 201])
    def test_singular_refusal_unchanged(self, n):
        # Connected, but a 1e20 middle edge swamps the shift.
        weights = [np.eye(1)] * (n - 1)
        weights[(n - 1) // 2] = np.array([[1e20]])
        g = path_graph(n, 1, weights)
        message = (
            "shifted Laplacian is numerically singular; "
            "the graph is not usably connected"
        )
        for build in (ResistanceWorkspace, laplacian_cofactor_slog):
            with pytest.raises(NumericError, match=f"^{message}$"):
                build(g)


def lu_minor_cofactor_slog(laplacian, s):
    """The Laplacian cofactor from the LU of the minor left by deleting
    block row and column 0."""
    return np.linalg.slogdet(laplacian[s:, s:])


class TestRFreeRoute:
    """The closed forms come from the Cholesky factor alone; ``X`` and
    ``R`` are built only when asked for, and agree with them."""

    @pytest.mark.parametrize("model,n,s,p", UP_TO_LEAF + ABOVE_LEAF)
    def test_matches_routes_through_r(self, model, n, s, p):
        g = kernel_graph(model, n, s, p)
        ws = ResistanceWorkspace(g)
        lap, t = ws.laplacian, ws.deficit
        r = ws.resistance

        def close(a, b):
            return max_norm(a - b) <= 1e-12 * max_norm(b)

        form = t.T @ r @ t
        assert close(ws.deficit_form, form)
        x = ws.shifted_inverse.reshape(n, s, n, s)
        xbar = x[np.arange(n), :, np.arange(n), :].reshape(n * s, s)
        assert close(t, lap @ xbar + (2.0 / n) * stacked_identity(n, s))

        cof_sign, cof_log = lu_minor_cofactor_slog(lap, s)
        sign, got = ws.laplacian_cofactor_slog
        assert sign == cof_sign == 1.0
        assert abs(got - cof_log) <= 1e-12 * max(1.0, abs(cof_log))

        form_sign, form_log = np.linalg.slogdet(form)
        expected = (n - 3) * s * np.log(2.0) + form_log - cof_log
        sign, got = ws.determinant_slog()
        assert sign == (-1.0) ** ((n - 1) * s) * form_sign
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

        assert close(ws.inverse(), -0.5 * lap + t @ np.linalg.solve(form, t.T))
        blocks = r.reshape(n, s, n, s)
        for i, j in ((0, n - 1), (n - 1, 0), (n // 2, n // 3), (1, 1)):
            assert max_norm(ws.resistance_block(i, j) - blocks[i, :, j, :]) <= (
                1e-12 * max_norm(r)
            )

    @pytest.mark.parametrize("model,n,s,p", [UP_TO_LEAF[1], ABOVE_LEAF[0]])
    def test_closed_forms_leave_x_and_r_unbuilt(self, model, n, s, p):
        ws = ResistanceWorkspace(kernel_graph(model, n, s, p))
        ws.determinant_slog()
        ws.determinant()
        ws.inverse()
        ws.resistance_block(0, n - 1)
        assert "resistance" not in ws.__dict__
        assert "shifted_inverse" not in ws.__dict__
        # R lets go of the X it was built from; X built later is the same.
        r = ws.resistance
        assert "shifted_inverse" not in ws.__dict__
        x = ws.shifted_inverse.reshape(n, s, n, s)
        diagonal = x[np.arange(n), :, np.arange(n), :]
        expected = diagonal[:, :, np.newaxis, :] + diagonal.transpose(1, 0, 2) - 2.0 * x
        assert np.array_equal(r, expected.reshape(n * s, n * s))

    def test_pinv_and_r_are_x_shifted_and_assembled_bit_for_bit(self, corpus):
        # L^+ and R are each built in the buffer of a fresh Z'Z: bit for bit
        # X shifted by -1/alpha and R's whole-array expression in X, whether
        # X was read before them or not.
        for g in [g for _, g in corpus] + [random_graph(*a) for a in BENCH_GRAPHS]:
            n, s = g.n, g.s
            cold, warm = ResistanceWorkspace(g), ResistanceWorkspace(g)
            x = warm.shifted_inverse
            pinv = _shift(x, n, s, -1.0 / warm.shift_scale)
            blocks = x.reshape(n, s, n, s)
            diagonal = blocks[np.arange(n), :, np.arange(n), :]
            r = diagonal[:, :, np.newaxis, :] + diagonal.transpose(1, 0, 2) - 2.0 * blocks
            for ws in (cold, warm):
                assert ws.pseudoinverse().tobytes() == pinv.tobytes()
                assert ws.resistance.tobytes() == r.tobytes()
            assert "shifted_inverse" not in cold.__dict__

    @pytest.mark.parametrize("entries", [1, 200, 1000])
    @pytest.mark.parametrize("model,n,s,p", [UP_TO_LEAF[1], *ABOVE_LEAF[:2]])
    def test_banded_passes_are_the_whole_array_expressions(
        self, monkeypatch, model, n, s, p, entries
    ):
        # R and R^-1 are built one band at a time; with bands down to one
        # block row each, they are the whole-array expressions bit for bit,
        # R whether X was cached before it or not.
        monkeypatch.setattr(resistance, "_BAND_ENTRIES", entries)
        g = kernel_graph(model, n, s, p)
        built = ResistanceWorkspace(g).resistance
        ws = ResistanceWorkspace(g)
        x = ws.shifted_inverse.reshape(n, s, n, s)
        diagonal = x[np.arange(n), :, np.arange(n), :]
        expected = diagonal[:, :, np.newaxis, :] + diagonal.transpose(1, 0, 2) - 2.0 * x
        assert built.tobytes() == expected.tobytes() == ws.resistance.tobytes()

        f = -0.5 * ws.laplacian
        f += ws.deficit @ np.linalg.solve(ws.deficit_form, ws.deficit.T)
        assert ws.inverse().tobytes() == linalg.symmetric_mean(f).tobytes()

    def test_pair_blocks_agree_with_r_to_the_dot_product_error(self, corpus):
        """``resistance_block(i, j)`` and block ``(i, j)`` of ``R`` are both
        ``X_ii + X_jj - 2 X_ij``, but each entry of ``X`` there is a dot
        product of two columns of ``Z`` (length ``ns``) summed in another
        order: the block's come from its own products, ``R``'s from the one
        product ``Z' Z``.  A dot product of columns ``a`` and ``b`` is
        within ``gamma_ns sum_k |Z_ka Z_kb| <= gamma_ns ||Z_a|| ||Z_b||`` of
        the exact one (Higham, *Accuracy and Stability of Numerical
        Algorithms*, section 3.1, and Cauchy-Schwarz), and the two roundings
        of ``a + b - 2c`` make it ``gamma_{ns+2}``.  So entry ``(p, q)`` of
        either route is within ``gamma_{ns+2}`` times
        ``sqrt(x_ip x_iq) + sqrt(x_jp x_jq) + 2 sqrt(x_ip x_jq)`` of the
        exact block, with ``x_a = ||Z_a||^2`` the exact diagonal of ``X``,
        at most the computed one over ``1 - gamma_ns``; the routes differ
        by at most twice that, and need not agree bit for bit."""
        unit = np.finfo(np.float64).eps / 2.0

        def gamma(k):
            return k * unit / (1.0 - k * unit)

        for _, g in corpus:
            ws = ResistanceWorkspace(g)
            n, s = g.n, g.s
            order = n * s
            # sqrt(x_a) for a = (i, p), from the diagonal blocks of X.
            root = np.sqrt(ws.diag_stack.reshape(n, s, s).diagonal(axis1=1, axis2=2))
            blocks = ws.resistance.reshape(n, s, n, s)
            factor = 2.0 * gamma(order + 2) / (1.0 - gamma(order))
            for i in range(n):
                for j in range(n):
                    scale = (
                        np.outer(root[i], root[i])
                        + np.outer(root[j], root[j])
                        + 2.0 * np.outer(root[i], root[j])
                    )
                    gap = np.abs(ws.resistance_block(i, j) - blocks[i, :, j, :])
                    assert (gap <= factor * scale).all(), (g.n, g.s, i, j)

    def test_scale_invariant_objects(self):
        # alpha cancels from R and T; scaling every weight by c scales R
        # by c and leaves T alone.
        g = random_graph(9, 2, "gnp", seed=3, p=0.5)
        scaled = from_edges(g.n, g.s, [(e.u, e.v, 1e6 * e.weight) for e in g.edges])
        ws, big = ResistanceWorkspace(g), ResistanceWorkspace(scaled)
        assert big.shift_scale == pytest.approx(1e-6 * ws.shift_scale, rel=1e-14)
        assert max_norm(big.resistance - 1e6 * ws.resistance) <= 1e-9 * max_norm(
            big.resistance
        )
        assert max_norm(big.deficit - ws.deficit) <= 1e-12


class TestSpectrumMoments:
    """The spectra that ``compute interlace`` prints, against two moments
    of their matrix: ``sum lambda_i = tr A`` and ``sum lambda_i^2 =
    ||A||_F^2``, for ``A = L`` and ``A = R`` of order ``k = ns``.  No
    registry check sees an error there: ``INERTIA`` counts signs and
    ``INTERLACE`` tests inequalities with slack.

    The bound.  ``eigvalsh`` is backward stable: its values are the exact
    eigenvalues of ``A + E`` with ``||E||_2 <= p(k) eps ||A||_2``, for a
    modest function ``p`` of the order.  By Weyl's inequality each
    computed value is within ``||E||_2`` of the exact one, so, summed over
    ``k`` values, the first moment is off by at most ``k p eps ||A||_2``
    and the second, since ``|mu^2 - lambda^2| = |mu - lambda| |mu +
    lambda|``, by at most ``k p eps ||A||_2 (2 + p eps) ||A||_2``.  Each
    side is summed by ``math.fsum``, correctly rounded, after one rounding
    per square: that adds at most ``k eps ||A||_2`` to the first moment
    and ``2 k eps ||A||_2^2`` to the second.  With ``M = max|lambda|``
    for ``||A||_2``, the residuals are at most ``p + 1`` units of
    ``k eps M`` and ``2p + 2`` units of ``k eps M^2``; the test allows one
    unit more for the second-order terms.  It takes ``p(k) = k``: worst-
    case rounding analyses of the Householder reduction bound ``p`` by a
    low power of ``k``, while LAPACK's own error estimate takes ``p = 1``.
    ``tr R`` is exactly 0: each diagonal block of ``R`` is ``2 X_ii - 2
    X_ii``.

    What the moments see: an error ``d`` in one eigenvalue ``lambda_j``
    moves the first moment by ``d`` and the second by about ``2 lambda_j
    d``.  A relative error ``r`` in the largest eigenvalue reads ``r / (k
    eps)`` units, but an error in a small eigenvalue shows only in
    proportion to its size, ``r |lambda_j| / (k eps M)`` units."""

    @staticmethod
    def residual_units(a, values):
        k = a.shape[0]
        top = float(np.abs(values).max())
        unit = k * np.finfo(np.float64).eps * top
        first = math.fsum(values.tolist()) - math.fsum(a.diagonal().tolist())
        second = math.fsum((values * values).tolist()) - math.fsum(
            (a * a).ravel().tolist()
        )
        return abs(first) / unit, abs(second) / (unit * top)

    @staticmethod
    def bounds(k):
        return k + 2, 2 * k + 3

    def test_spectra_within_the_backward_error_bound(self, corpus_workspaces):
        workspaces = [ws for _, _, ws in corpus_workspaces]
        workspaces += [ResistanceWorkspace(random_graph(*a)) for a in BENCH_GRAPHS]
        for ws in workspaces:
            assert not ws.resistance.diagonal().any()
            bound_first, bound_second = self.bounds(ws.laplacian.shape[0])
            for a, values in (
                (ws.laplacian, ws.laplacian_eigenvalues),
                (ws.resistance, ws.resistance_eigenvalues),
            ):
                first, second = self.residual_units(a, values)
                assert first <= bound_first and second <= bound_second, (
                    ws.graph.n, ws.graph.s, first, second
                )

    @pytest.mark.parametrize("index", [0, 13], ids=["top", "middle"])
    def test_an_eigenvalue_off_by_1e_6_fails(self, index):
        # The tree n=9 s=3 (k = 27): R's largest eigenvalue, 41.1, then off
        # by 1.7e8 units on the first moment, and its 14th, -0.97, by 3.9e6.
        ws = ResistanceWorkspace(random_graph(9, 3, "tree", 1))
        values = ws.resistance_eigenvalues.copy()
        values[index] *= 1.0 + 1e-6
        first, second = self.residual_units(ws.resistance, values)
        bound_first, bound_second = self.bounds(27)
        assert first > bound_first and second > bound_second


def test_means_bitwise_equal_to_written_out_expressions():
    # The means of a matrix and its transpose, all taken by
    # linalg.symmetric_mean, against the expressions each site used to
    # write out, on every graph of the standard corpus.
    for _, g in standard_corpus():
        ws = ResistanceWorkspace(g)
        f = -0.5 * ws.laplacian
        f += ws.deficit @ np.linalg.solve(ws.deficit_form, ws.deficit.T)
        assert ws.inverse().tobytes() == ((f + f.T) / 2.0).tobytes()

        values, vectors = np.linalg.eigh(g.weights)
        root = (vectors * (1.0 / np.sqrt(values))[..., None, :]) @ np.swapaxes(
            vectors, -1, -2
        )
        roots = (root + np.swapaxes(root, -1, -2)) / 2.0
        q = np.zeros((g.n * g.s, g.m * g.s))
        blocks = q.reshape(g.n, g.s, g.m, g.s)
        for k, (u, v) in enumerate(g.endpoints.tolist()):
            blocks[u, :, k, :] = roots[k]
            blocks[v, :, k, :] = -roots[k]
        assert build_incidence(g).tobytes() == q.tobytes()

        if g.s == 1:
            values, vectors = np.linalg.eigh(symmetrize(ws.laplacian))
            values, v = values[::-1], np.ascontiguousarray(vectors[:, ::-1])
            band = g.n * np.finfo(float).eps * float(np.max(np.abs(values)))
            keep = values > band
            inverted = np.zeros(g.n)
            inverted[keep] = 1.0 / values[keep]
            h = (v * inverted) @ v.T
            expected = (h + h.T) / 2.0
            assert pseudo_inverse(ws.laplacian).tobytes() == expected.tobytes()
