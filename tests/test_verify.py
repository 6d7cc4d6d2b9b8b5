"""Tests for the check registry, oracles, suite runner, and corpus."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from resmat.graph import (
    GraphError,
    complete_graph,
    cycle_graph,
    from_edges,
    path_graph,
    random_graph,
    star_graph,
)
from resmat import linalg, verify
from resmat.laplacian import _add_shift, build_incidence, build_laplacian
from resmat.linalg import (
    DimensionError,
    NumericError,
    max_norm,
    symmetrize,
)
from resmat.cli import main
from resmat.resistance import InterlaceRow, ResistanceWorkspace
from resmat.verify import (
    CHECK_IDS,
    CheckResult,
    CorpusEntry,
    GraphSpec,
    SuiteReport,
    UnknownCheckError,
    corpus_json,
    run_check,
    run_corpus,
    run_suite,
    scalar_resistance_oracle,
    standard_corpus,
    tree_distance_matrix,
)


def _shift(body, n, s, scale=1.0):
    """``body + scale P`` with ``P = (1/n) J (x) I_s``, as a new array."""
    shifted = body.copy()
    _add_shift(shifted, n, s, scale)
    return shifted


def bitwise_symmetric(a: np.ndarray) -> bool:
    """True when the float64 ``a`` equals ``a'`` bit for bit, signed zeros included."""
    return np.array_equal(a.view(np.int64), a.T.view(np.int64))


def numerically_nonsingular(b) -> bool:
    """``PINV_SUBMATRIX``'s rule on the symmetrized ``b``."""
    return verify._nonsingular(symmetrize(b))


#: The error of a corpus entry that is not an object with every required key.
MISSING_KEYS = (
    "corpus entry #1 must be an object with at least the keys model, n, s, seed"
)

EXPECTED_IDS = (
    "LAP_KERNEL",
    "L_EQ_QQT",
    "SHIFT_NONSING",
    "LPLUS",
    "COMMUTE",
    "TAUDEF",
    "TAU_SUM",
    "RWIDEN",
    "LRL",
    "QRQ",
    "TAURTAU_PD",
    "TAURTAU_FORM",
    "DET_FORMULA",
    "INV_FORMULA",
    "INERTIA",
    "INTERLACE",
    "COFACTOR_EQ",
    "PINV_SUBMATRIX",
    "SCALAR_REDUCTION",
    "TREE_DISTANCE",
    "TREE_DET",
)


class TestRegistry:
    def test_check_ids_fixed(self):
        assert CHECK_IDS == EXPECTED_IDS

    def test_run_check_unknown_id(self):
        message = f"^unknown check id\\(s\\): BOGUS; known: {', '.join(CHECK_IDS)}$"
        with pytest.raises(UnknownCheckError, match=message):
            run_check(path_graph(2), "BOGUS")

    def test_run_suite_unknown_id(self):
        with pytest.raises(UnknownCheckError):
            run_suite(path_graph(2), selection=["LRL", "NOPE"])

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_run_suite_names_every_unknown_id(self, as_generator):
        # One error names every unknown id, in the CLI's words; a generator
        # selection is read once.
        ids = ["TAU_SUM", "BOGUS", "NOPE"]
        selection = (c for c in ids) if as_generator else ids
        with pytest.raises(UnknownCheckError) as exc:
            run_suite(path_graph(2), selection)
        assert str(exc.value) == (
            f"unknown check id(s): BOGUS, NOPE; known: {', '.join(CHECK_IDS)}"
        )

    def test_generator_selection_runs(self):
        report = run_suite(path_graph(2), (c for c in ["TAU_SUM", "LRL"]))
        assert [c.check_id for c in report.checks] == ["TAU_SUM", "LRL"]


class TestOracles:
    def test_scalar_oracle_path(self):
        r = scalar_resistance_oracle(path_graph(3))
        expected = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert max_norm(r - expected) <= 1e-12

    def test_scalar_oracle_triangle(self):
        r = scalar_resistance_oracle(complete_graph(3))
        assert r[0, 1] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_scalar_oracle_weighted(self):
        g = from_edges(2, 1, [(0, 1, np.array([[5.0]]))])
        r = scalar_resistance_oracle(g)
        assert r[0, 1] == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize(
        "g",
        [g for _, g in standard_corpus() if g.s == 1]
        + [path_graph(200, 1, np.array([[w]])) for w in (1e3, 1e6)],
    )
    def test_scalar_oracle_is_bitwise_the_edge_loop(self, g):
        # The per-edge loop the array assembly replaced, as the reference.
        lap = np.zeros((g.n, g.n))
        for e in g.edges:
            c = 1.0 / float(e.weight[0, 0])
            lap[e.u, e.v] -= c
            lap[e.v, e.u] -= c
            lap[e.u, e.u] += c
            lap[e.v, e.v] += c
        h = linalg.pseudo_inverse(lap)
        d = np.diag(h)
        expected = d[:, np.newaxis] + d[np.newaxis, :] - h - h.T
        assert scalar_resistance_oracle(g).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "g",
        [
            from_edges(2, 1, [(0, 1, [[1e-310]])]),
            from_edges(3, 1, [(0, 1, [[1e-308]]), (1, 2, [[1e-308]])]),
        ],
        ids=["inverse-weight-overflows", "diagonal-sum-overflows"],
    )
    def test_scalar_oracle_overflow_is_an_error_without_warnings(self, g):
        # Under pytest's filterwarnings = error, a numpy RuntimeWarning from
        # the assembly would surface here instead of the NumericError.
        with pytest.raises(NumericError, match="non-finite"):
            scalar_resistance_oracle(g)

    def test_scalar_oracle_rejects_blocks(self):
        with pytest.raises(DimensionError, match="s=1"):
            scalar_resistance_oracle(path_graph(2, 2))

    def test_tree_distances(self):
        g = star_graph(3)
        d = tree_distance_matrix(g)
        assert d[1, 2] == 2.0
        assert d[0, 3] == 1.0
        assert np.array_equal(d, d.T)

    def test_tree_distances_weighted(self):
        g = path_graph(3, 1, [np.array([[2.0]]), np.array([[3.0]])])
        d = tree_distance_matrix(g)
        assert d[0, 2] == 5.0

    def test_tree_distances_reject_non_tree(self):
        with pytest.raises(DimensionError, match="not a tree"):
            tree_distance_matrix(cycle_graph(3))

    def test_tree_distances_sum_blocks(self):
        w1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        w2 = np.array([[3.0, 0.5], [0.5, 1.0]])
        d = tree_distance_matrix(path_graph(3, 2, [w1, w2]))
        assert np.array_equal(d[0:2, 4:6], w1 + w2)
        assert np.array_equal(d[4:6, 2:4], w2)
        assert not d[0:2, 0:2].any()


def _bapat_slog(g):
    """Bapat's tree determinant ``(-1)^((n-1)s) 2^((n-2)s) prod_e det W_e
    det(sum_e W_e)`` as ``(sign, log|.|)``, from plain ``slogdet`` calls."""
    log_abs = (g.n - 2) * g.s * np.log(2.0)
    log_abs += sum(np.linalg.slogdet(w)[1] for w in g.weights)
    log_abs += np.linalg.slogdet(g.weights.sum(axis=0))[1]
    return (-1.0) ** ((g.n - 1) * g.s), log_abs


class TestBapatDeterminant:
    """On a tree with matrix weights, ``det R`` is Bapat's product formula
    and ``R`` is the matrix of block path sums."""

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=2, max_value=12),
        s=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_formula_matches_path_sums_and_engine(self, n, s, seed):
        g = random_graph(n, s, "tree", seed=seed)
        sign, log_abs = _bapat_slog(g)
        # The path sums involve no engine code; the workspace's R does.
        for r in (tree_distance_matrix(g), ResistanceWorkspace(g).resistance):
            got_sign, got_log = np.linalg.slogdet(r)
            assert got_sign == sign
            assert abs(got_log - log_abs) <= 1e-10

    def test_check_beyond_double_range_with_blocks(self):
        # 2^(398 * 3) alone is beyond the double range.
        g = random_graph(400, 3, "tree", seed=21)
        result = run_check(g, "TREE_DET")
        assert not result.skipped and result.passed
        assert result.details.count("exp(") == 2


class TestNumericallyNonsingular:
    def test_identity(self):
        assert numerically_nonsingular(np.eye(4))

    def test_singular(self):
        assert not numerically_nonsingular(np.ones((3, 3)))

    def test_scale_invariant(self):
        # A tiny but perfectly conditioned matrix is nonsingular; that is
        # the entire point of the relative test.
        assert numerically_nonsingular(1e-12 * np.eye(5))

    def test_respects_rtol(self):
        # The fixed relative tolerance 1e-10 is strict: a singular value
        # ratio of exactly 1e-10 is singular, one just above it is not.
        assert not numerically_nonsingular(np.diag([1.0, 1e-10]))
        assert numerically_nonsingular(np.diag([1.0, 1.001e-10]))
        assert numerically_nonsingular(np.diag([-1.0, 1.001e-10]))

    def test_rejects_material_asymmetry(self):
        with pytest.raises(NumericError, match="not symmetric"):
            numerically_nonsingular(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @staticmethod
    def counting(monkeypatch, name):
        """Count the calls of ``np.linalg.<name>``, which still runs."""
        calls = []
        original = getattr(np.linalg, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
        return calls

    @staticmethod
    def plain_rule(b):
        values = np.abs(np.linalg.eigvalsh(symmetrize(b)))
        return bool(values.min() > 1e-10 * values.max())

    @settings(deadline=None, max_examples=300)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        order=st.integers(min_value=1, max_value=12),
        kind=st.sampled_from(
            ["well", "near_above", "near_below", "indefinite", "semidefinite"]
        ),
        log_scale=st.floats(min_value=-12.0, max_value=12.0),
        rotate=st.booleans(),
    )
    @example(seed=1, order=6, kind="near_above", log_scale=-12.0, rotate=False)
    @example(seed=2, order=12, kind="near_below", log_scale=12.0, rotate=False)
    @example(seed=3, order=1, kind="indefinite", log_scale=0.0, rotate=True)
    def test_agrees_with_the_eigenvalue_rule(self, seed, order, kind, log_scale, rotate):
        # B = Q diag(values) Q' with a random orthogonal Q, or Q = I, where
        # ||B||_inf is the largest eigenvalue; the near cases put the
        # eigenvalue ratio at 1e-10 (1 +- 1e-6), where the screen must give
        # way to the eigenvalues.
        rng = np.random.default_rng(seed)
        q = np.eye(order)
        if rotate:
            q, _ = np.linalg.qr(rng.standard_normal((order, order)))
        values = rng.uniform(0.5, 2.0, order)
        if kind == "near_above":
            values[0] = 1e-10 * (1 + 1e-6) * values.max()
        elif kind == "near_below":
            values[0] = 1e-10 * (1 - 1e-6) * values.max()
        elif kind == "indefinite":
            values *= rng.choice([-1.0, 1.0], order)
            values[0] = -abs(values[0])
        elif kind == "semidefinite":
            values[: max(1, order // 3)] = 0.0
        b = 10.0**log_scale * (q * values) @ q.T
        assert numerically_nonsingular(b) == self.plain_rule(b)

    def test_well_conditioned_pd_needs_no_eigenvalues(self, monkeypatch):
        calls = self.counting(monkeypatch, "eigvalsh")
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 30))
        assert numerically_nonsingular(a @ a.T + 30.0 * np.eye(30))
        assert calls == []

    def test_indefinite_falls_back_to_eigenvalues(self, monkeypatch):
        calls = self.counting(monkeypatch, "eigvalsh")
        assert numerically_nonsingular(np.diag([-1.0, 2.0, 3.0]))
        assert not numerically_nonsingular(np.diag([-1.0, 2.0, 0.0]))
        assert calls == ["eigvalsh", "eigvalsh"]

    def test_asymmetry_raises_before_any_factorization(self, monkeypatch):
        calls = self.counting(monkeypatch, "cholesky")
        with pytest.raises(NumericError, match="not symmetric"):
            numerically_nonsingular(np.array([[2.0, 0.5], [0.0, 2.0]]))
        assert calls == []


class TestRunCheck:
    def test_single_check_passes(self):
        result = run_check(path_graph(3), "LRL")
        assert isinstance(result, CheckResult)
        assert result.check_id == "LRL"
        assert result.passed and not result.skipped
        assert result.residual <= result.tolerance

    def test_skip_reason_qrq(self):
        result = run_check(cycle_graph(3), "QRQ")
        assert result.skipped and result.passed
        assert "trees" in result.details

    def test_qrq_applies_on_tree(self):
        result = run_check(path_graph(4), "QRQ")
        assert not result.skipped and result.passed

    def test_skip_scalar_only(self):
        result = run_check(path_graph(2, 2), "SCALAR_REDUCTION")
        assert result.skipped
        assert "s = 1" in result.details

    def test_skip_tree_distance_non_tree(self):
        result = run_check(cycle_graph(4), "TREE_DISTANCE")
        assert result.skipped
        assert "tree" in result.details

    def test_tree_det_runs_on_non_unit_tree(self):
        g = path_graph(3, 1, np.array([[2.0]]))
        result = run_check(g, "TREE_DET")
        assert not result.skipped and result.passed

    def test_skip_tree_det_non_tree(self):
        result = run_check(cycle_graph(4, 2), "TREE_DET")
        assert result.skipped
        assert result.details == "skipped: requires a tree (m = n - 1)"

    def test_tree_det_runs_on_unit_tree(self):
        result = run_check(star_graph(4), "TREE_DET")
        assert not result.skipped and result.passed

    def test_tree_det_beyond_double_range(self):
        # (n-1) 2^(n-2) overflows a double from n = 1017 on; the check
        # compares (sign, log|.|) pairs and prints both sides in range-safe
        # form instead of raising OverflowError.  The 1030-vertex star is
        # well conditioned, so its verdict does not hang on rounding.
        result = run_check(star_graph(1029), "TREE_DET")
        assert not result.skipped and result.passed
        assert result.tolerance == 1e-10
        assert result.details.count("-exp(") == 2

    def test_tree_det_long_path_reports(self):
        # The same size on a path, where the check used to raise
        # OverflowError.  Its residual sits at the tolerance (2.8e-11 at
        # two OpenBLAS threads, 1.3e-10 at one: the engine's R is off by
        # up to 5e-8 as the path's conditioning grows with n^2), so only
        # that it reports is asserted.
        result = run_check(path_graph(1030), "TREE_DET")
        assert not result.skipped and result.tolerance == 1e-10
        assert np.isfinite(result.residual)
        assert result.details.count("-exp(") == 2

    def test_shared_workspace_used(self):
        g = path_graph(3)
        ws = ResistanceWorkspace(g)
        result = run_check(g, "DET_FORMULA", workspace=ws)
        assert result.passed
        assert "closed form" in result.details

    def test_wall_time_measured_but_not_serialized(self):
        # No per-check time is kept any more: every field of a result is
        # one key of its JSON form.
        result = run_check(path_graph(2), "LAP_KERNEL")
        assert not hasattr(result, "wall_time")
        assert len(dataclasses.fields(result)) == len(result.as_dict())

    def test_as_dict_keys(self):
        result = run_check(path_graph(2), "LAP_KERNEL")
        assert list(result.as_dict()) == [
            "id",
            "residual",
            "tolerance",
            "passed",
            "skipped",
            "details",
        ]


class TestMutationsFail:
    """A wrong engine value makes the check that covers it fail."""

    def test_taudef_catches_perturbed_deficit(self):
        g = random_graph(6, 2, "gnp", seed=7, p=0.6)
        ws = ResistanceWorkspace(g)
        assert run_check(g, "TAUDEF", workspace=ws).passed
        ws.deficit = ws.deficit.copy()
        ws.deficit[5, 1] += 1e-6
        assert not run_check(g, "TAUDEF", workspace=ws).passed

    def test_taurtau_pd_reads_resistance(self):
        # TAURTAU_PD forms T' R T with R, so a wrong R fails it; the
        # closed-form deficit form it no longer reads is unchanged.  The
        # workspace caches T' R T on first read, so R is replaced first.
        g = random_graph(6, 2, "gnp", seed=7, p=0.6)
        assert run_check(g, "TAURTAU_PD", ResistanceWorkspace(g)).passed
        ws = ResistanceWorkspace(g)
        ws.__dict__["resistance"] = -ws.resistance
        assert not run_check(g, "TAURTAU_PD", ws).passed

    def test_shift_nonsing_catches_zeroed_laplacian_eigenvalue(self):
        # SHIFT_NONSING reads M's spectrum from L's: a zero in place of
        # lambda_{ns-s} makes M singular.
        g = random_graph(6, 2, "gnp", seed=7, p=0.6)
        ws = ResistanceWorkspace(g)
        assert run_check(g, "SHIFT_NONSING", workspace=ws).passed
        values = ws.laplacian_eigenvalues.copy()
        values[g.n * g.s - g.s - 1] = 0.0
        ws.__dict__["laplacian_eigenvalues"] = values
        assert not run_check(g, "SHIFT_NONSING", workspace=ws).passed

    @pytest.mark.parametrize(
        "g",
        # path_graph(1030) is the longest path the suite runs, with
        # kappa(M) about 4e5; path200 and cycle70 at extreme weight scales
        # pass LPLUS in test_failures_at_most_known.
        [random_graph(6, 2, "gnp", seed=7, p=0.6), path_graph(1030)],
        ids=["gnp6", "path1030"],
    )
    def test_lplus_catches_perturbed_pseudoinverse(self, g):
        ws = ResistanceWorkspace(g)
        assert run_check(g, "LPLUS", workspace=ws).passed
        pseudoinverse = ws.pseudoinverse()
        pseudoinverse[3, 8] += 1e-6 * max_norm(pseudoinverse)
        ws.pseudoinverse = lambda: pseudoinverse
        assert not run_check(g, "LPLUS", workspace=ws).passed

    def test_inertia_catches_sign_flip(self):
        g = random_graph(6, 2, "gnp", seed=7, p=0.6)
        ws = ResistanceWorkspace(g)
        assert run_check(g, "INERTIA", workspace=ws).passed
        values = ws.resistance_eigenvalues.copy()
        values[0] = -values[0]
        ws.resistance_eigenvalues = values
        assert not run_check(g, "INERTIA", workspace=ws).passed

    def test_interlace_names_violated_rows(self, monkeypatch):
        g = random_graph(6, 2, "gnp", seed=7, p=0.6)
        ws = ResistanceWorkspace(g)
        assert run_check(g, "INTERLACE", workspace=ws).passed
        # The bound -1 lies above the row's upper eigenvalue -2.
        row = InterlaceRow(1, lower=-3.0, bound=-1.0, upper=-2.0, holds=False)
        monkeypatch.setattr(ws, "interlacing", lambda: [row])
        result = run_check(g, "INTERLACE", workspace=ws)
        assert not result.passed
        assert result.details == "violated at rows [1]"
        assert result.residual > 0.0


class TestOneEigendecomposition:
    """A suite takes no ``ns x ns`` eigendecomposition with eigenvectors:
    the Laplacian's and the resistance spectra are values only, the shifted
    Laplacian's is read from the Laplacian's, and ``LPLUS`` compares with
    the grounded inverse."""

    def test_run_suite_decomposes_only_the_laplacian(self, corpus, monkeypatch):
        eigh = np.linalg.eigh
        calls = []

        def recording(a, *args, **kwargs):
            calls.append(np.array(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        for _, g in corpus:
            ns = g.n * g.s
            calls.clear()
            run_suite(g)
            square = [a for a in calls if a.shape == (ns, ns)]
            # The one exception: on scalar graphs SCALAR_REDUCTION's oracle
            # decomposes the scalar Laplacian it builds for itself.
            assert len(square) == (g.s == 1)
            for a in square:
                lap = build_laplacian(g)
                assert max_norm(a - lap) <= 1e-14 * max_norm(lap)

    def test_shift_extremes_match_eigensolve_of_shifted_laplacian(self, corpus):
        # P projects exactly onto ker L, so spec(M) is the positive
        # spectrum of L with alpha repeated s times.  Both routes are
        # eigensolves accurate to a few eps times ||M||, so they are compared
        # relative to the largest eigenvalue: relative to itself, the
        # smallest can differ by kappa(M) eps (8e-12 on path200, whose
        # kappa(M) is 1.6e4).
        graphs = [g for _, g in corpus] + list(ill_conditioned_graphs().values())
        for g in graphs:
            ws = ResistanceWorkspace(g)
            shifted = _shift(ws.laplacian, g.n, g.s, ws.shift_scale)
            values = np.linalg.eigvalsh(shifted)
            largest, smallest = ws.shift_extremes
            assert abs(largest - values[-1]) <= 1e-12 * values[-1]
            assert abs(smallest - values[0]) <= 1e-12 * values[-1]


class TestSingleReaderArrays:
    def test_lplus_leaves_no_matrix_held(self):
        # L^+ and the grounded inverse are LPLUS's alone: the workspace
        # caches neither, nor the X that L^+ is shifted from.
        g = random_graph(40, 3, "complete", seed=5)
        ws = ResistanceWorkspace(g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run_check(g, "LPLUS", ws).passed
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 8 * (g.n * g.s) ** 2

    def test_checks_let_their_own_arrays_go(self):
        # The incidence matrix and the spectral pseudoinverse are built by
        # the checks that read them and freed when each returns; what the
        # workspace keeps afterwards is less than one incidence matrix.
        g = random_graph(40, 3, "complete", seed=5)
        ws = ResistanceWorkspace(g)
        incidence_bytes = build_incidence(g).nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for check_id in ("L_EQ_QQT", "QRQ", "LPLUS"):
                assert run_check(g, check_id, ws).passed
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < incidence_bytes


class TestEdgeSums:
    """TAUDEF and RWIDEN take their edge sums from one batched product; they
    must equal the sums taken edge by edge."""

    @staticmethod
    def loop_sums(ws):
        g = ws.graph
        n, s = g.n, g.s
        lap = ws.laplacian.reshape(n, s, n, s)
        r = ws.resistance.reshape(n, s, n, s)
        blocks = np.zeros((n, s, s))
        for e in g.edges:
            for i, j in ((e.u, e.v), (e.v, e.u)):
                blocks[i] += -lap[i, :, j, :] @ r[j, :, i, :]
        return blocks

    def test_batched_sums_match_edge_loop(self, corpus_workspaces):
        for _, g, ws in corpus_workspaces:
            n, s = g.n, g.s
            loop = self.loop_sums(ws)
            deficit = 2.0 * np.eye(s) - loop
            batched = verify._deficit_edge_sum(ws).reshape(n, s, s)
            assert max_norm(batched - deficit) <= 1e-13 * max_norm(deficit)
            total = verify._edge_terms(ws)[1].sum(axis=0)
            expected = loop.sum(axis=0)
            assert max_norm(total - expected) <= 1e-13 * max_norm(expected)


class TestPinvSubmatrixSampling:
    @pytest.mark.parametrize(
        "n, s, p, seed", [(60, 3, 0.15, 9), (100, 1, 0.1, 2)]
    )
    def test_samples_every_targeted_set(self, n, s, p, seed):
        result = run_check(random_graph(n, s, "gnp", seed=seed, p=p), "PINV_SUBMATRIX")
        assert result.passed
        assert result.details.startswith("sampled 15 of 15 targeted")

    def test_no_sampled_set_fails(self, monkeypatch):
        monkeypatch.setattr(verify, "_pinv_submatrix_sets", lambda *args: [])
        result = run_check(cycle_graph(4, 2), "PINV_SUBMATRIX")
        assert not result.passed
        assert result.details.startswith("sampled 0 of 15 targeted")

    def test_singular_submatrix_is_a_violation(self, monkeypatch):
        # Every block, of an exactly symmetric source or not, is decided by
        # the one rule.
        monkeypatch.setattr(verify, "_nonsingular", lambda b: False)
        result = run_check(cycle_graph(4, 2), "PINV_SUBMATRIX")
        sampled = int(re.match(r"sampled (\d+) of 15 targeted", result.details)[1])
        assert not result.passed
        assert sampled > 0 and result.residual == sampled

    def test_screen_accepts_tiny_well_conditioned_sets(self):
        # The screen is relative: a perfectly conditioned matrix of tiny
        # entries is accepted, where an absolute |det| cutoff rejects it.
        # Sizes are drawn from 1 to ns - s = 19.
        rng = np.random.default_rng(0)
        sets = verify._pinv_submatrix_sets(rng, 1e-6 * np.eye(20), 20, 1)
        assert len(sets) == 5
        assert all(1 <= rows.size <= 19 for rows in sets)
        # So is its tiny shift: 1e-6 (I + P) with P = (1/10) J (x) I_2.
        rng = np.random.default_rng(0)
        sets = verify._pinv_submatrix_sets(rng, 1e-6 * np.eye(20), 10, 2, 1e-6)
        assert len(sets) == 5

    @pytest.mark.parametrize("scale", [None, 1.0, 0.75])
    def test_block_is_the_shifted_matrix_block_bit_for_bit(self, scale):
        # Identity weights put -0.0 in L's off-diagonal blocks; the shift
        # adds 0.0 there and turns it into 0.0, and so must the block.
        g = path_graph(5, 2)
        ws = ResistanceWorkspace(g)
        lap = ws.laplacian
        assert np.signbit(lap[lap == 0.0]).any()
        rng = np.random.default_rng(5)
        scales = () if scale is None else (scale,)
        for source in (lap, ws.shifted_inverse, ws.pseudoinverse()):
            shifted = source if scale is None else _shift(source, g.n, g.s, scale)
            for size in list(range(1, 11)) * 3:
                rows = np.sort(rng.choice(10, size=size, replace=False))
                block = verify._shifted_block(source, rows, g.n, g.s, *scales)
                expected = shifted[np.ix_(rows, rows)]
                assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scales", [(), (1.0,)])
    def test_pinv_blocks_from_x_are_the_pseudoinverse_blocks_bit_for_bit(self, scales):
        # L^+ = X shifted by -1/alpha; its blocks, shifted again or not,
        # come from X with both shifts added in turn.
        for g in (path_graph(5, 2), cycle_graph(6, 3), random_graph(9, 2, "gnp", seed=4, p=0.5)):
            ws = ResistanceWorkspace(g)
            order = g.n * g.s
            pinv = ws.pseudoinverse()
            for scale in scales:
                pinv = _shift(pinv, g.n, g.s, scale)
            rng = np.random.default_rng(6)
            for size in list(range(1, order + 1)) * 2:
                rows = np.sort(rng.choice(order, size=size, replace=False))
                block = verify._shifted_block(
                    ws.shifted_inverse, rows, g.n, g.s, -1.0 / ws.shift_scale, *scales
                )
                assert block.tobytes() == pinv[np.ix_(rows, rows)].tobytes()

    def test_factors_the_blocks_of_the_materialized_route_bit_for_bit(self, monkeypatch):
        # Every matrix the check factors, in its screen and its decisions,
        # is one the route through materialized instances factors; that
        # route decides each set as it draws it, so the orders differ.
        factored = []
        cholesky = np.linalg.cholesky

        def recording(b):
            factored.append(np.asarray(b).tobytes())
            return cholesky(b)

        for g in (path_graph(5, 2), cycle_graph(6, 3), random_graph(9, 2, "gnp", seed=4, p=0.5)):
            materialized, ws = ResistanceWorkspace(g), ResistanceWorkspace(g)
            monkeypatch.setattr(np.linalg, "cholesky", recording)
            self.materialized_route(materialized)
            expected = factored[:]
            factored.clear()
            run_check(g, "PINV_SUBMATRIX", ws)
            monkeypatch.undo()
            assert expected and sorted(factored) == sorted(expected)
            factored.clear()

    def test_the_check_never_builds_the_pseudoinverse(self, monkeypatch):
        calls = []
        pseudoinverse = ResistanceWorkspace.pseudoinverse

        def counting(ws):
            calls.append(ws)
            return pseudoinverse(ws)

        monkeypatch.setattr(ResistanceWorkspace, "pseudoinverse", counting)
        g = random_graph(8, 2, "gnp", seed=3, p=0.5)
        ws = ResistanceWorkspace(g)
        assert run_check(g, "PINV_SUBMATRIX", ws).passed
        assert calls == []
        # LPLUS, the one check that reads L^+, builds it once.
        assert run_check(g, "LPLUS", ws).passed
        assert calls == [ws]

    @staticmethod
    def materialized_route(ws):
        """The sets and verdicts of the route that built each instance as a
        matrix: ``_shift`` copies, blocks indexed from them and decided by
        ``numerically_nonsingular``."""
        g = ws.graph
        n, s = g.n, g.s
        instances = [
            (ws.pseudoinverse(), ws.laplacian),
            (_shift(ws.laplacian, n, s, ws.shift_scale), ws.shifted_inverse),
            (_shift(ws.pseudoinverse(), n, s), _shift(ws.laplacian, n, s)),
        ]
        rng = np.random.default_rng([g.n, g.s, g.m, 1202])
        sets, verdicts = [], []
        for a, a_pinv in instances:
            for _ in range(5):
                for _ in range(40):
                    size = int(rng.integers(1, n * s - s + 1))
                    rows = np.sort(rng.choice(n * s, size=size, replace=False))
                    block = a[np.ix_(rows, rows)]
                    try:
                        pivots = np.diag(np.linalg.cholesky(block))
                    except np.linalg.LinAlgError:
                        continue
                    if pivots.min() ** 2 > 1e-10 * block.diagonal().max():
                        sets.append(rows)
                        b = a_pinv[np.ix_(rows, rows)]
                        verdicts.append((symmetrize(b).tobytes(), numerically_nonsingular(b)))
                        break
        return sets, verdicts

    def test_same_sets_and_verdicts_as_the_materialized_route(self, monkeypatch, corpus):
        graphs = [g for _, g in corpus] + [path_graph(5, 2)]
        workspaces = [ResistanceWorkspace(g) for g in graphs]
        expected = [self.materialized_route(ws) for ws in workspaces]
        sets, verdicts = [], []
        sampler, rule = verify._pinv_submatrix_sets, verify._nonsingular

        def sampling(*args):
            drawn = sampler(*args)
            sets.extend(drawn)
            return drawn

        def deciding(b):
            before = b.tobytes()
            verdict = rule(b)
            verdicts.append((before, verdict))
            return verdict

        monkeypatch.setattr(verify, "_pinv_submatrix_sets", sampling)
        monkeypatch.setattr(verify, "_nonsingular", deciding)
        for g, ws, (old_sets, old_verdicts) in zip(graphs, workspaces, expected):
            sets.clear()
            verdicts.clear()
            result = run_check(g, "PINV_SUBMATRIX", ws)
            assert [r.tolist() for r in sets] == [r.tolist() for r in old_sets]
            assert verdicts == old_verdicts
            assert result.residual == sum(not v for _, v in verdicts)


class TestBuiltSymmetry:
    """Construction leaves ``L``, ``X``, ``R``, ``L^+`` and ``R^{-1}`` finite
    and bitwise symmetric.  So every block ``PINV_SUBMATRIX`` gathers from
    ``L`` and ``X`` is one ``symmetrize`` would return unchanged, and the
    check hands each to its rule as it is.  This also guards the
    precondition of ``linalg.sym_eigenvalues``, which takes ``L`` and ``R``
    as built and checks nothing."""

    @staticmethod
    def assert_finite_and_symmetric(ws):
        for a in (
            ws.laplacian,
            ws.shifted_inverse,
            ws.resistance,
            ws.pseudoinverse(),
            ws.inverse(),
        ):
            assert np.isfinite(a).all() and bitwise_symmetric(a)

    @staticmethod
    def assert_blocks_decided_as_gathered(g, ws):
        """Run ``PINV_SUBMATRIX`` with its rule and ``symmetrize`` recording
        their calls: every decided block is finite and bitwise symmetric,
        and none reaches ``symmetrize``."""
        decided, symmetrized = [], []
        rule, symmetrize_ = verify._nonsingular, linalg.symmetrize

        def deciding(b):
            decided.append(b.copy())
            return rule(b)

        def symmetrizing(b):
            symmetrized.append(np.shape(b))
            return symmetrize_(b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_nonsingular", deciding)
            patch.setattr(linalg, "symmetrize", symmetrizing)
            run_check(g, "PINV_SUBMATRIX", ws)
        assert decided and symmetrized == []
        for b in decided:
            assert np.isfinite(b).all() and bitwise_symmetric(b)

    def test_corpus(self, corpus):
        for _, g in corpus:
            ws = ResistanceWorkspace(g)
            self.assert_finite_and_symmetric(ws)
            self.assert_blocks_decided_as_gathered(g, ws)

    @settings(deadline=None, max_examples=60)
    @given(
        model=st.sampled_from(["tree", "gnp", "cycle", "complete"]),
        n=st.integers(min_value=3, max_value=8),
        s=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        log_scale=st.floats(min_value=-300.0, max_value=308.0),
    )
    @example(model="complete", n=6, s=3, seed=1, log_scale=307.0)
    @example(model="tree", n=8, s=2, seed=2, log_scale=-300.0)
    @example(model="tree", n=8, s=3, seed=1716, log_scale=307.65)
    def test_every_weight_scale(self, model, n, s, seed, log_scale):
        # Weights from 1e-300 to 1e308 times a random draw.  Only the
        # scaling runs with overflow warnings off (an infinite weight is
        # refused as a graph error): construction either refuses a graph
        # without a numpy warning or builds what this property is about.
        g = random_graph(n, s, model, seed, 0.6 if model == "gnp" else None)
        with np.errstate(over="ignore"):
            weights = g.weights * 10.0**log_scale
        try:
            scaled = dataclasses.replace(g, weights=weights)
            ws = ResistanceWorkspace(scaled)
        except (GraphError, NumericError):
            assume(False)
        self.assert_finite_and_symmetric(ws)
        self.assert_blocks_decided_as_gathered(scaled, ws)


class TestSymmetrizedWhereAsymmetryCanArise:
    """``L`` and ``R`` reach ``eigvalsh`` as built, with no copy and no
    ``symmetrize``; the nearly symmetric ``T'RT`` of ``TAURTAU_PD`` is the
    one matrix of the spectral checks that is symmetrized first."""

    @staticmethod
    def spied(monkeypatch):
        solved, symmetrized = [], []
        eigvalsh, symmetrize_ = np.linalg.eigvalsh, linalg.symmetrize

        def solving(a):
            solved.append(a)
            return eigvalsh(a)

        def symmetrizing(a):
            symmetrized.append(np.shape(a))
            return symmetrize_(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", solving)
        monkeypatch.setattr(linalg, "symmetrize", symmetrizing)
        return solved, symmetrized

    def test_inertia_and_interlacing_take_l_and_r_as_built(self, monkeypatch):
        ws = ResistanceWorkspace(random_graph(7, 2, "gnp", seed=3, p=0.6))
        solved, symmetrized = self.spied(monkeypatch)
        assert ws.inertia().as_tuple() == (2, 12, 0)
        assert len(solved) == 1 and solved[0] is ws.resistance
        assert all(row.holds for row in ws.interlacing())
        assert len(solved) == 2 and solved[1] is ws.laplacian
        assert symmetrized == []

    def test_taurtau_pd_symmetrizes_once_an_s_by_s_array(self, monkeypatch):
        g = random_graph(7, 2, "gnp", seed=3, p=0.6)
        ws = ResistanceWorkspace(g)
        solved, symmetrized = self.spied(monkeypatch)
        assert run_check(g, "TAURTAU_PD", ws).passed
        assert symmetrized == [(g.s, g.s)]
        assert [a.shape for a in solved] == [(g.s, g.s)]


class TestSharedProducts:
    """Checks that read the same product of ``R`` take it from the workspace,
    computed once."""

    def test_determinant_checks_share_one_lu_of_r(self, monkeypatch):
        g = random_graph(7, 2, "tree", seed=3)
        orders = []
        original = linalg.slogdet_lu

        def recording(a):
            orders.append(np.shape(a)[0])
            return original(a)

        monkeypatch.setattr(linalg, "slogdet_lu", recording)
        report = run_suite(g, ["DET_FORMULA", "TREE_DET"])
        assert report.passed
        assert orders.count(g.n * g.s) == 1

    def test_deficit_form_checks_share_one_product(self):
        g = random_graph(7, 2, "gnp", seed=3, p=0.6)
        ws = ResistanceWorkspace(g)
        assert run_check(g, "TAURTAU_PD", ws).passed
        assert "deficit_form_direct" in ws.__dict__
        product = ws.deficit_form_direct
        form = run_check(g, "TAURTAU_FORM", ws)
        assert ws.deficit_form_direct is product
        assert np.array_equal(product, ws.deficit.T @ ws.resistance @ ws.deficit)
        assert form.residual == max_norm(ws.deficit_form - product)


class TestOutOfRangeDeterminants:
    """DET_FORMULA and COFACTOR_EQ compare ``(sign, log|.|)`` pairs, so they
    still test values beyond the double range."""

    @pytest.fixture
    def long_path(self):
        # det R = -e^-742.36 underflows and c(G) = e^822.02 overflows; the
        # shifted Laplacian is well conditioned.
        return path_graph(120, 1, np.array([[1e-3]]))

    def test_checks_run_with_finite_tolerances(self, long_path):
        ws = ResistanceWorkspace(long_path)
        for check_id in ("DET_FORMULA", "COFACTOR_EQ"):
            result = run_check(long_path, check_id, workspace=ws)
            assert result.passed and result.tolerance == 1e-8
            assert "exp(" in result.details
        report = run_suite(long_path, ["DET_FORMULA", "COFACTOR_EQ"])
        json.loads(report.to_json(), parse_constant=self._reject)

    @staticmethod
    def _reject(name):
        raise ValueError(f"non-RFC 8259 JSON constant {name}")

    def test_det_formula_catches_scaled_deficit_form(self, long_path):
        ws = ResistanceWorkspace(long_path)
        ws.deficit_form = 1.5 * ws.deficit_form
        result = run_check(long_path, "DET_FORMULA", workspace=ws)
        assert not result.passed
        assert result.residual == pytest.approx(np.log(1.5), rel=1e-9)

    def test_det_formula_catches_sign_flip(self, long_path):
        ws = ResistanceWorkspace(long_path)
        ws.deficit_form = -ws.deficit_form
        result = run_check(long_path, "DET_FORMULA", workspace=ws)
        assert not result.passed and result.residual >= np.pi


class TestRunSuite:
    def test_all_checks_in_registry_order(self):
        report = run_suite(path_graph(2))
        assert tuple(c.check_id for c in report.checks) == CHECK_IDS
        assert report.passed

    def test_selection_subset_in_registry_order(self):
        report = run_suite(path_graph(3), selection=["INERTIA", "LAP_KERNEL"])
        assert tuple(c.check_id for c in report.checks) == ("LAP_KERNEL", "INERTIA")

    def test_duplicate_selection_collapses(self):
        report = run_suite(path_graph(3), selection=["LRL", "LRL"])
        assert len(report.checks) == 1

    def test_graph_descriptor(self):
        report = run_suite(path_graph(3), model="path", seed=None)
        assert report.graph == {
            "n": 3,
            "s": 1,
            "m": 2,
            "model": "path",
            "seed": None,
            "low_confidence": False,
        }

    def test_unit_p2_skip_profile(self):
        # Scalar 2-path: everything applies (tree, scalar), so nothing is
        # skipped and all 21 results are real runs.
        report = run_suite(path_graph(2))
        assert len(report.checks) == 21
        assert not any(c.skipped for c in report.checks)

    def test_block_tree_skip_profile(self):
        # s = 2 star: only the scalar reduction skips.
        report = run_suite(star_graph(3, 2, 2.0 * np.eye(2)))
        skipped = {c.check_id for c in report.checks if c.skipped}
        assert skipped == {"SCALAR_REDUCTION"}
        assert report.passed

    def test_block_cycle_skip_profile(self):
        # s = 2 cycle: QRQ, SCALAR_REDUCTION, TREE_DISTANCE, TREE_DET skip.
        report = run_suite(cycle_graph(4, 2))
        skipped = {c.check_id for c in report.checks if c.skipped}
        assert skipped == {"QRQ", "SCALAR_REDUCTION", "TREE_DISTANCE", "TREE_DET"}
        assert report.passed

    def test_json_roundtrip_and_sorted_keys(self):
        report = run_suite(path_graph(2))
        data = json.loads(report.to_json())
        assert set(data) == {"graph", "checks", "passed"}
        assert data["passed"] is True
        assert len(data["checks"]) == 21

    def test_json_byte_identical_across_runs(self):
        g = random_graph(5, 2, "gnp", seed=77, p=0.6)
        first = run_suite(g, model="gnp", seed=77).to_json()
        second = run_suite(g, model="gnp", seed=77).to_json()
        assert first == second


def indented_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def corpus_payload(entries) -> dict:
    """What ``verify --corpus --format json`` prints, as a dict for json.dumps."""
    return {
        "entries": [
            {
                "spec": e.spec.as_dict(),
                "error": e.error,
                "report": None if e.report is None else e.report.as_dict(),
            }
            for e in entries
        ],
        "passed": all(e.passed for e in entries),
    }


class TestJsonReports:
    """``SuiteReport.to_json`` and ``corpus_json`` write the bytes of
    ``json.dumps(..., indent=2, sort_keys=True)`` directly."""

    @staticmethod
    def with_checks(report, **changes):
        checks = tuple(dataclasses.replace(c, **changes) for c in report.checks)
        return dataclasses.replace(report, checks=checks)

    def test_standard_corpus(self, corpus):
        for descriptor, g in corpus:
            report = run_suite(g, model=descriptor["model"], seed=descriptor["seed"])
            assert report.to_json() == indented_json(report.as_dict())

    def test_no_checks(self):
        report = run_suite(path_graph(3), [])
        assert '"checks": [],' in report.to_json()
        assert report.to_json() == indented_json(report.as_dict())

    @pytest.mark.parametrize(
        "value, spelled",
        [
            (float("nan"), "NaN"),
            (float("inf"), "Infinity"),
            (float("-inf"), "-Infinity"),
            (-0.0, "-0.0"),
            (5e-324, "5e-324"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (np.float64(0.1), "0.1"),
            (3, "3"),
            (None, "null"),
        ],
    )
    def test_residual_and_tolerance_values(self, value, spelled):
        report = run_suite(path_graph(3), ["LAP_KERNEL", "LRL"])
        report = self.with_checks(report, residual=value, tolerance=value)
        text = report.to_json()
        assert f'"residual": {spelled},' in text
        assert text == indented_json(report.as_dict())

    def test_details_escapes(self):
        details = (
            'quote " backslash \\ control \x01\x1f tab \t newline \n é ∞ \U0001f600'
        )
        report = self.with_checks(run_suite(path_graph(3), ["LRL"]), details=details)
        text = report.to_json()
        assert text.isascii() and "\\u00e9" in text and "\\ud83d\\ude00" in text
        assert text == indented_json(report.as_dict())

    @pytest.mark.parametrize(
        "model, seed", [(None, None), ("gnp", 7), ("p\u00e4th", None)]
    )
    def test_descriptor(self, model, seed):
        report = run_suite(cycle_graph(4, 2), ["COMMUTE"], model=model, seed=seed)
        assert report.to_json() == indented_json(report.as_dict())

    @pytest.mark.parametrize(
        "graph", [{}, {"n": 3, "extra": [1, {"b": None, "a": 2.5}]}, {"n": 3}]
    )
    def test_other_graph_dicts(self, graph):
        report = dataclasses.replace(run_suite(path_graph(3), ["LRL"]), graph=graph)
        assert report.to_json() == indented_json(report.as_dict())

    @pytest.mark.parametrize(
        "specs",
        [
            [],
            [{"model": "gnp", "n": 4, "s": 1, "seed": 0, "p": 0.0}],
            [
                {"model": ["x", 1], "n": 4, "s": 1, "seed": 1, "p": 2},
                {"model": "tree", "n": 4.0, "s": 1, "seed": 1},
                {"model": "tree", "n": 5, "s": 1, "seed": None},
                {"model": 'tr\u00e9"\\\n', "n": 5, "s": 1, "seed": 2, "p": [1, {}]},
                {"model": "gnp", "n": 5, "s": 2, "seed": 2, "p": 0.7},
            ],
        ],
        ids=["empty", "generation-failure", "non-string-spec-values"],
    )
    def test_corpus(self, specs):
        entries = run_corpus(specs)
        text = corpus_json(entries)
        assert text == indented_json(corpus_payload(entries))
        if not specs:
            assert '"entries": [],' in text


class TestRunCorpus:
    def test_mixed_specs(self):
        entries = run_corpus(
            [
                GraphSpec("tree", 5, 2, seed=11),
                GraphSpec("gnp", 4, 1, seed=0, p=0.0),
            ]
        )
        assert len(entries) == 2
        ok, bad = entries
        assert ok.passed and ok.error is None
        assert isinstance(ok.report, SuiteReport)
        assert not bad.passed
        assert bad.report is None
        assert "GenerationError" in bad.error

    def test_accepts_dict_specs(self):
        entries = run_corpus([{"model": "cycle", "n": 4, "s": 1, "seed": 3}])
        assert entries[0].passed

    def test_invalid_params_captured(self):
        entries = run_corpus([GraphSpec("wheel", 4, 1, seed=0)])
        assert entries[0].error is not None
        assert "GraphError" in entries[0].error

    def test_spec_as_dict(self):
        assert GraphSpec("tree", 4, 2, seed=9).as_dict() == {
            "model": "tree",
            "n": 4,
            "s": 2,
            "seed": 9,
        }
        assert GraphSpec("gnp", 4, 2, seed=9, p=0.5).as_dict()["p"] == 0.5

    @pytest.mark.parametrize(
        "entry, message",
        [
            (
                {"model": "tree", "n": 4, "s": 1, "seed": 1, "bogus": 2, "extra": 3},
                "corpus entry #1 has unknown key(s): bogus, extra",
            ),
            ({"model": "tree", "n": 4, "s": 1}, MISSING_KEYS),
            (["tree", 4, 1, 1], MISSING_KEYS),
            (7, MISSING_KEYS),
        ],
        ids=["unknown-keys", "no-seed", "list", "number"],
    )
    def test_malformed_dict_spec(self, capsys, tmp_path, entry, message):
        with pytest.raises(GraphError) as info:
            run_corpus([entry])
        assert str(info.value) == message
        # The same text the CLI prints for the same corpus file.
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([entry]))
        assert main(["verify", "--corpus", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_every_entry_is_checked_before_any_runs(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return random_graph(*args)

        monkeypatch.setattr(verify, "random_graph", counting)
        good = {"model": "tree", "n": 4, "s": 1, "seed": 1}
        with pytest.raises(GraphError, match="corpus entry #2 has unknown key"):
            run_corpus([good, {**good, "bogus": 2}])
        assert calls == []
        run_corpus([good, GraphSpec("tree", 4, 1, seed=1)])
        assert len(calls) == 2

    def test_corpus_entry_passed_logic(self):
        spec = GraphSpec("tree", 4, 1, seed=0)
        failed = CorpusEntry(spec, None, "boom")
        assert not failed.passed


class TestStandardCorpus:
    def test_size_and_determinism(self, corpus):
        assert len(corpus) == 40
        again = standard_corpus()
        assert all(a[1] == b[1] for a, b in zip(corpus, again))
        assert [a[0] for a in corpus] == [b[0] for b in again]

    def test_named_shapes_cover_block_sizes(self, corpus):
        named = corpus[:15]
        models = [d["model"] for d, _ in named]
        assert models.count("path") == 6
        assert models.count("complete") == 3
        assert models.count("cycle") == 3
        assert models.count("star") == 3
        assert {d["s"] for d, _ in named} == {1, 2, 3}

    def test_random_tail_models(self, corpus):
        tail = corpus[15:]
        assert len(tail) == 25
        models = {d["model"] for d, _ in tail}
        assert models == {"tree", "gnp", "cycle", "complete"}
        assert all(4 <= d["n"] <= 8 for d, _ in tail)
        assert all(1 <= d["s"] <= 3 for d, _ in tail)

    def test_descriptors_match_graphs(self, corpus):
        for descriptor, g in corpus:
            assert descriptor["n"] == g.n
            assert descriptor["s"] == g.s


class TestEveryCheckOnCorpus:
    """The package-level guarantee: the whole registry passes on the whole
    standard corpus.  Acceptance-critical identities get their own timed
    tests in the acceptance module; this one asserts the blanket result."""

    def test_full_registry_green(self, corpus_workspaces):
        failures = []
        for descriptor, g, ws in corpus_workspaces:
            for check_id in CHECK_IDS:
                result = run_check(g, check_id, workspace=ws)
                if not result.passed:
                    failures.append((descriptor, check_id, result.residual))
        assert failures == []

    def test_every_tree_runs_the_tree_checks(self, corpus_workspaces):
        trees = 0
        for _, g, ws in corpus_workspaces:
            if g.m == g.n - 1:
                trees += 1
                for check_id in ("TREE_DISTANCE", "TREE_DET"):
                    result = run_check(g, check_id, workspace=ws)
                    assert not result.skipped and result.passed
        assert trees == 18

    def test_rwiden_residual_tight(self, corpus_workspaces):
        # The summed-resistance identity holds well below 1e-9 * n, a
        # stricter budget than the registry's reporting tolerance.
        for _, g, ws in corpus_workspaces:
            result = run_check(g, "RWIDEN", workspace=ws)
            assert result.residual <= 1e-9 * g.n

    def test_margins_not_marginal(self, corpus_workspaces):
        # Every non-skipped residual with a positive tolerance clears it by
        # at least a factor of 100: the suite is not passing by luck.
        worst = 0.0
        for _, g, ws in corpus_workspaces:
            for check_id in CHECK_IDS:
                result = run_check(g, check_id, workspace=ws)
                if not result.skipped and result.tolerance > 0.0:
                    worst = max(worst, result.residual / result.tolerance)
        assert worst <= 1e-2


def ill_conditioned_graphs():
    """Twelve graphs whose weight scale or weight conditioning is extreme."""
    graphs = {}
    for w in (1e-6, 1e-3, 1e3, 1e6):
        graphs[f"path200 w={w:g}"] = path_graph(200, 1, np.array([[w]]))
    for w in (1e-6, 1e-3, 1e3, 1e6):
        graphs[f"cycle70 w={w:g}"] = cycle_graph(70, 3, w * np.eye(3))
    base = random_graph(60, 3, "gnp", seed=9, p=0.15)
    for c in (4, 6, 8):
        # Each weight Q diag(1, 10^(-c/2), 10^(-c)) Q', Q drawn per edge.
        rng = np.random.default_rng(5)
        edges = []
        for e in base.edges:
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            spectrum = np.diag([1.0, 10.0 ** (-c / 2), 10.0**-c])
            edges.append((e.u, e.v, q @ spectrum @ q.T))
        graphs[f"gnp60 c={c}"] = from_edges(60, 3, edges)
    graphs["path40 w=1e-10"] = path_graph(40, 1, np.array([[1e-10]]))
    return graphs


class TestIllConditioning:
    """The scale-aware shift keeps the registry's verdicts independent of
    the weight scale."""

    #: The failures that remain, each at one and at two BLAS threads.
    #: SCALAR_REDUCTION's tolerance is absolute (1e-10) while R reaches
    #: 2e8 on path200 at w=1e6; L_EQ_QQT squares weight roots of condition
    #: 1e8 at c=8.
    KNOWN = {
        ("path200 w=1000", "SCALAR_REDUCTION"),
        ("path200 w=1e+06", "SCALAR_REDUCTION"),
        ("gnp60 c=8", "L_EQ_QQT"),
    }

    def test_failures_at_most_known(self):
        failing = set()
        for name, g in ill_conditioned_graphs().items():
            report = run_suite(g)
            failing |= {(name, c.check_id) for c in report.checks if not c.passed}
        assert failing <= self.KNOWN

    @settings(deadline=None, max_examples=100)
    @given(
        model=st.sampled_from(["gnp", "tree"]),
        n=st.integers(min_value=3, max_value=10),
        s=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=-6, max_value=6),
    )
    # Two graphs on which the unit shift failed TAU_SUM and TAURTAU_FORM.
    @example(model="gnp", n=5, s=2, seed=0, k=-6)
    @example(model="gnp", n=5, s=1, seed=1, k=-6)
    # PINV_SUBMATRIX failed on the first under an absolute |det| > 1e-8
    # screen, and raised NumericError on the second when the unit-shifted
    # pseudoinverse was inverted numerically.
    @example(model="gnp", n=3, s=2, seed=0, k=6)
    @example(model="gnp", n=5, s=1, seed=2, k=-6)
    def test_registry_passes_at_any_weight_scale(self, model, n, s, seed, k):
        g = random_graph(n, s, model, seed=seed, p=0.5 if model == "gnp" else None)
        scale = 10.0**k
        scaled = from_edges(n, s, [(e.u, e.v, scale * e.weight) for e in g.edges])
        # Every check runs.  PINV_SUBMATRIX screens its index sets by a
        # Cholesky pivot relative to the submatrix's scale and inverts its
        # unit-shifted instance in closed form, so it takes part.
        # SCALAR_REDUCTION's tolerance is an absolute 1e-10 on R, which
        # scales with the weights, so its verdict is not asserted.
        report = run_suite(scaled)
        failing = [
            c.check_id
            for c in report.checks
            if not c.passed and c.check_id != "SCALAR_REDUCTION"
        ]
        assert failing == []
