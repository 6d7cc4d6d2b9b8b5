"""Numerical verification of every identity the package computes with.

Each identity is a registry check: given a graph, it produces a residual
(max-norm of a defect, a count of violations, or a normalized margin
shortfall), a tolerance, and a pass/fail/skip outcome.  Checks that do not
apply to a graph (tree-only or scalar-only identities) come back skipped,
and skipped checks never flip a suite's overall result.

Checks never reuse the quantity they are checking: each one recomputes its
right-hand side through an independent route (spectral pseudoinverse vs
shifted-inverse algebra, LU determinants vs closed forms, breadth-first
path sums vs resistance blocks, the defining edge sum of the deficit blocks
vs the engine's ``L xbar + (2/n)(1 (x) I_s)``, and so on).  Determinants
and cofactors are compared as exact ``(sign, log|.|)`` pairs, so values
beyond the double range are still compared, not two infinities or zeros.

Reports are deterministic: the same graph yields a byte-identical JSON
report, including the randomized checks, whose index samples are drawn
from generators seeded by the graph's dimensions alone.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .graph import (
    GenerationError,
    GraphError,
    MatrixWeightedGraph,
    adjacency,
    complete_graph,
    cycle_graph,
    has_unit_weights,
    is_tree,
    path_graph,
    random_graph,
    random_pd_weight,
    star_graph,
)
from .laplacian import stacked_identity
from .resistance import ResistanceWorkspace, _shift

__all__ = [
    "UnknownCheckError",
    "CheckResult",
    "SuiteReport",
    "CorpusEntry",
    "GraphSpec",
    "CHECK_IDS",
    "check_summary",
    "numerically_nonsingular",
    "run_check",
    "run_suite",
    "run_corpus",
    "scalar_resistance_oracle",
    "tree_distance_matrix",
    "standard_corpus",
]


class UnknownCheckError(ValueError):
    """A check id not present in the registry."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registry check on one graph.

    ``passed`` is exactly ``residual <= tolerance`` for checks that ran;
    skipped checks report ``passed=True`` with the skip reason in
    ``details``.  ``wall_time`` (seconds) is measured per check but kept
    out of the JSON form so reports stay byte-identical across runs.
    """

    check_id: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool
    details: str
    wall_time: float

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "skipped": self.skipped,
            "details": self.details,
        }


@dataclass(frozen=True)
class SuiteReport:
    """All requested checks on one graph, in registry order."""

    graph: dict
    checks: tuple[CheckResult, ...]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "graph": self.graph,
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class GraphSpec:
    """Parameters for one :func:`random_graph` call in a corpus run."""

    model: str
    n: int
    s: int
    seed: int
    p: float | None = None

    def as_dict(self) -> dict:
        d = {"model": self.model, "n": self.n, "s": self.s, "seed": self.seed}
        if self.p is not None:
            d["p"] = self.p
        return d


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus item: either a report or a generation failure message."""

    spec: GraphSpec
    report: SuiteReport | None
    error: str | None

    @property
    def passed(self) -> bool:
        return self.error is None and self.report.passed


# ----------------------------------------------------------------------
# independent oracles


def scalar_resistance_oracle(g: MatrixWeightedGraph) -> np.ndarray:
    """Classical scalar resistance distances ``r(i,j) = h_ii + h_jj - 2 h_ij``
    from the spectral pseudoinverse of the scalar Laplacian.

    Only valid for ``s = 1``; completely independent of the resistance
    engine's shifted-inverse route.
    """
    if g.s != 1:
        raise linalg.DimensionError(f"scalar oracle requires s=1, got s={g.s}")
    lap = np.zeros((g.n, g.n))
    for e in g.edges:
        c = 1.0 / float(e.weight[0, 0])
        lap[e.u, e.v] -= c
        lap[e.v, e.u] -= c
        lap[e.u, e.u] += c
        lap[e.v, e.v] += c
    h = linalg.pseudo_inverse(lap)
    d = np.diag(h)
    return d[:, np.newaxis] + d[np.newaxis, :] - h - h.T


def tree_distance_matrix(g: MatrixWeightedGraph) -> np.ndarray:
    """Weighted path distances of a scalar-weighted tree, by breadth-first
    traversal from every vertex."""
    if g.s != 1:
        raise linalg.DimensionError(f"tree distances require s=1, got s={g.s}")
    if not is_tree(g):
        raise linalg.DimensionError("graph is not a tree")
    nbrs = adjacency(g)
    weights = [float(e.weight[0, 0]) for e in g.edges]
    dist = np.zeros((g.n, g.n))
    for root in range(g.n):
        todo = [root]
        seen = {root}
        while todo:
            u = todo.pop()
            for v, edge_index in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    dist[root, v] = dist[root, u] + weights[edge_index]
                    todo.append(v)
    return dist


# ----------------------------------------------------------------------
# the check registry


def _log_ratio(a: tuple[float, float], b: tuple[float, float]) -> float:
    """``|log(a / b)|`` (principal branch) for two ``(sign, log|.|)`` pairs.

    It is ``|log|a| - log|b||`` when the signs agree, and at least ``pi``
    when they differ.  Since ``|log(a/b)| >= |a - b| / max(|a|, |b|)``, a
    tolerance on it is no looser than the same relative tolerance on the
    plain values, and it still compares values beyond the double range.
    """
    gap = abs(a[1] - b[1])
    return gap if a[0] == b[0] else math.hypot(gap, math.pi)


def _value_text(sign: float, log_abs: float) -> str:
    """The plain value of a ``(sign, log|.|)`` pair, or ``[-]exp(log|.|)``
    when the value is beyond the double range."""
    if linalg.slog_in_range(sign, log_abs):
        return f"{linalg.value_from_slog(sign, log_abs):.12e}"
    return f"{'-' if sign < 0 else ''}exp({log_abs:.12e})"


def _margin_residual(smallest: float, band: float) -> float:
    """0 when ``smallest`` clears ``band``, else the normalized shortfall."""
    if smallest >= band:
        return 0.0
    return 1.0 - smallest / band


def _check_lap_kernel(ws: ResistanceWorkspace):
    g = ws.graph
    defect = ws.laplacian @ stacked_identity(g.n, g.s)
    residual = linalg.max_norm(defect)
    tol = 1e-12 * (1.0 + linalg.max_norm(ws.laplacian))
    return residual, tol, "Laplacian times the stacked identity"


def _check_l_eq_qqt(ws: ResistanceWorkspace):
    q = ws.incidence
    defect = ws.laplacian - q @ q.T
    residual = linalg.max_norm(defect)
    tol = 1e-10 * (1.0 + linalg.max_norm(ws.laplacian))
    return residual, tol, "Laplacian vs incidence Gram product"


def _check_shift_nonsing(ws: ResistanceWorkspace):
    values = ws.shift_spectrum.eigenvalues
    ns = values.size
    band = linalg.default_rank_tol(ns) * float(np.abs(values).max())
    smallest = float(values[-1])
    residual = _margin_residual(smallest, band)
    details = f"smallest eigenvalue {smallest:.6e}, zero band {band:.6e}"
    return residual, 0.0, details


def _check_lplus(ws: ResistanceWorkspace):
    spectral = ws.spectral_pseudoinverse
    residual = linalg.max_norm(ws.pseudoinverse - spectral)
    tol = 1e-8 * (1.0 + linalg.max_norm(spectral))
    return residual, tol, "shifted-inverse route vs spectral pseudoinverse"


def _check_commute(ws: ResistanceWorkspace):
    lx = ws.laplacian @ ws.shifted_inverse
    xl = ws.shifted_inverse @ ws.laplacian
    residual = linalg.max_norm(lx - xl)
    tol = 1e-9 * (1.0 + linalg.max_norm(lx))
    return residual, tol, "Laplacian and shifted inverse commutator"


def _check_taudef(ws: ResistanceWorkspace):
    g = ws.graph
    n, s = g.n, g.s
    lap = ws.laplacian.reshape(n, s, n, s)
    r = ws.resistance.reshape(n, s, n, s)
    edge_sum = np.empty_like(ws.deficit)
    for i, incident in enumerate(adjacency(g)):
        block = 2.0 * np.eye(s)
        for j, _ in incident:
            # -L_{ij} is the inverse weight of edge {i, j}.
            inverse_weight = -lap[i, :, j, :]
            block -= inverse_weight @ r[j, :, i, :]
        edge_sum[i * s : (i + 1) * s, :] = block
    residual = linalg.max_norm(edge_sum - ws.deficit)
    tol = 1e-9 * (1.0 + linalg.max_norm(ws.deficit))
    return residual, tol, "Laplacian-expression deficit blocks vs their edge sum"


def _check_tau_sum(ws: ResistanceWorkspace):
    g = ws.graph
    total = ws.deficit.T @ stacked_identity(g.n, g.s)
    residual = linalg.max_norm(total - 2.0 * np.eye(g.s))
    return residual, 1e-10, "deficit blocks summed over vertices"


def _check_rwiden(ws: ResistanceWorkspace):
    g = ws.graph
    n, s = g.n, g.s
    lap = ws.laplacian.reshape(n, s, n, s)
    r = ws.resistance.reshape(n, s, n, s)
    total = np.zeros((s, s))
    for i, incident in enumerate(adjacency(g)):
        for j, _ in incident:
            inverse_weight = -lap[i, :, j, :]
            total += inverse_weight @ r[j, :, i, :]
    target = 2.0 * (g.n - 1) * np.eye(g.s)
    residual = linalg.max_norm(total - target)
    tol = 1e-8 * (1.0 + 2.0 * (g.n - 1))
    return residual, tol, "inverse-weighted resistance blocks summed over edges"


def _check_lrl(ws: ResistanceWorkspace):
    lap = ws.laplacian
    defect = lap @ ws.resistance @ lap + 2.0 * lap
    residual = linalg.max_norm(defect)
    tol = 1e-8 * (1.0 + linalg.max_norm(lap))
    return residual, tol, "resistance sandwiched by Laplacians"


def _check_qrq(ws: ResistanceWorkspace):
    q = ws.incidence
    defect = q.T @ ws.resistance @ q + 2.0 * np.eye(q.shape[1])
    residual = linalg.max_norm(defect)
    return residual, 1e-8, "resistance sandwiched by incidence columns"


def _check_taurtau_pd(ws: ResistanceWorkspace):
    values = ws.deficit_form_spectrum.eigenvalues
    band = linalg.default_rank_tol(values.size) * float(np.abs(values).max())
    smallest = float(values[-1])
    residual = _margin_residual(smallest, band)
    details = f"smallest eigenvalue {smallest:.6e}, zero band {band:.6e}"
    return residual, 0.0, details


def _check_taurtau_form(ws: ResistanceWorkspace):
    closed = ws.deficit_form_closed()
    residual = linalg.max_norm(ws.deficit_form - closed)
    tol = 1e-9 * (1.0 + linalg.max_norm(ws.deficit_form))
    return residual, tol, "deficit quadratic form vs closed expression"


def _check_det_formula(ws: ResistanceWorkspace):
    closed = ws.determinant_slog()
    direct = linalg.slogdet_lu(ws.resistance)
    details = (
        f"closed form {_value_text(*closed)}, "
        f"LU determinant {_value_text(*direct)}, "
        f"Laplacian cofactor {_value_text(*ws.laplacian_cofactor_slog)}"
    )
    return _log_ratio(closed, direct), 1e-8, details


def _check_inv_formula(ws: ResistanceWorkspace):
    product = ws.inverse() @ ws.resistance
    residual = linalg.max_norm(product - np.eye(product.shape[0]))
    return residual, 1e-8, "closed-form inverse times resistance"


def _check_inertia(ws: ResistanceWorkspace):
    g = ws.graph
    expected = (g.s, g.n * g.s - g.s, 0)
    got = ws.inertia().as_tuple()
    mismatches = sum(1 for a, b in zip(got, expected) if a != b)
    details = f"computed {got}, expected {expected}"
    return float(mismatches), 0.0, details


def _check_interlace(ws: ResistanceWorkspace):
    rows = ws.interlacing()
    worst = 0.0
    failing = []
    for row in rows:
        slack = 1e-9 * (1.0 + abs(row.bound))
        violation = max(row.lower - row.bound, row.bound - row.upper)
        worst = max(worst, violation - slack)
        if not row.holds:
            failing.append(row.index)
    residual = max(0.0, worst)
    details = (
        f"{len(rows)} rows, all hold"
        if not failing
        else f"violated at rows {failing}"
    )
    return residual, 0.0, details


def _check_cofactor_eq(ws: ResistanceWorkspace):
    g = ws.graph
    reference = ws.laplacian_cofactor_slog
    rng = np.random.default_rng([g.n, g.s, g.m, 1201])
    worst = 0.0
    pairs = []
    for _ in range(5):
        i = int(rng.integers(0, g.n))
        j = int(rng.integers(0, g.n))
        pairs.append((i + 1, j + 1))
        value = linalg.block_cofactor_slog(ws.laplacian, i, j, g.s)
        worst = max(worst, _log_ratio(value, reference))
    details = f"blocks {pairs} vs reference {_value_text(*reference)}"
    return worst, 1e-8, details


def _pinv_submatrix_sets(rng, order: int, max_size: int, matrix, count: int = 5):
    """Sample index sets with numerically invertible principal submatrices
    (absolute determinant pre-screen: |det| > 1e-8)."""
    sets = []
    for _ in range(count):
        for _ in range(40):
            size = int(rng.integers(1, max_size + 1))
            rows = np.sort(rng.choice(order, size=size, replace=False))
            if abs(linalg.det_lu(matrix[np.ix_(rows, rows)])) > 1e-8:
                sets.append(rows)
                break
    return sets


def numerically_nonsingular(b, rtol: float = 1e-10) -> bool:
    """Scale-aware nonsingularity of a symmetric matrix: the smallest
    singular value must exceed ``rtol`` times the largest.

    Equivalently, ``|det B|`` must exceed ``rtol`` times the largest
    singular value times the adjugate norm — the determinant's natural
    scale.  A fixed absolute cutoff on the raw determinant would be wrong:
    a perfectly conditioned 14 x 14 matrix with entries of size 0.05 has a
    determinant around 1e-15.
    """
    singular_values = np.abs(linalg.sym_eigen(b).eigenvalues)
    return float(singular_values.min()) > rtol * float(singular_values.max())


def _check_pinv_submatrices(ws: ResistanceWorkspace):
    g = ws.graph
    ns = g.n * g.s
    instances = [
        ("pseudoinverse", ws.pseudoinverse, ws.laplacian),
        ("shifted Laplacian", ws.shift_body, ws.shifted_inverse),
        ("shifted pseudoinverse", _shift(ws.pseudoinverse, g.n, g.s), None),
    ]
    rng = np.random.default_rng([g.n, g.s, g.m, 1202])
    violations = 0
    sampled = 0
    for name, a, a_pinv in instances:
        if a_pinv is None:
            a_pinv = np.linalg.inv(a)
        for rows in _pinv_submatrix_sets(rng, ns, ns - g.s, a):
            sampled += 1
            if not numerically_nonsingular(a_pinv[np.ix_(rows, rows)]):
                violations += 1
    details = f"{sampled} invertible principal submatrices over 3 instances"
    return float(violations), 0.0, details


def _check_scalar_reduction(ws: ResistanceWorkspace):
    oracle = scalar_resistance_oracle(ws.graph)
    residual = linalg.max_norm(ws.resistance - oracle)
    return residual, 1e-10, "engine resistance vs classical scalar oracle"


def _check_tree_distance(ws: ResistanceWorkspace):
    distances = tree_distance_matrix(ws.graph)
    residual = linalg.max_norm(ws.resistance - distances)
    tol = 1e-10 * (1.0 + linalg.max_norm(distances))
    return residual, tol, "engine resistance vs breadth-first path sums"


def _check_tree_det(ws: ResistanceWorkspace):
    n = ws.graph.n
    expected = float((-1) ** (n - 1) * (n - 1) * 2 ** (n - 2))
    direct = linalg.det_lu(ws.resistance)
    residual = abs(direct - expected) / abs(expected)
    details = f"LU determinant {direct:.12e}, expected {expected:.1f}"
    return residual, 1e-10, details


def _applies_always(g: MatrixWeightedGraph) -> str | None:
    return None


def _applies_tree_square_incidence(g: MatrixWeightedGraph) -> str | None:
    if is_tree(g):
        return None
    return (
        "identity requires the incidence matrix to have full column rank, "
        "which holds only for trees (m = n - 1)"
    )


def _applies_scalar(g: MatrixWeightedGraph) -> str | None:
    return None if g.s == 1 else "requires scalar weights (s = 1)"


def _applies_scalar_tree(g: MatrixWeightedGraph) -> str | None:
    if g.s != 1:
        return "requires scalar weights (s = 1)"
    if not is_tree(g):
        return "requires a tree (m = n - 1)"
    return None


def _applies_unit_tree(g: MatrixWeightedGraph) -> str | None:
    reason = _applies_scalar_tree(g)
    if reason:
        return reason
    if not has_unit_weights(g):
        return "requires unit weights"
    return None


@dataclass(frozen=True)
class _CheckDef:
    check_id: str
    summary: str
    applies: object
    run: object


_REGISTRY: tuple[_CheckDef, ...] = (
    _CheckDef(
        "LAP_KERNEL",
        "stacked identity spans the Laplacian kernel",
        _applies_always,
        _check_lap_kernel,
    ),
    _CheckDef(
        "L_EQ_QQT",
        "Laplacian equals the incidence Gram product",
        _applies_always,
        _check_l_eq_qqt,
    ),
    _CheckDef(
        "SHIFT_NONSING",
        "shifted Laplacian is nonsingular",
        _applies_always,
        _check_shift_nonsing,
    ),
    _CheckDef(
        "LPLUS",
        "pseudoinverse from the shifted inverse matches the spectral route",
        _applies_always,
        _check_lplus,
    ),
    _CheckDef(
        "COMMUTE",
        "Laplacian commutes with the shifted inverse",
        _applies_always,
        _check_commute,
    ),
    _CheckDef(
        "TAUDEF",
        "Laplacian-expression deficit blocks match their edge sum",
        _applies_always,
        _check_taudef,
    ),
    _CheckDef(
        "TAU_SUM",
        "deficit blocks sum to twice the identity",
        _applies_always,
        _check_tau_sum,
    ),
    _CheckDef(
        "RWIDEN",
        "inverse-weighted resistance blocks sum to 2(n-1) I",
        _applies_always,
        _check_rwiden,
    ),
    _CheckDef(
        "LRL",
        "Laplacian-resistance-Laplacian collapses to -2 L",
        _applies_always,
        _check_lrl,
    ),
    _CheckDef(
        "QRQ",
        "incidence-resistance-incidence collapses to -2 I on trees",
        _applies_tree_square_incidence,
        _check_qrq,
    ),
    _CheckDef(
        "TAURTAU_PD",
        "deficit quadratic form is positive definite",
        _applies_always,
        _check_taurtau_pd,
    ),
    _CheckDef(
        "TAURTAU_FORM",
        "deficit quadratic form matches its closed expression",
        _applies_always,
        _check_taurtau_form,
    ),
    _CheckDef(
        "DET_FORMULA",
        "closed-form determinant matches the LU determinant",
        _applies_always,
        _check_det_formula,
    ),
    _CheckDef(
        "INV_FORMULA",
        "closed-form inverse inverts the resistance matrix",
        _applies_always,
        _check_inv_formula,
    ),
    _CheckDef(
        "INERTIA",
        "resistance inertia is (s, ns - s, 0)",
        _applies_always,
        _check_inertia,
    ),
    _CheckDef(
        "INTERLACE",
        "negated reciprocal Laplacian spectrum interlaces resistance spectrum",
        _applies_always,
        _check_interlace,
    ),
    _CheckDef(
        "COFACTOR_EQ",
        "all Laplacian block cofactors agree",
        _applies_always,
        _check_cofactor_eq,
    ),
    _CheckDef(
        "PINV_SUBMATRIX",
        "pseudoinverses preserve principal-submatrix invertibility",
        _applies_always,
        _check_pinv_submatrices,
    ),
    _CheckDef(
        "SCALAR_REDUCTION",
        "engine matches the classical scalar resistance",
        _applies_scalar,
        _check_scalar_reduction,
    ),
    _CheckDef(
        "TREE_DISTANCE",
        "tree resistance equals path distance",
        _applies_scalar_tree,
        _check_tree_distance,
    ),
    _CheckDef(
        "TREE_DET",
        "unit tree determinant matches the closed count",
        _applies_unit_tree,
        _check_tree_det,
    ),
)

_BY_ID = {d.check_id: d for d in _REGISTRY}

#: All check ids, in registry (and report) order.
CHECK_IDS: tuple[str, ...] = tuple(d.check_id for d in _REGISTRY)


def check_summary(check_id: str) -> str:
    """One-line description of a registry check."""
    if check_id not in _BY_ID:
        raise UnknownCheckError(f"unknown check id: {check_id}")
    return _BY_ID[check_id].summary


def _execute(
    definition: _CheckDef, g: MatrixWeightedGraph, ws: ResistanceWorkspace | None
) -> CheckResult:
    start = time.perf_counter()
    reason = definition.applies(g)
    if reason is not None:
        return CheckResult(
            check_id=definition.check_id,
            residual=0.0,
            tolerance=0.0,
            passed=True,
            skipped=True,
            details=f"skipped: {reason}",
            wall_time=time.perf_counter() - start,
        )
    if ws is None:
        ws = ResistanceWorkspace(g)
    residual, tolerance, details = definition.run(ws)
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckResult(
        check_id=definition.check_id,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        skipped=False,
        details=details,
        wall_time=time.perf_counter() - start,
    )


def run_check(
    g: MatrixWeightedGraph,
    check_id: str,
    workspace: ResistanceWorkspace | None = None,
) -> CheckResult:
    """Run one registry check; inapplicable checks come back skipped.

    A prebuilt ``workspace`` for ``g`` may be supplied to share derived
    objects across checks; otherwise one is built on demand.
    """
    if check_id not in _BY_ID:
        raise UnknownCheckError(f"unknown check id: {check_id}")
    return _execute(_BY_ID[check_id], g, workspace)


def _descriptor(
    g: MatrixWeightedGraph,
    ws: ResistanceWorkspace | None,
    model: str | None,
    seed: int | None,
) -> dict:
    return {
        "n": g.n,
        "s": g.s,
        "m": g.m,
        "model": model,
        "seed": seed,
        "low_confidence": bool(ws.low_confidence) if ws is not None else False,
    }


def run_suite(
    g: MatrixWeightedGraph,
    selection=None,
    model: str | None = None,
    seed: int | None = None,
) -> SuiteReport:
    """Run a selection of checks (default: the whole registry) on a graph.

    Results are reported in registry order regardless of the selection
    order.  ``model`` and ``seed`` annotate the report's graph descriptor
    for generated graphs; they do not affect the checks.
    """
    if selection is None:
        chosen = set(CHECK_IDS)
    else:
        chosen = set()
        for check_id in selection:
            if check_id not in _BY_ID:
                raise UnknownCheckError(f"unknown check id: {check_id}")
            chosen.add(check_id)
    ws = ResistanceWorkspace(g)
    results = tuple(
        _execute(d, g, ws) for d in _REGISTRY if d.check_id in chosen
    )
    passed = all(r.passed for r in results)
    return SuiteReport(_descriptor(g, ws, model, seed), results, passed)


def run_corpus(specs) -> list[CorpusEntry]:
    """Run the full registry over a list of :class:`GraphSpec` entries.

    Generation failures (retry exhaustion, invalid parameters) are captured
    per entry rather than aborting the run.
    """
    entries = []
    for spec in specs:
        if not isinstance(spec, GraphSpec):
            spec = GraphSpec(**spec)
        try:
            g = random_graph(spec.n, spec.s, spec.model, spec.seed, spec.p)
        except (GraphError, GenerationError) as exc:
            entries.append(CorpusEntry(spec, None, f"{type(exc).__name__}: {exc}"))
            continue
        report = run_suite(g, model=spec.model, seed=spec.seed)
        entries.append(CorpusEntry(spec, report, None))
    return entries


# ----------------------------------------------------------------------
# the standard corpus


_NAMED_SHAPES = (
    ("path", lambda s, w: path_graph(2, s, w), 1),
    ("path", lambda s, w: path_graph(3, s, w), 2),
    ("complete", lambda s, w: complete_graph(3, s, w), 3),
    ("cycle", lambda s, w: cycle_graph(4, s, w), 4),
    ("star", lambda s, w: star_graph(4, s, w), 4),
)


def standard_corpus() -> list[tuple[dict, MatrixWeightedGraph]]:
    """The 40-graph verification corpus.

    Five named shapes (the 2- and 3-vertex paths, the triangle, the
    4-cycle, and the 4-ray star) at block sizes 1 through 3 — unit weights
    for scalars, seeded random positive definite weights otherwise — plus
    25 seeded random graphs with n in 4..8 and s in 1..3 across all four
    generation models.  Fully deterministic.
    """
    corpus: list[tuple[dict, MatrixWeightedGraph]] = []
    for shape_index, (name, build, edge_count) in enumerate(_NAMED_SHAPES):
        for s in (1, 2, 3):
            if s == 1:
                g = build(1, None)
                seed = None
            else:
                seed = 1000 + 10 * shape_index + s
                rng = np.random.default_rng(seed)
                weights = [random_pd_weight(rng, s) for _ in range(edge_count)]
                g = build(s, weights)
            descriptor = {"model": name, "n": g.n, "s": s, "seed": seed}
            corpus.append((descriptor, g))
    models = ("tree", "gnp", "cycle", "complete")
    for k in range(25):
        model = models[k % 4]
        n = 4 + k % 5
        s = 1 + k % 3
        seed = 300 + k
        p = 0.6 if model == "gnp" else None
        g = random_graph(n, s, model, seed, p)
        descriptor = {"model": model, "n": n, "s": s, "seed": seed}
        corpus.append((descriptor, g))
    return corpus
