"""Numerical verification of every identity the package computes with.

Each identity is a registry check: given a graph, it produces a residual
(max-norm of a defect, a count of violations, or a normalized margin
shortfall), a tolerance, and a pass/fail/skip outcome.  Checks that do not
apply to a graph (the tree identities, and the scalar reduction) come back
skipped, and skipped checks never flip a suite's overall result.

Checks never reuse the quantity they are checking: each one recomputes its
right-hand side through an independent route (the projected grounded
inverse vs shifted-inverse algebra, LU determinants vs closed forms, LU
minors vs the cofactor from Cholesky pivots, ``T' R T`` from the
resistance matrix vs the engine's ``R``-free expression, block path sums
vs resistance blocks on trees, the defining edge sum of the deficit blocks
vs the engine's ``L xbar + (2/n)(1 (x) I_s)``, and so on).  Determinants and cofactors
are compared as exact ``(sign, log|.|)`` pairs, so values beyond the
double range are still compared, not two infinities or zeros.

Reports are deterministic: the same graph yields a byte-identical JSON
report, including the randomized checks, whose index samples are drawn
from generators seeded by the graph's dimensions alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from . import linalg
from .graph import (
    GenerationError,
    GraphError,
    MatrixWeightedGraph,
    _pd_weights,
    adjacency,
    complete_graph,
    cycle_graph,
    is_tree,
    path_graph,
    random_graph,
    star_graph,
)
from .laplacian import build_incidence, stacked_identity
from .resistance import ResistanceWorkspace, _interlace_slack

__all__ = [
    "UnknownCheckError",
    "CheckResult",
    "SuiteReport",
    "CorpusEntry",
    "GraphSpec",
    "CHECK_IDS",
    "run_check",
    "run_suite",
    "run_corpus",
    "corpus_json",
    "corpus_text",
    "scalar_resistance_oracle",
    "tree_distance_matrix",
    "standard_corpus",
]


class UnknownCheckError(ValueError):
    """A check id not present in the registry."""


# ----------------------------------------------------------------------
# JSON reports, written as ``json.dumps(..., indent=2, sort_keys=True)``
# writes them: with an indent, json encodes in pure Python.

#: How ``json.dumps`` writes a value of each exact type; any other value
#: (a container, a subclass) goes through ``json.dumps`` itself.
_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    bool: lambda x: "true" if x else "false",
    int: int.__repr__,
    # json spells the non-finite floats NaN, Infinity and -Infinity.
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    type(None): lambda x: "null",
}


def _json_value(x, indent: str) -> str:
    """``x`` as json's indenting encoder writes the value of a key that
    sits at ``indent``."""
    write = _JSON_SCALARS.get(type(x))
    if write is not None:
        return write(x)
    # Encoded strings hold no raw newline: each one is a line break.
    return json.dumps(x, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _object_template(keys, indent: str) -> str:
    """A ``%s`` template of a JSON object with these keys, one value per
    key in sorted order, whose closing brace sits at ``indent``."""
    lines = ",\n".join(f'{indent}  "{k}": %s' for k in sorted(keys))
    return f"{{\n{lines}\n{indent}}}"


#: The indent of the keys of an object that is an item of a top-level list.
_ITEM_INDENT = " " * 6
_CHECK_JSON = "    " + _object_template(
    ("details", "id", "passed", "residual", "skipped", "tolerance"), "    "
)
_GRAPH_ORDER = ("low_confidence", "m", "model", "n", "s", "seed")
_GRAPH_KEYS = frozenset(_GRAPH_ORDER)
_GRAPH_JSON = _object_template(_GRAPH_ORDER, "  ")
_REPORT_JSON = _object_template(("checks", "graph", "passed"), "")
_ENTRY_JSON = "    " + _object_template(("error", "report", "spec"), "    ")
_CORPUS_JSON = _object_template(("entries", "passed"), "")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one registry check on one graph.

    ``passed`` is exactly ``residual <= tolerance`` for checks that ran;
    skipped checks report ``passed=True`` with the skip reason in
    ``details``.
    """

    check_id: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool
    details: str

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
        """``json.dumps(self.as_dict(), indent=2, sort_keys=True)``, written
        directly: json's indenting encoder runs in pure Python."""
        checks = ",\n".join(
            _CHECK_JSON
            % (
                _json_value(c.details, _ITEM_INDENT),
                _json_value(c.check_id, _ITEM_INDENT),
                _json_value(c.passed, _ITEM_INDENT),
                _json_value(c.residual, _ITEM_INDENT),
                _json_value(c.skipped, _ITEM_INDENT),
                _json_value(c.tolerance, _ITEM_INDENT),
            )
            for c in self.checks
        )
        graph = self.graph
        if isinstance(graph, dict) and graph.keys() == _GRAPH_KEYS:
            values = tuple(_json_value(graph[k], "    ") for k in _GRAPH_ORDER)
            descriptor = _GRAPH_JSON % values
        else:
            descriptor = _json_value(graph, "  ")
        return _REPORT_JSON % (
            f"[\n{checks}\n  ]" if checks else "[]",
            descriptor,
            _json_value(self.passed, "  "),
        )

    def to_text(self) -> str:
        """The text report: a ``graph:`` header, one line per check and
        ``overall: PASS`` or ``FAIL``."""
        g = self.graph
        lines = [
            f"graph: n={g['n']} s={g['s']} m={g['m']}"
            + (f" model={g['model']}" if g["model"] else "")
            + (f" seed={g['seed']}" if g["seed"] is not None else "")
            + (" LOW-CONFIDENCE" if g["low_confidence"] else "")
        ]
        for c in self.checks:
            status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
            lines.append(
                f"{c.check_id:<16} {status:<4} residual {c.residual:.5e} "
                f"tolerance {c.tolerance:.5e}  {c.details}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphSpec:
    """Parameters for one :func:`random_graph` call in a corpus run; a dict
    corpus entry gives them as its keys, each field without a default required."""

    model: str
    n: int
    s: int
    seed: int
    p: float | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "p" or v is not None}


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
    u, v = g.endpoints.T
    lap = np.zeros((g.n, g.n))
    # An inverse weight or a diagonal sum that overflows is left to
    # ``pseudo_inverse``, which refuses the non-finite matrix.
    with np.errstate(over="ignore", divide="ignore"):
        c = 1.0 / g.weights[:, 0, 0]
        lap[u, v] = lap[v, u] = -c
        # A vertex's edges to smaller neighbours come first in canonical
        # order, so each diagonal entry sums its terms in edge order.
        np.add.at(lap, (v, v), c)
        np.add.at(lap, (u, u), c)
    h = linalg.pseudo_inverse(lap)
    d = np.diag(h)
    return d[:, np.newaxis] + d[np.newaxis, :] - h - h.T


def tree_distance_matrix(g: MatrixWeightedGraph) -> np.ndarray:
    """Block path sums of a tree: the ``ns x ns`` matrix whose ``(i, j)``
    block sums the weights on the path from ``i`` to ``j``.  After the
    root's row, each vertex reached from ``p`` over the weight ``W`` takes
    ``p``'s row plus ``W``, and minus ``W`` on its own subtree, which is a
    contiguous range of the depth-first preorder from vertex 0."""
    if not is_tree(g):
        raise linalg.DimensionError("graph is not a tree")
    n, s = g.n, g.s
    nbrs = adjacency(g)
    # The preorder, as (vertex, parent's position, parent edge) entries.
    order = []
    position = [-1] * n
    todo = [(0, -1, -1)]
    while todo:
        v, p, e = todo.pop()
        position[v] = len(order)
        order.append((v, p, e))
        todo.extend((u, position[v], k) for u, k in nbrs[v] if position[u] < 0)
    # The subtree at position i is the range [i, end[i]).
    end = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        end[order[i][1]] = max(end[order[i][1]], end[i])
    # Block rows by vertex, block columns in preorder.
    dist = np.zeros((n, s, n, s))
    for i, (_, p, e) in enumerate(order[1:], 1):
        dist[0, :, i] = dist[0, :, p] + g.weights[e]
    for i, (v, p, e) in enumerate(order[1:], 1):
        up, step = dist[order[p][0]], g.weights[e][:, np.newaxis]
        np.add(up, step, out=dist[v])
        np.subtract(up[:, i : end[i]], step, out=dist[v][:, i : end[i]])
    return np.take(dist, position, axis=2).reshape(n * s, n * s)


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
    q = build_incidence(ws.graph)
    defect = ws.laplacian - q @ q.T
    residual = linalg.max_norm(defect)
    tol = 1e-10 * (1.0 + linalg.max_norm(ws.laplacian))
    return residual, tol, "Laplacian vs incidence Gram product"


def _check_shift_nonsing(ws: ResistanceWorkspace):
    # The spectrum of M read from the Laplacian's eigenvalues, a route
    # independent of the engine's Cholesky verdict.
    largest, smallest = ws.shift_extremes
    band = linalg.default_rank_tol(ws.graph.n * ws.graph.s) * largest
    residual = _margin_residual(smallest, band)
    details = f"smallest eigenvalue {smallest:.6e}, zero band {band:.6e}"
    return residual, 0.0, details


def _check_lplus(ws: ResistanceWorkspace):
    n, s = ws.graph.n, ws.graph.s
    # L^+ = Pi G Pi (Pi = I - P) for any generalized inverse G of L; here
    # G inverts L without vertex 0's block row and column by LU, and Pi
    # takes off the block means over block rows, then block columns.
    grounded = np.zeros_like(ws.laplacian)
    grounded[s:, s:] = np.linalg.inv(ws.laplacian[s:, s:])
    blocks = grounded.reshape(n, s, n, s)
    blocks -= blocks.mean(axis=0)
    blocks -= blocks.mean(axis=2, keepdims=True)
    tol = 1e-8 * (1.0 + linalg.max_norm(grounded))
    grounded -= ws.pseudoinverse()
    residual = linalg.max_norm(grounded)
    return residual, tol, "shifted-inverse route vs projected grounded inverse"


def _check_commute(ws: ResistanceWorkspace):
    lx = ws.laplacian @ ws.shifted_inverse
    xl = ws.shifted_inverse @ ws.laplacian
    residual = linalg.max_norm(lx - xl)
    tol = 1e-9 * (1.0 + linalg.max_norm(lx))
    return residual, tol, "Laplacian and shifted inverse commutator"


def _edge_terms(ws: ResistanceWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """The terms ``W_ij^{-1} R_ji`` of the defining edge sums, one for each
    ordered pair of adjacent vertices, in one batched product.

    Returns the vertex ``i`` of each term and the ``(2m, s, s)`` stack of
    terms, sorted by ``(i, j)`` so that each vertex's neighbours come in
    ascending order.
    """
    g = ws.graph
    n, s = g.n, g.s
    us, vs = g.endpoints.T
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    lap = ws.laplacian.reshape(n, s, n, s)
    r = ws.resistance.reshape(n, s, n, s)
    # -L_{ij} is the inverse weight of edge {i, j}.
    return rows, -lap[rows, :, cols, :] @ r[cols, :, rows, :]


def _deficit_edge_sum(ws: ResistanceWorkspace) -> np.ndarray:
    """The deficit blocks ``T_i = 2 I - sum_j W_ij^{-1} R_ji`` by their
    defining edge sum, stacked ``ns x s``; each vertex subtracts its terms
    in ascending neighbour order."""
    g = ws.graph
    rows, terms = _edge_terms(ws)
    blocks = np.tile(2.0 * np.eye(g.s), (g.n, 1, 1))
    np.subtract.at(blocks, rows, terms)
    return blocks.reshape(g.n * g.s, g.s)


def _check_taudef(ws: ResistanceWorkspace):
    edge_sum = _deficit_edge_sum(ws)
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
    total = _edge_terms(ws)[1].sum(axis=0)
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
    q = build_incidence(ws.graph)
    defect = q.T @ ws.resistance @ q + 2.0 * np.eye(q.shape[1])
    residual = linalg.max_norm(defect)
    return residual, 1e-8, "resistance sandwiched by incidence columns"


def _check_taurtau_pd(ws: ResistanceWorkspace):
    # T' R T formed with R, not the engine's closed expression, whose
    # definiteness the workspace already required.
    values = linalg.sym_eigenvalues(ws.deficit_form_direct)
    band = linalg.default_rank_tol(values.size) * linalg.max_norm(values)
    smallest = float(values[-1])
    residual = _margin_residual(smallest, band)
    details = f"smallest eigenvalue {smallest:.6e}, zero band {band:.6e}"
    return residual, 0.0, details


def _check_taurtau_form(ws: ResistanceWorkspace):
    residual = linalg.max_norm(ws.deficit_form - ws.deficit_form_direct)
    tol = 1e-9 * (1.0 + linalg.max_norm(ws.deficit_form))
    return residual, tol, "closed-expression deficit form vs T' R T"


def _check_det_formula(ws: ResistanceWorkspace):
    closed = ws.determinant_slog()
    direct = ws.resistance_slogdet
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
        violation = max(row.lower - row.bound, row.bound - row.upper)
        worst = max(worst, violation - _interlace_slack(row.bound))
        if not row.holds:
            failing.append(row.index)
    held = f"{len(rows)} rows, all hold"
    return max(0.0, worst), 0.0, f"violated at rows {failing}" if failing else held


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
    details = f"blocks {pairs} vs Cholesky-pivot reference {_value_text(*reference)}"
    return worst, 1e-8, details


#: Index sets each ``PINV_SUBMATRIX`` instance aims to sample.
_PINV_SETS_PER_INSTANCE = 5

#: Relative scale at which each test of ``PINV_SUBMATRIX`` calls a matrix singular.
_NONSINGULAR_RTOL = 1e-10


def _shifted_block(source: np.ndarray, rows: np.ndarray, n: int, s: int, *scales):
    """``(source + scale P)[rows][:, rows]`` bit for bit as ``_add_shift``
    makes it, with no shifted copy: the principal block is gathered, then the
    projector's ``scale / n`` is added where ``p = q (mod s)`` and ``0.0``
    elsewhere, as the shift adds it (turning ``-0.0`` into ``0.0``).  Each
    of ``scales`` is added so in turn, as nested shifts add them; with
    none it is ``source[rows][:, rows]``."""
    block = source.take(rows, axis=0).take(rows, axis=1)
    if scales:
        phase = rows % s
        same = np.equal.outer(phase, phase)
        for scale in scales:
            block += (scale / n) * same
    return block


def _pinv_submatrix_sets(rng, source: np.ndarray, n: int, s: int, *scales):
    """Sample index sets ``S`` whose principal submatrix ``A[S, S]`` of the
    positive semidefinite ``A``, that is ``source`` shifted by ``scales``
    as in :func:`_shifted_block`, is numerically invertible.

    Each draw takes a size from 1 to ``ns - s``, then that many distinct
    indices.  It is accepted when the Cholesky factorization of
    ``A[S, S]`` succeeds and its smallest squared pivot clears
    ``_NONSINGULAR_RTOL`` times its largest diagonal entry (the largest
    entry of a positive semidefinite matrix).  Up to
    ``_PINV_SETS_PER_INSTANCE`` sets are returned, each after at most 40
    draws.
    """
    order = n * s
    sets = []
    for _ in range(_PINV_SETS_PER_INSTANCE):
        for _ in range(40):
            size = int(rng.integers(1, order - s + 1))
            rows = np.sort(rng.choice(order, size=size, replace=False))
            block = _shifted_block(source, rows, n, s, *scales)
            try:
                pivots = np.linalg.cholesky(block).diagonal()
            except np.linalg.LinAlgError:
                continue
            if float(pivots.min()) ** 2 > _NONSINGULAR_RTOL * block.diagonal().max():
                sets.append(rows)
                break
    return sets


def _nonsingular(b: np.ndarray) -> bool:
    """Scale-aware nonsingularity of an exactly symmetric, finite float64
    ``b``: the smallest singular value must exceed ``1e-10`` times the
    largest.

    The singular values are the absolute eigenvalues.  Equivalently,
    ``|det B|`` must exceed ``1e-10`` times the largest singular value
    times the adjugate norm, the determinant's natural scale.  A fixed
    absolute cutoff on the raw determinant would be wrong: a perfectly
    conditioned 14 x 14 matrix with entries of size 0.05 has a determinant
    around 1e-15.

    A positive definite ``B`` is accepted by
    :func:`linalg.certified_definite` at ``1e-10``, one Cholesky
    factorization that proves ``lambda_min(B) > 1e-10 ||B||_inf``; it
    shifts ``b``'s diagonal and puts it back.  Where it gives no proof (an
    indefinite, singular or nearly singular ``B``), the eigenvalues of
    ``B`` decide, taken with no eigenvectors.
    """
    if linalg.certified_definite(b, _NONSINGULAR_RTOL):
        return True
    singular_values = np.abs(np.linalg.eigvalsh(b)).tolist()
    return min(singular_values) > _NONSINGULAR_RTOL * max(singular_values)


def _check_pinv_submatrices(ws: ResistanceWorkspace):
    g = ws.graph
    lap, x = ws.laplacian, ws.shifted_inverse
    # (L^+ + P)^{-1} = L + P for the unit-shift projector P, since L^+ and
    # P act on complementary subspaces.  Each instance is A and its
    # inverse, each a cached source with the scales of its shifts; only the
    # sampled blocks are ever shifted.  L^+ is X shifted by -1/alpha, as
    # the workspace builds it, so its blocks are gathered from X with that
    # shift added, bit for bit the same, and this check never builds L^+.
    # L and X are built finite and exactly symmetric, so each block goes
    # to the rule as it is gathered.
    pinv_shift = -1.0 / ws.shift_scale
    instances = [
        (x, (pinv_shift,), lap, ()),
        (lap, (ws.shift_scale,), x, ()),
        (x, (pinv_shift, 1.0), lap, (1.0,)),
    ]
    rng = np.random.default_rng([g.n, g.s, g.m, 1202])
    violations = 0
    sampled = 0
    for a, a_scales, a_pinv, pinv_scales in instances:
        for rows in _pinv_submatrix_sets(rng, a, g.n, g.s, *a_scales):
            sampled += 1
            if not _nonsingular(_shifted_block(a_pinv, rows, g.n, g.s, *pinv_scales)):
                violations += 1
    targeted = len(instances) * _PINV_SETS_PER_INSTANCE
    details = (
        f"sampled {sampled} of {targeted} targeted invertible principal "
        f"submatrices over {len(instances)} instances"
    )
    # A check that sampled nothing has tested nothing, so it fails.
    return float(violations if sampled else 1), 0.0, details


def _check_scalar_reduction(ws: ResistanceWorkspace):
    oracle = scalar_resistance_oracle(ws.graph)
    residual = linalg.max_norm(ws.resistance - oracle)
    return residual, 1e-10, "engine resistance vs classical scalar oracle"


def _check_tree_distance(ws: ResistanceWorkspace):
    distances = tree_distance_matrix(ws.graph)
    residual = linalg.max_norm(ws.resistance - distances)
    tol = 1e-10 * (1.0 + linalg.max_norm(distances))
    return residual, tol, "engine resistance vs depth-first block path sums"


def _check_tree_det(ws: ResistanceWorkspace):
    g = ws.graph
    # Bapat's det R = (-1)^((n-1)s) 2^((n-2)s) prod_e det W_e det(sum_e W_e)
    # as a (sign, log|.|) pair, for it leaves the double range on long
    # trees.  The weights and their sum are positive definite.
    log_dets = np.linalg.slogdet(g.weights)[1].sum()
    log_abs = log_dets + np.linalg.slogdet(g.weights.sum(axis=0))[1]
    sign = -1.0 if (g.n - 1) * g.s % 2 else 1.0
    expected = (sign, (g.n - 2) * g.s * math.log(2.0) + float(log_abs))
    direct = ws.resistance_slogdet
    details = (
        f"LU determinant {_value_text(*direct)}, "
        f"Bapat's tree formula {_value_text(*expected)}"
    )
    return _log_ratio(direct, expected), 1e-10, details


def _applies_tree_square_incidence(g: MatrixWeightedGraph) -> str | None:
    return None if is_tree(g) else (
        "identity requires the incidence matrix to have full column rank, "
        "which holds only for trees (m = n - 1)"
    )


def _applies_scalar(g: MatrixWeightedGraph) -> str | None:
    return None if g.s == 1 else "requires scalar weights (s = 1)"


def _applies_tree(g: MatrixWeightedGraph) -> str | None:
    return None if is_tree(g) else "requires a tree (m = n - 1)"


@dataclass(frozen=True)
class _CheckDef:
    check_id: str
    run: object
    #: Gives a graph's skip reason, or ``None``; ``None`` if it always applies.
    applies: object = None


_REGISTRY: tuple[_CheckDef, ...] = (
    _CheckDef("LAP_KERNEL", _check_lap_kernel),
    _CheckDef("L_EQ_QQT", _check_l_eq_qqt),
    _CheckDef("SHIFT_NONSING", _check_shift_nonsing),
    _CheckDef("LPLUS", _check_lplus),
    _CheckDef("COMMUTE", _check_commute),
    _CheckDef("TAUDEF", _check_taudef),
    _CheckDef("TAU_SUM", _check_tau_sum),
    _CheckDef("RWIDEN", _check_rwiden),
    _CheckDef("LRL", _check_lrl),
    _CheckDef("QRQ", _check_qrq, _applies_tree_square_incidence),
    _CheckDef("TAURTAU_PD", _check_taurtau_pd),
    _CheckDef("TAURTAU_FORM", _check_taurtau_form),
    _CheckDef("DET_FORMULA", _check_det_formula),
    _CheckDef("INV_FORMULA", _check_inv_formula),
    _CheckDef("INERTIA", _check_inertia),
    _CheckDef("INTERLACE", _check_interlace),
    _CheckDef("COFACTOR_EQ", _check_cofactor_eq),
    _CheckDef("PINV_SUBMATRIX", _check_pinv_submatrices),
    _CheckDef("SCALAR_REDUCTION", _check_scalar_reduction, _applies_scalar),
    _CheckDef("TREE_DISTANCE", _check_tree_distance, _applies_tree),
    _CheckDef("TREE_DET", _check_tree_det, _applies_tree),
)

_BY_ID = {d.check_id: d for d in _REGISTRY}

#: All check ids, in registry (and report) order.
CHECK_IDS: tuple[str, ...] = tuple(d.check_id for d in _REGISTRY)


def _require_known(ids) -> None:
    """Raise :class:`UnknownCheckError` naming every id of ``ids`` that is
    not in the registry."""
    unknown = [str(c) for c in ids if c not in _BY_ID]
    if unknown:
        raise UnknownCheckError(
            f"unknown check id(s): {', '.join(unknown)}; "
            f"known: {', '.join(CHECK_IDS)}"
        )


def _execute(
    definition: _CheckDef, g: MatrixWeightedGraph, ws: ResistanceWorkspace | None
) -> CheckResult:
    reason = None if definition.applies is None else definition.applies(g)
    if reason is None:
        if ws is None:
            ws = ResistanceWorkspace(g)
        residual, tolerance, details = definition.run(ws)
    else:
        residual, tolerance, details = 0.0, 0.0, f"skipped: {reason}"
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckResult(
        check_id=definition.check_id,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        skipped=reason is not None,
        details=details,
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
    _require_known([check_id])
    return _execute(_BY_ID[check_id], g, workspace)


def _descriptor(
    g: MatrixWeightedGraph, ws: ResistanceWorkspace, model: str | None, seed: int | None
) -> dict:
    return {
        "n": g.n,
        "s": g.s,
        "m": g.m,
        "model": model,
        "seed": seed,
        "low_confidence": bool(ws.low_confidence),
    }


def run_suite(
    g: MatrixWeightedGraph,
    selection=None,
    model: str | None = None,
    seed: int | None = None,
) -> SuiteReport:
    """Run a selection of checks (default: the whole registry) on a graph.

    Results are reported in registry order regardless of the selection
    order.  Unknown ids raise one :class:`UnknownCheckError` naming them
    all.  ``model`` and ``seed`` annotate the report's graph descriptor
    for generated graphs; they do not affect the checks.
    """
    chosen = CHECK_IDS if selection is None else list(selection)
    _require_known(chosen)
    ws = ResistanceWorkspace(g)
    results = tuple(
        _execute(d, g, ws) for d in _REGISTRY if d.check_id in chosen
    )
    passed = all(r.passed for r in results)
    return SuiteReport(_descriptor(g, ws, model, seed), results, passed)


def _spec(position: int, entry) -> GraphSpec:
    """Corpus entry ``position`` (1-based) as a :class:`GraphSpec`, else GraphError."""
    if isinstance(entry, GraphSpec):
        return entry
    required = [f.name for f in fields(GraphSpec) if f.default is MISSING]
    if not isinstance(entry, dict) or not entry.keys() >= set(required):
        raise GraphError(
            f"corpus entry #{position} must be an object with at least "
            f"the keys {', '.join(required)}"
        )
    unknown = sorted(map(str, entry.keys() - {f.name for f in fields(GraphSpec)}))
    if unknown:
        raise GraphError(
            f"corpus entry #{position} has unknown key(s): {', '.join(unknown)}"
        )
    return GraphSpec(**entry)


def run_corpus(specs) -> list[CorpusEntry]:
    """Run the full registry over a list of :class:`GraphSpec` entries, or
    dicts of their fields, all validated before any graph is generated.

    Generation failures (retry exhaustion, invalid parameters) are captured
    per entry rather than aborting the run.
    """
    entries = []
    for spec in [_spec(position, entry) for position, entry in enumerate(specs, 1)]:
        try:
            g = random_graph(spec.n, spec.s, spec.model, spec.seed, spec.p)
        except (GraphError, GenerationError) as exc:
            entries.append(CorpusEntry(spec, None, f"{type(exc).__name__}: {exc}"))
            continue
        report = run_suite(g, model=spec.model, seed=spec.seed)
        entries.append(CorpusEntry(spec, report, None))
    return entries


def corpus_json(entries) -> str:
    """The JSON document of a :func:`run_corpus` result: one object per
    entry with its ``spec`` (``GraphSpec.as_dict``), ``error`` and
    ``report`` (``null`` on a generation failure), and ``passed`` for the
    whole corpus, in the layout of ``json.dumps(..., indent=2,
    sort_keys=True)``."""
    items = ",\n".join(
        _ENTRY_JSON
        % (
            _json_value(e.error, _ITEM_INDENT),
            "null"
            if e.report is None
            else e.report.to_json().replace("\n", "\n" + _ITEM_INDENT),
            _json_value(e.spec.as_dict(), _ITEM_INDENT),
        )
        for e in entries
    )
    return _CORPUS_JSON % (
        f"[\n{items}\n  ]" if items else "[]",
        _json_value(all(e.passed for e in entries), "  "),
    )


def corpus_text(entries) -> str:
    """The text report of a :func:`run_corpus` result: one line per entry
    with its spec and outcome, then ``overall: PASS`` or ``FAIL``."""
    lines = []
    for e in entries:
        label = " ".join(f"{key}={value}" for key, value in e.spec.as_dict().items())
        if e.error is not None:
            lines.append(f"{label}: GENERATION FAILURE ({e.error})")
        else:
            status = "PASS" if e.report.passed else "FAIL"
            ran = sum(1 for c in e.report.checks if not c.skipped)
            skipped = sum(1 for c in e.report.checks if c.skipped)
            lines.append(f"{label}: {status} ({ran} checks, {skipped} skipped)")
    lines.append(f"overall: {'PASS' if all(e.passed for e in entries) else 'FAIL'}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the standard corpus


_NAMED_SHAPES = (
    ("path", lambda s: path_graph(2, s)),
    ("path", lambda s: path_graph(3, s)),
    ("complete", lambda s: complete_graph(3, s)),
    ("cycle", lambda s: cycle_graph(4, s)),
    ("star", lambda s: star_graph(4, s)),
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
    for shape_index, (name, build) in enumerate(_NAMED_SHAPES):
        for s in (1, 2, 3):
            g = build(s)
            seed = None
            if s > 1:
                seed = 1000 + 10 * shape_index + s
                weights = _pd_weights(np.random.default_rng(seed), g.m, s)
                g = replace(g, weights=weights)
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
