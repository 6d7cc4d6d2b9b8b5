"""Simple connected graphs with positive definite matrix edge weights.

A graph here is a simple connected undirected graph on ``n >= 2`` vertices
whose every edge carries an ``s x s`` symmetric positive definite weight
matrix.  The JSON interchange format (the only ingestion format) is::

    {"n": 3, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[1.0]]}, ...]}

Vertices are 1-based in JSON and on the command line, and 0-based
everywhere in code.  Each JSON edge must satisfy ``u < v``; weights are
row-major nested lists.  Serialization round-trips weights bit-for-bit.

Generation is fully deterministic: every random quantity flows from an
explicit integer seed through ``numpy.random.default_rng``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "GraphError",
    "GenerationError",
    "Edge",
    "MatrixWeightedGraph",
    "ValidationReport",
    "validation_report",
    "validate",
    "from_edges",
    "parse_graph",
    "serialize",
    "adjacency",
    "is_tree",
    "has_unit_weights",
    "random_pd_weight",
    "random_graph",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "GNP_MAX_ATTEMPTS",
    "RANDOM_MODELS",
]

#: Connectivity retry budget for the G(n, p) generator.
GNP_MAX_ATTEMPTS = 1000

#: Models accepted by :func:`random_graph`.
RANDOM_MODELS = ("tree", "cycle", "complete", "gnp")


class GraphError(ValueError):
    """Malformed, invalid, or otherwise unusable graph input."""


class GenerationError(RuntimeError):
    """Random generation exhausted its retry budget."""


@dataclass(frozen=True, eq=False)
class Edge:
    """One undirected edge with its weight matrix.

    ``u < v`` always holds (0-based); ``u`` is the canonical origin for
    orientation-dependent constructions.  ``index`` is the edge's position
    in the graph's canonical (lexicographically sorted) edge list.
    """

    u: int
    v: int
    weight: np.ndarray
    index: int


@dataclass(frozen=True, eq=False)
class MatrixWeightedGraph:
    """Immutable validated graph: ``n`` vertices, ``s x s`` weights, edges
    sorted lexicographically by endpoint pair."""

    n: int
    s: int
    edges: tuple[Edge, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixWeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.s == other.s
            and self.m == other.m
            and all(
                a.u == b.u and a.v == b.v and np.array_equal(a.weight, b.weight)
                for a, b in zip(self.edges, other.edges)
            )
        )

    __hash__ = None  # mutable-content semantics: not hashable


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of graph validation: a list of human-readable problems."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def _is_connected(n: int, pairs) -> bool:
    """Breadth-first connectivity test on an edge pair list."""
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def validation_report(n, s, edges) -> ValidationReport:
    """Validate raw graph data and list every violation found.

    ``edges`` is an iterable of ``(u, v, weight)`` with 0-based endpoints;
    problems are reported with 1-based vertex labels to match the external
    convention.  Checks: vertex/block counts, endpoint ranges and ordering,
    duplicate edges, weight shape, finiteness, symmetry (relative tolerance
    1e-10), positive definiteness, and connectivity.
    """
    problems: list[str] = []
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        problems.append(f"vertex count n must be an integer >= 2, got {n!r}")
        return ValidationReport(tuple(problems))
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        problems.append(f"block size s must be an integer >= 1, got {s!r}")
        return ValidationReport(tuple(problems))

    # Problems in edge order; an edge whose weight still needs the batched
    # checks holds a None slot until they have run.
    slots: list[str | None] = []
    candidates: list[tuple[str, int, np.ndarray]] = []
    seen_pairs: set[tuple[int, int]] = set()
    usable_pairs: list[tuple[int, int]] = []
    for position, (u, v, weight) in enumerate(edges, start=1):
        label = f"edge #{position}"
        if not (0 <= u < n and 0 <= v < n):
            slots.append(f"{label} ({u + 1}, {v + 1}): endpoints out of range 1..{n}")
            continue
        if u == v:
            slots.append(f"{label}: self-loop at vertex {u + 1}")
            continue
        if u > v:
            slots.append(f"{label} ({u + 1}, {v + 1}): endpoints must satisfy u < v")
            continue
        if (u, v) in seen_pairs:
            slots.append(f"{label} ({u + 1}, {v + 1}): duplicate edge")
            continue
        seen_pairs.add((u, v))
        w = np.asarray(weight, dtype=np.float64)
        if w.shape != (s, s):
            slots.append(
                f"{label} ({u + 1}, {v + 1}): weight shape {w.shape} != ({s}, {s})"
            )
            continue
        candidates.append((f"{label} ({u + 1}, {v + 1})", len(slots), w))
        slots.append(None)
        usable_pairs.append((u, v))

    messages = _weight_problems(s, [w for _, _, w in candidates])
    for (label, slot, _), message in zip(candidates, messages):
        if message is not None:
            slots[slot] = f"{label}: {message}"
    problems = [p for p in slots if p is not None]
    if not problems:
        if len(usable_pairs) < n - 1 or not _is_connected(n, usable_pairs):
            problems.append("graph is not connected")
    return ValidationReport(tuple(problems))


def _weight_problems(s: int, weights: list[np.ndarray]) -> list[str | None]:
    """The first finiteness, symmetry or definiteness problem of each
    ``s x s`` weight (None when it has none), checked on the whole stack at
    once: one batched eigensolve makes the definiteness test."""
    found: list[str | None] = [None] * len(weights)
    if not weights:
        return found
    stack = np.stack(weights)
    finite = np.isfinite(stack).all(axis=(1, 2))
    for k in np.flatnonzero(~finite):
        found[k] = "weight has non-finite entries"
    checked = np.flatnonzero(finite)
    w = stack[checked]
    gap = np.abs(w - w.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    limit = linalg.SYMMETRY_RTOL * (1.0 + np.abs(w).max(axis=(1, 2), initial=0.0))
    asymmetric = gap > limit
    for k, g in zip(checked[asymmetric], gap[asymmetric]):
        found[k] = f"weight is not symmetric (max asymmetry {g:.3e})"
    checked = checked[~asymmetric]
    w = w[~asymmetric]
    spectra = np.linalg.eigvalsh((w + w.transpose(0, 2, 1)) / 2.0)
    largest = spectra[:, -1]
    smallest = spectra[:, 0]
    lost = (largest <= 0.0) | (smallest <= linalg.default_rank_tol(s) * largest)
    for k, low in zip(checked[lost], smallest[lost]):
        found[k] = f"weight is not positive definite (smallest eigenvalue {low:.6e})"
    return found


def validate(g: MatrixWeightedGraph) -> ValidationReport:
    """Re-run full validation on an already constructed graph."""
    return validation_report(g.n, g.s, [(e.u, e.v, e.weight) for e in g.edges])


def from_edges(n: int, s: int, edges) -> MatrixWeightedGraph:
    """Build a validated graph from ``(u, v, weight)`` triples (0-based).

    Raises :class:`GraphError` listing every validation problem.  Weights
    are exactly symmetrized (``(W + W') / 2``), frozen read-only, and edges
    are sorted lexicographically by endpoint pair.  All weights live in one
    read-only ``(m, s, s)`` stack, and each edge holds a view of its slice.
    """
    triples = [(int(u), int(v), w) for u, v, w in edges]
    report = validation_report(n, s, triples)
    if not report.ok:
        raise GraphError("; ".join(report.problems))
    triples.sort(key=lambda t: (t[0], t[1]))
    stack = np.array([w for _, _, w in triples], dtype=np.float64)
    weights = stack + stack.transpose(0, 2, 1)
    weights /= 2.0
    weights.setflags(write=False)
    built = tuple(
        Edge(u, v, weights[index], index)
        for index, (u, v, _) in enumerate(triples)
    )
    return MatrixWeightedGraph(int(n), int(s), built)


def parse_graph(text) -> MatrixWeightedGraph:
    """Parse and validate a graph from its JSON interchange form.

    Accepts ``str`` or ``bytes``.  Raises :class:`GraphError` on JSON syntax
    errors, structural problems, or validation failures.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphError("top level must be a JSON object")
    missing = [key for key in ("n", "s", "edges") if key not in data]
    if missing:
        raise GraphError(f"missing required key(s): {', '.join(missing)}")
    extra = [key for key in data if key not in ("n", "s", "edges")]
    if extra:
        raise GraphError(f"unexpected key(s): {', '.join(sorted(extra))}")
    n, s, raw_edges = data["n"], data["s"], data["edges"]
    for name, value in (("n", n), ("s", s)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise GraphError(f"{name} must be an integer, got {value!r}")
    if not isinstance(raw_edges, list):
        raise GraphError("edges must be a list")
    triples = []
    for position, entry in enumerate(raw_edges, start=1):
        if not isinstance(entry, dict) or set(entry) != {"u", "v", "w"}:
            raise GraphError(
                f"edge #{position} must be an object with exactly "
                "the keys u, v, w"
            )
        u, v = entry["u"], entry["v"]
        for name, value in (("u", u), ("v", v)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise GraphError(
                    f"edge #{position}: {name} must be an integer, got {value!r}"
                )
        w = entry["w"]
        if not isinstance(w, list) or not all(isinstance(row, list) for row in w):
            raise GraphError(f"edge #{position}: w must be a nested list")
        try:
            weight = np.array(w, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"edge #{position}: malformed weight: {exc}") from exc
        if weight.ndim != 2:
            raise GraphError(f"edge #{position}: weight must be 2-D")
        triples.append((u - 1, v - 1, weight))
    return from_edges(n, s, triples)


def serialize(g: MatrixWeightedGraph) -> str:
    """Serialize to the JSON interchange form (1-based vertices).

    ``parse_graph(serialize(g))`` reproduces the weights bit-for-bit, and
    the output is byte-identical for equal graphs.
    """
    payload = {
        "n": g.n,
        "s": g.s,
        "edges": [
            {"u": e.u + 1, "v": e.v + 1, "w": e.weight.tolist()} for e in g.edges
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def adjacency(g: MatrixWeightedGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of ``(neighbor, edge_index)``, neighbors ascending."""
    table: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in g.edges:
        table[e.u].append((e.v, e.index))
        table[e.v].append((e.u, e.index))
    for row in table:
        row.sort()
    return table


def is_tree(g: MatrixWeightedGraph) -> bool:
    """True when the (connected) graph has exactly ``n - 1`` edges."""
    return g.m == g.n - 1


def has_unit_weights(g: MatrixWeightedGraph) -> bool:
    """True when every edge weight is exactly the identity matrix."""
    eye = np.eye(g.s)
    return all(np.array_equal(e.weight, eye) for e in g.edges)


def random_pd_weight(rng: np.random.Generator, s: int) -> np.ndarray:
    """One random ``s x s`` positive definite weight: ``B'B + 0.1 s I`` with
    ``B`` uniform on [-1, 1]."""
    b = rng.uniform(-1.0, 1.0, size=(s, s))
    return b.T @ b + 0.1 * s * np.eye(s)


def _tree_pairs(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    pairs = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs.append((u, v))
    return pairs


def _gnp_pairs(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    for _ in range(GNP_MAX_ATTEMPTS):
        pairs = [
            (u, v)
            for u in range(n - 1)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if len(pairs) >= n - 1 and _is_connected(n, pairs):
            return pairs
    raise GenerationError(
        f"no connected G({n}, {p}) sample in {GNP_MAX_ATTEMPTS} attempts"
    )


def random_graph(
    n: int, s: int, model: str, seed: int, p: float | None = None
) -> MatrixWeightedGraph:
    """Generate a random connected graph, deterministically from ``seed``.

    Models: ``tree`` (uniform random parent attachment), ``cycle`` (n >= 3),
    ``complete``, and ``gnp`` (Erdos-Renyi, requires ``p``; resampled until
    connected, up to ``GNP_MAX_ATTEMPTS`` then :class:`GenerationError`).
    The shape is drawn first, then one weight per edge in canonical edge
    order, so equal arguments give bitwise-equal graphs.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise GraphError(f"vertex count n must be an integer >= 2, got {n!r}")
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise GraphError(f"block size s must be an integer >= 1, got {s!r}")
    if model not in RANDOM_MODELS:
        raise GraphError(
            f"unknown model {model!r}; expected one of {', '.join(RANDOM_MODELS)}"
        )
    if model == "gnp":
        if p is None:
            raise GraphError("model gnp requires an edge probability p")
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"edge probability p must be in [0, 1], got {p}")
    elif p is not None:
        raise GraphError(f"model {model} does not take an edge probability")

    rng = np.random.default_rng(seed)
    if model == "tree":
        pairs = _tree_pairs(rng, n)
    elif model == "cycle":
        if n < 3:
            raise GraphError("cycle model requires n >= 3")
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif model == "complete":
        pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    else:
        pairs = _gnp_pairs(rng, n, p)
    pairs.sort()
    triples = [(u, v, random_pd_weight(rng, s)) for u, v in pairs]
    return from_edges(n, s, triples)


def _expand_weights(pairs, s: int, weights) -> list[tuple[int, int, np.ndarray]]:
    if weights is None:
        return [(u, v, np.eye(s)) for u, v in pairs]
    if isinstance(weights, np.ndarray):
        return [(u, v, weights.copy()) for u, v in pairs]
    weights = list(weights)
    if len(weights) != len(pairs):
        raise GraphError(
            f"expected {len(pairs)} weights (canonical edge order), "
            f"got {len(weights)}"
        )
    return [(u, v, w) for (u, v), w in zip(pairs, weights)]


def path_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Path on ``n`` vertices: 1-2-...-n.  ``weights`` may be ``None`` (all
    identity), one shared matrix, or one matrix per edge in canonical order."""
    pairs = [(i, i + 1) for i in range(n - 1)]
    return from_edges(n, s, _expand_weights(pairs, s, weights))


def cycle_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise GraphError("cycle requires n >= 3")
    pairs = sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    return from_edges(n, s, _expand_weights(pairs, s, weights))


def complete_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Complete graph on ``n`` vertices."""
    pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n)]
    return from_edges(n, s, _expand_weights(pairs, s, weights))


def star_graph(rays: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Star with ``rays`` leaves around center vertex 1 (``n = rays + 1``)."""
    if rays < 1:
        raise GraphError("star requires at least one ray")
    pairs = [(0, leaf) for leaf in range(1, rays + 1)]
    return from_edges(rays + 1, s, _expand_weights(pairs, s, weights))
