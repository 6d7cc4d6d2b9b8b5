"""Simple connected graphs with positive definite matrix edge weights.

A graph here is a simple connected undirected graph on ``n >= 2`` vertices
whose every edge carries an ``s x s`` symmetric positive definite weight
matrix.  The JSON interchange format (the only ingestion format) is::

    {"n": 3, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[1.0]]}, ...]}

Vertices are 1-based in JSON and on the command line, and 0-based
everywhere in code.  Each JSON edge must satisfy ``u < v``; weights are
row-major nested lists.  This module writes the format (:func:`serialize`);
its reader, ``parse_graph``, lives in :mod:`resmat.reader`, so writing a
graph (``resmat gen``) never loads it.  Serialization round-trips weights
bit-for-bit.

A graph is its arrays: the ``(m, 2)`` endpoint pairs and the ``(m, s, s)``
weight stack, both read-only and sorted lexicographically by endpoint pair.
Its constructor is the one validation gate and the one way a graph is made:
the parser, :func:`from_edges`, the named shapes and :func:`random_graph`
all hand it endpoint pairs and weights, as do direct construction and
:func:`dataclasses.replace`.  A single conversion makes the weight stack and
validation runs on the arrays, so every graph that exists is valid.  The
per-edge :class:`Edge` records are built only when ``edges`` is first read;
no code in the package reads them, and they are kept as a view for callers.

Generation is fully deterministic: every random quantity flows from an
explicit non-negative integer seed through ``numpy.random.default_rng``,
which :func:`random_graph` requires, so no graph is drawn from OS entropy.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from . import linalg

__all__ = [
    "GraphError",
    "GenerationError",
    "Edge",
    "MatrixWeightedGraph",
    "from_edges",
    "serialize",
    "adjacency",
    "is_tree",
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

_INTP_MAX = int(np.iinfo(np.intp).max)


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
    """Immutable graph, held as arrays and validated when constructed.

    The constructor takes ``endpoints`` as ``(u, v)`` pairs (0-based) and
    ``weights`` as one ``s x s`` matrix per edge, in any order and form
    numpy converts.  It raises :class:`GraphError` listing every problem
    it finds, else stores ``endpoints`` as the read-only ``(m, 2)`` intp
    array of the pairs, ``u < v``, sorted lexicographically, and
    ``weights`` as the read-only ``(m, s, s)`` float64 stack of the
    weights in the same order, each exactly symmetrized (``(W + W') / 2``)
    once, by the validation.  :attr:`edges` presents the same data
    as :class:`Edge` records, built on first access.
    """

    n: int
    s: int
    endpoints: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        endpoints, stack = _checked(self.n, self.s, self.endpoints, self.weights)
        object.__setattr__(self, "endpoints", linalg.frozen(endpoints))
        object.__setattr__(self, "weights", linalg.frozen(stack))

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.weights.shape[0]

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in canonical order, each holding a view of its weight."""
        return tuple(
            Edge(u, v, self.weights[index], index)
            for index, (u, v) in enumerate(self.endpoints.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixWeightedGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.s == other.s
            and np.array_equal(self.endpoints, other.endpoints)
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None  # mutable-content semantics: not hashable


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


def _weight_stack(weights):
    """The weights as one float64 ``(m, a, b)`` stack, made by a single
    conversion, or else as a list of per-edge float64 arrays.  Raises
    :class:`GraphError` for the first weight that does not convert."""
    try:
        stack = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if stack.ndim == 3:
            return stack
    arrays = []
    for position, w in enumerate(weights, start=1):
        try:
            arrays.append(np.asarray(w, dtype=np.float64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError(f"edge #{position}: malformed weight: {exc}") from exc
    return arrays


def _endpoint_pairs(n: int, endpoints) -> np.ndarray:
    """0-based endpoints as one ``(m, 2)`` array: intp, or exact Python ints
    in an object array when ``n`` or some endpoint does not fit intp.
    Raises :class:`GraphError` for the first edge whose entry is not one
    pair, else for the first edge with an endpoint that is not a Python or
    numpy integer (bools are not), which intp truncates."""
    pairs = endpoints
    if not (isinstance(endpoints, np.ndarray) and endpoints.dtype.kind == "i"):
        pairs = np.array(endpoints, dtype=object)
    if pairs.shape != (0,) and (pairs.ndim != 2 or pairs.shape[1] != 2):
        if pairs.ndim == 0:
            raise GraphError("endpoints must be a list of (u, v) pairs")
        first = next(
            k for k, entry in enumerate(pairs)
            if np.array(entry, dtype=object).shape != (2,)
        )
        raise GraphError(f"edge #{first + 1}: endpoints must be one (u, v) pair")
    if pairs.dtype == object:
        flat = pairs.ravel().tolist()
        kinds = set(map(type, flat))
        wrong = {t for t in kinds if t is bool or not issubclass(t, (int, np.integer))}
        if wrong:
            first = next(k for k, x in enumerate(flat) if type(x) in wrong)
            raise GraphError(f"edge #{first // 2 + 1}: endpoints must be integers")
    if n <= _INTP_MAX:
        try:
            return pairs.reshape(-1, 2).astype(np.intp)
        except OverflowError:
            pass
    return pairs.reshape(-1, 2).astype(object)


def _require_sizes(n, s) -> None:
    """Raise :class:`GraphError` unless ``n >= 2`` and ``s >= 1`` are
    integers (bools are not)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise GraphError(f"vertex count n must be an integer >= 2, got {n!r}")
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise GraphError(f"block size s must be an integer >= 1, got {s!r}")


def _checked(n, s, endpoints, weights):
    """Validate graph data given as endpoint pairs and per-edge weights.

    Returns the ``(m, 2)`` endpoint pairs and the symmetrized ``(m, s, s)``
    weights, both sorted lexicographically by endpoint pair, or raises
    :class:`GraphError` listing every problem in edge order, joined by
    ``"; "``.  Checks: vertex and block counts, endpoint ranges and
    ordering, duplicate edges, weight shape, finiteness, symmetry
    (relative tolerance 1e-10), positive definiteness, and connectivity.
    A weight that does not convert to numbers, or else an endpoint entry
    that is not a pair of integers, is the only problem reported.
    """
    _require_sizes(n, s)
    weights = _weight_stack(weights)
    pairs = _endpoint_pairs(n, endpoints)
    if len(pairs) != len(weights):
        raise GraphError(f"{len(pairs)} endpoint pairs but {len(weights)} weights")
    u, v = pairs[:, 0], pairs[:, 1]

    def label(k) -> str:
        return f"edge #{k + 1} ({int(u[k]) + 1}, {int(v[k]) + 1})"

    # Each edge reports the first problem it has, in the order checked here.
    found: dict[int, str] = {}
    outside = ~((u >= 0) & (u < n) & (v >= 0) & (v < n))
    loop = ~outside & (u == v)
    reverse = ~outside & (u > v)
    kept = np.flatnonzero(~(outside | loop | reverse))
    if len(kept) < len(pairs):  # messages are built for failing edges only
        for k in np.flatnonzero(outside):
            found[k] = f"{label(k)}: endpoints out of range 1..{n}"
        for k in np.flatnonzero(loop):
            found[k] = f"edge #{k + 1}: self-loop at vertex {int(u[k]) + 1}"
        for k in np.flatnonzero(reverse):
            found[k] = f"{label(k)}: endpoints must satisfy u < v"
    # The stable sort puts the first occurrence of a pair ahead of its
    # repeats, which are the duplicates.
    order = np.lexsort((v[kept], u[kept]))
    su, sv = u[kept][order], v[kept][order]
    repeats = order[1:][(su[1:] == su[:-1]) & (sv[1:] == sv[:-1])]
    for k in kept[repeats]:
        found[k] = f"{label(k)}: duplicate edge"
    usable = np.delete(kept, repeats) if len(repeats) else kept

    if isinstance(weights, np.ndarray) and weights.shape[1:] == (s, s):
        wrong, stack = {}, weights[usable]
    else:
        arrays = [weights[k] for k in usable.tolist()]
        wrong = {
            k: w.shape for k, w in zip(usable.tolist(), arrays) if w.shape != (s, s)
        }
        stack = np.array([w for w in arrays if w.shape == (s, s)]).reshape(-1, s, s)
    for k, shape in wrong.items():
        found[k] = f"{label(k)}: weight shape {shape} != ({s}, {s})"
    usable = usable[~np.isin(usable, list(wrong))] if wrong else usable
    problems, stack = _weight_problems(stack)
    for position, message in problems.items():
        k = usable[position]
        found[k] = f"{label(k)}: {message}"

    if found:
        raise GraphError("; ".join(found[k] for k in sorted(found)))
    if len(pairs) < n - 1 or not _is_connected(n, pairs.tolist()):
        raise GraphError("graph is not connected")
    return pairs[order], stack[order]


def _weight_problems(stack: np.ndarray) -> tuple[dict[int, str], np.ndarray]:
    """The first finiteness, symmetry or definiteness problem of each
    weight of an ``(k, s, s)`` stack that has one, keyed by its position,
    and :func:`linalg.symmetric_mean` of its finite, symmetric weights."""
    found: dict[int, str] = {}
    finite = np.isfinite(stack).all(axis=(1, 2))
    for k in np.flatnonzero(~finite):
        found[k] = "weight has non-finite entries"
    checked = np.flatnonzero(finite)
    w = stack[checked]
    asymmetric, gap = linalg._asymmetric(w)
    for k, g in zip(checked[asymmetric], gap[asymmetric]):
        found[k] = f"weight is not symmetric (max asymmetry {g:.3e})"
    checked = checked[~asymmetric]
    w = linalg.symmetric_mean(w[~asymmetric])
    # One batched Cholesky proves the usual case definite; the eigenvalues
    # decide, and name the smallest, only when it gives no proof.
    if linalg.certified_definite(w, linalg.default_rank_tol(stack.shape[1])):
        return found, w
    lost, smallest = linalg._not_definite(w)
    for k, low in zip(checked[lost], smallest[lost]):
        found[k] = f"weight is not positive definite (smallest eigenvalue {low:.6e})"
    return found, w


def from_edges(n: int, s: int, edges) -> MatrixWeightedGraph:
    """Build a validated graph from ``(u, v, weight)`` triples (0-based).

    Raises :class:`GraphError` for the first entry that is not a triple,
    else listing every validation problem.  Edges are sorted
    lexicographically by endpoint pair; the weights are exactly
    symmetrized (``(W + W') / 2``) into one read-only ``(m, s, s)`` stack.
    """
    pairs, ws = [], []
    for position, edge in enumerate(edges, start=1):
        try:
            u, v, w = edge
        except (TypeError, ValueError):
            raise GraphError(
                f"edge #{position} must be a (u, v, weight) triple"
            ) from None
        pairs.append((u, v))
        ws.append(w)
    return MatrixWeightedGraph(n, s, pairs, ws)


def serialize(g: MatrixWeightedGraph) -> str:
    """Serialize to the JSON interchange form (1-based vertices).

    The text is ``json.dumps(payload, indent=2, sort_keys=True)`` of the
    payload ``{"n", "s", "edges": [{"u", "v", "w"}, ...]}``, written
    directly: one ``%d``/``%s`` template per edge, filled from the nested
    lists of the endpoints and of each weight's upper triangle.  ``repr``
    is json's text for a finite float, and every weight is finite.  It
    runs once per upper-triangle entry, and that text also fills the
    mirrored entry below the diagonal: the constructor stores every weight
    as ``linalg.symmetric_mean`` of itself, which equals its own transpose
    bit for bit, signed zeros included, so the text is that of every entry.
    ``parse_graph(serialize(g))`` reproduces the weights bit-for-bit, and
    the output is byte-identical for equal graphs.
    """
    s = g.s
    upper = [(i, j) for i in range(s) for j in range(i, s)]
    slot = {pair: 2 + k for k, pair in enumerate(upper)}
    # The endpoints, then the upper triangle's texts, to the template's
    # order: each entry (i, j) of the s x s weight, row by row.
    spread = itemgetter(
        0, 1, *[slot[min(i, j), max(i, j)] for i in range(s) for j in range(s)]
    )
    triangle = g.weights.reshape(-1, s * s)[:, [i * s + j for i, j in upper]]
    row = "        [\n" + ",\n".join(["          %s"] * s) + "\n        ]"
    edge = (
        '    {\n      "u": %d,\n      "v": %d,\n      "w": [\n'
        + ",\n".join([row] * s)
        + "\n      ]\n    }"
    )
    edges = ",\n".join([
        edge % spread([*uv, *map(repr, w)])
        for uv, w in zip((g.endpoints + 1).tolist(), triangle.tolist())
    ])
    return '{\n  "edges": [\n%s\n  ],\n  "n": %d,\n  "s": %d\n}' % (edges, g.n, g.s)


def adjacency(g: MatrixWeightedGraph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of ``(neighbor, edge_index)``, neighbors ascending."""
    table: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    # In canonical order a vertex's smaller neighbours come first, ascending,
    # then its larger ones, so every row is appended already sorted.
    for index, (u, v) in enumerate(g.endpoints.tolist()):
        table[u].append((v, index))
        table[v].append((u, index))
    return table


def is_tree(g: MatrixWeightedGraph) -> bool:
    """True when the (connected) graph has exactly ``n - 1`` edges."""
    return g.m == g.n - 1


def random_pd_weight(rng: np.random.Generator, s: int) -> np.ndarray:
    """One random ``s x s`` positive definite weight: ``B'B + 0.1 s I`` with
    ``B`` uniform on [-1, 1]; the single-weight case of :func:`_pd_weights`."""
    return _pd_weights(rng, 1, s)[0]


def _pd_weights(rng: np.random.Generator, m: int, s: int) -> np.ndarray:
    """``m`` random weights as one ``(m, s, s)`` stack: one uniform draw of
    the ``(m, s, s)`` block ``B`` on [-1, 1], then ``B'B + 0.1 s I`` for
    each matrix.  Bit for bit ``m`` successive :func:`random_pd_weight`
    calls: the generator fills the block from the stream in that order,
    and the batched product runs the same per-matrix kernel as ``b.T @ b``."""
    b = rng.uniform(-1.0, 1.0, size=(m, s, s))
    return b.swapaxes(1, 2) @ b + 0.1 * s * np.eye(s)


def _cycle_pairs(n: int) -> np.ndarray:
    """The edges of the ``n``-cycle in canonical order, as one ``(n, 2)``
    array."""
    if n < 3:
        raise GraphError("cycle model requires n >= 3")
    return np.array([(0, 1), (0, n - 1)] + [(i, i + 1) for i in range(1, n - 1)])


def _complete_pairs(n: int) -> np.ndarray:
    """The edges of the complete graph on ``n`` vertices in canonical order,
    as one ``(n (n - 1) / 2, 2)`` array."""
    return np.column_stack(np.triu_indices(n, 1))


def _gnp_pairs(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    candidates = _complete_pairs(n)
    for _ in range(GNP_MAX_ATTEMPTS):
        pairs = candidates[rng.random(len(candidates)) < p]
        if len(pairs) >= n - 1 and _is_connected(n, pairs.tolist()):
            return pairs
    raise GenerationError(
        f"no connected G({n}, {p}) sample in {GNP_MAX_ATTEMPTS} attempts"
    )


def random_graph(
    n: int, s: int, model: str, seed: int, p: float | None = None
) -> MatrixWeightedGraph:
    """Generate a random connected graph, deterministically from ``seed``.

    Models: ``tree`` (uniform random parent attachment), ``cycle`` (n >= 3),
    ``complete``, and ``gnp`` (Erdos-Renyi, requires a real ``p`` in
    [0, 1]; resampled until connected, up to ``GNP_MAX_ATTEMPTS`` then
    :class:`GenerationError`).  ``seed`` must be a non-negative Python or
    numpy integer (not a bool): there is no draw from OS entropy.

    The draws, in order, from ``numpy.random.default_rng(seed)``: the shape
    first (``tree``: one ``integers(0, v)`` parent per vertex ``v = 1 ..
    n - 1``; ``gnp``: per attempt, one uniform per candidate pair ``u < v``
    in canonical order, keeping the pairs whose uniform is below ``p``),
    then one ``(m, s, s)`` uniform block ``B`` on [-1, 1], whose matrix
    ``k`` makes the weight ``B'B + 0.1 s I`` of edge ``k`` in canonical
    order.  Each array draw reads the stream as the same scalar or
    per-edge calls would, so equal arguments give bitwise-equal graphs.
    """
    _require_sizes(n, s)
    if model not in RANDOM_MODELS:
        raise GraphError(
            f"unknown model {model!r}; expected one of {', '.join(RANDOM_MODELS)}"
        )
    if model == "gnp":
        if p is None:
            raise GraphError("model gnp requires an edge probability p")
        real = isinstance(p, numbers.Real) and not isinstance(p, bool)
        if not (real and 0 <= p <= 1):
            raise GraphError(f"edge probability p must be in [0, 1], got {p!r}")
    elif p is not None:
        raise GraphError(f"model {model} does not take an edge probability")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise GraphError(f"seed must be a non-negative integer, got {seed!r}")

    rng = np.random.default_rng(seed)
    if model == "tree":
        children = np.arange(1, n)
        pairs = np.column_stack((rng.integers(0, children), children))
        pairs = pairs[np.lexsort((children, pairs[:, 0]))]
    elif model == "cycle":
        pairs = _cycle_pairs(n)
    elif model == "complete":
        pairs = _complete_pairs(n)
    else:
        pairs = _gnp_pairs(rng, n, p)
    return MatrixWeightedGraph(n, s, pairs, _pd_weights(rng, len(pairs), s))


def _shape(n: int, s: int, pairs_of, weights) -> MatrixWeightedGraph:
    """The graph on the pairs ``pairs_of(n)`` (canonical order) with
    ``weights``: ``None`` (all identity), one shared matrix, or one matrix
    per edge.  The sizes are checked before anything is built, so a bad
    size raises the constructor's :class:`GraphError`."""
    _require_sizes(n, s)
    pairs = pairs_of(n)
    if weights is None:
        weights = np.eye(s)
    if isinstance(weights, np.ndarray):
        weights = [weights] * len(pairs)
    return MatrixWeightedGraph(n, s, pairs, weights)


def path_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Path on ``n`` vertices: 1-2-...-n.  ``weights`` may be ``None`` (all
    identity), one shared matrix, or one matrix per edge in canonical order."""
    return _shape(n, s, lambda n: [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Cycle on ``n >= 3`` vertices."""
    return _shape(n, s, _cycle_pairs, weights)


def complete_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Complete graph on ``n`` vertices."""
    return _shape(n, s, _complete_pairs, weights)


def star_graph(rays: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Star with ``rays`` leaves around center vertex 1 (``n = rays + 1``)."""
    if not isinstance(rays, int) or isinstance(rays, bool) or rays < 1:
        raise GraphError(f"ray count must be an integer >= 1, got {rays!r}")
    return _shape(rays + 1, s, lambda n: [(0, leaf) for leaf in range(1, n)], weights)
