"""The reader of the JSON interchange format.

:func:`parse_graph` turns a document (see :mod:`resmat.graph`) into a
validated :class:`~resmat.graph.MatrixWeightedGraph`.  The whole edge list
is tested and converted in bulk; only when a bulk test fails does a scan
edge by edge name the first offending edge.  The writer,
:func:`resmat.graph.serialize`, stays with the model, so ``resmat gen``,
which only writes, never loads this module.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

import numpy as np

from .graph import GraphError, MatrixWeightedGraph, _require_sizes, _weight_stack

__all__ = ["parse_graph"]

_INTP_MIN = int(np.iinfo(np.intp).min)

_EDGE_KEYS = {"u", "v", "w"}
_ENDPOINTS = itemgetter("u", "v")
_WEIGHT = itemgetter("w")


def _entry_problem(position: int, entry) -> str | None:
    """The structural problem of one JSON edge entry, if any, save that of
    its weight's entries (:func:`_entries_problem`)."""
    if not isinstance(entry, dict) or entry.keys() != _EDGE_KEYS:
        return f"edge #{position} must be an object with exactly the keys u, v, w"
    for name in ("u", "v"):
        value = entry[name]
        if not isinstance(value, int) or isinstance(value, bool):
            return f"edge #{position}: {name} must be an integer, got {value!r}"
    w = entry["w"]
    if not isinstance(w, list) or not all(isinstance(row, list) for row in w):
        return f"edge #{position}: w must be a nested list"
    return None


def _entries_problem(position: int, w: list) -> str | None:
    """The problem of a nested-list weight with a string or bool entry."""
    for value in chain.from_iterable(w):
        if isinstance(value, (str, bool)):
            return f"edge #{position}: w entries must be numbers, got {value!r}"
    return None


def _converted(ws: list):
    """:func:`~resmat.graph._weight_stack` of parsed weights, raising
    :class:`GraphError` for the first that is not 2-D when they make no
    stack."""
    weights = _weight_stack(ws)
    if isinstance(weights, list):
        for position, w in enumerate(weights, start=1):
            if w.ndim != 2:
                raise GraphError(f"edge #{position}: weight must be 2-D")
    return weights


def _raise_first_problem(raw_edges: list):
    """Raise the error of a JSON edge list with a structural problem: the
    first edge with one stops the scan, and the first weight up to it that
    does not convert, else the first that is not 2-D, comes before it.  A
    weight with a string or bool entry is converted before it is refused."""
    ws = []
    for position, entry in enumerate(raw_edges, start=1):
        problem = _entry_problem(position, entry)
        if problem is not None:
            break
        ws.append(entry["w"])
        problem = _entries_problem(position, entry["w"])
        if problem is not None:
            break
    _converted(ws)
    raise GraphError(problem)


def _edge_arrays(raw_edges: list, s: int):
    """The endpoints and weights of a JSON edge list, tested and converted
    in bulk.

    Returns ``None`` when some edge has a structural problem.  Otherwise
    the endpoints are the 0-based ``(m, 2)`` intp array, or a list of
    pairs when some endpoint is beyond intp, and the weights are the
    float64 ``(m, s, s)`` stack when every weight is ``s x s`` of JSON
    numbers in the float range, else what
    :func:`~resmat.graph._weight_stack` makes.
    """
    if set(map(type, raw_edges)) - {dict} or set(map(len, raw_edges)) - {3}:
        return None
    try:
        ends = list(chain.from_iterable(map(_ENDPOINTS, raw_edges)))
        ws = list(map(_WEIGHT, raw_edges))
    except KeyError:
        return None
    if set(map(type, ends)) - {int} or set(map(type, ws)) - {list}:
        return None
    rows = list(chain.from_iterable(ws))
    if set(map(type, rows)) - {list}:
        return None
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds & {str, bool}:
        return None

    try:
        endpoints = np.array(ends, dtype=np.intp).reshape(-1, 2)
    except OverflowError:
        endpoints = None
    if endpoints is None or (endpoints.size and endpoints.min() == _INTP_MIN):
        endpoints = [(u - 1, v - 1) for u, v in zip(ends[::2], ends[1::2])]
    else:
        endpoints -= 1
    square = s >= 1 and not (set(map(len, ws)) | set(map(len, rows))) - {s}
    if square and not kinds - {int, float}:
        try:
            entries = chain.from_iterable(rows)
            stack = np.fromiter(entries, np.float64, len(rows) * s)
            return endpoints, stack.reshape(-1, s, s)
        except OverflowError:
            pass
    return endpoints, _converted(ws)


def parse_graph(text) -> MatrixWeightedGraph:
    """Parse and validate a graph from its JSON interchange form.

    Accepts ``str`` or ``bytes``.  Raises :class:`GraphError` on JSON syntax
    errors, structural problems, or validation failures.  Weight entries
    must be JSON numbers (``null`` reads as a non-finite entry).  Only the
    edges before the first structural problem are converted: the first of
    their weights that does not convert is raised, else the first that is
    not 2-D, else the structural problem.
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
    _require_sizes(n, s)
    if not isinstance(raw_edges, list):
        raise GraphError("edges must be a list")
    arrays = _edge_arrays(raw_edges, s)
    if arrays is None:
        _raise_first_problem(raw_edges)
    return MatrixWeightedGraph(n, s, *arrays)
