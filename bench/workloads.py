"""The benchmark's workloads: the inputs each makes from the seed, the CLI
ops it alternates, and the library calls each op makes.

An op is one ``resmat.cli.main(argv)`` call on a generated graph file.
In the traced run each op is preceded by a replay: the same public calls
the CLI makes, in the same order, each inside a span, followed by probes
that time kernels the workspace runs internally.  The replay works on the
file's bytes, so the CLI's own file read counts as formatting time.

Probes look their targets up by name and are skipped when the program no
longer has them, so a later kernel change leaves that layer at 0 instead
of breaking the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from reference import CHECK_IDS, Reference
from tracing import Tracer


@dataclass
class Input:
    """One generated graph file."""

    name: str
    path: Path
    data: bytes
    n: int
    s: int
    m: int

    @property
    def ns(self) -> int:
        return self.n * self.s

    @cached_property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()

    @cached_property
    def reference(self) -> Reference:
        return Reference(self.data)


@dataclass(frozen=True)
class OpKind:
    label: str
    argv: Callable[[Input], list[str]]
    #: Replays the op's library calls; returns counts for the trace.
    replay: Callable[[object, Tracer, Input], dict]
    #: ``(stdout, input) -> (error or None, defect notes)``.
    check: Callable[[str, Input], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[OpKind, ...]
    #: ``(resmat, tracer, seed, smoke) -> [(file name, graph), ...]``.
    generate: Callable[[object, Tracer, int, bool], list]


def _matrix(x):
    """Dense array behind a matrix attribute, with or without a wrapper."""
    return getattr(x, "body", x)


# ----------------------------------------------------------------------
# replays and probes


def _parse_and_build(lib, t: Tracer, inp: Input):
    with t.span("graph.parse_s"):
        g = lib.parse_graph(inp.data)
    with t.span("resistance.workspace_s"):
        ws = lib.ResistanceWorkspace(g)
    return g, ws


def _probe(t: Tracer, name: str, fn, *args):
    if fn is None:
        return None
    with t.probe(name):
        return fn(*args)


def _probe_kernels(lib, t: Tracer, g, ws) -> None:
    """Laplacian assembly, the per-edge weight kernels and the LU of the
    shifted Laplacian, each timed on its own."""
    linalg = lib.linalg
    _probe(t, "laplacian.build_s", getattr(lib, "build_laplacian", None), g)
    weights = [e.weight for e in g.edges]
    for name, kernel in (
        ("linalg.edge_pd_inverse_s", getattr(linalg, "pd_inverse", None)),
        ("linalg.edge_eigen_s", getattr(linalg, "sym_eigen", None)),
    ):
        if kernel is not None:
            _probe(t, name, lambda: [kernel(w) for w in weights])
    shift = getattr(ws, "shift_body", None)
    lu_factor = getattr(linalg, "lu_factor", None)
    if shift is not None and lu_factor is not None:
        factor = _probe(t, "linalg.lu_factor_s", lu_factor, shift)
        _probe(t, "linalg.lu_solve_s", factor.solve, np.eye(shift.shape[0]))


def _replay_det(lib, t, inp):
    g, ws = _parse_and_build(lib, t, inp)
    with t.span("resistance.determinant_slog_s"):
        ws.determinant_slog()
    with t.span("resistance.determinant_s"):
        ws.determinant()
    _probe(
        t,
        "laplacian.cofactor_slog_s",
        getattr(lib, "laplacian_cofactor_slog", None),
        g,
        ws.laplacian,
    )
    _probe_kernels(lib, t, g, ws)
    return {}


def _replay_pair(lib, t, inp):
    g, ws = _parse_and_build(lib, t, inp)
    with t.span("resistance.block_s"):
        ws.resistance_block(0, inp.n - 1)
    _probe_kernels(lib, t, g, ws)
    return {}


def _replay_resistance(lib, t, inp):
    g, ws = _parse_and_build(lib, t, inp)
    _probe_kernels(lib, t, g, ws)
    return {}


def _replay_inverse(lib, t, inp):
    g, ws = _parse_and_build(lib, t, inp)
    with t.span("resistance.inverse_s"):
        ws.inverse()
    _probe_kernels(lib, t, g, ws)
    return {}


def _replay_verify(lib, t, inp):
    with t.span("graph.parse_s"):
        g = lib.parse_graph(inp.data)
    with t.span("verify.suite_s"):
        report = lib.run_suite(g)
    _probe(t, "laplacian.incidence_s", getattr(lib, "build_incidence", None), g)
    # Checks in registry order on one shared workspace, as run_suite runs
    # them: a cached spectrum is charged to the first check that needs it.
    ws = _probe(t, "resistance.workspace_s", lib.ResistanceWorkspace, g)
    for check_id in CHECK_IDS:
        _probe(t, f"verify.check.{check_id}_s", lib.run_check, g, check_id, ws)
    # The spectral paths, each on a fresh workspace so none finds a cached
    # spectrum.
    fresh = [lib.ResistanceWorkspace(g) for _ in range(3)]
    _probe(t, "resistance.low_confidence_s", lambda: fresh[0].low_confidence)
    _probe(t, "resistance.inertia_s", fresh[1].inertia)
    _probe(t, "resistance.interlacing_s", fresh[2].interlacing)
    _probe(
        t,
        "linalg.sym_eigen_s",
        getattr(lib.linalg, "sym_eigen", None),
        _matrix(ws.resistance),
    )
    return {
        "verify.checks_run": sum(1 for c in report.checks if not c.skipped),
        "verify.checks_skipped": sum(1 for c in report.checks if c.skipped),
        "verify.checks_failed": sum(
            1 for c in report.checks if not c.skipped and not c.passed
        ),
    }


DET = OpKind(
    "det",
    lambda inp: ["compute", str(inp.path), "det", "--format", "json"],
    _replay_det,
    lambda text, inp: reference.check_det(text, inp.reference),
)
PAIR = OpKind(
    "pair",
    lambda inp: ["compute", str(inp.path), "resistance", "--pair", "1", str(inp.n)],
    _replay_pair,
    lambda text, inp: reference.check_block(text, inp.reference, 1, inp.n),
)
RESISTANCE_CSV = OpKind(
    "resistance",
    lambda inp: ["compute", str(inp.path), "resistance", "--format", "csv"],
    _replay_resistance,
    lambda text, inp: reference.check_resistance_csv(text, inp.reference),
)
INVERSE_CSV = OpKind(
    "inverse",
    lambda inp: ["compute", str(inp.path), "inverse", "--format", "csv"],
    _replay_inverse,
    lambda text, inp: reference.check_inverse_csv(text, inp.reference),
)
VERIFY = OpKind(
    "verify",
    lambda inp: ["verify", str(inp.path), "--all", "--format", "json"],
    _replay_verify,
    lambda text, inp: reference.check_verify_json(text, inp.reference),
)


# ----------------------------------------------------------------------
# inputs


def _random(lib, t: Tracer, *args):
    with t.span("graph.generate_s"):
        return lib.random_graph(*args)


# Input k of every workload is generated from seed * 1000 + k.


def _gnp(name, full, small):
    """One ``gnp`` graph, ``(n, s, p)`` per size."""

    def generate(lib, t, seed, smoke):
        n, s, p = small if smoke else full
        return [(name, _random(lib, t, n, s, "gnp", seed * 1000, p))]

    return generate


def _tree(lib, t, seed, smoke):
    n = 30 if smoke else 600
    return [("tree.json", _random(lib, t, n, 1, "tree", seed * 1000))]


_CORPUS_MODELS = ("tree", "gnp", "cycle", "complete")
# Unit-weight trees make TREE_DET and the tree-only checks run.
_CORPUS_SHAPES = (("path", 16, 1), ("star", 8, 1), ("path", 6, 2), ("star", 5, 3))


def _corpus(lib, t, seed, smoke):
    """28 small graphs: 24 random ones with n 4..16 and s 1..3 (ns at
    most 36, so a 20-second run holds over 100 ops) over the four random
    models, and a unit-weight path or star every sixth entry.  A run
    covers whole passes over the list, so every run times the same mix of
    sizes; only the graph seeds come from ``seed``."""
    count, sizes = (6, 3) if smoke else (24, 13)
    graphs = []
    for k in range(count):
        if k % 6 == 0:
            shape, size, s = _CORPUS_SHAPES[k // 6]
            with t.span("graph.generate_s"):
                if shape == "path":
                    g = lib.path_graph(size, s)
                else:
                    g = lib.star_graph(size, s)
            graphs.append((f"{shape}-{size}-{s}.json", g))
        model = _CORPUS_MODELS[k % 4]
        n = 4 + (5 * k) % sizes
        s = min(1 + (k // 4) % 3, 36 // n)
        p = 0.5 if model == "gnp" else None
        g = _random(lib, t, n, s, model, seed * 1000 + k, p)
        graphs.append((f"{k:03d}-{model}-{n}-{s}.json", g))
    return graphs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense_closed_forms",
            (DET, PAIR),
            _gnp("dense.json", (100, 3, 0.25), (12, 3, 0.5)),
        ),
        Workload("verify_corpus", (VERIFY,), _corpus),
        Workload("tree_full_output", (RESISTANCE_CSV, INVERSE_CSV), _tree),
    )
}
