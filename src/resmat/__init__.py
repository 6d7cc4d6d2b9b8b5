"""Resistance matrices of graphs with positive definite matrix edge weights.

The package computes block Laplacians, Laplacian pseudoinverses, and
resistance matrices for connected graphs whose edges carry ``s x s``
symmetric positive definite weight matrices, together with closed forms
for the resistance determinant and inverse, the fixed inertia pattern,
and an eigenvalue interlacing relation — and a verification suite that
re-derives every one of those identities through independent numerical
routes.

Typical use::

    from resmat import cycle_graph, ResistanceWorkspace, run_suite

    g = cycle_graph(4)
    ws = ResistanceWorkspace(g)
    ws.resistance_block(0, 2)     # resistance between vertices 1 and 3
    ws.determinant()              # closed-form det of the resistance matrix
    run_suite(g).passed           # all identity checks
"""

from importlib import import_module

from .graph import (
    Edge,
    GenerationError,
    GraphError,
    MatrixWeightedGraph,
    complete_graph,
    cycle_graph,
    from_edges,
    parse_graph,
    path_graph,
    random_graph,
    serialize,
    star_graph,
)
from .linalg import (
    DimensionError,
    Inertia,
    NumericError,
    pseudo_inverse,
    slogdet_lu,
)

# The engine and the verifier load on first use, so that building, parsing
# and generating graphs (``resmat gen``) do not import and execute them; nor
# does ``resmat.text``, which exports nothing and loads with ``compute``.
_LAZY_MODULES = {
    "laplacian": (
        "build_incidence",
        "build_laplacian",
        "laplacian_cofactor_slog",
        "stacked_identity",
    ),
    "resistance": (
        "InterlaceRow",
        "ResistanceWorkspace",
    ),
    "verify": (
        "CHECK_IDS",
        "CheckResult",
        "CorpusEntry",
        "GraphSpec",
        "SuiteReport",
        "UnknownCheckError",
        "run_check",
        "run_corpus",
        "run_suite",
        "scalar_resistance_oracle",
        "standard_corpus",
        "tree_distance_matrix",
    ),
}
_LAZY_NAMES = {
    name: module for module, names in _LAZY_MODULES.items() for name in names
}


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph model
    "Edge",
    "GenerationError",
    "GraphError",
    "MatrixWeightedGraph",
    "complete_graph",
    "cycle_graph",
    "from_edges",
    "parse_graph",
    "path_graph",
    "random_graph",
    "serialize",
    "star_graph",
    # linear algebra kernel
    "DimensionError",
    "Inertia",
    "NumericError",
    "pseudo_inverse",
    "slogdet_lu",
    # the laplacian, resistance engine and verifier, loaded on first use
    *_LAZY_NAMES,
]
