"""Block Laplacian, weighted incidence matrix, and the Laplacian cofactor.

For a graph on ``n`` vertices with ``s x s`` positive definite edge weights
``W_e``, the Laplacian is the ``ns x ns`` symmetric block matrix whose off-
diagonal block for each edge is ``-W_e^{-1}`` and whose diagonal block at
each vertex is the bitwise negated sum (accumulated in ascending neighbor
order) of the off-diagonal blocks in its block row, so block row and column
sums vanish up to a reordering of identical floating-point terms.  The
weighted incidence matrix ``Q`` is ``ns x ms`` with block column ``e``
holding ``+C_e`` at the edge's origin and ``-C_e`` at its terminus, where
``C_e C_e' = W_e^{-1}``; it satisfies ``L = Q Q'`` and its products with
its own transpose do not depend on the chosen orientations.

The Laplacian cofactor (the common value of every block cofactor of ``L``)
generalizes the spanning tree count: for ``s = 1`` unit weights it *is* the
number of spanning trees.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .graph import MatrixWeightedGraph

__all__ = [
    "stacked_identity",
    "build_laplacian",
    "build_incidence",
    "laplacian_cofactor_slog",
]


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only and return it.

    Every matrix the engine builds is handed out this way, so no caller can
    change a result that others have derived from.
    """
    a.setflags(write=False)
    return a


def stacked_identity(n: int, s: int) -> np.ndarray:
    """The ``ns x s`` block column of ``n`` stacked identity blocks
    (the all-ones vector Kronecker the ``s x s`` identity)."""
    return np.tile(np.eye(s), (n, 1))


def _edge_arrays(g: MatrixWeightedGraph):
    """Origins, termini and the stacked ``(m, s, s)`` weights of all edges,
    in canonical edge order."""
    us = np.array([e.u for e in g.edges], dtype=np.intp)
    vs = np.array([e.v for e in g.edges], dtype=np.intp)
    weights = np.stack([e.weight for e in g.edges])
    return us, vs, weights


def build_laplacian(g: MatrixWeightedGraph) -> np.ndarray:
    """Assemble the block Laplacian of a matrix-weighted graph, as a
    read-only ``ns x ns`` array.

    Off-diagonal blocks are the negated inverse weights, all inverted in
    one batched call; each diagonal block is the sum of the inverse weights
    of its incident edges, accumulated in ascending neighbor order (the
    canonical edge order visits every vertex's neighbors that way).  That
    makes the diagonal reproducible bitwise, and block row and column sums
    cancel up to a reordering of identical floating-point terms (residuals
    at the level of the last place, far below any tolerance used
    downstream).
    """
    n, s = g.n, g.s
    us, vs, weights = _edge_arrays(g)
    inverse_weights = linalg.pd_inverse(weights)
    body = np.zeros((n * s, n * s))
    blocks = body.reshape(n, s, n, s)
    blocks[us, :, vs, :] = -inverse_weights
    blocks[vs, :, us, :] = -inverse_weights
    # Interleave each edge's two endpoints so ``add.at`` (which applies its
    # updates in order) sums every vertex's blocks in canonical edge order.
    diagonal = np.zeros((n, s, s))
    np.add.at(
        diagonal,
        np.column_stack([us, vs]).ravel(),
        np.repeat(inverse_weights, 2, axis=0),
    )
    vertices = np.arange(n)
    blocks[vertices, :, vertices, :] = diagonal
    return frozen(body)


def build_incidence(g: MatrixWeightedGraph) -> np.ndarray:
    """Assemble the weighted incidence matrix ``Q`` with ``L = Q Q'``, as a
    read-only ``ns x ms`` array.

    Block column ``e`` carries ``+W_e^{-1/2}`` (batched over all edges) at
    the edge's origin (its smaller endpoint) and ``-W_e^{-1/2}`` at its
    terminus.  Flipping an orientation negates one block column, which
    conjugates ``Q' A Q`` by a diagonal sign matrix and leaves ``Q Q'``
    bitwise unchanged, so every identity checked downstream is
    orientation-independent.
    """
    n, s, m = g.n, g.s, g.m
    us, vs, weights = _edge_arrays(g)
    roots = linalg.pd_inverse_sqrt(weights)
    body = np.zeros((n * s, m * s))
    blocks = body.reshape(n, s, m, s)
    columns = np.arange(m)
    blocks[us, :, columns, :] = roots
    blocks[vs, :, columns, :] = -roots
    return frozen(body)


def laplacian_cofactor_slog(
    g: MatrixWeightedGraph, laplacian: np.ndarray | None = None
) -> tuple[float, float]:
    """The block cofactor of the Laplacian's (0, 0) block, as
    ``(sign, log|value|)``; overflow-safe.

    Because the Laplacian has exactly vanishing block row and column sums,
    every block cofactor of it takes this same value; the (0, 0) choice is
    the canonical evaluation point.  A prebuilt ``laplacian`` of ``g`` is
    used as given.
    """
    if laplacian is None:
        laplacian = build_laplacian(g)
    return linalg.block_cofactor_slog(laplacian, 0, 0, g.s)
