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

from dataclasses import dataclass

import numpy as np

from . import linalg
from .graph import MatrixWeightedGraph

__all__ = [
    "BlockMatrix",
    "stacked_identity",
    "build_laplacian",
    "build_incidence",
    "laplacian_cofactor",
    "laplacian_cofactor_slog",
]


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so :class:`BlockMatrix` can
    adopt it without a copy."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BlockMatrix:
    """A dense matrix viewed as a grid of ``s x s`` blocks.

    The body is stored read-only; :meth:`block` returns (read-only) views.
    A body given as a read-only float64 array that owns its memory (see
    :func:`frozen`) is adopted as is; any other body is copied.
    Rectangular bodies are allowed as long as both dimensions are multiples
    of ``s``.
    """

    body: np.ndarray
    s: int

    def __post_init__(self):
        body = np.asarray(self.body, dtype=np.float64)
        if body.ndim != 2:
            raise linalg.DimensionError("block matrix body must be 2-D")
        if self.s < 1:
            raise linalg.DimensionError(f"block size must be >= 1, got {self.s}")
        if body.shape[0] % self.s or body.shape[1] % self.s:
            raise linalg.DimensionError(
                f"body shape {body.shape} is not a multiple of block size {self.s}"
            )
        if body.flags.writeable or not body.flags.owndata:
            body = frozen(body.copy())
        object.__setattr__(self, "body", body)

    @property
    def row_blocks(self) -> int:
        return self.body.shape[0] // self.s

    @property
    def col_blocks(self) -> int:
        return self.body.shape[1] // self.s

    @property
    def n(self) -> int:
        """Block order of a square block matrix."""
        if self.row_blocks != self.col_blocks:
            raise linalg.DimensionError(
                f"block matrix is not square: {self.row_blocks} x {self.col_blocks}"
            )
        return self.row_blocks

    def block(self, i: int, j: int) -> np.ndarray:
        """The ``(i, j)`` block (0-based), as a read-only view."""
        if not (0 <= i < self.row_blocks and 0 <= j < self.col_blocks):
            raise linalg.DimensionError(
                f"block ({i}, {j}) out of range for "
                f"{self.row_blocks} x {self.col_blocks} blocks"
            )
        s = self.s
        return self.body[i * s : (i + 1) * s, j * s : (j + 1) * s]


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


def build_laplacian(g: MatrixWeightedGraph) -> BlockMatrix:
    """Assemble the block Laplacian of a matrix-weighted graph.

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
    return BlockMatrix(frozen(body), s)


def build_incidence(g: MatrixWeightedGraph) -> BlockMatrix:
    """Assemble the weighted incidence matrix ``Q`` with ``L = Q Q'``.

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
    return BlockMatrix(frozen(body), s)


def laplacian_cofactor(
    g: MatrixWeightedGraph, laplacian: BlockMatrix | None = None
) -> float:
    """The block cofactor of the Laplacian's (0, 0) block.

    Because the Laplacian has exactly vanishing block row and column sums,
    every block cofactor of it takes this same value; the (0, 0) choice is
    the canonical evaluation point.
    """
    if laplacian is None:
        laplacian = build_laplacian(g)
    return linalg.block_cofactor(laplacian.body, 0, 0, g.s)


def laplacian_cofactor_slog(
    g: MatrixWeightedGraph, laplacian: BlockMatrix | None = None
) -> tuple[float, float]:
    """Laplacian cofactor as ``(sign, log|value|)``; overflow-safe."""
    if laplacian is None:
        laplacian = build_laplacian(g)
    return linalg.block_cofactor_slog(laplacian.body, 0, 0, g.s)
