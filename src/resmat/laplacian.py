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
number of spanning trees.  It is read from the Cholesky pivots of the
shifted Laplacian ``M = L + alpha P``, where ``P = (1/n) J (x) I_s`` is the
projector onto the kernel of ``L`` and ``alpha = tr(L)/ns`` scales the
shift to the Laplacian: ``det M = alpha^s n^s c(G)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .graph import MatrixWeightedGraph

__all__ = [
    "stacked_identity",
    "build_laplacian",
    "build_incidence",
    "shifted_cholesky",
    "laplacian_cofactor_slog",
]


def stacked_identity(n: int, s: int) -> np.ndarray:
    """The ``ns x s`` block column of ``n`` stacked identity blocks
    (the all-ones vector Kronecker the ``s x s`` identity)."""
    return np.tile(np.eye(s), (n, 1))


def _laplacian_terms(g: MatrixWeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The terms of the block Laplacian: the ``(m, s, s)`` inverse edge
    weights and the ``(n, s, s)`` diagonal blocks.

    The weights are inverted in one batched call with no test of their own
    (the graph's constructor tested them for definiteness); each diagonal
    block is the sum of the inverse weights of its incident edges,
    accumulated in ascending neighbor order (the canonical edge order
    visits every vertex's neighbors that way).

    Raises :class:`NumericError`, its message naming the cause, when an
    inverse weight or the trace (which bounds every entry of ``L``) overflows.
    """
    inverse_weights = linalg._symmetric_inverse(g.weights)
    if not np.isfinite(inverse_weights).all():
        raise linalg.NumericError(
            "Laplacian trace is not finite: an inverse edge weight overflows"
        )
    # Interleave each edge's two endpoints so ``add.at`` (which applies its
    # updates in order) sums every vertex's blocks in canonical edge order.
    diagonal = np.zeros((g.n, g.s, g.s))
    with np.errstate(over="ignore"):
        np.add.at(diagonal, g.endpoints.ravel(), np.repeat(inverse_weights, 2, axis=0))
        # The entries of tr(L) in the order ``np.trace(L)`` adds them.
        trace = np.diagonal(diagonal, axis1=1, axis2=2).ravel().sum()
    if not math.isfinite(trace):
        raise linalg.NumericError(
            "Laplacian trace is not finite: a sum of inverse edge weights overflows"
        )
    return inverse_weights, diagonal


def _laplacian_from_terms(
    g: MatrixWeightedGraph, terms: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """The block Laplacian of ``g`` as a new writable ``ns x ns`` array: the
    :func:`_laplacian_terms` scattered into zeros, the negated inverse
    weights off the diagonal and the diagonal blocks on it."""
    inverse_weights, diagonal = terms
    n, s = g.n, g.s
    us, vs = g.endpoints.T
    body = np.zeros((n * s, n * s))
    blocks = body.reshape(n, s, n, s)
    blocks[us, :, vs, :] = -inverse_weights
    blocks[vs, :, us, :] = -inverse_weights
    vertices = np.arange(n)
    blocks[vertices, :, vertices, :] = diagonal
    return body


def build_laplacian(g: MatrixWeightedGraph) -> np.ndarray:
    """Assemble the block Laplacian of a matrix-weighted graph, as a
    read-only ``ns x ns`` array.

    Off-diagonal blocks are the negated inverse weights and each diagonal
    block the sum of the inverse weights of its incident edges, in
    ascending neighbor order (see :func:`_laplacian_terms`).  That makes
    the diagonal reproducible bitwise, and block row and column sums
    cancel up to a reordering of identical floating-point terms (residuals
    at the level of the last place, far below any tolerance used
    downstream).

    Raises :class:`NumericError`, its message naming the cause, when an
    inverse weight or the trace (which bounds every entry of ``L``) overflows.
    """
    return linalg.frozen(_laplacian_from_terms(g, _laplacian_terms(g)))


def build_incidence(g: MatrixWeightedGraph) -> np.ndarray:
    """Assemble the weighted incidence matrix ``Q`` with ``L = Q Q'``, as a
    read-only ``ns x ms`` array.

    Block column ``e`` carries ``+W_e^{-1/2}`` (one batched eigensolve over
    all edges, untested like the Laplacian's inverse weights) at the edge's
    origin (its smaller endpoint) and ``-W_e^{-1/2}`` at its terminus.
    Flipping an orientation negates one block column, which conjugates
    ``Q' A Q`` by a diagonal sign matrix and leaves ``Q Q'`` bitwise
    unchanged, so every identity checked downstream is
    orientation-independent.
    """
    n, s, m = g.n, g.s, g.m
    us, vs = g.endpoints.T
    roots = linalg._inverse_sqrt(g.weights)
    body = np.zeros((n * s, m * s))
    blocks = body.reshape(n, s, m, s)
    columns = np.arange(m)
    blocks[us, :, columns, :] = roots
    blocks[vs, :, columns, :] = -roots
    return linalg.frozen(body)


def _add_shift(body: np.ndarray, n: int, s: int, scale: float) -> None:
    """Add ``scale P`` with ``P = (1/n) J (x) I_s`` to the C-contiguous
    ``body``, in place."""
    blocks = body.reshape(n, s, n, s)
    blocks += (scale / n) * np.eye(s)[:, np.newaxis, :]


def shifted_cholesky(
    body: np.ndarray, n: int, s: int
) -> tuple[np.ndarray, float, tuple[float, float]]:
    """Factor the shifted Laplacian ``M = L + alpha P = C C'`` in the
    Laplacian's own buffer.

    ``body`` is a writable C-contiguous ``ns x ns`` array holding ``L``; the
    shift is added to it in place, so it is left holding ``M``, and no
    copy of ``L`` is made beside it.  Returns the lower triangular factor
    ``C`` (a new writable array), the shift ``alpha = tr(L)/ns`` and the
    Laplacian cofactor as ``(sign, log|value|)`` from the pivots, since
    ``log c(G) = 2 sum log diag(C) - s log(alpha n)``.  Any ``alpha > 0``
    makes ``M`` positive definite for a connected graph; scaling it to the
    Laplacian keeps the conditioning of ``M`` independent of the weight
    scale.

    The factorization also decides nonsingularity: it must succeed, and
    its smallest pivot ``min diag(C)^2`` must clear
    ``default_rank_tol(ns) * max|M|``, else :class:`NumericError`.
    """
    alpha = float(np.trace(body)) / (n * s)
    _add_shift(body, n, s, alpha)
    try:
        factor = np.linalg.cholesky(body)
        pivots = np.diag(factor)
        smallest = float(np.min(pivots)) ** 2
    except np.linalg.LinAlgError:
        smallest = 0.0
    if smallest <= linalg.default_rank_tol(n * s) * linalg.max_norm(body):
        raise linalg.NumericError(
            "shifted Laplacian is numerically singular; "
            "the graph is not usably connected"
        )
    log_det = 2.0 * float(np.sum(np.log(pivots)))
    return factor, alpha, (1.0, log_det - s * math.log(alpha * n))


def laplacian_cofactor_slog(
    g: MatrixWeightedGraph, laplacian: np.ndarray | None = None
) -> tuple[float, float]:
    """The Laplacian cofactor as ``(sign, log|value|)``; overflow-safe.

    Because the Laplacian has exactly vanishing block row and column sums,
    every block cofactor of it takes this same value.  It comes from the
    pivots of :func:`shifted_cholesky`, so it raises :class:`NumericError`
    where that factorization finds the graph numerically disconnected.  A
    prebuilt ``laplacian`` of ``g`` is used as given and never written: the
    shift goes into a copy of it.  Without one, ``L`` is built in a fresh
    buffer that the shift then overwrites.
    """
    if laplacian is None:
        body = _laplacian_from_terms(g, _laplacian_terms(g))
    else:
        body = laplacian.copy()
    return shifted_cholesky(body, g.n, g.s)[2]
