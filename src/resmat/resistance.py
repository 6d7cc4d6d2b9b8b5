"""Resistance matrices of matrix-weighted graphs and their closed forms.

The computational route runs through the shifted Laplacian
``M = L + (1/n) J (x) I_s`` (``J`` all-ones, ``(x)`` the Kronecker
product), which is positive definite exactly when the graph is connected.
With ``X = M^{-1}``:

* the Laplacian pseudoinverse is ``X - (1/n) J (x) I_s``,
* the block resistance matrix is ``R_{ij} = X_ii + X_jj - 2 X_ij``,
* the vertex deficit blocks ``T_i = 2 I_s - sum_{j ~ i} W_ij^{-1} R_ji``
  stack into an ``ns x s`` matrix ``T``, which the engine takes from its
  closed expression ``T = L xbar + (2/n)(1 (x) I_s)`` (``xbar`` the
  stacked diagonal blocks of ``X``) with one product, not an edge loop;
  the ``TAUDEF`` check compares it with the edge sum.  The quadratic form
  ``T' R T`` is positive definite and drives two closed forms:

    det R   = (-1)^{(n-1)s} 2^{(n-3)s} det(T' R T) / c(G)
    R^{-1}  = -(1/2) L + T (T' R T)^{-1} T'

  where ``c(G)`` is the Laplacian cofactor.  The eigenvalues of ``R``
  always split ``(s, ns - s, 0)`` into positive/negative/zero, and the
  negated reciprocal Laplacian spectrum interlaces them.

A :class:`ResistanceWorkspace` computes the cheap objects eagerly (one
Cholesky factorization ``M = C C'`` both decides that ``M`` is usably
nonsingular and gives ``X = Z' Z`` with ``Z = C^{-1}``) and caches the
spectral ones on first use, so determinant work never pays for an
eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .graph import MatrixWeightedGraph
from .laplacian import (
    build_incidence,
    build_laplacian,
    frozen,
    laplacian_cofactor_slog,
    stacked_identity,
)

__all__ = [
    "CONDITION_CONFIDENCE_LIMIT",
    "InterlaceRow",
    "ResistanceWorkspace",
]

#: Condition number of the shifted Laplacian above which results are
#: flagged low-confidence in reports (computation still proceeds).
CONDITION_CONFIDENCE_LIMIT = 1e12

#: Largest diagonal block of the recursive triangular inverse that LAPACK
#: inverts directly.
_LEAF_ORDER = 64


@dataclass(frozen=True)
class InterlaceRow:
    """One interlacing inequality ``mu_{s+i} <= -2/lambda_i <= mu_i``.

    ``index`` is the 1-based ``i``; ``lower`` and ``upper`` are the two
    resistance eigenvalues, ``bound`` the negated reciprocal Laplacian
    eigenvalue; ``holds`` allows slack ``1e-9 * (1 + |bound|)`` per side.
    """

    index: int
    lower: float
    bound: float
    upper: float
    holds: bool


def _shift(body: np.ndarray, n: int, s: int, sign: float = 1.0) -> np.ndarray:
    """``body + sign (1/n) J (x) I_s`` as a new ``ns x ns`` array."""
    shifted = body.copy()
    blocks = shifted.reshape(n, s, n, s)
    blocks += (sign / n) * np.eye(s)[:, np.newaxis, :]
    return shifted


def _invert_lower(c: np.ndarray) -> None:
    """Overwrite the lower triangular ``C`` with ``Z = C^{-1}``, in place.

    Recursive 2x2 blocking,
    ``[[C11, 0], [C21, C22]]^{-1} = [[Z11, 0], [-Z22 C21 Z11, Z22]]``, puts
    the work into matrix products; leaves of at most ``_LEAF_ORDER`` rows
    are inverted by LAPACK and cut back to their lower triangle, so ``Z``
    keeps exact zeros above the diagonal.
    """
    k = c.shape[0]
    if k <= _LEAF_ORDER:
        c[...] = np.tril(np.linalg.inv(c))
        return
    h = k // 2
    _invert_lower(c[:h, :h])
    _invert_lower(c[h:, h:])
    product = c[h:, h:] @ c[h:, :h]
    np.negative(product, out=product)
    np.matmul(product, c[:h, :h], out=c[h:, :h])


def _shifted_inverse(laplacian: np.ndarray, n: int, s: int) -> np.ndarray:
    """``X = M^{-1}`` for the shifted Laplacian ``M = L + (1/n) J (x) I_s``.

    One Cholesky factorization ``M = C C'`` serves twice.  It decides
    nonsingularity: it must succeed, and its smallest pivot
    ``min diag(C)^2`` must clear ``default_rank_tol(ns) * max|M|``, else
    :class:`NumericError`.  It then gives ``X = Z' Z`` with ``Z = C^{-1}``
    from :func:`_invert_lower`, so the inverse runs as matrix products
    (backward stable; Du Croz & Higham 1992).  numpy computes ``Z' Z`` on
    one buffer as a symmetric rank-k update, so ``X`` is exactly symmetric.
    """
    shift_body = _shift(laplacian, n, s)
    try:
        factor = np.linalg.cholesky(shift_body)
        pivot = float(np.min(np.diag(factor))) ** 2
    except np.linalg.LinAlgError:
        pivot = 0.0
    if pivot <= linalg.default_rank_tol(n * s) * linalg.max_norm(shift_body):
        raise linalg.NumericError(
            "shifted Laplacian is numerically singular; "
            "the graph is not usably connected"
        )
    del shift_body
    _invert_lower(factor)  # factor now holds Z = C^{-1}
    return factor.T @ factor


class ResistanceWorkspace:
    """Everything derived from one graph: Laplacian, shifted inverse,
    pseudoinverse, resistance blocks, deficit blocks, and closed forms.

    Construction never eigendecomposes a full ``ns x ns`` matrix: it is one
    Cholesky factorization of the shifted Laplacian, which both tests it
    and yields its inverse through the inverse factor, batched inverses of
    the edge weights, and an ``s x s`` eigensolve of the deficit form.
    It keeps three ``ns x ns`` matrices: ``L``, ``X`` and ``R``.  The
    shifted Laplacian and the pseudoinverse (each one addition away), the
    large spectra (`laplacian_spectrum`, `resistance_spectrum`,
    `shift_spectrum`) and the incidence matrix are cached properties
    computed on first access.

    Every matrix attribute is a read-only float64 array, so an in-place
    write raises ``ValueError`` instead of silently invalidating what was
    derived from it.  Block ``(i, j)`` of an ``ns x ns`` attribute ``a`` is
    the view ``a.reshape(n, s, n, s)[i, :, j, :]``.

    Raises
    ------
    NumericError
        If the shifted Laplacian is numerically singular (input effectively
        disconnected), or the deficit quadratic form fails to be positive
        definite (which would mean an upstream computation bug).
    """

    def __init__(self, graph: MatrixWeightedGraph):
        self.graph = graph
        n, s = graph.n, graph.s
        ns = n * s
        self.laplacian = build_laplacian(graph)
        self.shifted_inverse = x = frozen(_shifted_inverse(self.laplacian, n, s))

        # Diagonal blocks of X, stacked (n, s, s), then as an ns x s column.
        x_blocks = x.reshape(n, s, n, s)
        vertices = np.arange(n)
        diagonal = frozen(x_blocks[vertices, :, vertices, :])
        self.diag_stack = diagonal.reshape(ns, s)

        # R_ij = X_ii + X_jj - 2 X_ij for all block pairs at once.
        resistance = np.empty((ns, ns))
        r_blocks = resistance.reshape(n, s, n, s)
        np.add(diagonal[:, :, np.newaxis, :], diagonal.transpose(1, 0, 2), out=r_blocks)
        r_blocks -= 2.0 * x_blocks
        self.resistance = frozen(resistance)

        # T = L xbar + (2/n)(1 (x) I_s); TAUDEF checks it against the edge
        # sum that defines it.
        deficit = self.laplacian @ self.diag_stack
        deficit += (2.0 / n) * stacked_identity(n, s)
        self.deficit = frozen(deficit)

        form = deficit.T @ resistance @ deficit
        self.deficit_form = frozen((form + form.T) / 2.0)
        form_spectrum = linalg.sym_eigen(self.deficit_form)
        largest = float(form_spectrum.eigenvalues[0])
        smallest = float(form_spectrum.eigenvalues[-1])
        if largest <= 0.0 or smallest <= linalg.default_rank_tol(s) * largest:
            raise linalg.NumericError(
                "deficit quadratic form is not positive definite "
                f"(smallest eigenvalue {smallest:.6e}); this indicates an "
                "upstream computation bug"
            )
        self.deficit_form_spectrum = form_spectrum

    @cached_property
    def shift_body(self) -> np.ndarray:
        """The shifted Laplacian ``M = L + (1/n) J (x) I_s``."""
        return frozen(_shift(self.laplacian, self.graph.n, self.graph.s))

    @cached_property
    def pseudoinverse(self) -> np.ndarray:
        """Laplacian pseudoinverse ``X - (1/n) J (x) I_s``."""
        n, s = self.graph.n, self.graph.s
        return frozen(_shift(self.shifted_inverse, n, s, -1.0))

    # ------------------------------------------------------------------
    # lazily computed spectral objects

    @cached_property
    def laplacian_spectrum(self) -> linalg.SpectralDecomposition:
        return linalg.sym_eigen(self.laplacian)

    @cached_property
    def resistance_spectrum(self) -> linalg.SpectralDecomposition:
        return linalg.sym_eigen(self.resistance)

    @cached_property
    def shift_spectrum(self) -> linalg.SpectralDecomposition:
        return linalg.sym_eigen(self.shift_body)

    @cached_property
    def spectral_pseudoinverse(self) -> np.ndarray:
        """Laplacian pseudoinverse by the independent spectral route."""
        return frozen(linalg.pseudo_inverse_from(self.laplacian_spectrum))

    @cached_property
    def incidence(self) -> np.ndarray:
        return build_incidence(self.graph)

    @cached_property
    def laplacian_cofactor_slog(self) -> tuple[float, float]:
        return laplacian_cofactor_slog(self.graph, self.laplacian)

    @cached_property
    def laplacian_cofactor_value(self) -> float:
        return linalg.value_from_slog(*self.laplacian_cofactor_slog)

    @property
    def condition(self) -> float:
        """Condition number of the shifted Laplacian."""
        values = self.shift_spectrum.eigenvalues
        return float(values[0] / values[-1])

    @property
    def low_confidence(self) -> bool:
        """True when the shifted Laplacian's conditioning exceeds the
        reporting threshold; results are then flagged, never suppressed."""
        return self.condition > CONDITION_CONFIDENCE_LIMIT

    # ------------------------------------------------------------------
    # block access

    def resistance_block(self, i: int, j: int) -> np.ndarray:
        """The ``(i, j)`` resistance block (0-based), as a fresh array.

        Raises :class:`DimensionError` for an index outside ``0..n-1``; a
        negative one would otherwise wrap round to another block.
        """
        n, s = self.graph.n, self.graph.s
        if not (0 <= i < n and 0 <= j < n):
            raise linalg.DimensionError(
                f"block ({i}, {j}) out of range for {n} x {n} blocks"
            )
        return self.resistance[i * s : (i + 1) * s, j * s : (j + 1) * s].copy()

    # ------------------------------------------------------------------
    # closed forms

    def deficit_form_closed(self) -> np.ndarray:
        """The deficit quadratic form by its non-obvious closed expression
        ``2 xbar' L xbar + (8/n) (sum_i X_ii - I_s)`` with
        ``xbar`` the stacked diagonal blocks of the shifted inverse."""
        n, s = self.graph.n, self.graph.s
        xbar = self.diag_stack
        total = xbar.reshape(n, s, s).sum(axis=0)
        return 2.0 * xbar.T @ self.laplacian @ xbar + (8.0 / n) * (
            total - np.eye(s)
        )

    def determinant(self) -> float:
        """Determinant of the resistance matrix by the closed form
        ``(-1)^{(n-1)s} 2^{(n-3)s} det(T' R T) / c(G)``.

        The plain value of :meth:`determinant_slog`: ``±inf`` or a signed
        zero when it is beyond the double range.
        """
        return linalg.value_from_slog(*self.determinant_slog())

    def determinant_slog(self) -> tuple[float, float]:
        """The closed-form determinant as ``(sign, log|det|)``, safe for
        sizes where the plain value would overflow.

        Uses only the determinant of the ``s x s`` deficit form plus one
        cofactor; no eigendecomposition.  Raises :class:`NumericError` if
        the Laplacian cofactor vanishes (impossible for a valid graph).
        """
        n, s = self.graph.n, self.graph.s
        cof_sign, cof_log = self.laplacian_cofactor_slog
        if cof_sign == 0.0:
            raise linalg.NumericError(
                "Laplacian cofactor is zero; the graph is not usably connected"
            )
        form_sign, form_log = linalg.slogdet_lu(self.deficit_form)
        parity = -1.0 if ((n - 1) * s) % 2 else 1.0
        sign = parity * form_sign * cof_sign
        return (sign, (n - 3) * s * math.log(2.0) + form_log - cof_log)

    def inverse(self) -> np.ndarray:
        """Inverse of the resistance matrix by the closed form
        ``-(1/2) L + T (T' R T)^{-1} T'`` (one tiny ``s x s`` solve)."""
        middle = np.linalg.solve(self.deficit_form, self.deficit.T)
        f = -0.5 * self.laplacian + self.deficit @ middle
        return (f + f.T) / 2.0

    def inertia(self, zero_tol: float | None = None) -> linalg.Inertia:
        """Eigenvalue sign counts of the resistance matrix (always
        ``(s, ns - s, 0)`` in exact arithmetic)."""
        return linalg.count_inertia(self.resistance_spectrum.eigenvalues, zero_tol)

    def interlacing(self, slack_rtol: float = 1e-9) -> list[InterlaceRow]:
        """The ``ns - s`` interlacing rows ``mu_{s+i} <= -2/lambda_i <= mu_i``
        over the positive Laplacian eigenvalues (descending)."""
        n, s = self.graph.n, self.graph.s
        count = n * s - s
        lam = self.laplacian_spectrum.eigenvalues
        mu = self.resistance_spectrum.eigenvalues
        rows = []
        for i in range(1, count + 1):
            lam_i = float(lam[i - 1])
            if lam_i <= 0.0:
                raise linalg.NumericError(
                    f"Laplacian eigenvalue {i} is not positive ({lam_i:.6e}); "
                    "rank deficiency exceeds the kernel dimension"
                )
            bound = -2.0 / lam_i
            lower = float(mu[s + i - 1])
            upper = float(mu[i - 1])
            slack = slack_rtol * (1.0 + abs(bound))
            holds = (lower <= bound + slack) and (bound <= upper + slack)
            rows.append(InterlaceRow(i, lower, bound, upper, holds))
        return rows
