"""Resistance matrices of matrix-weighted graphs and their closed forms.

The computational route runs through the shifted Laplacian
``M = L + alpha P``, where ``P = (1/n) J (x) I_s`` (``J`` all-ones,
``(x)`` the Kronecker product) projects onto the kernel of ``L`` and
``alpha = tr(L)/ns`` scales the shift to the Laplacian.  ``M`` is positive
definite exactly when the graph is connected, and ``M^{-1} = L^+ + P/alpha``.
With ``X = M^{-1}``:

* the Laplacian pseudoinverse is ``X - (1/alpha) P``,
* the block resistance matrix is ``R_{ij} = X_ii + X_jj - 2 X_ij`` (the
  shift cancels),
* the vertex deficit blocks ``T_i = 2 I_s - sum_{j ~ i} W_ij^{-1} R_ji``
  stack into an ``ns x s`` matrix ``T``, which the engine takes from its
  closed expression ``T = L xbar + (2/n)(1 (x) I_s)`` (``xbar`` the
  stacked diagonal blocks of ``X``) with one product, not an edge loop;
  the ``TAUDEF`` check compares it with the edge sum.  The quadratic form
  ``T' R T`` is positive definite, equals
  ``2 xbar' L xbar + (8/n)(sum_i X_ii - I_s/alpha)``, and drives two
  closed forms:

    det R   = (-1)^{(n-1)s} 2^{(n-3)s} det(T' R T) / c(G)
    R^{-1}  = -(1/2) L + T (T' R T)^{-1} T'

  where ``c(G)`` is the Laplacian cofactor, read from the Cholesky pivots
  since ``det M = alpha^s n^s c(G)``.  The eigenvalues of ``R`` always
  split ``(s, ns - s, 0)`` into positive/negative/zero, and the negated
  reciprocal Laplacian spectrum interlaces them.

A :class:`ResistanceWorkspace` pays for one Cholesky factorization
``M = C C'``: it decides that ``M`` is usably nonsingular, its pivots give
the cofactor, and ``Z = C^{-1}`` gives ``xbar`` (the diagonal blocks of
``X = Z' Z`` are Grams of block columns of ``Z``).  So the closed forms
never form ``X`` or ``R``; those, and the spectra, are built on first use.
No eigenvectors are computed: ``L`` and ``R`` are decomposed for their
eigenvalues alone, and ``M`` not at all: ``P`` projects exactly onto the
kernel of ``L``, so the spectrum of ``M`` is that of ``L`` with its ``s``
zeros replaced by ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .graph import MatrixWeightedGraph
from .laplacian import _shift, build_laplacian, shifted_cholesky, stacked_identity
from .linalg import frozen

__all__ = [
    "CONDITION_CONFIDENCE_LIMIT",
    "INTERLACE_SLACK_RTOL",
    "InterlaceRow",
    "ResistanceWorkspace",
]

#: Condition number of the shifted Laplacian above which results are
#: flagged low-confidence in reports (computation still proceeds).
CONDITION_CONFIDENCE_LIMIT = 1e12

#: Relative slack of each side of an interlacing inequality.
INTERLACE_SLACK_RTOL = 1e-9

#: Largest diagonal block of the recursive triangular inverse that LAPACK
#: inverts directly.
_LEAF_ORDER = 64


def _interlace_slack(bound: float) -> float:
    """``INTERLACE_SLACK_RTOL * (1 + |bound|)``: each side's slack in a row."""
    return INTERLACE_SLACK_RTOL * (1.0 + abs(bound))


@dataclass(frozen=True)
class InterlaceRow:
    """One interlacing inequality ``mu_{s+i} <= -2/lambda_i <= mu_i``.

    ``index`` is the 1-based ``i``; ``lower`` and ``upper`` are the two
    resistance eigenvalues, ``bound`` the negated reciprocal Laplacian
    eigenvalue; ``holds`` allows each side the slack of :func:`_interlace_slack`.
    """

    index: int
    lower: float
    bound: float
    upper: float
    holds: bool


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


class ResistanceWorkspace:
    """Everything derived from one graph: Laplacian, shifted inverse,
    pseudoinverse, resistance blocks, deficit blocks, and closed forms.

    Construction never eigendecomposes a full ``ns x ns`` matrix and never
    forms ``X`` or ``R``: it is batched inverses of the edge weights, one
    Cholesky factorization ``M = C C'`` of the shifted Laplacian (which
    tests it, gives the cofactor and, inverted in place, ``Z = C^{-1}``),
    one batched product for the diagonal blocks of ``X = Z' Z``, and the
    eigenvalues of the ``s x s`` deficit form.  It keeps two ``ns x ns``
    matrices, ``L`` and ``Z``, which is all that the determinant, the
    inverse, ``T`` and single resistance blocks need.  The shifted
    inverse ``X`` and the resistance matrix ``R``, the pseudoinverse and
    the two spectra (`laplacian_eigenvalues` and `resistance_eigenvalues`,
    values only) are cached properties computed on first access, and so
    are the two small products that two registry checks each read,
    ``T' R T`` formed with ``R`` and the LU determinant of ``R``.  What a
    single registry check alone reads, such as the incidence matrix or the
    grounded inverse, that check builds and lets go.

    Every matrix attribute is a read-only float64 array, so an in-place
    write raises ``ValueError`` instead of silently invalidating what was
    derived from it.  Block ``(i, j)`` of an ``ns x ns`` attribute ``a`` is
    the view ``a.reshape(n, s, n, s)[i, :, j, :]``.

    Raises
    ------
    NumericError
        If the shifted Laplacian is numerically singular (input effectively
        disconnected), the deficit quadratic form overflows, or it fails to
        be positive definite (which would mean an upstream computation bug).
    """

    def __init__(self, graph: MatrixWeightedGraph):
        self.graph = graph
        n, s = graph.n, graph.s
        ns = n * s
        self.laplacian = build_laplacian(graph)
        factor, self.shift_scale, self.laplacian_cofactor_slog = shifted_cholesky(
            self.laplacian, n, s
        )
        _invert_lower(factor)  # factor now holds Z = C^{-1}
        self._inverse_factor = frozen(factor)

        # X_ii = Z_i' Z_i for the block columns Z_i of Z, in one batched
        # product, stacked (n, s, s) and then as an ns x s column.
        columns = factor.reshape(ns, n, s).transpose(1, 0, 2)
        diagonal = columns.transpose(0, 2, 1) @ columns
        self.diag_stack = frozen(diagonal.reshape(ns, s))

        # T = L xbar + (2/n)(1 (x) I_s); TAUDEF checks it against the edge
        # sum that defines it.
        deficit = self.laplacian @ self.diag_stack
        deficit += (2.0 / n) * stacked_identity(n, s)
        self.deficit = frozen(deficit)

        # T' R T by its closed expression 2 xbar' L xbar
        # + (8/n)(sum_i X_ii - I_s/alpha); TAURTAU_FORM checks it against
        # the product with R.
        xbar = self.diag_stack
        # Near the double range the form overflows; refused without warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            total = xbar.reshape(n, s, s).sum(axis=0)
            form = 2.0 * xbar.T @ self.laplacian @ xbar + (8.0 / n) * (
                total - np.eye(s) / self.shift_scale
            )
        if not np.isfinite(form).all():
            raise linalg.NumericError(
                "deficit quadratic form T' R T overflows: the resistances are "
                "too large for double precision"
            )
        self.deficit_form = frozen(linalg.symmetric_mean(form))
        lost, smallest = linalg._not_definite(self.deficit_form)
        if lost:
            raise linalg.NumericError(
                "deficit quadratic form is not positive definite "
                f"(smallest eigenvalue {float(smallest):.6e}); this indicates an "
                "upstream computation bug"
            )

    def _gram(self) -> np.ndarray:
        """``X = Z' Z``, exactly symmetric: numpy runs the product on one
        buffer as a symmetric rank-k update."""
        z = self._inverse_factor
        return z.T @ z

    @cached_property
    def shifted_inverse(self) -> np.ndarray:
        """The shifted inverse ``X = M^{-1} = Z' Z``."""
        return frozen(self._gram())

    @cached_property
    def resistance(self) -> np.ndarray:
        """The block resistance matrix ``R_ij = X_ii + X_jj - 2 X_ij``,
        assembled for all block pairs at once from ``X`` itself.  A
        workspace that has not built ``X`` builds it for this alone and lets
        it go, so it holds ``L``, ``Z`` and ``R``, not ``X`` as well."""
        n, s = self.graph.n, self.graph.s
        x = self.__dict__.get("shifted_inverse")
        x_blocks = (self._gram() if x is None else x).reshape(n, s, n, s)
        vertices = np.arange(n)
        diagonal = x_blocks[vertices, :, vertices, :]
        resistance = np.empty((n * s, n * s))
        r_blocks = resistance.reshape(n, s, n, s)
        np.add(diagonal[:, :, np.newaxis, :], diagonal.transpose(1, 0, 2), out=r_blocks)
        r_blocks -= 2.0 * x_blocks
        return frozen(resistance)

    @cached_property
    def deficit_form_direct(self) -> np.ndarray:
        """``T' R T`` as the product with ``R``, not by the closed
        expression of `deficit_form`; ``TAURTAU_PD`` and ``TAURTAU_FORM``
        read it."""
        return frozen(self.deficit.T @ self.resistance @ self.deficit)

    @cached_property
    def resistance_slogdet(self) -> tuple[float, float]:
        """``det R`` as ``(sign, log|det|)`` by LU of ``R``, not by the
        closed form; ``DET_FORMULA`` and ``TREE_DET`` read it."""
        return linalg.slogdet_lu(self.resistance)

    @cached_property
    def pseudoinverse(self) -> np.ndarray:
        """Laplacian pseudoinverse ``X - (1/alpha) P``."""
        n, s = self.graph.n, self.graph.s
        return frozen(_shift(self.shifted_inverse, n, s, -1.0 / self.shift_scale))

    # ------------------------------------------------------------------
    # lazily computed spectral objects

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``L``, descending; no eigenvectors."""
        return linalg.sym_eigenvalues(self.laplacian)

    @cached_property
    def resistance_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``R``, descending; no eigenvectors."""
        return linalg.sym_eigenvalues(self.resistance)

    @property
    def shift_extremes(self) -> tuple[float, float]:
        """The largest and smallest eigenvalues of ``M``, read from
        `laplacian_eigenvalues`: ``max(lambda_1, alpha), min(lambda_{ns-s}, alpha)``."""
        lam, alpha = self.laplacian_eigenvalues, self.shift_scale
        return max(float(lam[0]), alpha), min(float(lam[-self.graph.s - 1]), alpha)

    @property
    def condition(self) -> float:
        """Condition number of the shifted Laplacian."""
        largest, smallest = self.shift_extremes
        return largest / smallest

    @property
    def low_confidence(self) -> bool:
        """True when the shifted Laplacian's conditioning exceeds the
        reporting threshold; results are then flagged, never suppressed."""
        return self.condition > CONDITION_CONFIDENCE_LIMIT

    # ------------------------------------------------------------------
    # block access

    def resistance_block(self, i: int, j: int) -> np.ndarray:
        """The ``(i, j)`` resistance block (0-based), as a fresh array:
        ``X_ii + X_jj - 2 Z_i' Z_j`` from block columns of ``Z``, without
        forming ``X`` or ``R``.

        Raises :class:`DimensionError` for an index outside ``0..n-1``; a
        negative one would otherwise wrap round to another block.
        """
        n, s = self.graph.n, self.graph.s
        if not (0 <= i < n and 0 <= j < n):
            raise linalg.DimensionError(
                f"block ({i}, {j}) out of range for {n} x {n} blocks"
            )
        z = self._inverse_factor
        cross = z[:, i * s : (i + 1) * s].T @ z[:, j * s : (j + 1) * s]
        xbar = self.diag_stack
        return xbar[i * s : (i + 1) * s] + xbar[j * s : (j + 1) * s] - 2.0 * cross

    # ------------------------------------------------------------------
    # closed forms

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
        cofactor; no eigendecomposition.
        """
        n, s = self.graph.n, self.graph.s
        cof_sign, cof_log = self.laplacian_cofactor_slog
        form_sign, form_log = linalg.slogdet_lu(self.deficit_form)
        parity = -1.0 if ((n - 1) * s) % 2 else 1.0
        sign = parity * form_sign * cof_sign
        return (sign, (n - 3) * s * math.log(2.0) + form_log - cof_log)

    def inverse(self) -> np.ndarray:
        """Inverse of the resistance matrix by the closed form
        ``-(1/2) L + T (T' R T)^{-1} T'`` (one tiny ``s x s`` solve).

        Summing in place, three float and one bool ``ns x ns`` temporaries suffice."""
        middle = np.linalg.solve(self.deficit_form, self.deficit.T)
        f = -0.5 * self.laplacian
        f += self.deficit @ middle
        return linalg.symmetric_mean(f)

    def inertia(self) -> linalg.Inertia:
        """Eigenvalue sign counts of the resistance matrix (always
        ``(s, ns - s, 0)`` in exact arithmetic)."""
        return linalg.count_inertia(self.resistance_eigenvalues)

    def interlacing(self) -> list[InterlaceRow]:
        """The ``ns - s`` interlacing rows ``mu_{s+i} <= -2/lambda_i <= mu_i``
        over the positive Laplacian eigenvalues (descending)."""
        n, s = self.graph.n, self.graph.s
        count = n * s - s
        lam = self.laplacian_eigenvalues
        mu = self.resistance_eigenvalues
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
            slack = _interlace_slack(bound)
            holds = (lower <= bound + slack) and (bound <= upper + slack)
            rows.append(InterlaceRow(i, lower, bound, upper, holds))
        return rows
