"""Dense linear algebra for symmetric matrices, on top of ``numpy.linalg``.

Thin layer over LAPACK (through ``numpy.linalg``) used by the rest of the
package: symmetric eigendecompositions in descending order, the spectral
pseudoinverse, batched positive definite inverses, determinants as exact
``(sign, log|det|)`` pairs, block cofactors, and inertia counts.  It adds
the checks LAPACK does not make: material asymmetry is rejected instead of
averaged away, and definiteness and rank decisions are relative to scale.

Everything operates on plain float64 ``numpy`` arrays, treats inputs as
read-only, and returns freshly allocated arrays.  Block indices are
0-based throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS",
    "SYMMETRY_RTOL",
    "DimensionError",
    "NumericError",
    "SpectralDecomposition",
    "Inertia",
    "max_norm",
    "default_rank_tol",
    "symmetrize",
    "sym_eigen",
    "pseudo_inverse",
    "pseudo_inverse_from",
    "pd_inverse",
    "pd_inverse_sqrt",
    "value_from_slog",
    "slog_in_range",
    "det_lu",
    "slogdet_lu",
    "block_cofactor_slog",
    "count_inertia",
]

#: Double precision machine epsilon.
EPS = float(np.finfo(np.float64).eps)

#: Relative asymmetry above which a nominally symmetric input is rejected
#: instead of silently repaired.
SYMMETRY_RTOL = 1e-10

#: Largest ``log|x|`` whose ``exp`` is still a finite double.
_LOG_MAX = math.log(np.finfo(np.float64).max)

#: Smallest ``log|x|`` whose ``exp`` is still a normal double.
_LOG_MIN = math.log(np.finfo(np.float64).tiny)


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericError(ArithmeticError):
    """Numerical failure: lost definiteness or singularity."""


def _checked(a: np.ndarray) -> np.ndarray:
    """``a`` itself, once it is known to be a non-empty finite matrix."""
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError("matrix has non-finite entries")
    return a


def _require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def max_norm(a) -> float:
    """Largest absolute entry (0.0 for an empty array)."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.max(np.abs(a))) if a.size else 0.0


def default_rank_tol(order: int) -> float:
    """Default relative rank tolerance for a matrix of the given order.

    Rank and definiteness decisions in this module compare eigenvalues
    against ``rank_tol * scale`` where ``scale`` is the largest eigenvalue
    magnitude; this is the relative factor used when none is supplied.
    """
    return max(int(order), 1) * EPS


def symmetrize(a, *, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Return ``(A + A') / 2`` after checking A is symmetric to within ``rtol``.

    Raises
    ------
    NumericError
        If the max-norm asymmetry exceeds ``rtol * (1 + max|A|)``.  A large
        asymmetry means the caller is holding the wrong matrix, and averaging
        it away would mask the bug.
    """
    a = _checked(np.asarray(a, dtype=np.float64))
    _require_square(a)
    return _symmetrized(a, rtol)


def _symmetrized(w: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """:func:`symmetrize` for a matrix or each matrix of a ``(..., k, k)``
    stack, raising if any one of them is materially asymmetric."""
    wt = np.swapaxes(w, -1, -2)
    gap = np.abs(w - wt).max(axis=(-2, -1))
    if np.any(gap > rtol * (1.0 + np.abs(w).max(axis=(-2, -1)))):
        raise NumericError(
            f"matrix is not symmetric: max asymmetry {float(gap.max()):.3e} "
            f"exceeds relative tolerance {rtol:.1e}"
        )
    return (w + wt) / 2.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def assemble(self, values) -> np.ndarray:
        """Build ``V diag(values) V'`` for an arbitrary diagonal vector."""
        v = self.eigenvectors
        return (v * np.asarray(values, dtype=np.float64)) @ v.T

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix ``V diag(eigenvalues) V'``."""
        return self.assemble(self.eigenvalues)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and (numerically) zero eigenvalues."""

    positive: int
    negative: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


def sym_eigen(a) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    The input is symmetrized via :func:`symmetrize`, which rejects material
    asymmetry.  Eigenvalues are returned in descending order with
    eigenvectors in matching columns.
    """
    values, vectors = np.linalg.eigh(symmetrize(a))
    return SpectralDecomposition(
        values[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1])
    )


def pseudo_inverse_from(
    decomposition: SpectralDecomposition, rank_tol: float | None = None
) -> np.ndarray:
    """Moore-Penrose inverse of a positive semidefinite matrix, given its
    spectral decomposition.

    Eigenvalues above ``rank_tol * max|eigenvalue|`` are inverted; the rest
    are treated as exact zeros.  ``rank_tol`` defaults to
    :func:`default_rank_tol` of the order.

    Raises
    ------
    NumericError
        If an eigenvalue is negative beyond the tolerance band, i.e. the
        matrix is not positive semidefinite.
    """
    values = decomposition.eigenvalues
    n = values.size
    if rank_tol is None:
        rank_tol = default_rank_tol(n)
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return np.zeros((n, n))
    band = rank_tol * scale
    smallest = float(values[-1])
    if smallest < -band:
        raise NumericError(
            f"matrix is not positive semidefinite: eigenvalue {smallest:.6e}"
        )
    keep = values > band
    inverted = np.zeros(n)
    inverted[keep] = 1.0 / values[keep]
    g = decomposition.assemble(inverted)
    return (g + g.T) / 2.0


def pseudo_inverse(a, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric positive semidefinite matrix.

    Spectral route: decompose with :func:`sym_eigen`, invert the eigenvalues
    above the rank band, zero out the rest.  The result is exactly
    symmetric.  ``pseudo_inverse`` of the zero matrix is the zero matrix.
    """
    return pseudo_inverse_from(sym_eigen(a), rank_tol)


def _pd_checked(w) -> np.ndarray:
    """A symmetric matrix or ``(..., k, k)`` stack, checked for shape and
    finiteness and averaged as in :func:`symmetrize`."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 2 or w.shape[-1] != w.shape[-2] or w.shape[-1] < 1:
        raise DimensionError(f"expected square matrices, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NumericError("matrix has non-finite entries")
    return _symmetrized(w)


def _require_pd(spectra: np.ndarray, rank_tol: float | None) -> None:
    """Raise unless each ascending spectrum in ``spectra`` has its smallest
    eigenvalue above ``rank_tol * largest`` (definiteness kept)."""
    if rank_tol is None:
        rank_tol = default_rank_tol(spectra.shape[-1])
    largest = spectra[..., -1]
    smallest = spectra[..., 0]
    lost = (largest <= 0.0) | (smallest <= rank_tol * largest)
    if np.any(lost):
        worst = float(smallest[lost].min())
        raise NumericError(
            f"matrix is not positive definite: smallest eigenvalue {worst:.6e}"
        )


def pd_inverse(w, rank_tol: float | None = None) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or of each matrix
    in a stack of shape ``(..., k, k)``, by batched LAPACK calls (one
    eigensolve for the definiteness test, one inversion).

    Inputs are checked and averaged as in :func:`symmetrize`, and each
    inverse is symmetrized as ``(V + V') / 2``, so it is exactly symmetric.
    Raises :class:`NumericError` if some input's smallest eigenvalue does
    not clear ``rank_tol * largest`` (definiteness lost).
    """
    w = _pd_checked(w)
    _require_pd(np.linalg.eigvalsh(w), rank_tol)
    v = np.linalg.inv(w)
    return (v + np.swapaxes(v, -1, -2)) / 2.0


def pd_inverse_sqrt(w, rank_tol: float | None = None) -> np.ndarray:
    """Inverse square root ``W^{-1/2}`` of a symmetric positive definite
    matrix, or of each matrix in a ``(..., k, k)`` stack, by one batched
    eigensolve.

    Each result ``S`` is the unique symmetric positive definite matrix with
    ``S W S = I``, symmetrized so it is exactly symmetric.  Inputs are
    checked and the definiteness test made as in :func:`pd_inverse`.
    """
    values, vectors = np.linalg.eigh(_pd_checked(w))
    _require_pd(values, rank_tol)
    root = (vectors * (1.0 / np.sqrt(values))[..., None, :]) @ np.swapaxes(
        vectors, -1, -2
    )
    return (root + np.swapaxes(root, -1, -2)) / 2.0


def value_from_slog(sign: float, log_abs: float) -> float:
    """The plain value ``sign * exp(log_abs)`` of a determinant pair.

    Out-of-range pairs give ``±inf`` or a signed zero, without numpy
    overflow warnings; in range this is exactly what ``numpy.linalg.det``
    computes.
    """
    if log_abs > _LOG_MAX:
        return sign * math.inf
    return sign * math.exp(log_abs)


def slog_in_range(sign: float, log_abs: float) -> bool:
    """True when :func:`value_from_slog` of the pair is exact to full
    precision: zero, or a normal double.  Out of range it would be ``±inf``,
    a signed zero or a subnormal that lost digits."""
    return sign == 0.0 or _LOG_MIN < log_abs < _LOG_MAX


def slogdet_lu(a) -> tuple[float, float]:
    """Determinant as ``(sign, log|det|)`` via LAPACK LU; overflow-safe.

    Singular inputs give ``(0.0, -inf)``.
    """
    a = _checked(np.asarray(a, dtype=np.float64))
    _require_square(a)
    sign, log_abs = np.linalg.slogdet(a)
    return (float(sign), float(log_abs))


def det_lu(a) -> float:
    """Determinant via LAPACK LU with partial pivoting, as the plain value
    of :func:`slogdet_lu`.

    Permutation matrices give exactly ``±1`` and singular inputs exactly 0.
    Values beyond the double range come out as ``±inf`` or a signed zero.
    """
    return value_from_slog(*slogdet_lu(a))


def _cofactor_pieces(a, i: int, j: int, s: int) -> tuple[float, np.ndarray]:
    a = _checked(np.asarray(a, dtype=np.float64))
    n = _require_square(a)
    if s < 1 or n % s != 0:
        raise DimensionError(f"order {n} is not a multiple of block size {s}")
    blocks = n // s
    if not (0 <= i < blocks and 0 <= j < blocks):
        raise DimensionError(
            f"block index ({i}, {j}) out of range for {blocks} blocks"
        )
    rows = np.arange(i * s, (i + 1) * s)
    cols = np.arange(j * s, (j + 1) * s)
    # Sign from the sum of the deleted 1-based absolute row and column indices.
    exponent = int(rows.sum() + rows.size + cols.sum() + cols.size)
    sign = -1.0 if exponent % 2 else 1.0
    keep_rows = np.delete(np.arange(n), rows)
    keep_cols = np.delete(np.arange(n), cols)
    return sign, a[np.ix_(keep_rows, keep_cols)]


def block_cofactor_slog(a, i: int, j: int, s: int) -> tuple[float, float]:
    """Cofactor of the ``(i, j)`` block (0-based) of a block matrix with
    ``s x s`` blocks, the signed determinant of A with block row ``i`` and
    block column ``j`` deleted, as ``(sign, log|value|)``; overflow-safe."""
    sign, minor = _cofactor_pieces(a, i, j, s)
    if minor.size == 0:
        return (sign, 0.0)
    det_sign, log_abs = slogdet_lu(minor)
    return (sign * det_sign, log_abs)


def count_inertia(values, zero_tol: float | None = None) -> Inertia:
    """Inertia counts from a vector of eigenvalues.

    Eigenvalues within ``zero_tol * max|eigenvalue|`` of zero count as zero;
    ``zero_tol`` defaults to :func:`default_rank_tol` of the count.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if zero_tol is None:
        zero_tol = default_rank_tol(n)
    scale = float(np.max(np.abs(values))) if n else 0.0
    band = zero_tol * scale
    positive = int(np.sum(values > band))
    negative = int(np.sum(values < -band))
    return Inertia(positive, negative, n - positive - negative)
