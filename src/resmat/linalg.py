"""Dense linear algebra for symmetric matrices, on top of ``numpy.linalg``.

Thin layer over LAPACK (through ``numpy.linalg``) used by the rest of the
package: symmetric eigenvalues in descending order (no eigenvectors), the
spectral pseudoinverse that the scalar oracle takes, determinants as exact
``(sign, log|det|)`` pairs, block cofactors, and inertia counts.  It adds
the checks LAPACK does not make: material asymmetry is rejected instead of
averaged away, symmetric means never overflow, and rank decisions are
relative to scale.  A matrix is symmetrized only where asymmetry can
arise: :func:`pseudo_inverse` takes caller input through
:func:`symmetrize`, while :func:`sym_eigenvalues` and the batched kernels
for edge weights (inverse and inverse square root) check nothing, since
the graph's weights, ``L`` and ``R`` are built exactly symmetric.

Everything operates on plain float64 ``numpy`` arrays, treats inputs as
read-only, and returns freshly allocated arrays, with two exceptions:
:func:`certified_definite` shifts its argument's diagonal in place and
puts it back before returning, and the private
``_symmetric_mean_in_place`` overwrites its argument with the result.
Block indices are 0-based throughout this module.
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
    "Inertia",
    "max_norm",
    "default_rank_tol",
    "certified_definite",
    "symmetric_mean",
    "symmetrize",
    "sym_eigenvalues",
    "pseudo_inverse",
    "value_from_slog",
    "slog_in_range",
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

#: Smallest normal double.
_TINY = float(np.finfo(np.float64).tiny)

#: Largest finite double.
_FLOAT_MAX = float(np.finfo(np.float64).max)


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericError(ArithmeticError):
    """Numerical failure: lost definiteness or singularity."""


def _checked(a) -> np.ndarray:
    """``a`` as a float64 array, once it is known to be a non-empty, finite,
    square matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {a.ndim} dimension(s)")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"matrix must be non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericError("matrix has non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def max_norm(a) -> float:
    """Largest absolute entry (0.0 for an empty array)."""
    a = np.asarray(a, dtype=np.float64)
    return float(max(a.max(), -a.min())) + 0.0 if a.size else 0.0


def default_rank_tol(order: int) -> float:
    """Relative rank tolerance for a matrix of the given order.

    Rank and definiteness decisions compare eigenvalues against
    ``default_rank_tol(order) * scale`` where ``scale`` is the largest
    eigenvalue magnitude.
    """
    return max(int(order), 1) * EPS


def _not_definite(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one definiteness rule, by one batched ``eigvalsh`` of an exactly
    symmetric float64 ``(..., k, k)`` stack: whether each matrix fails
    ``lambda_min > k eps lambda_max > 0``, and its ``lambda_min``."""
    values = np.linalg.eigvalsh(a)
    low, high = values[..., 0], values[..., -1]
    return (high <= 0.0) | (low <= default_rank_tol(a.shape[-1]) * high), low


def certified_definite(a: np.ndarray, rtol: float) -> bool:
    """True when one batched Cholesky factorization proves that every
    matrix ``A`` of the exactly symmetric float64 ``(..., k, k)`` stack
    has ``lambda_min(A) > rtol ||A||_inf >= rtol lambda_max(A)``.

    Each ``A`` is shifted to ``A - tau I`` with ``tau = rtol ||A||_inf +
    delta`` and ``delta = 2 (k + 2) eps (sum_i |A_ii| + ||A||_inf) + tiny``.
    If ``potrf`` completes on a matrix ``S``, its factor satisfies
    ``C C' = S + E`` with ``||E||_2 <= gamma_{k+1} tr(S) / (1 - gamma_{k+1})``
    (Demmel 1989; Higham, *Accuracy and Stability of Numerical Algorithms*,
    Thm 10.5) barring underflow, and ``delta`` exceeds that bound plus the
    rounding of the shifted diagonal; ``tiny``, the smallest normal
    double, exceeds what gradual underflow can add for any ``k`` below
    ``2**25``.  So a factor proves the bound, and the screen accepts
    nothing an eigenvalue test at ``rtol`` would refuse in exact
    arithmetic.  False means no proof: some matrix is indefinite,
    singular, nearly so, non-finite, or has an entry of ``max / (2k + 2)``
    or more, where the shift could overflow.  ``rtol`` must be below 1.

    The shift goes into ``a``'s own buffer and the diagonal is put back
    before returning, so no copy of the stack but the factor is held.
    """
    k = a.shape[-1]
    absolute = np.abs(a)
    # Below this bound on the entries every sum the shift takes is finite.
    if not absolute.max(initial=0.0) < _FLOAT_MAX / (2 * k + 2):
        return False
    norm = absolute.sum(axis=-1).max(axis=-1)
    del absolute  # the factorization runs beside no third copy of the stack
    diagonal = np.einsum("...ii->...i", a)
    kept = diagonal.copy()
    delta = 2.0 * (k + 2) * EPS * (np.abs(kept).sum(axis=-1) + norm) + _TINY
    diagonal -= (rtol * norm + delta)[..., np.newaxis]
    try:
        np.linalg.cholesky(a)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        diagonal[...] = kept


def _mean(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``(a + t) / 2`` entrywise, as a new array: bit for bit, save that an
    entry whose sum overflows is ``a / 2 + t / 2``, exact there.  Where
    ``inf`` meets ``-inf`` the mean is NaN, without a warning: callers
    refuse a non-finite result themselves."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = a + t
    spilled = np.isinf(mean)
    mean /= 2.0
    if spilled.any():
        mean[spilled] = a[spilled] / 2.0 + t[spilled] / 2.0
    return mean


def symmetric_mean(a: np.ndarray) -> np.ndarray:
    """The package's one ``(A + A') / 2``, over the last two axes: bit for
    bit, save that an entry whose sum overflows is ``a / 2 + a' / 2``, exact there."""
    return _mean(a, np.swapaxes(a, -1, -2))


def _symmetric_mean_in_place(a: np.ndarray, rows: int) -> None:
    """Overwrite the square ``a`` with :func:`symmetric_mean` of it, bit for
    bit, ``rows`` rows at a time.

    Each band ``a[r:r+rows, r:]`` of the upper triangle is averaged with its
    mirror ``a[r:, r:r+rows]'``, which no earlier band has written, and the
    mean goes to both; the mean of two entries does not depend on their
    order, so the result is exactly symmetric.  Only one band's mean is
    ever allocated.
    """
    for r in range(0, a.shape[0], rows):
        band, mirror = a[r : r + rows, r:], a[r:, r : r + rows]
        band[...] = _mean(band, mirror.T)
        # The square the two share now holds its own, symmetric, mean.
        mirror[rows:] = band[:, rows:].T


def _asymmetric(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one asymmetry test, on each matrix ``A`` of a finite float64
    ``(..., k, k)`` stack: whether ``max|A - A'| > SYMMETRY_RTOL (1 + max|A|)``,
    and the gap ``max|A - A'|``."""
    # A gap beyond the double range is inf, which the test refuses.
    with np.errstate(over="ignore"):
        gap = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    return gap > SYMMETRY_RTOL * (1.0 + np.abs(a).max(axis=(-2, -1))), gap


def symmetrize(a) -> np.ndarray:
    """Return ``(A + A') / 2``, by :func:`symmetric_mean`, after checking A
    is finite, square and symmetric to within :data:`SYMMETRY_RTOL`.

    The result is a new array; a matrix that equals its transpose bit for
    bit comes back bit for bit, as its own mean.

    Raises
    ------
    NumericError
        If the max-norm asymmetry exceeds ``SYMMETRY_RTOL * (1 + max|A|)``.
        A large asymmetry means the caller is holding the wrong matrix, and
        averaging it away would mask the bug.
    """
    a = _checked(a)
    asymmetric, gap = _asymmetric(a)
    if asymmetric:
        raise NumericError(
            f"matrix is not symmetric: max asymmetry {gap:.3e} "
            f"exceeds relative tolerance {SYMMETRY_RTOL:.1e}"
        )
    return symmetric_mean(a)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and (numerically) zero eigenvalues."""

    positive: int
    negative: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


def frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only and return it.

    Every matrix the engine builds is handed out this way, so no caller can
    change a result that others have derived from.
    """
    a.setflags(write=False)
    return a


def sym_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of the exactly symmetric, finite float64 matrix ``a``,
    descending and read-only, with no eigenvectors.

    Like the batched kernels, this checks nothing: ``eigvalsh`` reads one
    triangle of ``a``, so a caller whose matrix may be asymmetric passes
    it through :func:`symmetrize` first.
    """
    return frozen(np.linalg.eigvalsh(a)[::-1].copy())


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric positive semidefinite matrix.

    Spectral route: decompose the input, symmetrized via
    :func:`symmetrize`, by LAPACK ``syevd``, invert the eigenvalues above
    ``default_rank_tol(order) * max|eigenvalue|`` and treat the rest as
    exact zeros.  The result is exactly symmetric.  ``pseudo_inverse`` of
    the zero matrix is the zero matrix.

    Raises
    ------
    NumericError
        If an eigenvalue is negative beyond the tolerance band, i.e. the
        matrix is not positive semidefinite.
    """
    values, vectors = np.linalg.eigh(symmetrize(a))
    # Descending, vectors too: their order fixes the product's rounding.
    values = values[::-1]
    v = np.ascontiguousarray(vectors[:, ::-1])
    n = values.size
    scale = max_norm(values)
    if scale == 0.0:
        return np.zeros((n, n))
    band = default_rank_tol(n) * scale
    smallest = float(values[-1])
    if smallest < -band:
        raise NumericError(
            f"matrix is not positive semidefinite: eigenvalue {smallest:.6e}"
        )
    keep = values > band
    inverted = np.zeros(n)
    inverted[keep] = 1.0 / values[keep]
    return symmetric_mean((v * inverted) @ v.T)


def _symmetric_inverse(w: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of an exactly symmetric positive definite
    float64 ``(..., k, k)`` stack, by one batched LAPACK call, symmetrized
    as ``(V + V') / 2`` so each is exactly symmetric."""
    return symmetric_mean(np.linalg.inv(w))


def _inverse_sqrt(w: np.ndarray) -> np.ndarray:
    """Inverse square root ``W^{-1/2}`` of each matrix of an exactly
    symmetric positive definite float64 ``(..., k, k)`` stack, by one
    batched eigensolve: the unique symmetric positive definite ``S`` with
    ``S W S = I``, made exactly symmetric by :func:`symmetric_mean`."""
    values, vectors = np.linalg.eigh(w)
    return symmetric_mean(
        (vectors * (1.0 / np.sqrt(values))[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    )


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
    sign, log_abs = np.linalg.slogdet(_checked(a))
    return (float(sign), float(log_abs))


def block_cofactor_slog(a, i: int, j: int, s: int) -> tuple[float, float]:
    """Cofactor of the ``(i, j)`` block (0-based) of a block matrix with
    ``s x s`` blocks, the signed determinant of A with block row ``i`` and
    block column ``j`` deleted, as ``(sign, log|value|)``; overflow-safe."""
    a = _checked(a)
    n = a.shape[0]
    if s < 1 or n % s != 0:
        raise DimensionError(f"order {n} is not a multiple of block size {s}")
    blocks = n // s
    if not (0 <= i < blocks and 0 <= j < blocks):
        raise DimensionError(
            f"block index ({i}, {j}) out of range for {blocks} blocks"
        )
    # The deleted 1-based row and column indices sum to
    # s^2 (i + j) + s (s + 1), whose parity is that of s (i + j).
    sign = -1.0 if (s * (i + j)) % 2 else 1.0
    # Copy the four blocks of A around block row i and block column j.
    view = a.reshape(blocks, s, blocks, s)
    minor = np.empty((blocks - 1, s, blocks - 1, s))
    minor[:i, :, :j] = view[:i, :, :j]
    minor[:i, :, j:] = view[:i, :, j + 1 :]
    minor[i:, :, :j] = view[i + 1 :, :, :j]
    minor[i:, :, j:] = view[i + 1 :, :, j + 1 :]
    # The minor is a copy of the checked ``a``: LAPACK takes it as it is.
    # With one block it is empty, and ``slogdet`` gives it (1.0, 0.0).
    det_sign, log_abs = np.linalg.slogdet(minor.reshape(n - s, n - s))
    return (sign * float(det_sign), float(log_abs))


def count_inertia(values) -> Inertia:
    """Inertia counts from a vector of eigenvalues.

    Eigenvalues within ``default_rank_tol(count) * max|eigenvalue|`` of zero
    count as zero.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    band = default_rank_tol(n) * max_norm(values)
    positive = int(np.sum(values > band))
    negative = int(np.sum(values < -band))
    return Inertia(positive, negative, n - positive - negative)
