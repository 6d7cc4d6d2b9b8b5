"""Text of the ``compute`` objects: matrices, scalars, the inertia and
the interlacing table, in the ``text``, ``json`` and ``csv`` formats.

Matrices print with 12 significant digits, one row per line, with blank
lines between block-row boundaries.  Each entry has the bytes of
``"%.11e" % x``: numpy builds the text of many rows at once with exact
float arithmetic, and Python formats only the entries whose rounding that
arithmetic cannot decide (near-ties, non-finite and extreme values).  A
determinant or cofactor beyond the double range prints in the same layout,
computed from its exact logarithm; JSON then gives ``"value": null``
beside the exact ``sign`` and ``log_abs``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import numpy as np

from . import linalg

_FMT = "{:.11e}"

# Matrix printing: entries print as ``"%.11e" % x`` does, built in bulk by
# numpy (see ``_matrix_lines``), in chunks of about this many entries.
_CHUNK_ENTRIES = 8192
_WORDS = 5  # little-endian uint32 words per printed entry
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_TIE_WINDOW = 1e-3
_LO, _HI = 1e11, 1e12


def _ascii_words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype="<u4")


@functools.cache
def _print_tables():
    """Powers of ten and the word tables of the matrix kernel, built on
    first use so that scalar and table output never build them."""
    powers = np.array([float(10**k) for k in range(303)])
    lead = _ascii_words(
        "".join(f"{sign}{i // 10}.{i % 10}" for sign in "\0-" for i in range(100))
    )
    quad = _ascii_words("".join(f"{i:04d}" for i in range(10000)))
    tail = _ascii_words("".join(f"{i:02d}e{sign}" for i in range(100) for sign in "+-"))
    exponent = _ascii_words(
        "".join(f"{i:03d}\0" if i >= 100 else f"\0{i:02d}\0" for i in range(300))
    )
    return powers, lead, quad, tail, exponent


def _scaled(m: np.ndarray, e: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``m * 10^(11-e)`` with one rounding, by a multiplication or, where
    ``e > 11``, a division by a correctly rounded power of ten."""
    k = 11 - e
    y = m * powers[np.maximum(k, 0)]
    big = np.flatnonzero(k < 0)
    if big.size:
        y[big] = m[big] / powers[-k[big]]
    return y


def _chunk_text(block: np.ndarray, sep: str, gaps: np.ndarray) -> str:
    """The printed text of the rows of ``block``; ``gaps[r]`` adds a blank
    line after row ``r``."""
    powers, lead, quad, tail, exponent = _print_tables()
    rows, cols = block.shape
    shape = (rows, cols)
    x = block.ravel()
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    m = np.where(fast, ax, 1.0)

    e = np.floor(np.log10(m)).astype(np.intp)
    y = _scaled(m, e, powers)
    off = np.flatnonzero((y < _LO) | (y >= _HI))
    if off.size:
        e[off] += np.where(y[off] < _LO, -1, 1)
        y[off] = _scaled(m[off], e[off], powers)
    q = np.rint(y)
    undecided = ~(fast & (np.abs(y - q) <= 0.5 - _TIE_WINDOW) & (y >= _LO) & (y < _HI))
    fallback = np.flatnonzero(undecided & (ax != 0.0))
    # Zeros print from q = 0, e = 0; so do the fallback entries, whose
    # bytes are overwritten below.
    q[undecided] = 0.0
    e[undecided] = 0
    carry = np.flatnonzero(q == _HI)
    q[carry] = _LO
    e[carry] += 1

    h = q + 0.5
    t10 = (h / 1e10).astype(np.intp)
    t6 = (h / 1e6).astype(np.intp)
    t2 = (h / 1e2).astype(np.intp)
    words = np.empty((rows, cols * _WORDS + 1), dtype="<u4")
    body = words[:, : cols * _WORDS].reshape(rows, cols, _WORDS)
    body[..., 0] = lead[t10 + 100 * np.signbit(x)].reshape(shape)
    body[..., 1] = quad[t6 - 10000 * t10].reshape(shape)
    body[..., 2] = quad[t2 - 10000 * t6].reshape(shape)
    body[..., 3] = tail[2 * (q.astype(np.intp) - 100 * t2) + (e < 0)].reshape(shape)
    body[..., 4] = exponent[np.abs(e)].reshape(shape)
    body[:, :-1, 4] |= ord(sep) << 24  # a separator after all but the last entry
    words[:, -1] = np.where(gaps, 0x0A0A, 0x0A)

    if fallback.size:
        width = 4 * _WORDS - 1  # the longest text, as in -1.23456789012e-308
        texts = "".join(_FMT.format(v).ljust(width, "\0") for v in x[fallback].tolist())
        r, c = np.divmod(fallback, cols)
        slots = words.view(np.uint8)[:, : 4 * _WORDS * cols].reshape(rows, cols, -1)
        slots[r, c, :width] = np.frombuffer(texts.encode("ascii"), np.uint8).reshape(
            -1, width
        )
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _matrix_lines(a: np.ndarray, s: int, sep: str, block_gaps: bool):
    """The printed rows of ``a`` in chunks of whole rows, one string each.

    Every entry prints with the bytes of ``"%.11e" % x``, but numpy builds
    the bytes of a chunk at once.  An entry with ``1e-290 <= |x| < 1e290``
    is scaled to ``y = |x| * 10^(11-e)``, or ``|x| / 10^(e-11)`` when
    ``e > 11``, with ``e = floor(log10|x|)`` moved by one and ``y``
    recomputed where ``y`` falls outside ``[1e11, 1e12)``.  The power is
    the correctly rounded ``float(10**k)``, so ``y`` carries two roundings
    of relative size ``2^-53`` each and lies within ``2.3e-4`` of the exact
    scaled value.  Where ``y`` is at least ``1e-3`` (over four times that
    bound) from a rounding tie, ``q = rint(y)`` is the correctly rounded
    12-digit mantissa; ``q = 1e12`` carries into the next decade.  The
    bound also covers an exact value just outside the decade of ``y``:
    both then print ``1.00000000000e``, with the same exponent.

    The digits need no integer division: ``q < 1e12 < 2^53`` is an exact
    integer, and ``(q + 1/2) / 10^k`` for ``k = 2, 6, 10`` lies at least
    ``10^-k / 2`` from an integer, far beyond its rounding error, so
    truncating it gives ``floor(q / 10^k)`` exactly.  Each entry is five
    words, each gathered from a small table: ``[-][d0][.][d1]``,
    ``[d2..d5]``, ``[d6..d9]``, ``[d10][d11][e][+-]`` and
    ``[e2][e1][e0][sep]``.  An absent sign, hundreds digit of the exponent
    or separator is a NUL byte, each row ends in a word holding its
    newline and, at a block-row boundary, the blank line, and deleting
    the NUL bytes gives the text.

    Python's own formatter, which rounds correctly in every case, prints
    the rest: entries within the tie window, non-finite entries, nonzero
    entries outside ``[1e-290, 1e290)``, and entries whose ``y`` stays
    outside ``[1e11, 1e12)``.  Zeros, ``-0.0`` by its sign bit, stay in
    bulk.  On N(0, 1) entries about 0.2% fall back."""
    rows, cols = a.shape
    step = max(1, _CHUNK_ENTRIES // max(cols, 1))
    ends = np.arange(1, rows + 1)
    gaps = (ends % s == 0) & (ends < rows) if block_gaps else np.zeros(rows, bool)
    for r in range(0, rows, step):
        yield _chunk_text(a[r : r + step], sep, gaps[r : r + step])


def _matrix_output(a: np.ndarray, s: int, fmt: str):
    """The output of a matrix object as an iterable of strings, for
    ``sys.stdout.writelines``."""
    if fmt == "text":
        # Block gaps only when there is real block structure to mark.
        return _matrix_lines(a, s, " ", block_gaps=s > 1)
    if fmt == "csv":
        return _matrix_lines(a, s, ",", block_gaps=False)
    payload = {
        "block_size": s,
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": a.tolist(),
    }
    return [json.dumps(payload, indent=2, sort_keys=True) + "\n"]


def _slog_text(sign: float, log_abs: float) -> str:
    """``sign * exp(log_abs)`` in the layout of ``_FMT``, for values beyond
    the double range: the mantissa and the decimal exponent come from
    ``log_abs`` itself."""
    log10 = log_abs / math.log(10.0)
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    digits = f"{mantissa:.11f}"
    if digits.startswith("10"):
        exponent += 1
        digits = f"{mantissa / 10.0:.11f}"
    return f"{'-' if sign < 0 else ''}{digits}e{exponent:+03d}"


def _scalar_output(sign: float, log_abs: float, fmt: str) -> str:
    """A determinant-like scalar from its exact ``(sign, log|x|)`` pair.

    In range, text prints the plain value and JSON carries it as
    ``value``.  Out of range, text prints the mantissa/exponent form of
    :func:`_slog_text` and JSON ``value`` is ``null``; ``sign`` and
    ``log_abs`` are always exact."""
    value = None
    if linalg.slog_in_range(sign, log_abs):
        value = linalg.value_from_slog(sign, log_abs)
    if fmt == "text":
        text = _slog_text(sign, log_abs) if value is None else _FMT.format(value)
        return text + "\n"
    payload = {"value": value, "sign": sign, "log_abs": log_abs}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _interlace_output(rows, fmt: str) -> str:
    if fmt == "json":
        payload = {"rows": [dataclasses.asdict(r) for r in rows]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = ["index,lower,bound,upper,holds"]
        for r in rows:
            lines.append(
                f"{r.index},{_FMT.format(r.lower)},{_FMT.format(r.bound)},"
                f"{_FMT.format(r.upper)},{str(r.holds).lower()}"
            )
        return "\n".join(lines) + "\n"
    header = f"{'i':>4} {'lower':>18} {'bound':>18} {'upper':>18}  holds"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.index:>4} {_FMT.format(r.lower):>18} {_FMT.format(r.bound):>18} "
            f"{_FMT.format(r.upper):>18}  {'yes' if r.holds else 'NO'}"
        )
    return "\n".join(lines) + "\n"


def _inertia_output(inertia: linalg.Inertia, fmt: str) -> str:
    if fmt == "json":
        payload = dataclasses.asdict(inertia)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return (
        f"positive {inertia.positive}\n"
        f"negative {inertia.negative}\n"
        f"zero {inertia.zero}\n"
    )
