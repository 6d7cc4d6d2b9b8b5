"""Text of the ``compute`` objects: matrices, scalars, the inertia and
the interlacing table, in the ``text``, ``json`` and ``csv`` formats.

Matrices print with 12 significant digits, one row per line, with blank
lines between block-row boundaries.  Each entry has the bytes of
``"%.11e" % x``: numpy builds the text of many rows at once with exact
float arithmetic, and Python formats only the entries whose rounding that
arithmetic cannot decide (near-ties, non-finite and extreme values).  The
text is laid out at its exact width, one slot width per chunk of rows, so
only bytes that one entry lacks and another of its chunk has are NUL, and
no deletion pass runs over text that holds none.
JSON matrices are written a row at a time, in ``json.dumps``'s bytes.  A
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
        "".join(f"\0{i:03d}" if i >= 100 else f"\0\0{i:02d}" for i in range(300))
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


def _chunk_text(block: np.ndarray, sep: str, gaps: np.ndarray, buf: np.ndarray) -> str:
    """The printed text of the rows of ``block``; ``gaps[r]`` adds a blank
    line after row ``r``.  It is laid out in the start of ``buf``, a byte
    buffer that all the chunks of a matrix share.

    Every entry gets a slot of the same width: 17 bytes of text, one for
    the sign if any entry has its sign bit set, one for the hundreds digit
    of the exponent if any entry's text, a fallback's included, needs it,
    and one for the separator, which is the newline after the last entry
    of a row.  A chunk with block gaps gives each row one spare byte, the
    blank line's newline on the rows before a gap and NUL on the others.
    The table words go into ``buf`` through unaligned strided views, in an
    order that lets later writes overwrite the bytes earlier ones spill
    into: the lead word starts one byte before the first digit, at the
    sign or, with no sign byte, at the previous slot's separator (or at
    ``buf[0]``, before the first row); the exponent word ends at
    the last exponent digit and the tail word overwrites its first bytes;
    separators and newlines come last.  A fallback's text is written from
    the start of its slot, padded with NUL."""
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

    texts = [_FMT.format(v) for v in x[fallback].tolist()]
    negative = np.signbit(x)
    e_abs = np.abs(e)
    sign = int(negative.any())
    wide = int(e_abs.max() >= 100 or any(len(t.lstrip("-")) > 17 for t in texts))
    width = 18 + sign + wide
    stride = cols * width + bool(gaps.any())

    def words(start: int) -> np.ndarray:
        return np.ndarray(shape, "<u4", buf, 1 + start, (stride, width))

    h = q + 0.5
    t10 = (h / 1e10).astype(np.intp)
    t6 = (h / 1e6).astype(np.intp)
    t2 = (h / 1e2).astype(np.intp)
    words(sign - 1)[...] = lead[t10 + 100 * negative].reshape(shape)
    words(width - 5)[...] = exponent[e_abs].reshape(shape)
    last_two = q.astype(np.intp) - 100 * t2
    words(sign + 11)[...] = tail[2 * last_two + (e < 0)].reshape(shape)
    words(sign + 3)[...] = quad[t6 - 10000 * t10].reshape(shape)
    words(sign + 7)[...] = quad[t2 - 10000 * t6].reshape(shape)
    text = buf[1 : 1 + rows * stride].reshape(rows, stride)
    text[:, width - 1 : cols * width : width] = ord(sep)
    text[:, cols * width - 1] = ord("\n")
    if stride > cols * width:
        text[:, -1] = np.where(gaps, ord("\n"), 0)

    if texts:
        padded = "".join(t.ljust(width - 1, "\0") for t in texts)
        slots = np.ndarray((rows, cols, width), np.uint8, buf, 1, (stride, width, 1))
        r, c = np.divmod(fallback, cols)
        slots[r, c, :-1] = np.frombuffer(padded.encode("ascii"), np.uint8).reshape(
            -1, width - 1
        )
    return text.tobytes().replace(b"\0", b"").decode("ascii")


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
    ``[d2..d5]``, ``[d6..d9]``, ``[d10][d11][e][+-]`` and a word that
    ends in ``[e2][e1][e0]``.  They go into slots of one width per chunk
    (see ``_chunk_text``), and a byte stays NUL only where an entry lacks
    what another entry of its chunk has: the sign of a non-negative entry
    beside a negative one, the hundreds digit of a 2-digit exponent beside
    a 3-digit one, the padding after a short fallback text such as
    ``nan`` or ``inf``, and the spare byte of a row with no blank line
    after it.  ``bytes.replace`` deletes them.  It returns its own bytes
    when there is no NUL, as for ``R`` at ``s = 1`` whenever its entries,
    all non-negative, share one exponent width; otherwise it finds each
    NUL with ``memchr`` and copies the runs between them, which costs
    little more than one copy when NUL bytes are sparse.

    Python's own formatter, which rounds correctly in every case, prints
    the rest: entries within the tie window, non-finite entries, nonzero
    entries outside ``[1e-290, 1e290)``, and entries whose ``y`` stays
    outside ``[1e11, 1e12)``.  Zeros, ``-0.0`` by its sign bit, stay in
    bulk.  On N(0, 1) entries about 0.2% fall back."""
    rows, cols = a.shape
    step = max(1, _CHUNK_ENTRIES // max(cols, 1))
    ends = np.arange(1, rows + 1)
    gaps = (ends % s == 0) & (ends < rows) if block_gaps else np.zeros(rows, bool)
    # One buffer for every chunk, so that the heap does not take a new
    # chunk-sized block per chunk: 20-byte slots and a spare byte a row.
    buf = np.empty(1 + min(step, rows) * (20 * cols + 1), np.uint8)
    for r in range(0, rows, step):
        yield _chunk_text(a[r : r + step], sep, gaps[r : r + step], buf)


def _matrix_output(a: np.ndarray, s: int, fmt: str):
    """The output of a matrix object as an iterable of strings, for
    ``sys.stdout.writelines``."""
    if fmt == "text":
        # Block gaps only when there is real block structure to mark.
        return _matrix_lines(a, s, " ", block_gaps=s > 1)
    if fmt == "csv":
        return _matrix_lines(a, s, ",", block_gaps=False)
    return _matrix_json(a, s)


def _matrix_json(a: np.ndarray, s: int):
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` of the
    matrix payload, byte for byte, written one row at a time: each entry is
    its ``float.__repr__``, and a non-finite one is spelled ``NaN``,
    ``Infinity`` or ``-Infinity`` as ``json.dumps`` spells it (no finite
    ``repr`` holds ``nan`` or ``inf``)."""
    rows, cols = a.shape
    yield f'{{\n  "block_size": {s},\n  "cols": {cols},\n  "entries": ['
    for r in range(rows):
        entries = ",\n      ".join(map(float.__repr__, a[r].tolist()))
        entries = entries.replace("nan", "NaN").replace("inf", "Infinity")
        item = f"\n      {entries}\n    " if cols else ""
        yield f"{',' if r else ''}\n    [{item}]"
    close = "\n  ]" if rows else "]"
    yield f'{close},\n  "rows": {rows}\n}}\n'


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
