"""Command-line interface.

Three subcommands::

    resmat compute INPUT WHAT [--format text|json|csv] [--pair I J]
    resmat verify  INPUT [--check ID ...] [--all] [--format text|json]
    resmat verify  --corpus SPECS [--format text|json]
    resmat gen     OUTPUT --n N --s S --model MODEL [--p P] --seed SEED

``compute`` surfaces one derived object per invocation (``laplacian``,
``pinv``, ``resistance``, ``tau``, ``det``, ``inverse``, ``inertia``,
``chi``, ``interlace``); ``verify`` runs registry checks and emits a suite
report; ``gen`` writes a seeded random graph in the JSON interchange form.

Exit codes: 0 success; 1 parse/validation/usage failure; 2 numeric or
generation failure; 3 verification check failure (verify only, report
still emitted).  Matrices print with 12 significant digits, one row per
line, with blank lines between block-row boundaries.  Each entry has the
bytes of ``"%.11e" % x``: numpy builds the text of many rows at once with
exact float arithmetic, and Python formats only the entries whose rounding
that arithmetic cannot decide (near-ties, non-finite and extreme values).
A determinant or cofactor beyond the double range prints in the same
layout, computed from its exact logarithm; JSON then gives
``"value": null`` beside the exact ``sign`` and ``log_abs``.  All randomness comes from the explicit
``--seed``; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import linalg
from .graph import (
    RANDOM_MODELS,
    GenerationError,
    GraphError,
    parse_graph,
    random_graph,
    serialize,
)

__all__ = ["main", "entry", "UsageError"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_CHECK = 3

_FMT = "{:.11e}"

_MATRIX_OBJECTS = ("laplacian", "pinv", "resistance", "tau", "inverse")
_WHAT_CHOICES = _MATRIX_OBJECTS + ("det", "inertia", "chi", "interlace")


class UsageError(Exception):
    """Invalid command line or invalid option combination."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as exceptions instead
    of exiting the process (the library maps them to exit code 1)."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: ``parse_args``
    leaves a parser unchanged (``append`` copies its default into each
    new namespace), so every ``main`` call can share one."""
    parser = _Parser(prog="resmat", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    compute = commands.add_parser(
        "compute", help="compute one derived object of a graph"
    )
    compute.add_argument("input", help="graph JSON file")
    compute.add_argument("what", choices=_WHAT_CHOICES)
    compute.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    compute.add_argument(
        "--pair",
        nargs=2,
        type=int,
        metavar=("I", "J"),
        help="restrict resistance output to the (I, J) block (1-based)",
    )

    verify = commands.add_parser("verify", help="run verification checks")
    verify.add_argument("input", nargs="?", help="graph JSON file")
    verify.add_argument(
        "--check",
        action="append",
        metavar="ID",
        help="run one registry check (repeatable)",
    )
    verify.add_argument(
        "--all", action="store_true", help="run every registry check (default)"
    )
    verify.add_argument(
        "--corpus",
        metavar="FILE",
        help="run the full registry over a JSON list of generation specs "
        '(entries {"model", "n", "s", "seed", "p"?}) instead of one graph',
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")

    gen = commands.add_parser("gen", help="generate a seeded random graph")
    gen.add_argument("output", help="destination file")
    gen.add_argument("--n", type=int, required=True, help="vertex count")
    gen.add_argument("--s", type=int, required=True, help="weight block size")
    gen.add_argument("--model", required=True, choices=RANDOM_MODELS)
    gen.add_argument("--p", type=float, help="edge probability (gnp only)")
    gen.add_argument("--seed", type=int, required=True)

    return parser


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
    first use so that importing the CLI stays cheap."""
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


def _cmd_compute(args) -> int:
    # The engine loads here, and the verifier in the verify commands, so
    # ``gen`` starts without either.
    from .laplacian import build_laplacian, laplacian_cofactor_slog
    from .resistance import ResistanceWorkspace

    g = parse_graph(Path(args.input).read_bytes())
    what = args.what
    fmt = args.format

    if fmt == "csv" and what not in _MATRIX_OBJECTS + ("interlace",):
        raise UsageError("csv format only applies to matrix and interlace output")
    if args.pair is not None and what != "resistance":
        raise UsageError("--pair only applies to resistance output")

    if what == "laplacian":
        sys.stdout.writelines(_matrix_output(build_laplacian(g), g.s, fmt))
        return EXIT_OK
    if what == "chi":
        sys.stdout.write(_scalar_output(*laplacian_cofactor_slog(g), fmt))
        return EXIT_OK

    ws = ResistanceWorkspace(g)
    if what == "resistance" and args.pair is not None:
        i, j = args.pair
        if not (1 <= i <= g.n and 1 <= j <= g.n):
            raise UsageError(f"--pair indices must be in 1..{g.n}")
        block = ws.resistance_block(i - 1, j - 1)
        sys.stdout.writelines(_matrix_output(block, g.s, fmt))
    elif what == "resistance":
        sys.stdout.writelines(_matrix_output(ws.resistance, g.s, fmt))
    elif what == "pinv":
        sys.stdout.writelines(_matrix_output(ws.pseudoinverse, g.s, fmt))
    elif what == "tau":
        sys.stdout.writelines(_matrix_output(ws.deficit, g.s, fmt))
    elif what == "inverse":
        sys.stdout.writelines(_matrix_output(ws.inverse(), g.s, fmt))
    elif what == "det":
        sys.stdout.write(_scalar_output(*ws.determinant_slog(), fmt))
    elif what == "inertia":
        inertia = ws.inertia()
        if fmt == "json":
            payload = dataclasses.asdict(inertia)
            sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            sys.stdout.write(
                f"positive {inertia.positive}\n"
                f"negative {inertia.negative}\n"
                f"zero {inertia.zero}\n"
            )
    elif what == "interlace":
        sys.stdout.write(_interlace_output(ws.interlacing(), fmt))
    return EXIT_OK


def _suite_text(report) -> str:
    g = report.graph
    lines = [
        f"graph: n={g['n']} s={g['s']} m={g['m']}"
        + (f" model={g['model']}" if g["model"] else "")
        + (f" seed={g['seed']}" if g["seed"] is not None else "")
        + (" LOW-CONFIDENCE" if g["low_confidence"] else "")
    ]
    for c in report.checks:
        status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
        lines.append(
            f"{c.check_id:<16} {status:<4} residual {c.residual:.5e} "
            f"tolerance {c.tolerance:.5e}  {c.details}"
        )
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _parse_corpus_file(path: str) -> list:
    try:
        entries = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise UsageError(f"corpus file is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise UsageError("corpus file must hold a JSON list of generation specs")
    return entries


def _corpus_text(entries) -> str:
    lines = []
    for e in entries:
        spec = e.spec
        label = " ".join(f"{key}={value}" for key, value in spec.as_dict().items())
        if e.error is not None:
            lines.append(f"{label}: GENERATION FAILURE ({e.error})")
        else:
            status = "PASS" if e.report.passed else "FAIL"
            ran = sum(1 for c in e.report.checks if not c.skipped)
            skipped = sum(1 for c in e.report.checks if c.skipped)
            lines.append(f"{label}: {status} ({ran} checks, {skipped} skipped)")
    overall = all(e.passed for e in entries)
    lines.append(f"overall: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cmd_verify_corpus(args) -> int:
    from .verify import run_corpus

    if args.check:
        raise UsageError("--corpus runs the full registry; --check does not apply")
    entries = run_corpus(_parse_corpus_file(args.corpus))
    if args.format == "json":
        payload = {
            "entries": [
                {
                    "spec": e.spec.as_dict(),
                    "error": e.error,
                    "report": None if e.report is None else e.report.as_dict(),
                }
                for e in entries
            ],
            "passed": all(e.passed for e in entries),
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_corpus_text(entries))
    return EXIT_OK if all(e.passed for e in entries) else EXIT_CHECK


def _cmd_verify(args) -> int:
    from .verify import UnknownCheckError, run_suite

    if args.corpus is not None:
        if args.input is not None:
            raise UsageError("give either a graph file or --corpus, not both")
        return _cmd_verify_corpus(args)
    if args.input is None:
        raise UsageError("a graph file (or --corpus) is required")
    g = parse_graph(Path(args.input).read_bytes())
    try:
        report = run_suite(g, None if args.all else args.check)
    except UnknownCheckError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(_suite_text(report))
    return EXIT_OK if report.passed else EXIT_CHECK


def _cmd_gen(args) -> int:
    g = random_graph(args.n, args.s, args.model, args.seed, args.p)
    Path(args.output).write_text(serialize(g) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required: compute, verify, or gen")
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_gen(args)
    except (UsageError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GenerationError, linalg.NumericError, linalg.DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
