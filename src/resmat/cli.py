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

Each command loads only its own layers: ``gen`` the graph model, its
generators and its writer, ``compute`` also the reader of the JSON format
(:mod:`resmat.reader`), the engine and :mod:`resmat.text`, which writes
what it prints, and ``verify`` the reader, the engine and
:mod:`resmat.verify`, whose reports render themselves.

Exit codes: 0 success; 1 parse/validation/usage failure; 2 numeric or
generation failure; 3 verification check failure (verify only, report
still emitted).  All randomness comes from the explicit ``--seed``;
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import linalg
from .graph import (
    RANDOM_MODELS,
    GenerationError,
    GraphError,
    random_graph,
    serialize,
)

__all__ = ["main", "entry", "UsageError"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_CHECK = 3

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


def _cmd_compute(args) -> int:
    # The reader, the engine and the text of its objects load here, and the
    # verifier in the verify commands, so ``gen`` starts without any of them.
    from .laplacian import build_laplacian, laplacian_cofactor_slog
    from .reader import parse_graph
    from .resistance import ResistanceWorkspace
    from .text import (
        _inertia_output,
        _interlace_output,
        _matrix_output,
        _scalar_output,
    )

    g = parse_graph(Path(args.input).read_bytes())
    what = args.what
    fmt = args.format

    if fmt == "csv" and what not in _MATRIX_OBJECTS + ("interlace",):
        raise UsageError("csv format only applies to matrix and interlace output")
    if args.pair is not None:
        if what != "resistance":
            raise UsageError("--pair only applies to resistance output")
        if not all(1 <= k <= g.n for k in args.pair):
            raise UsageError(f"--pair indices must be in 1..{g.n}")

    if what == "laplacian":
        sys.stdout.writelines(_matrix_output(build_laplacian(g), g.s, fmt))
        return EXIT_OK
    if what == "chi":
        sys.stdout.write(_scalar_output(*laplacian_cofactor_slog(g), fmt))
        return EXIT_OK

    ws = ResistanceWorkspace(g)
    if what in _MATRIX_OBJECTS:
        if args.pair is not None:
            i, j = args.pair
            matrix = ws.resistance_block(i - 1, j - 1)
        elif what == "resistance":
            matrix = ws.resistance
        elif what == "pinv":
            matrix = ws.pseudoinverse()
        elif what == "tau":
            matrix = ws.deficit
        else:
            matrix = ws.inverse()
        # The workspace, L and Z with it, is freed before the text is written.
        del ws
        sys.stdout.writelines(_matrix_output(matrix, g.s, fmt))
    elif what == "det":
        sys.stdout.write(_scalar_output(*ws.determinant_slog(), fmt))
    elif what == "inertia":
        sys.stdout.write(_inertia_output(ws.inertia(), fmt))
    elif what == "interlace":
        sys.stdout.write(_interlace_output(ws.interlacing(), fmt))
    return EXIT_OK


def _parse_corpus_file(path: str) -> list:
    try:
        entries = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as exc:
        raise UsageError(f"corpus file is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise UsageError("corpus file must hold a JSON list of generation specs")
    return entries


def _cmd_verify_corpus(args) -> int:
    from .verify import corpus_json, corpus_text, run_corpus

    if args.check:
        raise UsageError("--corpus runs the full registry; --check does not apply")
    entries = run_corpus(_parse_corpus_file(args.corpus))
    if args.format == "json":
        sys.stdout.write(corpus_json(entries) + "\n")
    else:
        sys.stdout.write(corpus_text(entries))
    return EXIT_OK if all(e.passed for e in entries) else EXIT_CHECK


def _cmd_verify(args) -> int:
    from .reader import parse_graph
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
        sys.stdout.write(report.to_text())
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
