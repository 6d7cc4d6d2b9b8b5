#!/usr/bin/env python3
"""Benchmark of the resmat command line, run in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  One client drives ``resmat.cli.main(argv)``
in a closed loop (the next op starts when the previous one returns) for
``S`` seconds, with stdout and stderr captured, on graph files generated
from the seed.  Every op's stdout is checked against an independent numpy
reference and, by sha256, against every earlier repetition of the same op
on the same program source and input, in this run and earlier ones.

End-to-end op times are in reference-loop units: a fixed pass of work
like the program's own is timed between consecutive ops, and each op's
wall time is divided by the mean of the passes just before and after it,
which cancels most of the host's speed swings.  Raw wall times are
printed alongside.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run on the same inputs that replays each op's library calls inside spans
and reports per-layer metrics.  ``--smoke`` shrinks every input so a run
takes seconds.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

Workloads: dense_closed_forms, verify_corpus, tree_full_output (see
workloads.py).  Confirm a claimed change on HELD_OUT_SEED as well as
on the seeds used while writing it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time, thread_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Digests, traces and the per-run scratch directory (git-ignored).
OUT = BENCH / ".out"
#: Set-up is timed at least this many times and for at least this many
#: seconds per run; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
#: Nominal time of one reference pass (its typical time on a 2-core
#: x86-64 VM): setup_s is in seconds at the host speed where a pass
#: takes this long.
REF_NOMINAL_S = 0.010
#: A seed kept out of tuning, for confirming later claims.
HELD_OUT_SEED = 7919

import numpy as np  # noqa: E402  (imported before set-up is timed)

from reference import CHECK_IDS, DET_OUT_OF_RANGE  # noqa: E402
from tracing import Tracer, median_or_zero  # noqa: E402
from workloads import WORKLOADS, Input, OpKind  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "graph.parse_s": "s",
    "graph.generate_s": "s",
    "graph.edges": "count",
    "graph.input_bytes": "B",
    "laplacian.build_s": "s",
    "laplacian.cofactor_slog_s": "s",
    "laplacian.incidence_s": "s",
    "linalg.edge_pd_inverse_s": "s",
    "linalg.edge_eigen_s": "s",
    "linalg.lu_factor_s": "s",
    "linalg.lu_solve_s": "s",
    "linalg.lu_factor.flops": "flop",
    "linalg.sym_eigen_s": "s",
    "resistance.workspace_s": "s",
    "resistance.determinant_s": "s",
    "resistance.determinant_slog_s": "s",
    "resistance.block_s": "s",
    "resistance.inverse_s": "s",
    "resistance.inertia_s": "s",
    "resistance.interlacing_s": "s",
    "resistance.low_confidence_s": "s",
    "verify.suite_s": "s",
    **{f"verify.check.{check_id}_s": "s" for check_id in CHECK_IDS},
    "verify.checks_run": "count",
    "verify.checks_skipped": "count",
    "verify.checks_failed": "count",
    "cli.main_s": "s",
    "cli.format_s": "s",
    "cli.output_bytes": "B",
    "cli.numpy_warnings": "count",
    "cli.det_value_out_of_range": "count",
    "trace.coverage": "ratio",
    "trace.op_s": "s",
}

_COUNTERS = ("verify.checks_run", "verify.checks_skipped", "verify.checks_failed")
_DERIVED = {
    "linalg.lu_factor.flops": "computed as (2/3) ns^3",
    "cli.format_s": "derived: cli.main_s minus the replayed calls",
}


@dataclass
class Op:
    """One timed ``main(argv)`` call and what it left behind."""

    kind: OpKind
    inp: Input
    seconds: float
    error: str | None
    warnings: int
    output_bytes: int
    digest: str
    label: str
    #: Mean of the reference-loop times measured just before and after.
    ref_seconds: float

    @property
    def refs(self) -> float:
        """The op's wall time in reference-loop units."""
        return self.seconds / self.ref_seconds


#: Inputs of the reference loop's numpy and formatting parts.
_REF_BLOCK = np.ones((2, 2))
_REF_FLOATS = np.linspace(0.1, 9.9, 3000).tolist()
#: A reference pass is repeated, up to this many times, while other
#: threads of the process (BLAS workers still spinning after an op) use
#: more than a tenth as much CPU as the pass itself.
_REF_MAX_PASSES = 40


def _reference_pass() -> tuple[float, float, float]:
    """Wall, own-thread CPU and whole-process CPU time of fixed work like
    the program's own: an interpreter loop, small-array numpy arithmetic
    and float formatting.  About 10 ms on a 2-core x86-64 VM."""
    wall, thread, process = perf_counter(), thread_time(), process_time()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    block = _REF_BLOCK
    for _ in range(1_500):
        block + block - 2.0 * block
    ",".join(f"{v:.11e}" for v in _REF_FLOATS)
    return (perf_counter() - wall, thread_time() - thread,
            process_time() - process)


def reference_loop() -> float:
    """Wall time of a reference pass: how fast the host runs work like the
    program's at this moment.  Passes that share the CPU with BLAS
    threads left spinning by the previous op are discarded, since what
    they measure is that op, not the host."""
    for _ in range(_REF_MAX_PASSES):
        wall, thread, process = _reference_pass()
        if process - thread <= 0.1 * thread:
            break
    return wall


def _import_program():
    """Import resmat afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "resmat" or m.startswith("resmat.")]:
        del sys.modules[name]
    resmat = importlib.import_module("resmat")
    cli = importlib.import_module("resmat.cli")
    if Path(resmat.__file__).resolve().parent != SRC / "resmat":
        raise ImportError(f"resmat imported from {resmat.__file__}, not {SRC}")
    return resmat, cli


def set_up(workload, seed: int, smoke: bool, workdir: Path, tracer: Tracer):
    """Import the program, then generate, serialize and write the inputs
    (the ``resmat gen`` path), repeatedly, with a reference pass before
    the first repeat and after each one.  Returns the last import, the
    inputs, and the median set-up time both in nominal seconds (each
    repeat's wall time scaled by ``REF_NOMINAL_S`` over the mean of the
    passes next to it) and in wall seconds."""
    times, walls = [], []
    ref_before = reference_loop()
    while len(walls) < SETUP_MIN_REPEATS or sum(walls) < SETUP_MIN_SECONDS:
        start = perf_counter()
        resmat, cli = _import_program()
        inputs = []
        for name, graph in workload.generate(resmat, tracer, seed, smoke):
            data = (resmat.serialize(graph) + "\n").encode()
            path = workdir / name
            path.write_bytes(data)
            inputs.append(Input(name, path, data, graph.n, graph.s, graph.m))
        walls.append(perf_counter() - start)
        ref_after = reference_loop()
        times.append(walls[-1] * REF_NOMINAL_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    return (resmat, cli, inputs, statistics.median(times),
            statistics.median(walls))


def call_main(main, argv):
    """Run ``main(argv)`` with stdout/stderr captured and warnings counted."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                exit_code = main(argv)
            except Exception as exc:  # an op that raises is a failed op
                exit_code = None
                error = "".join(traceback.format_exception_only(exc)).strip()
            seconds = perf_counter() - start
    if error is None and exit_code != 0:
        error = f"exit code {exit_code}: {err.getvalue().strip()}"
    return seconds, error, len(caught), out.getvalue()


def _source_digest() -> str:
    """sha256 over the program's source tree, keying the digest store."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_ops(workload, inputs, cli, resmat, seconds, tracer):
    """The closed loop.  Ops alternate the workload's kinds and cycle its
    inputs, with a reference-loop sample before the first op and after
    each one; the loop stops at the first whole round (every kind on
    every input) after ``seconds``, so each run times the same mix.
    Returns the ops, the loop's wall time, the first stdout of each
    distinct output, and the counts the replays returned."""
    kinds = workload.kinds
    ops: list[Op] = []
    ref_before = reference_loop()
    texts: dict[tuple[str, str], str] = {}
    counts: dict[str, int] = {}
    round_ops = len(kinds) * len(inputs)
    start = perf_counter()
    i = 0
    while i % round_ops or perf_counter() - start < seconds:
        kind = kinds[i % len(kinds)]
        inp = inputs[(i // len(kinds)) % len(inputs)]
        argv = kind.argv(inp)
        tracer.op = i
        with tracer.span("op"):
            if tracer.enabled:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    for key, value in kind.replay(resmat, tracer, inp).items():
                        counts[key] = counts.get(key, 0) + value
            with tracer.span("cli.main_s"):
                secs, error, caught, text = call_main(cli.main, argv)
        ref_after = reference_loop()
        digest = hashlib.sha256(text.encode()).hexdigest()
        label = f"{kind.label}:{inp.sha256[:16]}"
        texts.setdefault((label, digest), text)
        ops.append(
            Op(kind, inp, secs, error, caught, len(text.encode()), digest, label,
               (ref_before + ref_after) / 2)
        )
        ref_before = ref_after
        i += 1
    return ops, perf_counter() - start, texts, counts


def judge(ops, texts, store: dict):
    """Mark each op failed or not; returns failures and defect counts.

    An op fails on an exception, a nonzero exit code, a reference
    mismatch, or stdout that differs from an earlier repetition of the
    same op (``store`` maps op labels to digests across runs)."""
    verdicts = {}
    failures: list[str] = []
    defects: dict[str, int] = {}
    for op in ops:
        problem = op.error
        if problem is None:
            known = store.setdefault(op.label, op.digest)
            if known != op.digest:
                problem = "stdout differs from an earlier repetition"
        if problem is None:
            key = (op.label, op.digest)
            if key not in verdicts:
                verdicts[key] = op.kind.check(texts[key], op.inp)
            problem, notes = verdicts[key]
            for note in notes:
                defects[note] = defects.get(note, 0) + 1
        if problem is not None:
            failures.append(f"{op.kind.label} {op.inp.name}: {problem}")
    return failures, defects


def _blas_info() -> dict:
    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            info[lib] = {
                "name": deps[lib].get("name"),
                "version": deps[lib].get("version"),
            }
    except Exception as exc:  # metadata only; never fails the run
        info["error"] = repr(exc)
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _git_sha():
    """HEAD's commit from ``.git`` files, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, inputs, source_digest) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "smoke": args.smoke,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": source_digest,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "clients": 1,
        "loop": "closed",
        "inputs": [
            {
                "name": inp.name,
                "n": inp.n,
                "s": inp.s,
                "m": inp.m,
                "ns": inp.ns,
                "bytes": len(inp.data),
            }
            for inp in inputs
        ],
    }


def p50_per_kind(ops, value) -> float:
    """Median of ``value(op)`` within each op kind, averaged over kinds.

    A plain median over two alternating kinds of different cost falls
    in the gap between them and jumps with the slowest op of one kind."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op.kind.label, []).append(value(op))
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def end_to_end(ops, setup_s, peak_rss_mb, failed) -> dict:
    return {
        "ops_per_kref": 1000 * (len(ops) - failed) / sum(op.refs for op in ops),
        "op_p50_ref": p50_per_kind(ops, lambda op: op.refs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer: Tracer, ops, inputs, counts, defects) -> dict:
    selfs = tracer.self_times()
    values = {name: median_or_zero(selfs.get(name, ())) for name in PER_LAYER_UNITS}
    formats, coverage, traced = [], [], []
    for index, root in enumerate(tracer.spans):
        if root is None or root.name != "op":
            continue
        traced.append(root.seconds)
        children = tracer.children(index)
        main = sum(c.seconds for c in children if c.name == "cli.main_s")
        replayed = sum(
            c.seconds for c in children if not c.probe and c.name != "cli.main_s"
        )
        formats.append(main - replayed)
        coverage.append(replayed / main)
    values.update(
        {
            "graph.edges": statistics.median(inp.m for inp in inputs),
            "graph.input_bytes": statistics.median(len(inp.data) for inp in inputs),
            "linalg.lu_factor.flops": statistics.median(
                2.0 / 3.0 * inp.ns**3 for inp in inputs
            ),
            "cli.format_s": statistics.median(formats),
            "cli.output_bytes": statistics.median(op.output_bytes for op in ops),
            "cli.numpy_warnings": sum(op.warnings for op in ops),
            "cli.det_value_out_of_range": defects.get(DET_OUT_OF_RANGE, 0),
            "trace.coverage": statistics.median(coverage),
            "trace.op_s": statistics.median(traced),
        }
    )
    for key in _COUNTERS:
        values[key] = counts.get(key, 0)
    return values


def report(meta, metrics, units, ops, wall, setup_wall, failures, defects,
           trace) -> None:
    """The human-readable part of stdout."""
    print("meta " + json.dumps(meta, sort_keys=True))
    width = max(len(name) for name in [*metrics, "cli." + DET_OUT_OF_RANGE]) + 2
    for name, value in metrics.items():
        note = _DERIVED.get(name, "")
        print(f"  {name:<{width}} {value:>14.6g} {units[name]:<6} {note}".rstrip())
    attempted = len(ops)
    print(f"  {'fail_ratio':<{width}} {len(failures) / attempted:>14.6g} "
          f"{len(failures)}/{attempted} ops")
    for name, unit, value in (("op_p90_ref", "ref", lambda op: op.refs),
                              ("op_p90_s", "s", lambda op: op.seconds)):
        if attempted >= 100:
            p90 = statistics.quantiles(map(value, ops), n=10)[-1]
            print(f"  {name:<{width}} {p90:>14.6g} {unit:<6} {attempted} samples")
        else:
            print(f"  {name:<{width}} {'n/a':>14} {attempted} samples (< 100)")
    if not trace:  # the traced run reports these as metrics
        print(f"  {'cli.' + DET_OUT_OF_RANGE:<{width}} "
              f"{defects.get(DET_OUT_OF_RANGE, 0):>14} ops")
        print(f"  {'cli.numpy_warnings':<{width}} "
              f"{sum(op.warnings for op in ops):>14} warnings")
    mode = "traced" if trace else "untraced"
    ref_loop = statistics.median(op.ref_seconds for op in ops)
    print(f"  wall: {mode} loop {wall:.3f} s for {attempted} ops, "
          f"{attempted / wall:.4g} ops/s; main() p50 per kind "
          f"{p50_per_kind(ops, lambda op: op.seconds):.4f} s; "
          f"reference loop p50 {ref_loop * 1000:.3f} ms; "
          f"set-up p50 {setup_wall:.4f} s"
          + (f"; traced op p50 {metrics['trace.op_s']:.4f} s" if trace else ""))
    for line in failures[:10]:
        print(f"  FAILED {line}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resmat" / "__init__.py").is_file():
        print(f"error: no resmat source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tracer = Tracer(enabled=bool(args.trace))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        resmat, cli, inputs, setup_s, setup_wall_s = set_up(
            workload, args.seed, args.smoke, workdir, tracer
        )
        source_digest = _source_digest()
        ops, wall, texts, counts = run_ops(
            workload, inputs, cli, resmat, args.seconds, tracer
        )
        # Read before the reference checks, so it is the program's peak.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        store_path = OUT / (
            f"digests-{source_digest[:16]}-{args.workload}-{args.seed}"
            + ("-smoke" if args.smoke else "")
            + ".json"
        )
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        failures, defects = judge(ops, texts, store)
        tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store_path)
        if args.trace:
            tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
            metrics = per_layer(tracer, ops, inputs, counts, defects)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(ops, setup_s, peak_rss_mb, len(failures))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = metadata(args, inputs, source_digest)
    report(meta, metrics, units, ops, wall, setup_wall_s, failures, defects,
           args.trace)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
