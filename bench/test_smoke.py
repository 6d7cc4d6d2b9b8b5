"""Smoke test of the benchmark harness at tiny sizes; takes seconds.

    python3 -m pytest bench/test_smoke.py

Every workload runs in both modes; each run must emit exactly the metrics
BENCHMARK.json names, with their units, and fail no op.  The reference
checkers must also reject outputs that are wrong in the last digits.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from resmat import random_graph, serialize  # noqa: E402
from resmat.cli import main  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_no_op_fails(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    fail_ratio = [line.split() for line in lines if line.split()[:1] == ["fail_ratio"]]
    assert fail_ratio and float(fail_ratio[0][1]) == 0.0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".out"))
    proc = _bench(tmp_path, "verify_corpus", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_reference_rejects_tampered_outputs(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(serialize(random_graph(6, 2, "gnp", 5, 0.6)) + "\n")
    ref = reference.Reference(path.read_bytes())

    det = _cli_stdout(["compute", str(path), "det", "--format", "json"])
    assert reference.check_det(det, ref) == (None, ())
    payload = json.loads(det)
    payload["log_abs"] += 1e-7
    assert reference.check_det(json.dumps(payload), ref)[0] is not None

    csv = _cli_stdout(["compute", str(path), "resistance", "--format", "csv"])
    assert reference.check_resistance_csv(csv, ref) == (None, ())
    first, rest = csv.split(",", 1)
    tampered = f"{float(first) + 1e-9:.11e},{rest}"
    assert reference.check_resistance_csv(tampered, ref)[0] is not None

    inverse = _cli_stdout(["compute", str(path), "inverse", "--format", "csv"])
    assert reference.check_inverse_csv(inverse, ref) == (None, ())
    value, rest = inverse.split(",", 1)
    tampered = f"{float(value) * (1 + 1e-6):.11e},{rest}"
    assert reference.check_inverse_csv(tampered, ref)[0] is not None
