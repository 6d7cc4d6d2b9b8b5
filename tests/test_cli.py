"""End-to-end CLI tests: in-process `main()` with captured stdout/stderr."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resmat
from resmat.cli import EXIT_CHECK, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from resmat.graph import path_graph, random_graph, serialize, star_graph
from resmat.reader import parse_graph
from resmat.resistance import ResistanceWorkspace
from resmat.text import _matrix_output, _slog_text
from resmat.verify import CHECK_IDS, GraphSpec


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.json"
    path.write_text(serialize(path_graph(2)))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(serialize(path_graph(3)))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    from resmat.graph import complete_graph

    path = tmp_path / "k3.json"
    path.write_text(serialize(complete_graph(3)))
    return str(path)


@pytest.fixture
def block_file(tmp_path):
    from resmat.graph import random_graph

    path = tmp_path / "block.json"
    path.write_text(serialize(random_graph(4, 2, "tree", seed=5)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_laplacian_text(self, capsys, p2_file):
        code, out, err = run_cli(capsys, "compute", p2_file, "laplacian")
        assert code == EXIT_OK and err == ""
        assert out == (
            "1.00000000000e+00 -1.00000000000e+00\n"
            "-1.00000000000e+00 1.00000000000e+00\n"
        )

    def test_resistance_text(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "compute", p3_file, "resistance")
        assert code == EXIT_OK
        rows = out.strip().split("\n")
        assert len(rows) == 3
        first = [float(x) for x in rows[0].split()]
        assert first == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)

    def test_resistance_pair(self, capsys, p3_file):
        code, out, _ = run_cli(
            capsys, "compute", p3_file, "resistance", "--pair", "1", "3"
        )
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("pair", [("1", "9"), ("0", "1"), ("1", "4"), ("-1", "2")])
    def test_pair_out_of_range(self, capsys, monkeypatch, p3_file, pair):
        # The range is a usage check: refused before the factorization.
        def refuse(self, graph):
            raise AssertionError("a workspace was built")

        monkeypatch.setattr(ResistanceWorkspace, "__init__", refuse)
        code, out, err = run_cli(capsys, "compute", p3_file, "resistance", "--pair", *pair)
        assert (code, out, err) == (EXIT_INPUT, "", "error: --pair indices must be in 1..3\n")

    def test_pair_out_of_range_on_a_numerically_disconnected_graph(self, capsys, tmp_path):
        # The factorization would refuse this path (exit 2); the usage
        # error comes first.
        weights = [np.eye(1)] * 19
        weights[9] = np.array([[1e20]])
        path = tmp_path / "stiff.json"
        path.write_text(serialize(path_graph(20, 1, weights)))
        assert run_cli(capsys, "compute", str(path), "resistance")[0] == EXIT_NUMERIC
        code, _, err = run_cli(capsys, "compute", str(path), "resistance", "--pair", "0", "1")
        assert (code, err) == (EXIT_INPUT, "error: --pair indices must be in 1..20\n")

    def test_pair_requires_resistance(self, capsys, p3_file):
        code, _, err = run_cli(capsys, "compute", p3_file, "det", "--pair", "1", "2")
        assert code == EXIT_INPUT
        assert "--pair" in err

    def test_det_text(self, capsys, p2_file):
        code, out, _ = run_cli(capsys, "compute", p2_file, "det")
        assert code == EXIT_OK
        assert out == "-1.00000000000e+00\n"

    def test_det_json(self, capsys, p2_file):
        # The cofactor comes from Cholesky pivots, which are irrational even
        # here (M = [[1.5, -0.5], [-0.5, 1.5]]), so -1 is met to roundoff.
        code, out, _ = run_cli(capsys, "compute", p2_file, "det", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data.keys() == {"log_abs", "sign", "value"}
        assert data["sign"] == -1.0
        assert abs(data["value"] + 1.0) <= 4e-15
        assert abs(data["log_abs"]) <= 4e-15

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_det_json_unit_paths(self, capsys, tmp_path, n):
        path = tmp_path / "path.json"
        path.write_text(serialize(path_graph(n)))
        code, out, _ = run_cli(capsys, "compute", str(path), "det", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        exact = (-1) ** (n - 1) * (n - 1) * 2 ** (n - 2)
        assert data["sign"] == math.copysign(1.0, exact)
        assert abs(data["value"] - exact) <= 4e-15 * abs(exact)
        assert abs(data["log_abs"] - math.log(abs(exact))) <= 4e-15

    def test_chi_json(self, capsys, k3_file):
        code, out, _ = run_cli(capsys, "compute", k3_file, "chi", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["value"] == pytest.approx(3.0, rel=1e-12)
        assert data["sign"] == 1.0
        assert data["log_abs"] == pytest.approx(math.log(3.0), rel=1e-12)

    def test_inertia_text(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "compute", p3_file, "inertia")
        assert code == EXIT_OK
        assert out == "positive 1\nnegative 2\nzero 0\n"

    def test_inertia_json(self, capsys, p2_file):
        code, out, _ = run_cli(
            capsys, "compute", p2_file, "inertia", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"negative": 1, "positive": 1, "zero": 0}

    def test_interlace_text(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "compute", p3_file, "interlace")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].split() == ["i", "lower", "bound", "upper", "holds"]
        assert len(lines) == 3  # header + two rows
        assert all(line.endswith("yes") for line in lines[1:])

    def test_interlace_csv(self, capsys, p3_file):
        code, out, _ = run_cli(
            capsys, "compute", p3_file, "interlace", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "index,lower,bound,upper,holds"
        assert lines[1].startswith("1,")
        assert lines[1].endswith(",true")

    def test_interlace_json(self, capsys, p2_file):
        code, out, _ = run_cli(
            capsys, "compute", p2_file, "interlace", "--format", "json"
        )
        data = json.loads(out)
        assert code == EXIT_OK
        assert len(data["rows"]) == 1
        row = data["rows"][0]
        assert row["index"] == 1 and row["holds"] is True
        assert row["bound"] == pytest.approx(-1.0, abs=1e-12)

    def test_inertia_and_interlace_json_bytes(self, capsys, tmp_path):
        path = tmp_path / "star.json"
        path.write_text(serialize(star_graph(3)))
        code, out, _ = run_cli(capsys, "compute", str(path), "inertia", "--format", "json")
        assert code == EXIT_OK
        assert out == '{\n  "negative": 3,\n  "positive": 1,\n  "zero": 0\n}\n'
        code, out, _ = run_cli(capsys, "compute", str(path), "interlace", "--format", "json")
        assert code == EXIT_OK
        rows = ResistanceWorkspace(star_graph(3)).interlacing()
        assert out == (
            '{\n  "rows": [\n'
            + ",\n".join(
                f'    {{\n      "bound": {r.bound!r},\n      "holds": true,\n'
                f'      "index": {r.index},\n      "lower": {r.lower!r},\n'
                f'      "upper": {r.upper!r}\n    }}'
                for r in rows
            )
            + "\n  ]\n}\n"
        )

    @pytest.mark.parametrize(
        "what, laplacian_spectra", [("inertia", 0), ("interlace", 1)]
    )
    def test_spectra_decompose_only_the_laplacian(
        self, capsys, monkeypatch, block_file, what, laplacian_spectra
    ):
        # No ns x ns eigendecomposition with eigenvectors: the resistance
        # spectrum is eigenvalues only, and interlace also reads the
        # Laplacian's eigenvalues, with no eigenvectors either.
        from resmat.laplacian import build_laplacian

        calls = {"eigh": [], "eigvalsh": []}

        def recording(name):
            solver = getattr(np.linalg, name)

            def record(a, *args, **kwargs):
                calls[name].append(np.array(a))
                return solver(a, *args, **kwargs)

            return record

        for name in calls:
            monkeypatch.setattr(np.linalg, name, recording(name))
        code, out, _ = run_cli(capsys, "compute", block_file, what)
        assert code == EXIT_OK
        if what == "inertia":
            assert out == "positive 2\nnegative 6\nzero 0\n"
        assert [a for a in calls["eigh"] if a.shape == (8, 8)] == []
        laplacian = build_laplacian(parse_graph(Path(block_file).read_text()))
        spectra = [a for a in calls["eigvalsh"] if np.array_equal(a, laplacian)]
        assert len(spectra) == laplacian_spectra

    def test_matrix_json_shape(self, capsys, block_file):
        code, out, _ = run_cli(
            capsys, "compute", block_file, "resistance", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["block_size"] == 2
        assert data["rows"] == data["cols"] == 8
        assert len(data["entries"]) == 8

    def test_matrix_csv(self, capsys, p2_file):
        code, out, _ = run_cli(
            capsys, "compute", p2_file, "laplacian", "--format", "csv"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "1.00000000000e+00,-1.00000000000e+00"

    def test_block_text_has_gaps(self, capsys, block_file):
        code, out, _ = run_cli(capsys, "compute", block_file, "laplacian")
        assert code == EXIT_OK
        # 8 data rows + 3 separators between the 4 block rows.
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[2] == ""

    def test_scalar_text_has_no_gaps(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "compute", p3_file, "laplacian")
        assert code == EXIT_OK
        assert "" not in out.strip().split("\n")

    def test_csv_rejected_for_scalars(self, capsys, p2_file):
        code, _, err = run_cli(capsys, "compute", p2_file, "det", "--format", "csv")
        assert code == EXIT_INPUT
        assert "csv" in err

    def test_tau_output(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "compute", p3_file, "tau")
        assert code == EXIT_OK
        values = [float(line) for line in out.strip().split("\n")]
        assert values == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)

    def test_inverse_output(self, capsys, p2_file):
        code, out, _ = run_cli(capsys, "compute", p2_file, "inverse")
        assert code == EXIT_OK
        rows = [[float(x) for x in line.split()] for line in out.strip().split("\n")]
        assert np.allclose(rows, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_pinv_output(self, capsys, p2_file):
        code, out, _ = run_cli(capsys, "compute", p2_file, "pinv")
        assert code == EXIT_OK
        rows = [[float(x) for x in line.split()] for line in out.strip().split("\n")]
        assert np.allclose(rows, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_unknown_object_rejected(self, capsys, p2_file):
        code, _, err = run_cli(capsys, "compute", p2_file, "spanningtrees")
        assert code == EXIT_INPUT

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "compute", "/nonexistent.json", "det")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_invalid_graph_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2}')
        code, _, err = run_cli(capsys, "compute", str(bad), "det")
        assert code == EXIT_INPUT
        assert "missing required" in err

    def test_disconnected_graph(self, capsys, tmp_path):
        bad = tmp_path / "disc.json"
        bad.write_text(
            json.dumps(
                {
                    "n": 4,
                    "s": 1,
                    "edges": [
                        {"u": 1, "v": 2, "w": [[1.0]]},
                        {"u": 3, "v": 4, "w": [[1.0]]},
                    ],
                }
            )
        )
        code, _, err = run_cli(capsys, "compute", str(bad), "resistance")
        assert code == EXIT_INPUT
        assert "not connected" in err

    @pytest.mark.parametrize("n", [20, 200, 201, 300])
    @pytest.mark.parametrize("what", ["resistance", "det"])
    def test_numerically_disconnected_path(self, capsys, tmp_path, n, what):
        # Connected as a graph, but a 1e20 middle edge swamps the unit
        # shift: the shifted Laplacian's Cholesky verdict must reject it,
        # below and above the order where the inverse changes route.
        weights = [np.eye(1)] * (n - 1)
        weights[(n - 1) // 2] = np.array([[1e20]])
        path = tmp_path / "stiff.json"
        path.write_text(serialize(path_graph(n, 1, weights)))
        code, out, err = run_cli(capsys, "compute", str(path), what)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "shifted Laplacian is numerically singular" in err

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "laplacian"],
            ["compute", "det"],
            ["compute", "inverse"],
            ["compute", "resistance"],
            ["compute", "inertia"],
            ["compute", "interlace"],
            ["compute", "chi"],
            ["compute", "pinv"],
            ["compute", "tau"],
            ["verify"],
        ],
    )
    def test_overflowing_inverse_weight(self, capsys, tmp_path, s, argv):
        # 1e-310 I is positive definite, but its inverse overflows: a
        # numeric failure with a message, and no numpy warning on the way.
        path = tmp_path / "subnormal.json"
        path.write_text(serialize(path_graph(2, s, 1e-310 * np.eye(s))))
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == (
            "error: Laplacian trace is not finite: "
            "an inverse edge weight overflows\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["compute", what] for what in ("laplacian", "det", "chi", "inverse")]
        + [["verify"]],
    )
    def test_overflowing_laplacian_trace(self, capsys, tmp_path, argv):
        # The inverse weight 1e308 is finite, but the trace 2e308 is not: the
        # message names the sum, not the weight.
        path = tmp_path / "tiny.json"
        path.write_text(
            '{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[1e-308]]}]}'
        )
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == (
            "error: Laplacian trace is not finite: "
            "a sum of inverse edge weights overflows\n"
        )

    def test_weight_beyond_float_range(self, tmp_path):
        # json reads the literal as a Python int that float64 cannot hold.
        path = tmp_path / "huge.json"
        path.write_text(
            '{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[1' + "0" * 400 + "]]}]}"
        )
        src = str(Path(resmat.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "resmat.cli", "compute", str(path), "det"]
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert run.returncode == EXIT_INPUT
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: edge #1: malformed weight: ")
        assert run.stdout == ""

    @pytest.mark.parametrize(
        "weight, what, code, err",
        [
            # T' R T = 2 W is beyond the double range; L is not.
            ("[[1.7976931348623157e308]]", "det", EXIT_NUMERIC,
             "error: deficit quadratic form T' R T overflows: the resistances "
             "are too large for double precision\n"),
            ("[[1.7976931348623157e308]]", "laplacian", EXIT_OK, ""),
            ("[[1.0, 1.7e308], [-1.7e308, 1.0]]", "det", EXIT_INPUT,
             "error: edge #1 (1, 2): weight is not symmetric (max asymmetry inf)\n"),
        ],
    )
    def test_weight_near_float_max(self, capsys, tmp_path, weight, what, code, err):
        # Sums beyond the double range reach neither stderr (the suite
        # turns numpy's warnings into errors) nor the reason given.
        s = len(json.loads(weight))
        path = tmp_path / "large.json"
        path.write_text(
            f'{{"n": 2, "s": {s}, "edges": [{{"u": 1, "v": 2, "w": {weight}}}]}}'
        )
        got = run_cli(capsys, "compute", str(path), what)
        assert (got[0], got[2]) == (code, err)

    @pytest.mark.parametrize(
        "args, scale, codes, err",
        [
            # X_ii overflows on the way to T' R T, which is refused.
            ((8, 3, "tree", 1716), 10**307.65,
             {"det": EXIT_NUMERIC, "resistance": EXIT_NUMERIC, "laplacian": EXIT_OK},
             "error: deficit quadratic form T' R T overflows: the resistances "
             "are too large for double precision\n"),
            # The inverse of a subnormal-scale weight holds +inf and -inf,
            # whose symmetric mean is NaN.
            ((4, 3, "complete", 427), 10**-309.88,
             {"det": EXIT_NUMERIC, "resistance": EXIT_NUMERIC, "laplacian": EXIT_NUMERIC},
             "error: Laplacian trace is not finite: an inverse edge weight "
             "overflows\n"),
        ],
        ids=["deficit-form", "inverse-weight"],
    )
    def test_refused_without_a_warning(self, capsys, tmp_path, args, scale, codes, err):
        g = random_graph(*args)
        path = tmp_path / "scaled.json"
        path.write_text(serialize(dataclasses.replace(g, weights=g.weights * scale)))
        for what, code in codes.items():
            got = run_cli(capsys, "compute", str(path), what)
            assert (got[0], got[2]) == (code, err if code else ""), what

    def test_weight_near_float_max_in_range(self, capsys, tmp_path):
        # At 8e307 every closed form is in range: R = [[0, w], [w, 0]],
        # det R = -w^2 and R^{-1} = [[0, 1/w], [1/w, 0]].
        path = tmp_path / "large.json"
        path.write_text('{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, "w": [[8e307]]}]}')
        outputs = {}
        for what in ("det", "resistance", "inverse"):
            code, outputs[what], err = run_cli(capsys, "compute", str(path), what)
            assert (code, err) == (EXIT_OK, "")
        assert outputs["det"] == "-6.40000000000e+615\n"
        assert outputs["resistance"] == (
            "0.00000000000e+00 8.00000000000e+307\n"
            "8.00000000000e+307 0.00000000000e+00\n"
        )
        assert outputs["inverse"] == (
            "0.00000000000e+00 1.25000000000e-308\n"
            "1.25000000000e-308 0.00000000000e+00\n"
        )


class TestClosedFormsSkipXAndR:
    """``det``, ``inverse``, ``tau`` and ``--pair`` never form the shifted
    inverse ``X`` or ``R``, and ``det`` and ``chi`` take no LU of a cofactor
    minor: the only LU they run is of the ``s x s`` deficit form."""

    @pytest.fixture
    def guarded(self, monkeypatch):
        from resmat import linalg
        from resmat.resistance import ResistanceWorkspace

        def refuse(self):
            raise AssertionError("X or R was built")

        for name in ("shifted_inverse", "resistance"):
            monkeypatch.setattr(ResistanceWorkspace, name, property(refuse))
        orders = []
        slogdet_lu = linalg.slogdet_lu

        def recording(a):
            orders.append(np.shape(a))
            return slogdet_lu(a)

        monkeypatch.setattr(linalg, "slogdet_lu", recording)
        return orders

    @pytest.mark.parametrize("argv", [
        ("det",),
        ("det", "--format", "json"),
        ("inverse",),
        ("tau",),
        ("chi",),
        ("resistance", "--pair", "1", "4"),
    ])
    def test_no_x_r_or_minor(self, capsys, block_file, guarded, argv):
        code, out, err = run_cli(capsys, "compute", block_file, *argv)
        assert code == EXIT_OK and err == "" and out
        assert set(guarded) <= {(2, 2)}


class TestOutOfRangeScalars:
    """Determinants beyond the double range: exact sign and log, no numpy
    warnings, and a printed value built from the log (a mantissa/exponent
    text form, ``null`` in JSON), never ``-0.0``, ``inf`` or ``Infinity``."""

    @pytest.fixture
    def tiny_path_file(self, tmp_path):
        # c(G) = 1e10^39 overflows; det R underflows.
        path = tmp_path / "tiny.json"
        path.write_text(serialize(path_graph(40, 1, np.array([[1e-10]]))))
        return str(path)

    @pytest.mark.parametrize("what", ["chi", "det"])
    def test_no_numpy_warnings(self, capsys, tiny_path_file, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "compute", tiny_path_file, what, "--format", "json"
            )
        assert code == EXIT_OK and err == ""
        data = json.loads(out, parse_constant=_reject_constant)
        assert math.isfinite(data["log_abs"]) and abs(data["log_abs"]) > 709
        assert data["value"] is None
        if what == "chi":
            assert data["sign"] == 1.0
            # Every spanning tree of a path is the path: c(G) = prod 1/w_e.
            assert data["log_abs"] == pytest.approx(39 * math.log(1e10), rel=1e-12)

    @pytest.fixture
    def long_path_file(self, tmp_path):
        # Well conditioned: det R = -119 2^118 1e-360 = -e^-742.36.
        path = tmp_path / "long.json"
        path.write_text(serialize(path_graph(120, 1, np.array([[1e-3]]))))
        return str(path)

    def test_verify_json_is_rfc(self, capsys, tiny_path_file):
        code, out, _ = run_cli(capsys, "verify", tiny_path_file, "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out, parse_constant=_reject_constant)
        cofactor = next(c for c in report["checks"] if c["id"] == "COFACTOR_EQ")
        assert cofactor["tolerance"] == 1e-8 and cofactor["passed"]

    def test_chi_text(self, capsys, tiny_path_file):
        code, out, _ = run_cli(capsys, "compute", tiny_path_file, "chi")
        assert code == EXIT_OK
        assert out == "1.00000000000e+390\n"

    def test_det_text(self, capsys, long_path_file):
        code, out, _ = run_cli(capsys, "compute", long_path_file, "det")
        assert code == EXIT_OK
        mantissa, exponent = out.rstrip("\n").split("e")
        assert len(mantissa) == len("-1.00000000000") and mantissa[0] == "-"
        log_abs = math.log(-float(mantissa)) + int(exponent) * math.log(10.0)
        exact = math.log(119.0) + 118 * math.log(2.0) + 120 * math.log(1e-3)
        assert log_abs == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("value", [1.0, -2.5, 7.25, -9.5, 1e-300, 3.5e300])
    def test_slog_text_matches_format_in_range(self, value):
        sign = math.copysign(1.0, value)
        assert _slog_text(sign, math.log(abs(value))) == "{:.11e}".format(value)

    def test_slog_text_rounds_into_next_decade(self):
        # A log one ulp below 500 ln 10 puts the mantissa at 9.9999999999998,
        # which rounds to 10 and moves into the next decade.
        centre = 500 * math.log(10.0)
        for steps in (-1, 0, 1):
            log_abs = centre + steps * math.ulp(centre)
            assert _slog_text(1.0, log_abs) == "1.00000000000e+500"
            assert _slog_text(-1.0, -log_abs) == "-1.00000000000e-500"


def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 JSON constant {name}")


def _per_entry_lines(a, s, sep, block_gaps):
    """Reference printer: one ``{:.11e}`` format call per entry."""
    lines = []
    for r in range(a.shape[0]):
        lines.append(sep.join("{:.11e}".format(x) for x in a[r]))
        if block_gaps and (r + 1) % s == 0 and r + 1 < a.shape[0]:
            lines.append("")
    return "\n".join(lines) + "\n"


def _padded_rows(values, cols):
    """``values`` laid out ``cols`` to a row, the last row padded with 0."""
    a = np.zeros(-(-len(values) // cols) * cols, dtype=values.dtype)
    a[: len(values)] = values
    return a.reshape(-1, cols)


def _assert_prints_per_entry(a, s, fmt):
    sep, gaps = (" ", s > 1) if fmt == "text" else (",", False)
    assert "".join(_matrix_output(a, s, fmt)) == _per_entry_lines(a, s, sep, gaps)


def _special_values():
    """Inputs at the edges of the printing kernel's fast path, by name."""
    ties = (123456789012.5, 123456789013.5)
    powers_ten = [10.0**k for k in range(-307, 309)]
    return {
        "ties": [
            np.nextafter(t, d) for t in ties for d in (-np.inf, np.inf)
        ] + list(ties),
        "carry": [9.999999999996e5, np.nextafter(9.999999999996e5, 0.0), 9.999999999995e5],
        "powers_of_ten": [
            v for p in powers_ten for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))
        ],
        "powers_of_two": [2.0**k for k in range(-1074, 1024)],
    }


def _slot_width_family(name):
    """A ``(93, 93)`` matrix, two chunks of rows, built so that one chunk
    takes the slot width that ``name`` picks out.

    The base is non-negative with 2-digit exponents, zeros and round-half
    ties (fallback entries): the NUL-free 18-byte slot.  One row then takes
    the family's entries, at its first and last columns among others: row
    5 in the first chunk, or row 90 in the second, which then is wider
    than the first in the buffer the chunks share."""
    rng = np.random.default_rng(29)
    a = (1.0 + 9.0 * rng.random((93, 93))) * 10.0 ** rng.integers(-99, 99, (93, 93))
    flat = a.reshape(-1)
    flat[rng.choice(flat.size, 60, replace=False)] = 0.0
    flat[rng.choice(flat.size, 6, replace=False)] = 123456789012.5
    if name == "negative":
        return -a
    row, extra = {
        "nonnegative": (5, []),
        "negative_zero": (5, [-0.0]),
        "fallback_exponent": (90, [5e-324]),
        "nan_inf_19": (5, [np.nan, -1.5, np.inf]),
        "nan_inf_20": (90, [np.nan, -1.5, 1e-150, np.inf]),
    }[name]
    if extra:
        # The last one goes to the last column, the others from the first.
        a[row, : len(extra) - 1] = extra[:-1]
        a[row, -1] = extra[-1]
    return a


class TestMatrixPrinting:
    """The printing kernel gives the bytes of a per-entry format."""

    SPECIAL = (
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308,
        -1.7976931348623157e308, 2.2250738585072014e-308, 1.0 / 3.0, -2.5e-7,
    )

    @pytest.mark.parametrize("shape,s", [
        ((6, 6), 1), ((6, 6), 3), ((12, 9), 3), ((1, 9), 1), ((9, 1), 1),
        ((9, 1), 3),
        # Chunks of 88 rows: the first ends inside the block row 87..89.
        ((93, 93), 3),
        # One row wider than a chunk.
        ((1, 20000), 1),
    ])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_bytes_match_per_entry_format(self, shape, s, fmt):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        flat = a.reshape(-1)
        count = min(flat.size, len(self.SPECIAL))
        flat[:count] = self.SPECIAL[:count]
        rng.shuffle(flat)
        sep, gaps = (" ", s > 1) if fmt == "text" else (",", False)
        printed = "".join(_matrix_output(a, s, fmt))
        assert printed == _per_entry_lines(a, s, sep, gaps)

    @pytest.mark.parametrize("name", sorted(_special_values()))
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_special_values_match_per_entry_format(self, name, s, fmt):
        values = np.array(_special_values()[name])
        _assert_prints_per_entry(_padded_rows(np.concatenate([values, -values]), 6), s, fmt)

    @pytest.mark.parametrize("name", [
        "nonnegative", "negative_zero", "negative", "fallback_exponent",
        "nan_inf_19", "nan_inf_20",
    ])
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_slot_widths_match_per_entry_format(self, name, s, fmt):
        """Slots of 18, 19 and 20 bytes: the sign byte, the hundreds digit
        of the exponent (here from a fallback's text), NUL-padded short
        fallbacks, and chunks with no NUL byte at all."""
        _assert_prints_per_entry(_slot_width_family(name), s, fmt)

    @pytest.mark.parametrize("what", ["resistance", "inverse"])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_tree_commands_match_per_entry_format(self, capsys, tmp_path, what, fmt):
        """The benchmark's shape at test size: ``R`` and ``R^-1`` of an
        ``s = 1`` tree, over several chunks of rows."""
        path = tmp_path / "tree.json"
        path.write_text(serialize(random_graph(200, 1, "tree", seed=29)))
        ws = ResistanceWorkspace(parse_graph(path.read_bytes()))
        expected = ws.resistance if what == "resistance" else ws.inverse()
        code, out, err = run_cli(capsys, "compute", str(path), what, "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert out == _per_entry_lines(expected, 1, " " if fmt == "text" else ",", False)

    def test_ties_round_half_even_and_carry(self):
        a = np.array([[123456789012.5, 123456789013.5, 9.999999999996e5]])
        assert "".join(_matrix_output(a, 1, "csv")) == (
            "1.23456789012e+11,1.23456789014e+11,1.00000000000e+06\n"
        )

    @pytest.mark.parametrize("error", [-1.0, 1.0, 2.5])
    def test_exact_when_the_decade_estimate_is_off(self, monkeypatch, error):
        """A wrong ``floor(log10|x|)`` is corrected or falls back."""
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 9)) * 10.0 ** rng.integers(-30, 30, (12, 9))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v) + error)
        _assert_prints_per_entry(a, 3, "text")

    @settings(deadline=None, max_examples=200)
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60),
        cols=st.integers(min_value=1, max_value=7),
        s=st.sampled_from([1, 3]),
        fmt=st.sampled_from(["text", "csv"]),
    )
    def test_any_bit_pattern_matches_per_entry_format(self, bits, cols, s, fmt):
        """NaN payloads, signed zeros, subnormals, DBL_MAX: every float64."""
        a = _padded_rows(np.array(bits, dtype=np.uint64), cols).view(np.float64)
        _assert_prints_per_entry(a, s, fmt)

    @settings(deadline=None, max_examples=200)
    @given(
        values=st.lists(st.floats(min_value=1e-99, max_value=1e99), min_size=1, max_size=60),
        cols=st.integers(min_value=1, max_value=7),
        s=st.sampled_from([1, 3]),
        fmt=st.sampled_from(["text", "csv"]),
    )
    def test_any_nonnegative_value_matches_per_entry_format(self, values, cols, s, fmt):
        """Non-negative entries with 2-digit exponents: the NUL-free slot."""
        _assert_prints_per_entry(_padded_rows(np.array(values), cols), s, fmt)


def _json_dumps_matrix(a, s):
    """The JSON of a matrix as ``json.dumps`` writes it."""
    payload = {"block_size": s, "rows": a.shape[0], "cols": a.shape[1], "entries": a.tolist()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestMatrixJson:
    """JSON matrices are written a row at a time, in ``json.dumps``'s bytes."""

    @pytest.mark.parametrize("shape,s", [
        ((6, 6), 1), ((12, 9), 3), ((1, 9), 1), ((9, 1), 3), ((0, 4), 1), ((4, 0), 1),
    ])
    def test_bytes_match_json_dumps(self, shape, s):
        # NaN, both infinities, -0.0 and the smallest subnormal among them.
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        flat = a.reshape(-1)
        count = min(flat.size, len(TestMatrixPrinting.SPECIAL))
        flat[:count] = TestMatrixPrinting.SPECIAL[:count]
        rng.shuffle(flat)
        assert "".join(_matrix_output(a, s, "json")) == _json_dumps_matrix(a, s)

    @settings(deadline=None, max_examples=100)
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=40),
        cols=st.integers(min_value=1, max_value=5),
    )
    def test_any_bit_pattern_matches_json_dumps(self, bits, cols):
        a = _padded_rows(np.array(bits, dtype=np.uint64), cols).view(np.float64)
        assert "".join(_matrix_output(a, 1, "json")) == _json_dumps_matrix(a, 1)

    @pytest.mark.parametrize("argv", [
        ("laplacian",), ("pinv",), ("resistance",), ("tau",), ("inverse",),
        ("resistance", "--pair", "1", "4"), ("resistance", "--pair", "3", "2"),
    ])
    def test_cli_prints_json_dumps(self, capsys, block_file, argv):
        ws = ResistanceWorkspace(parse_graph(Path(block_file).read_bytes()))
        if len(argv) > 1:
            expected = ws.resistance_block(int(argv[2]) - 1, int(argv[3]) - 1)
        else:
            expected = {
                "laplacian": ws.laplacian,
                "pinv": ws.pseudoinverse(),
                "resistance": ws.resistance,
                "tau": ws.deficit,
                "inverse": ws.inverse(),
            }[argv[0]]
        code, out, err = run_cli(capsys, "compute", block_file, *argv, "--format", "json")
        assert code == EXIT_OK and err == ""
        assert out == _json_dumps_matrix(expected, 2)


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        super().__init__()
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


class TestMatrixPeakMemory:
    """Each matrix command's traced peak, in ``ns x ns`` arrays of doubles.

    ``compute det`` and ``compute tau`` build only the factorization, in
    ``L``'s own buffer: ``M`` and ``C`` (LAPACK's working copy of ``M`` is
    not traced).  ``compute inertia`` and ``compute interlace`` hand ``L``
    and ``R`` to ``eigvalsh`` as built, with no symmetrized copy.
    ``compute resistance``, ``compute pinv`` and ``compute inverse`` build
    their matrix in one ``ns x ns`` buffer and write it after the workspace
    is freed."""

    @staticmethod
    def traced_peak(argv):
        sink = _CountingSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sink.chars

    @pytest.mark.parametrize(
        "model,n,s,p,matrix_arrays",
        [("tree", 400, 1, None, 3.18), ("gnp", 100, 4, 0.1, 3.24)],
    )
    def test_matrix_peaks_in_arrays(self, tmp_path, model, n, s, p, matrix_arrays):
        path = tmp_path / "graph.json"
        path.write_text(serialize(random_graph(n, s, model, seed=3, p=p)))
        commands = {
            "det": (["compute", str(path), "det"], 2.4),
            "tau": (["compute", str(path), "tau"], 2.4),
            "inertia": (["compute", str(path), "inertia"], 3.3),
            "interlace": (["compute", str(path), "interlace"], 3.3),
            "resistance": (["compute", str(path), "resistance"], matrix_arrays),
            "pinv": (["compute", str(path), "pinv"], matrix_arrays),
            "inverse": (
                ["compute", str(path), "inverse", "--format", "csv"],
                matrix_arrays,
            ),
        }
        # Modules and printing tables load in the first calls, not the measured ones.
        for argv, _ in commands.values():
            self.traced_peak(argv)
        array = 8 * (n * s) ** 2
        for name, (argv, bound) in commands.items():
            peak, chars = self.traced_peak(argv)
            if name in ("resistance", "pinv", "inverse"):
                assert chars > 17 * (n * s) ** 2, name
            assert peak <= bound * array, (name, peak / array)


class TestFreshProcessDeterminism:
    def test_resistance_identical_across_processes(self, tmp_path):
        """`compute resistance` at ns = 300 in two fresh processes with the
        same BLAS thread count gives byte-identical output."""
        from resmat.graph import random_graph

        path = tmp_path / "dense.json"
        path.write_text(serialize(random_graph(100, 3, "gnp", seed=11, p=0.25)))
        src = str(Path(resmat.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        argv = [sys.executable, "-m", "resmat.cli", "compute", str(path), "resistance"]
        runs = [
            subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout and runs[0].stderr == ""
        assert runs[0].stdout == runs[1].stdout


class TestOneParserPerProcess:
    def test_calls_match_fresh_processes(self, capsys, block_file):
        """``main`` builds its parser once per process; a sequence of calls
        in one process prints what each call prints in a fresh process, and
        no ``--check`` list carries over from one call to the next."""
        from resmat.cli import _build_parser

        sequence = [
            ["compute", block_file, "bogus"],
            ["verify", block_file, "--check", "LRL", "--check", "QRQ"],
            ["verify", block_file, "--all"],
            ["compute", block_file, "resistance", "--pair", "1", "2"],
            ["compute", block_file, "resistance"],
            ["verify", block_file, "--check", "TAU_SUM"],
        ]
        in_process = [run_cli(capsys, *argv) for argv in sequence]
        assert _build_parser() is _build_parser()

        src = str(Path(resmat.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        for argv, got in zip(sequence, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "resmat.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert in_process[0][0] == EXIT_INPUT and "invalid choice" in in_process[0][2]
        checks = [line.split()[0] for line in in_process[5][1].splitlines()[1:-1]]
        assert checks == ["TAU_SUM"]


class TestVerify:
    def test_all_checks_text(self, capsys, p2_file):
        code, out, _ = run_cli(capsys, "verify", p2_file, "--all")
        assert code == EXIT_OK
        assert out.startswith("graph: n=2 s=1 m=1\n")
        assert out.strip().endswith("overall: PASS")
        assert out.count("PASS") >= 21  # 21 checks + the overall line

    def test_default_is_all(self, capsys, p2_file, tmp_path):
        code_default, out_default, _ = run_cli(capsys, "verify", p2_file)
        code_all, out_all, _ = run_cli(capsys, "verify", p2_file, "--all")
        assert code_default == code_all == EXIT_OK
        assert out_default == out_all

    def test_single_check(self, capsys, p3_file):
        code, out, _ = run_cli(capsys, "verify", p3_file, "--check", "DET_FORMULA")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 3  # graph line, one check, overall
        assert lines[1].startswith("DET_FORMULA")

    def test_repeatable_checks(self, capsys, p3_file):
        code, out, _ = run_cli(
            capsys, "verify", p3_file, "--check", "LRL", "--check", "INERTIA"
        )
        assert code == EXIT_OK
        body = out.strip().split("\n")[1:-1]
        assert [line.split()[0] for line in body] == ["LRL", "INERTIA"]

    def test_unknown_check_id(self, capsys, p3_file):
        code, _, err = run_cli(
            capsys, "verify", p3_file, "--check", "TAU_SUM", "--check", "BOGUS"
        )
        assert code == EXIT_INPUT
        assert err == (
            f"error: unknown check id(s): BOGUS; known: {', '.join(CHECK_IDS)}\n"
        )

    def test_all_overrides_unknown_check_id(self, capsys, p3_file):
        code, _, _ = run_cli(capsys, "verify", p3_file, "--all", "--check", "BOGUS")
        assert code == EXIT_OK

    def test_skip_lines_in_text(self, capsys, k3_file):
        code, out, _ = run_cli(capsys, "verify", k3_file, "--check", "QRQ")
        assert code == EXIT_OK
        assert "SKIP" in out

    def test_json_schema(self, capsys, p2_file):
        code, out, _ = run_cli(capsys, "verify", p2_file, "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert set(data) == {"graph", "checks", "passed"}
        assert data["passed"] is True
        check = data["checks"][0]
        assert set(check) == {
            "id",
            "residual",
            "tolerance",
            "passed",
            "skipped",
            "details",
        }

    def test_json_byte_identical_across_runs(self, capsys, block_file):
        _, first, _ = run_cli(
            capsys, "verify", block_file, "--all", "--format", "json"
        )
        _, second, _ = run_cli(
            capsys, "verify", block_file, "--all", "--format", "json"
        )
        assert first == second

    def test_requires_input_or_corpus(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == EXIT_INPUT
        assert "required" in err


class TestVerifyCorpus:
    def write_corpus(self, tmp_path, entries):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_passing_corpus(self, capsys, tmp_path):
        corpus = self.write_corpus(
            tmp_path,
            [
                {"model": "tree", "n": 5, "s": 2, "seed": 11},
                {"model": "complete", "n": 4, "s": 1, "seed": 12},
            ],
        )
        code, out, _ = run_cli(capsys, "verify", "--corpus", corpus)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("model=tree n=5 s=2 seed=11: PASS")
        assert lines[-1] == "overall: PASS"

    def test_generation_failure_reported(self, capsys, tmp_path):
        corpus = self.write_corpus(
            tmp_path,
            [
                {"model": "gnp", "n": 4, "s": 1, "seed": 0, "p": 0.0},
                {"model": "tree", "n": 4, "s": 1, "seed": 1},
            ],
        )
        code, out, _ = run_cli(capsys, "verify", "--corpus", corpus)
        assert code == EXIT_CHECK
        assert "GENERATION FAILURE" in out
        assert "overall: FAIL" in out

    @pytest.mark.parametrize(
        "spec, shown",
        [
            ({"model": "tree", "seed": 1.5}, "1.5"),
            ({"model": "tree", "seed": "x"}, "'x'"),
            ({"model": "tree", "seed": None}, "None"),
            ({"model": "tree", "seed": -1}, "-1"),
            ({"model": "gnp", "seed": 0, "p": "0.5"}, None),
        ],
    )
    def test_invalid_seed_or_p_is_generation_failure(self, capsys, tmp_path, spec, shown):
        corpus = self.write_corpus(tmp_path, [{"n": 4, "s": 1, **spec}])
        code, out, err = run_cli(capsys, "verify", "--corpus", corpus)
        assert code == EXIT_CHECK and err == ""
        if shown is None:
            problem = "edge probability p must be in [0, 1], got '0.5'"
        else:
            problem = f"seed must be a non-negative integer, got {shown}"
        assert out.splitlines()[0].endswith(f": GENERATION FAILURE (GraphError: {problem})")

    def test_corpus_json_format(self, capsys, tmp_path):
        corpus = self.write_corpus(
            tmp_path, [{"model": "cycle", "n": 4, "s": 1, "seed": 2}]
        )
        code, out, _ = run_cli(
            capsys, "verify", "--corpus", corpus, "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert data["passed"] is True
        entry = data["entries"][0]
        assert entry["error"] is None
        assert entry["spec"] == {"model": "cycle", "n": 4, "s": 1, "seed": 2}
        assert entry["report"]["passed"] is True

    def test_corpus_with_input_rejected(self, capsys, tmp_path, p2_file):
        corpus = self.write_corpus(
            tmp_path, [{"model": "tree", "n": 4, "s": 1, "seed": 0}]
        )
        code, _, err = run_cli(capsys, "verify", p2_file, "--corpus", corpus)
        assert code == EXIT_INPUT
        assert "not both" in err

    def test_corpus_with_check_rejected(self, capsys, tmp_path):
        corpus = self.write_corpus(
            tmp_path, [{"model": "tree", "n": 4, "s": 1, "seed": 0}]
        )
        code, _, err = run_cli(
            capsys, "verify", "--corpus", corpus, "--check", "LRL"
        )
        assert code == EXIT_INPUT
        assert "--check does not apply" in err

    def test_corpus_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "verify", "--corpus", str(path))
        assert code == EXIT_INPUT
        assert "not valid JSON" in err

    def test_corpus_not_a_list(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _, err = run_cli(capsys, "verify", "--corpus", str(path))
        assert code == EXIT_INPUT
        assert "JSON list" in err

    def test_corpus_entry_missing_keys(self, capsys, tmp_path):
        corpus = self.write_corpus(tmp_path, [{"model": "tree"}])
        code, _, err = run_cli(capsys, "verify", "--corpus", corpus)
        assert code == EXIT_INPUT
        assert "entry #1" in err

    def test_corpus_entry_unknown_keys(self, capsys, tmp_path):
        corpus = self.write_corpus(
            tmp_path, [{"model": "tree", "n": 4, "s": 1, "seed": 0, "extra": 1}]
        )
        code, _, err = run_cli(capsys, "verify", "--corpus", corpus)
        assert code == EXIT_INPUT
        assert "unknown key" in err

    def test_help_lists_the_spec_keys(self, capsys):
        """The ``--corpus`` help names GraphSpec's fields, the required ones
        first and then the one with a default, marked optional.  The parser
        writes them out itself, since building it imports nothing from
        ``verify`` (see ``TestLayers``)."""
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        keys = re.search(r"\(entries \{(.*?)\}\)", help_text).group(1)
        fields = dataclasses.fields(GraphSpec)
        required = [f'"{f.name}"' for f in fields if f.default is dataclasses.MISSING]
        optional = [f'"{f.name}"?' for f in fields if f.default is not dataclasses.MISSING]
        assert keys == ", ".join(required + optional)


class TestLayers:
    def test_each_command_loads_its_own_layers(self, tmp_path):
        """In a fresh interpreter, ``gen`` loads neither the reader of the
        JSON format, nor the engine, nor the text of ``compute``, nor the
        verifier.  ``compute det`` then loads the reader, the engine and its
        text, still without the verifier; ``verify --all``, in another fresh
        interpreter, loads the reader, the engine and the verifier."""
        script = "\n".join(
            [
                "import json, sys",
                "from resmat.cli import main",
                "def loaded():",
                "    return sorted(m for m in sys.modules if m.startswith('resmat.'))",
                "gen, command = json.loads(sys.argv[1])",
                "assert main(gen) == 0",
                "after_gen = loaded()",
                "assert main(command) == 0",
                "print(json.dumps([after_gen, loaded()]))",
            ]
        )
        graph = str(tmp_path / "g.json")
        gen = ["gen", graph, "--n", "5", "--s", "2", "--model", "tree", "--seed", "1"]
        src = str(Path(resmat.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )

        def layers(command):
            run = subprocess.run(
                [sys.executable, "-c", script, json.dumps([gen, command])],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return map(set, json.loads(run.stdout.splitlines()[-1]))

        reader = {"resmat.reader"}
        engine = {"resmat.laplacian", "resmat.resistance"}
        after_gen, after_compute = layers(["compute", graph, "det"])
        assert not (reader | engine | {"resmat.text", "resmat.verify"}) & after_gen
        assert reader | engine | {"resmat.text"} <= after_compute
        assert "resmat.verify" not in after_compute
        after_gen, after_verify = layers(["verify", graph, "--all"])
        assert not reader & after_gen
        assert reader | engine | {"resmat.verify"} <= after_verify


class TestGen:
    def test_gen_writes_valid_graph(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys,
            "gen", str(out_path),
            "--n", "5", "--s", "2", "--model", "tree", "--seed", "17",
        )
        assert code == EXIT_OK
        g = parse_graph(out_path.read_text())
        assert (g.n, g.s, g.m) == (5, 2, 4)

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["--n", "6", "--s", "3", "--model", "complete", "--seed", "9"]
        assert run_cli(capsys, "gen", str(a), *argv)[0] == EXIT_OK
        assert run_cli(capsys, "gen", str(b), *argv)[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_gen_gnp(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, _, _ = run_cli(
            capsys,
            "gen", str(out_path),
            "--n", "6", "--s", "1", "--model", "gnp", "--p", "0.5", "--seed", "3",
        )
        assert code == EXIT_OK

    def test_gen_impossible_gnp_is_numeric_failure(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, _, err = run_cli(
            capsys,
            "gen", str(out_path),
            "--n", "4", "--s", "1", "--model", "gnp", "--p", "0.0", "--seed", "0",
        )
        assert code == EXIT_NUMERIC
        assert "error:" in err
        assert not out_path.exists()

    def test_gen_bad_params(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "gen", str(tmp_path / "g.json"),
            "--n", "1", "--s", "1", "--model", "tree", "--seed", "0",
        )
        assert code == EXIT_INPUT

    def test_gen_negative_seed(self, capsys, tmp_path):
        out_path = tmp_path / "g.json"
        code, _, err = run_cli(
            capsys,
            "gen", str(out_path),
            "--n", "5", "--s", "1", "--model", "tree", "--seed", "-1",
        )
        assert code == EXIT_INPUT
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out_path.exists()

    def test_gen_missing_required(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "gen", str(tmp_path / "g.json"), "--n", "4")
        assert code == EXIT_INPUT


class TestTopLevel:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_INPUT
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == EXIT_INPUT

    def test_entry_point_registered(self):
        from resmat.cli import entry

        assert callable(entry)
