"""Independent numpy reference for every op kind the benchmark runs.

The reference reads the graph file itself (no resmat code), builds the
block Laplacian with ``np.linalg.inv`` of each weight, takes
``np.linalg.pinv`` and assembles the resistance matrix by broadcasting.
Each checker compares one op's stdout with it at the check registry's own
tolerances, never looser.  Printed matrices carry 12 significant digits
(``{:.11e}``), so element-wise comparisons of printed numbers also allow
the half unit in the last printed place that formatting itself
introduces.

A checker returns ``(error, notes)``: ``error`` is ``None`` when the
output is correct, and ``notes`` names known defects the output shows
without being wrong (counted, not failed).
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property

import numpy as np

#: DET_FORMULA tolerance: relative error of the determinant, i.e. the
#: absolute error of its log.
DET_TOL = 1e-8
#: INV_FORMULA tolerance: max-norm of ``R^{-1} R - I``.
INV_TOL = 1e-8
#: SCALAR_REDUCTION tolerance: max-norm error of resistance entries.
BLOCK_TOL = 1e-10
#: Half a unit in the 12th significant digit of ``{:.11e}`` output.
PRINT_RTOL = 5e-12

#: The 21 registry checks, in registry (and report) order.
CHECK_IDS = (
    "LAP_KERNEL",
    "L_EQ_QQT",
    "SHIFT_NONSING",
    "LPLUS",
    "COMMUTE",
    "TAUDEF",
    "TAU_SUM",
    "RWIDEN",
    "LRL",
    "QRQ",
    "TAURTAU_PD",
    "TAURTAU_FORM",
    "DET_FORMULA",
    "INV_FORMULA",
    "INERTIA",
    "INTERLACE",
    "COFACTOR_EQ",
    "PINV_SUBMATRIX",
    "SCALAR_REDUCTION",
    "TREE_DISTANCE",
    "TREE_DET",
)

DET_OUT_OF_RANGE = "det_value_out_of_range"

# A determinant is representable as a normal float only inside these logs.
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)


class Reference:
    """Reference objects for one graph file, computed on first use."""

    def __init__(self, data: bytes):
        graph = json.loads(data)
        self.n, self.s = graph["n"], graph["s"]
        self.m = len(graph["edges"])
        self._edges = graph["edges"]

    @property
    def ns(self) -> int:
        return self.n * self.s

    @cached_property
    def laplacian(self) -> np.ndarray:
        n, s = self.n, self.s
        lap = np.zeros((n, s, n, s))
        weights = np.array([e["w"] for e in self._edges], dtype=np.float64)
        for e, inverse in zip(self._edges, np.linalg.inv(weights)):
            u, v = e["u"] - 1, e["v"] - 1
            lap[u, :, v, :] -= inverse
            lap[v, :, u, :] -= inverse
            lap[u, :, u, :] += inverse
            lap[v, :, v, :] += inverse
        return lap.reshape(self.ns, self.ns)

    @cached_property
    def resistance(self) -> np.ndarray:
        """``R_ij = K_ii + K_jj - 2 K_ij`` from ``K = pinv(L)``."""
        n, s = self.n, self.s
        k = np.linalg.pinv(self.laplacian).reshape(n, s, n, s)
        diag = np.einsum("iaib->iab", k)
        r = diag[:, :, None, :] + diag.transpose(1, 0, 2)[None, :, :, :] - 2.0 * k
        return r.reshape(self.ns, self.ns)

    @cached_property
    def slogdet(self) -> tuple[float, float]:
        sign, log_abs = np.linalg.slogdet(self.resistance)
        return float(sign), float(log_abs)


def _within_printed(printed: np.ndarray, expected: np.ndarray) -> float:
    """Largest excess of ``|printed - expected|`` over its allowance."""
    allowance = BLOCK_TOL + PRINT_RTOL * np.abs(printed)
    return float(np.max(np.abs(printed - expected) - allowance))


def _parse_rows(text: str, sep: str | None) -> np.ndarray:
    rows = [line.split(sep) for line in text.splitlines() if line.strip()]
    return np.array(rows, dtype=np.float64)


def check_det(text: str, ref: Reference):
    out = json.loads(text)
    sign, log_abs = ref.slogdet
    if out["sign"] != sign:
        return f"det sign {out['sign']} != reference {sign}", ()
    if abs(out["log_abs"] - log_abs) > DET_TOL:
        return f"det log_abs {out['log_abs']!r} != reference {log_abs!r}", ()
    value = out["value"]
    if not _LOG_TINY < log_abs < _LOG_HUGE:
        if value is None:
            return None, ()
        if value == 0.0 or math.isinf(value):
            return None, (DET_OUT_OF_RANGE,)
        return f"det value {value!r} for log_abs {log_abs!r}", ()
    expected = sign * math.exp(log_abs)
    if value is None or abs(value - expected) > DET_TOL * abs(expected):
        return f"det value {value!r} != reference {expected!r}", ()
    return None, ()


def check_block(text: str, ref: Reference, i: int, j: int):
    """The ``(i, j)`` block (1-based) of ``--pair I J`` text output."""
    s = ref.s
    got = _parse_rows(text, None)
    expected = ref.resistance[(i - 1) * s : i * s, (j - 1) * s : j * s]
    if got.shape != expected.shape:
        return f"pair block shape {got.shape} != {expected.shape}", ()
    excess = _within_printed(got, expected)
    if excess > 0.0:
        return f"pair block off the reference by {excess:.3e} beyond tolerance", ()
    return None, ()


def check_resistance_csv(text: str, ref: Reference):
    got = _parse_rows(text, ",")
    if got.shape != (ref.ns, ref.ns):
        return f"resistance shape {got.shape} != {(ref.ns, ref.ns)}", ()
    excess = _within_printed(got, ref.resistance)
    if excess > 0.0:
        return f"resistance off the reference by {excess:.3e} beyond tolerance", ()
    return None, ()


def check_inverse_csv(text: str, ref: Reference):
    got = _parse_rows(text, ",")
    if got.shape != (ref.ns, ref.ns):
        return f"inverse shape {got.shape} != {(ref.ns, ref.ns)}", ()
    residual = float(np.max(np.abs(got @ ref.resistance - np.eye(ref.ns))))
    if residual > INV_TOL:
        return f"inverse times reference R is off I by {residual:.3e}", ()
    return None, ()


def check_verify_json(text: str, ref: Reference):
    report = json.loads(text)
    graph = report["graph"]
    if (graph["n"], graph["s"], graph["m"]) != (ref.n, ref.s, ref.m):
        return f"report describes n={graph['n']} s={graph['s']} m={graph['m']}", ()
    ids = tuple(c["id"] for c in report["checks"])
    if ids != CHECK_IDS:
        return f"report lists checks {ids}", ()
    failing = [c["id"] for c in report["checks"] if not c["passed"]]
    if failing or report["passed"] is not True:
        return f"checks failed: {failing}", ()
    return None, ()
