"""Acceptance gate: the ten package-level criteria, one test (and one
printed pass/fail line) each.

Each test computes its quantities fresh at the stated tolerances, prints
`[criterion N] PASS/FAIL <detail>`, and asserts.  Runtime-bounded criteria
time their own work, including workspace construction.
"""

import json
import time

import numpy as np
import pytest

from resmat.cli import EXIT_OK, main
from resmat.graph import (
    complete_graph,
    from_edges,
    path_graph,
    random_graph,
    serialize,
    star_graph,
)
from resmat.laplacian import build_incidence, stacked_identity
from resmat.linalg import (
    block_cofactor_slog,
    default_rank_tol,
    max_norm,
    pseudo_inverse,
    sym_eigenvalues,
    symmetrize,
    value_from_slog,
)
from resmat.resistance import ResistanceWorkspace
from resmat.verify import _nonsingular, scalar_resistance_oracle


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_tree_determinant():
    """Unit trees n in 2..8: det R = (-1)^(n-1) (n-1) 2^(n-2), rel 1e-10, < 1 s."""
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(2, 9):
        trees = [path_graph(n)]
        if n >= 3:
            trees.append(star_graph(n - 1))
        trees.append(random_graph(n, 1, "tree", seed=4000 + n))
        for g in trees:
            # Random trees carry random weights; the closed count needs unit
            # weights, so rebuild the shape with identity weights.
            g = from_edges(g.n, 1, [(e.u, e.v, np.eye(1)) for e in g.edges])
            ws = ResistanceWorkspace(g)
            expected = float((-1) ** (n - 1) * (n - 1) * 2 ** (n - 2))
            for value in (ws.determinant(), np.linalg.det(ws.resistance)):
                worst = max(worst, abs(value - expected) / abs(expected))
            cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(
        1,
        ok,
        f"{cases} unit trees (n=2..8), worst relative error {worst:.3e} "
        f"(tol 1e-10), {elapsed:.3f} s (budget 1 s)",
    )


def test_criterion_02_determinant_formula(corpus):
    """Closed-form det R vs LU det, rel 1e-8, whole corpus, < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    for _, g in corpus:
        ws = ResistanceWorkspace(g)
        closed = ws.determinant()
        brute = np.linalg.det(ws.resistance)
        scale = max(abs(closed), abs(brute))
        worst = max(worst, abs(closed - brute) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(
        2,
        ok,
        f"{len(corpus)} corpus graphs, worst relative gap {worst:.3e} "
        f"(tol 1e-8), {elapsed:.3f} s (budget 10 s)",
    )


def test_criterion_03_inverse_formula(corpus_workspaces):
    """max-norm of (closed-form inverse) R - I at most 1e-8, corpus-wide."""
    worst = 0.0
    for _, g, ws in corpus_workspaces:
        product = ws.inverse() @ ws.resistance
        worst = max(worst, max_norm(product - np.eye(g.n * g.s)))
    ok = worst <= 1e-8
    report(3, ok, f"worst inverse defect {worst:.3e} (tol 1e-8)")


def test_criterion_04_inertia(corpus_workspaces):
    """Inertia (s, ns - s, 0) exactly, corpus-wide."""
    mismatches = []
    for descriptor, g, ws in corpus_workspaces:
        got = ws.inertia().as_tuple()
        expected = (g.s, g.n * g.s - g.s, 0)
        if got != expected:
            mismatches.append((descriptor, got, expected))
    ok = not mismatches
    detail = (
        f"all {len(corpus_workspaces)} corpus graphs split (s, ns-s, 0)"
        if ok
        else f"mismatches: {mismatches}"
    )
    report(4, ok, detail)


def test_criterion_05_interlacing(corpus_workspaces):
    """All ns - s interlacing rows hold (slack 1e-9); P2 tie exact to 1e-12."""
    bad_rows = 0
    total_rows = 0
    for _, g, ws in corpus_workspaces:
        rows = ws.interlacing()
        total_rows += len(rows)
        bad_rows += sum(1 for row in rows if not row.holds)
    p2 = ResistanceWorkspace(path_graph(2))
    row = p2.interlacing()[0]
    tie_gap = max(abs(row.bound + 1.0), abs(row.lower + 1.0))
    ok = bad_rows == 0 and tie_gap <= 1e-12
    report(
        5,
        ok,
        f"{total_rows} interlacing rows corpus-wide, {bad_rows} violations; "
        f"P2 tie reproduced to {tie_gap:.3e} (tol 1e-12)",
    )


def test_criterion_06_identity_suite(corpus_workspaces):
    """Six structural identities, each within 1e-8 * scale, corpus-wide."""
    worst = {"LRL": 0.0, "QRQ": 0.0, "TAU_SUM": 0.0, "RWIDEN": 0.0,
             "COMMUTE": 0.0, "TAUDEF": 0.0}
    qrq_trees = 0
    for _, g, ws in corpus_workspaces:
        n, s = g.n, g.s
        lap = ws.laplacian
        r = ws.resistance
        lap_blocks = lap.reshape(n, s, n, s)
        r_blocks = r.reshape(n, s, n, s)
        ones = stacked_identity(n, s)

        def ratio(defect_norm, scale):
            return defect_norm / (1e-8 * (1.0 + scale))

        worst["LRL"] = max(
            worst["LRL"], ratio(max_norm(lap @ r @ lap + 2.0 * lap), max_norm(lap))
        )
        if g.m == n - 1:
            q = build_incidence(g)
            defect = q.T @ r @ q + 2.0 * np.eye((n - 1) * s)
            worst["QRQ"] = max(worst["QRQ"], ratio(max_norm(defect), 0.0))
            qrq_trees += 1
        total = ws.deficit.T @ ones
        worst["TAU_SUM"] = max(
            worst["TAU_SUM"], ratio(max_norm(total - 2.0 * np.eye(s)), 0.0)
        )
        widen = np.zeros((s, s))
        for e in g.edges:
            inverse_weight = -lap_blocks[e.u, :, e.v, :]
            widen += inverse_weight @ (
                r_blocks[e.v, :, e.u, :] + r_blocks[e.u, :, e.v, :]
            )
        target = 2.0 * (n - 1) * np.eye(s)
        worst["RWIDEN"] = max(
            worst["RWIDEN"], ratio(max_norm(widen - target), 2.0 * (n - 1))
        )
        lx = lap @ ws.shifted_inverse
        worst["COMMUTE"] = max(
            worst["COMMUTE"],
            ratio(max_norm(lx - ws.shifted_inverse @ lap), max_norm(lx)),
        )
        # The engine takes T from L xbar + (2/n)(1 (x) I_s); compare it
        # with the defining edge sum T_i = 2 I - sum_{j ~ i} W_ij^-1 R_ji.
        taudef = np.tile(2.0 * np.eye(s), (n, 1))
        for e in g.edges:
            inverse_weight = -lap_blocks[e.u, :, e.v, :]
            taudef[e.u * s : (e.u + 1) * s] -= inverse_weight @ r_blocks[e.v, :, e.u, :]
            taudef[e.v * s : (e.v + 1) * s] -= inverse_weight @ r_blocks[e.u, :, e.v, :]
        worst["TAUDEF"] = max(
            worst["TAUDEF"],
            ratio(max_norm(taudef - ws.deficit), max_norm(ws.deficit)),
        )
    ok = all(v <= 1.0 for v in worst.values()) and qrq_trees > 0
    summary = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report(
        6,
        ok,
        f"worst residual/tolerance ratios: {summary} "
        f"(QRQ over {qrq_trees} trees, square incidence case)",
    )


def test_criterion_07_oracle_agreement(corpus_workspaces):
    """s=1 engine matches the classical oracle (1e-10); pseudoinverse
    route matches the spectral route (1e-8) on every corpus graph."""
    worst_scalar = 0.0
    scalar_graphs = 0
    worst_pinv = 0.0
    for _, g, ws in corpus_workspaces:
        if g.s == 1:
            oracle = scalar_resistance_oracle(g)
            worst_scalar = max(worst_scalar, max_norm(ws.resistance - oracle))
            scalar_graphs += 1
        spectral = pseudo_inverse(ws.laplacian)
        gap = max_norm(ws.pseudoinverse() - spectral)
        worst_pinv = max(worst_pinv, gap / (1e-8 * (1.0 + max_norm(spectral))))
    ok = worst_scalar <= 1e-10 and worst_pinv <= 1.0 and scalar_graphs > 0
    report(
        7,
        ok,
        f"scalar oracle gap {worst_scalar:.3e} over {scalar_graphs} s=1 graphs "
        f"(tol 1e-10); pseudoinverse route ratio {worst_pinv:.2e} of 1e-8 budget",
    )


def test_criterion_08_deficit_form(corpus_workspaces):
    """Deficit form: direct ``T'RT`` vs the engine's closed form
    (1e-9 * scale) and strictly PD on every corpus graph; hand values
    [[2]], [[4]], [[16/9]] to 1e-12."""
    worst_ratio = 0.0
    margin_failures = 0
    for _, g, ws in corpus_workspaces:
        direct = ws.deficit.T @ ws.resistance @ ws.deficit
        closed = ws.deficit_form
        tol = 1e-9 * (1.0 + max_norm(direct))
        worst_ratio = max(worst_ratio, max_norm(direct - closed) / tol)
        values = sym_eigenvalues(ws.deficit_form)
        band = default_rank_tol(g.s) * float(np.abs(values).max())
        if float(values[-1]) <= band:
            margin_failures += 1
    hands = []
    for g, expected in (
        (path_graph(2), 2.0),
        (path_graph(3), 4.0),
        (complete_graph(3), 16.0 / 9.0),
    ):
        form = ResistanceWorkspace(g).deficit_form
        hands.append(abs(form[0, 0] - expected))
    worst_hand = max(hands)
    ok = worst_ratio <= 1.0 and margin_failures == 0 and worst_hand <= 1e-12
    report(
        8,
        ok,
        f"direct-vs-closed ratio {worst_ratio:.2e} of budget, "
        f"{margin_failures} definiteness failures, "
        f"hand values (P2, P3, K3) off by {worst_hand:.3e} (tol 1e-12)",
    )


def test_criterion_09_cofactor_and_submatrix_invariance(corpus_workspaces):
    """Cofactor equality and pseudoinverse-submatrix invertibility on the
    corpus plus 100 random instances each (order <= 10)."""
    # Corpus part: every block cofactor of every Laplacian agrees, and
    # pseudoinverse principal submatrices stay invertible.
    worst_cof = 0.0
    pinv_violations = 0
    pinv_sampled = 0
    for _, g, ws in corpus_workspaces:
        reference = value_from_slog(*ws.laplacian_cofactor_slog)
        rng = np.random.default_rng([g.n, g.s, g.m, 9001])
        for _ in range(3):
            i = int(rng.integers(0, g.n))
            j = int(rng.integers(0, g.n))
            value = value_from_slog(*block_cofactor_slog(ws.laplacian, i, j, g.s))
            worst_cof = max(
                worst_cof, abs(value - reference) / (1.0 + abs(reference))
            )
        ns = g.n * g.s
        a = ws.pseudoinverse()
        a_pinv = ws.laplacian
        for _ in range(3):
            for _ in range(40):
                size = int(rng.integers(1, ns - g.s + 1))
                rows = np.sort(rng.choice(ns, size=size, replace=False))
                if abs(np.linalg.det(a[np.ix_(rows, rows)])) > 1e-8:
                    pinv_sampled += 1
                    if not _nonsingular(symmetrize(a_pinv[np.ix_(rows, rows)])):
                        pinv_violations += 1
                    break

    # 100 random PSD instances for the pseudoinverse-submatrix property:
    # A = B'B with random rank, order <= 10.
    rng = np.random.default_rng(90210)
    psd_violations = 0
    psd_sampled = 0
    for _ in range(100):
        order = int(rng.integers(2, 11))
        rank = int(rng.integers(1, order + 1))
        b = rng.uniform(-1.0, 1.0, size=(rank, order))
        a = b.T @ b
        a = (a + a.T) / 2.0
        a_pinv = pseudo_inverse(a)
        for _ in range(40):
            size = int(rng.integers(1, order + 1))
            rows = np.sort(rng.choice(order, size=size, replace=False))
            if abs(np.linalg.det(a[np.ix_(rows, rows)])) > 1e-8:
                psd_sampled += 1
                if not _nonsingular(symmetrize(a_pinv[np.ix_(rows, rows)])):
                    psd_violations += 1
                break

    # 100 random centered instances for cofactor equality: A with exactly
    # vanishing block row/column sums has all block cofactors equal.
    cof_worst_random = 0.0
    for _ in range(100):
        s = int(rng.integers(1, 4))
        n = int(rng.integers(2, 10 // s + 1))
        m = rng.uniform(-1.0, 1.0, size=(n * s, n * s))
        m = (m + m.T) / 2.0
        projector = np.eye(n * s) - np.kron(np.ones((n, n)) / n, np.eye(s))
        a = projector @ m @ projector
        a = (a + a.T) / 2.0
        reference = value_from_slog(*block_cofactor_slog(a, 0, 0, s))
        for _ in range(3):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            value = value_from_slog(*block_cofactor_slog(a, i, j, s))
            cof_worst_random = max(
                cof_worst_random, abs(value - reference) / (1.0 + abs(reference))
            )

    ok = (
        worst_cof <= 1e-8
        and cof_worst_random <= 1e-8
        and pinv_violations == 0
        and psd_violations == 0
        and pinv_sampled > 0
        and psd_sampled == 100
    )
    report(
        9,
        ok,
        f"cofactor agreement {worst_cof:.3e} (corpus) / {cof_worst_random:.3e} "
        f"(100 centered instances); pseudoinverse-submatrix violations "
        f"{pinv_violations}/{pinv_sampled} (corpus) + {psd_violations}/"
        f"{psd_sampled} (100 PSD instances)",
    )


def test_criterion_10_cli_determinism(corpus, tmp_path, capsys):
    """`verify --all --format json` twice per corpus graph: byte-identical
    output, exit code 0."""
    mismatches = 0
    failures = 0
    for index, (_, g) in enumerate(corpus):
        path = tmp_path / f"graph_{index}.json"
        path.write_text(serialize(g))
        argv = ["verify", str(path), "--all", "--format", "json"]
        code_first = main(argv)
        first = capsys.readouterr().out
        code_second = main(argv)
        second = capsys.readouterr().out
        if code_first != EXIT_OK or code_second != EXIT_OK:
            failures += 1
        if first != second or not first:
            mismatches += 1
        json.loads(first)  # and the payload is well-formed JSON
    ok = mismatches == 0 and failures == 0
    report(
        10,
        ok,
        f"{len(corpus)} graphs verified twice: {failures} nonzero exits, "
        f"{mismatches} byte mismatches",
    )
