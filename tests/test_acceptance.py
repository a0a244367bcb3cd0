"""Acceptance gate: ten end-to-end checks, one per release criterion.

Each test prints a single PASS/FAIL line (visible under pytest -v -s or
in the captured output of a failing run) and then asserts, so a red run
still shows the full scoreboard up to the failure.
"""

import random
import time

import numpy as np

import dense as sv
from dense import (
    byproduct_step,
    corrected_fidelity,
    ghz_state,
    graph_state,
    run_protocol,
)
from pqw.graphs import TABLE_ORDER, catalog_lookup
from pqw.noise import extract_p_eff, f_star_dep, f_star_pd, noise_sweep
from pqw.verify import phase_lemma_check, verify_all_outcomes

from helpers import random_circuit, run_dense, run_tableau, t1_damping_estimate
from pauli import correction_plan, plans_equivalent

P4 = catalog_lookup("P4")
C4 = catalog_lookup("C4")

TREE_NAMES = ("P3", "P4", "P5", "K1_2", "K1_3", "K1_4", "spider", "fork")


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} {verdict}  {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_01_path_exhaustive():
    start = time.perf_counter()
    worst_f = 1.0
    worst_dp = 0.0
    for index in range(P4.outcome_count()):
        prob, _ = run_protocol(P4, index)
        worst_dp = max(worst_dp, abs(prob - 1.0 / 64.0))
        plan = correction_plan(P4, index, "l4")
        worst_f = min(worst_f, corrected_fidelity(P4, index, plan))
    elapsed = time.perf_counter() - start
    ok = worst_f >= 1.0 - 1e-12 and worst_dp <= 1e-12 and elapsed < 1.0
    _report(
        1,
        "path-of-4 exhaustive, published corrections",
        ok,
        f"min F={worst_f:.15f}, max dp={worst_dp:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_ring_exhaustive():
    start = time.perf_counter()
    worst_f = min(
        corrected_fidelity(C4, index, correction_plan(C4, index, "c4"))
        for index in range(C4.outcome_count())
    )
    elapsed = time.perf_counter() - start
    ok = worst_f >= 1.0 - 1e-12 and elapsed < 5.0
    _report(
        2,
        "ring-of-4 exhaustive, published corrections",
        ok,
        f"min F={worst_f:.15f}, {elapsed:.2f}s",
    )


def test_criterion_03_catalog_universal():
    start = time.perf_counter()
    names = list(TABLE_ORDER) + ["K4"]
    failed = []
    for name in names:
        report = verify_all_outcomes(catalog_lookup(name), "universal", name=name)
        if not report.passed:
            failed.append(name)
    elapsed = time.perf_counter() - start
    ok = not failed and elapsed < 120.0
    _report(
        3,
        "all 19 catalog graphs pass with the shared-sign correction",
        ok,
        f"{len(names) - len(failed)}/{len(names)} graphs, {elapsed:.1f}s",
    )


def test_criterion_04_tableau_signs():
    start = time.perf_counter()
    names = list(TABLE_ORDER) + ["K4"]
    bad = [n for n in names if phase_lemma_check(catalog_lookup(n)) is not True]
    elapsed = time.perf_counter() - start
    _report(
        4,
        "tableau signs equal the far-parity prediction on every outcome",
        not bad and elapsed < 1.0,
        f"{len(names) - len(bad)}/{len(names)} graphs exact, {elapsed:.2f}s",
    )


def test_criterion_05_noise_closed_forms():
    points = (0.0, 0.05, 0.1, 0.3, 0.5)
    worst = 0.0
    ordered = True
    for p in points:
        dep = noise_sweep(P4, "depolarizing", (p,)).fidelities[0]
        pd = noise_sweep(P4, "phase_damping", (p,)).fidelities[0]
        ad = noise_sweep(P4, "amplitude_damping", (p,)).fidelities[0]
        worst = max(worst, abs(dep - f_star_dep(p, 6)), abs(pd - f_star_pd(p, 6)))
        ordered = ordered and pd >= dep and pd >= ad >= dep
    ok = worst < 1e-10 and ordered
    _report(
        5,
        "strict retention to the power k matches both closed forms; damping is least destructive",
        ok,
        f"max |dF|={worst:.1e}, ordering={'yes' if ordered else 'no'}",
    )


def test_criterion_06_hardware_arithmetic():
    table = (((0.9241, 6), 0.0174), ((0.9222, 6), 0.0179), ((0.6220, 8), 0.0768))
    worst = max(abs(extract_p_eff(f, k) - want) for (f, k), want in table)
    t1 = t1_damping_estimate(3.5, 196.0)
    ok = worst <= 1e-4 and 0.0176 <= t1 <= 0.0179
    _report(
        6,
        "effective error rates and relaxation estimate reproduce the table",
        ok,
        f"max |dp|={worst:.2e}, t1 estimate={t1:.4f}",
    )


def test_criterion_07_schmidt_ranks():
    cut = (0, 2)  # AC vs BD
    rank_line = sv.schmidt_rank(graph_state(P4), cut)
    rank_ghz = sv.schmidt_rank(ghz_state(4), cut)
    ok = (rank_line, rank_ghz) == (4, 2)
    _report(
        7,
        "Schmidt ranks across AC|BD separate the two targets",
        ok,
        f"ranks=({rank_line}, {rank_ghz})",
    )


def test_criterion_08_oracle_equivalence():
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 12)
        circuit = random_circuit(rng, n, depth=30)
        dense = run_dense(n, circuit)
        tableau = run_tableau(n, circuit)
        for gen in tableau:
            moved = sv.apply_pauli(dense, gen)
            worst = max(
                worst, float(np.max(np.abs(moved.amplitudes - dense.amplitudes)))
            )
    ok = worst < 1e-10
    _report(
        8,
        "100 random Clifford circuits: dense state sits in the tableau's +1 space",
        ok,
        f"max eigenvalue error={worst:.1e}",
    )


def test_criterion_09_formula_concordance():
    checked = 0
    ok = True
    cases = [(P4, "l4"), (C4, "c4")]
    cases += [(catalog_lookup(name), "tree") for name in TREE_NAMES]
    for graph, kind in cases:
        for index in range(graph.outcome_count()):
            ok = ok and plans_equivalent(
                correction_plan(graph, index, kind),
                correction_plan(graph, index, "universal"),
                graph,
            )
            checked += 1
    _report(
        9,
        "every published plan differs from the shared-sign plan by a stabilizer",
        ok,
        f"{checked} plans compared",
    )


def test_criterion_10_byproduct_primitive():
    bell = sv.from_amplitudes([1, 0, 0, 1], normalize=True)
    ok = True
    detail = []
    for s in (0, 1):
        prob, pair = byproduct_step(s)
        target = sv.apply_gate(bell, "X", (0,)) if s else bell
        f = sv.fidelity(pair, target)
        ok = ok and abs(prob - 0.5) <= 1e-12 and f > 1.0 - 1e-12
        detail.append(f"s={s}: p={prob:.12f}, F={f:.12f}")
    _report(10, "single-edge byproduct step", ok, "; ".join(detail))
