"""Noise channels, the two fidelity metrics, and the calibration helpers.

The frozen oracle values for the conditional metric were computed once
with an independent density-matrix enumeration and pasted in; the strict
metric is checked against its closed forms directly.
"""

import collections
import decimal
import hashlib
import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import kraus_ops
from helpers import branch_fidelity, grid, small_connected_graphs, t1_damping_estimate
from pqw import noise, protocol, verify
from pqw.graphs import Graph, catalog_lookup, catalog_names, parse_edge_list
from pqw.noise import (
    CHANNEL_KINDS,
    INSERTION_POINTS,
    METRICS,
    NoiseReport,
    ResourceError,
    bhattacharyya_fidelity,
    extract_p_eff,
    f_star_dep,
    f_star_pd,
    noise_sweep,
)
from pqw.protocol import CORRECTION_KINDS, correction_forms

P4 = catalog_lookup("P4")
K2 = Graph(("A", "B"), (("A", "B"),))

P_POINTS = (0.0, 0.05, 0.1, 0.3, 0.5)

# the one refusal of a strength outside [0, 1], from every noise call
STRENGTH_REFUSAL = "channel strength must lie in [0, 1], got {}"


# -- channels -----------------------------------------------------------------


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("p", (0.0, 0.1, 0.37, 1.0))
def test_kraus_completeness(kind, p):
    total = np.zeros((2, 2), dtype=complex)
    for op in kraus_ops(kind, p):
        total += op.conj().T @ op
    assert np.allclose(total, np.eye(2), atol=1e-14)


def _choi(ops):
    # sum_b |K_b>><<K_b|, |K>> the row-major vectorisation of K
    return sum(np.outer(op.ravel(), op.ravel().conj()) for op in map(np.asarray, ops))


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("p", (0.0, 0.1, 0.37, 1.0))
def test_engine_kraus_table_matches_the_dense_oracle(kind, p):
    # the oracle spells its matrices from the definitions, so a wrong entry
    # in the engine's table shows here; the Choi matrix is blind only to the
    # unitary freedom of a Kraus set
    engine, oracle = _choi(noise._kraus_lists(kind, p)), _choi(kraus_ops(kind, p))
    assert np.abs(engine - oracle).max() <= 1e-14


def test_noiseless_channel_is_identity_only():
    for kind in CHANNEL_KINDS:
        ops = kraus_ops(kind, 0.0)
        nontrivial = [op for op in ops if not np.allclose(op, np.eye(2))]
        assert all(np.allclose(op, 0) for op in nontrivial)


def test_channel_aliases():
    # a short alias and its full name give the same sweep
    aliases = {"dep": "depolarizing", "pd": "phase_damping", "ad": "amplitude_damping"}
    for alias, kind in aliases.items():
        for metric in METRICS:
            short = noise_sweep(P4, alias, (0.2,), metric=metric)
            assert short == noise_sweep(P4, kind, (0.2,), metric=metric)


def test_phase_damping_equals_phase_flip_channel():
    # same Choi matrix as flipping Z with probability (1 - sqrt(1-p))/2
    for p in (0.0, 0.15, 0.6, 1.0):
        q = (1.0 - math.sqrt(1.0 - p)) / 2.0
        z = np.diag([1.0, -1.0])
        flip_ops = [math.sqrt(1.0 - q) * np.eye(2), math.sqrt(q) * z]
        assert np.allclose(
            _choi(kraus_ops("phase_damping", p)),
            _choi(flip_ops),
            atol=1e-12,
        )


# -- closed forms -------------------------------------------------------------


def test_closed_forms_at_pinned_points():
    assert abs(f_star_dep(0.2, 1) - 0.85) < 1e-15
    assert abs(f_star_dep(0.2, 2) - 0.7225) < 1e-15
    assert abs(f_star_dep(0.2, 6) - 0.377149515625) < 1e-12
    assert abs(f_star_pd(0.0, 6) - 1.0) < 1e-15
    assert abs(f_star_pd(0.1, 6) - ((1.0 + math.sqrt(0.9)) / 2.0) ** 6) < 1e-15


def test_closed_form_validation():
    # the closed forms refuse a strength with noise_sweep's own message
    for fn in (f_star_dep, f_star_pd):
        for p in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError, match=re.escape(STRENGTH_REFUSAL.format(p)) + "$"):
                fn(p, 3)
        with pytest.raises(ValueError, match="non-negative"):
            fn(0.1, -1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=8),
)
def test_p_eff_inverts_the_depolarizing_form(p, k):
    p_eff = extract_p_eff(f_star_dep(p, k), k)
    assert abs(p_eff - p) < 1e-12
    assert 0.0 <= p_eff <= 1.0


def test_p_eff_validation():
    with pytest.raises(ValueError, match="positive"):
        extract_p_eff(0.0, 6)
    with pytest.raises(ValueError, match="positive"):
        extract_p_eff(-0.3, 6)
    with pytest.raises(ValueError, match="at least 1"):
        extract_p_eff(0.9, 0)
    for fidelity in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            extract_p_eff(fidelity, 6)
    with pytest.raises(ValueError, match="at most 1"):
        extract_p_eff(1.5, 2)
    with pytest.raises(ValueError, match="at most 1"):
        extract_p_eff(1.0 + 2e-9, 6)
    # the slack's edge itself still fits
    assert extract_p_eff(1.0 + 1e-9, 6) == 0.0
    # within the slack an ideal sum may carry, the fit is still made
    assert extract_p_eff(1.0 + 1e-12, 6) == pytest.approx(0.0, abs=1e-12)
    # and it fits as 1, so p_eff is never negative
    assert extract_p_eff(1.0 + 1e-10, 3) == 0.0
    # a k past the largest float does not convert, which itself still fits:
    # log(F) / k is subnormal there, and p_eff is its true value, not 0
    with pytest.raises(ValueError, match="k must be at most"):
        extract_p_eff(0.9, 10**400)
    assert extract_p_eff(0.9, int(sys.float_info.max)) == pytest.approx(7.8144976369689e-310)
    # below the p = 1 floor 4^-k no strength fits: f_star_dep refuses p > 1
    for fidelity, k in ((0.0002, 6), (1e-320, 6), (0.2, 1)):
        with pytest.raises(ValueError, match=r"at least 4\^-k = .* \(p = 1\), got"):
            extract_p_eff(fidelity, k)
    # the floor itself fits as exactly 1, and float slack below it as 1
    for k in range(1, 65):
        assert extract_p_eff(f_star_dep(1.0, k), k) == 1.0
    assert extract_p_eff(0.25**6 * (1.0 - 1e-12), 6) == 1.0
    assert extract_p_eff(0.25**6 * (1 - 1e-9), 6) == 1.0


def _p_eff_exact(fidelity: float, k: int) -> float:
    """(4/3)(1 - F^(1/k)) in 60-digit decimal arithmetic, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        root = (decimal.Decimal(fidelity).ln() / k).exp()
        return float(decimal.Decimal(4) / 3 * (1 - root))


@pytest.mark.parametrize(
    "fidelity,k",
    [(0.999999999999, 6), (1 - 1e-15, 6), (1 - 2**-53, 1), (0.9241, 6), (0.9999999, 64),
     (0.5, 3), (1e-3, 5)],
)
def test_p_eff_keeps_its_digits_near_one(fidelity, k):
    # 1 - F^(1/k) cancels near F = 1: at 1 - 1e-15 it was 33% off
    exact = _p_eff_exact(fidelity, k)
    assert abs(extract_p_eff(fidelity, k) - exact) <= math.ulp(exact)


@pytest.mark.parametrize(
    "fn,first,message",
    [
        (f_star_dep, 0.1, "k must be non-negative, got nan"),
        (f_star_pd, 0.1, "k must be non-negative, got nan"),
        (extract_p_eff, 0.9, "k must be at least 1, got nan"),
    ],
    ids=("f_star_dep", "f_star_pd", "extract_p_eff"),
)
def test_a_nan_resource_count_is_refused(fn, first, message):
    # NaN fails the k check by name, not returned as a fidelity or strength
    with pytest.raises(ValueError, match=message + "$"):
        fn(first, math.nan)


@pytest.mark.parametrize("k", [2.5, math.inf, 10**400], ids=("half", "inf", "past_float"))
@pytest.mark.parametrize(
    "fn,first",
    [(f_star_dep, 0.1), (f_star_pd, 0.1), (extract_p_eff, 0.9)],
    ids=("f_star_dep", "f_star_pd", "extract_p_eff"),
)
def test_a_resource_count_is_a_whole_float_range_number(fn, first, k):
    # a retention over 2.5 or infinitely many qubits is no number of the
    # protocol, and a count past the float range overflows the power
    message = "k must be a whole number, got 2.5" if k == 2.5 else "k must be at most "
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(first, k)


# -- exact fidelities, strict metric -------------------------------------------


@pytest.mark.parametrize("p", P_POINTS)
def test_strict_metric_matches_depolarizing_form(p):
    got = noise_sweep(P4, "depolarizing", (p,), metric="strict").fidelities[0]
    assert abs(got - f_star_dep(p, 6)) < 1e-10


@pytest.mark.parametrize("p", P_POINTS)
def test_strict_metric_matches_phase_damping_form(p):
    got = noise_sweep(P4, "phase_damping", (p,), metric="strict").fidelities[0]
    assert abs(got - f_star_pd(p, 6)) < 1e-10


def test_strict_metric_ignores_insertion_point():
    for kind in CHANNEL_KINDS:
        a = noise_sweep(P4, kind, (0.23,), insertion="post_prep").fidelities[0]
        b = noise_sweep(P4, kind, (0.23,), insertion="pre_measure").fidelities[0]
        assert abs(a - b) < 1e-14


def test_strict_channel_ordering():
    # retention per noisy qubit: phase damping >= amplitude damping
    # >= depolarizing, strictly between the endpoints
    for p in np.arange(0.02, 1.0, 0.02):
        dep = noise_sweep(P4, "depolarizing", (p,)).fidelities[0]
        pd = noise_sweep(P4, "phase_damping", (p,)).fidelities[0]
        ad = noise_sweep(P4, "amplitude_damping", (p,)).fidelities[0]
        assert pd > ad > dep or p == 1.0


def test_amplitude_damping_strict_form():
    # |tr K0 / 2|^2 with tr K1 = 0 gives the squared phase-damping factor
    for p in (0.1, 0.4, 0.8):
        got = noise_sweep(P4, "amplitude_damping", (p,)).fidelities[0]
        want = (((1.0 + math.sqrt(1.0 - p)) / 2.0) ** 2) ** 6
        assert abs(got - want) < 1e-12


# -- exact fidelities, conditional metric --------------------------------------

CONDITIONAL_ORACLES = (
    ("depolarizing", 0.1, 0.634501750000),
    ("depolarizing", 0.3, 0.257605750000),
    ("phase_damping", 0.1, 0.856780838245),
    ("phase_damping", 0.3, 0.609305934585),
    ("amplitude_damping", 0.1, 0.734802459475),
)


@pytest.mark.parametrize("kind,p,want", CONDITIONAL_ORACLES)
def test_conditional_metric_frozen_oracles(kind, p, want):
    got = noise_sweep(P4, kind, (p,), metric="conditional").fidelities[0]
    assert abs(got - want) < 1e-9


def test_conditional_dominates_strict():
    # discarded branches can still overlap the corrected target, so the
    # conditional average sits at or above the strict lower bound
    for kind in CHANNEL_KINDS:
        for p in (0.0, 0.1, 0.3):
            strict = noise_sweep(P4, kind, (p,), metric="strict").fidelities[0]
            cond = noise_sweep(P4, kind, (p,), metric="conditional").fidelities[0]
            assert cond >= strict - 1e-12
            if p == 0.0:
                assert abs(cond - strict) < 1e-12


def test_single_edge_conditional_depolarizing_analytic():
    # one edge, two noisy qubits: the pair errors XZ, ZX and YY land
    # back in the shared state, so the branch sum is (1-3p/4)^2 + 3(p/4)^2
    for p in (0.1, 0.3):
        got = noise_sweep(K2, "depolarizing", (p,), metric="conditional").fidelities[0]
        want = (1.0 - 0.75 * p) ** 2 + 3.0 * (p / 4.0) ** 2
        assert abs(got - want) < 1e-12


def test_single_edge_conditional_phase_damping_analytic():
    # the surviving cross terms cancel for diagonal damping on one edge
    for p in (0.1, 0.3):
        got = noise_sweep(K2, "phase_damping", (p,), metric="conditional").fidelities[0]
        want = f_star_pd(p, 2)
        assert abs(got - want) < 1e-12


def test_phase_damping_before_measurement_is_invisible():
    # diagonal Kraus operators commute with the computational-basis
    # measurement, so damping inserted right before it changes nothing
    got = noise_sweep(
        P4, "phase_damping", (0.3,), insertion="pre_measure", metric="conditional"
    ).fidelities[0]
    assert abs(got - 1.0) < 1e-12


def test_amplitude_damping_is_monotone_and_analytic_free():
    grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    values = [noise_sweep(P4, "amplitude_damping", (p,)).fidelities[0] for p in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# -- budget guards ---------------------------------------------------------------


def test_qubit_budget_guard():
    # each conditional sum costs 2^|V| terms, so both check the vertex
    # count; strict reads its noiseless factor off the sign conditions
    path13 = parse_edge_list("".join(f"v{i} v{i + 1}\n" for i in range(12)))
    strict = noise_sweep(path13, "depolarizing", (0.1,)).fidelities[0]
    assert abs(strict - f_star_dep(0.1, 24)) < 1e-12
    for insertion in INSERTION_POINTS:
        with pytest.raises(ResourceError, match="13 vertices"):
            noise_sweep(
                path13, "amplitude_damping", (0.1,), insertion=insertion, metric="conditional"
            )


def test_vertex_budget_counts_vertices(monkeypatch):
    house = catalog_lookup("house")
    monkeypatch.setattr(noise, "DEFAULT_VERTEX_BUDGET", 4)
    with pytest.raises(ResourceError, match="5 vertices"):
        noise_sweep(house, "phase_damping", (0.1,), metric="conditional")
    monkeypatch.setattr(noise, "DEFAULT_VERTEX_BUDGET", 5)
    pd = noise_sweep(house, "phase_damping", (0.1,), metric="conditional").fidelities[0]
    assert pd < 1.0


@pytest.mark.parametrize(
    "graph", (grid(1, 13), grid(10, 10)), ids=("path13", "grid10x10")
)
def test_strict_has_no_vertex_budget(graph):
    # 100 vertices and 180 edges: far past the conditional budget, but one
    # symbolic run and one elimination
    k = 2 * graph.n_edges
    for p in (0.0, 0.05, 0.3):
        dep = noise_sweep(graph, "depolarizing", (p,)).fidelities[0]
        pd = noise_sweep(graph, "phase_damping", (p,)).fidelities[0]
        assert dep == pytest.approx(f_star_dep(p, k), rel=1e-12, abs=0.0)
        assert pd == pytest.approx(f_star_pd(p, k), rel=1e-12, abs=0.0)


def _retention(kind, p):
    return math.fsum(abs(op[0][0] + op[1][1]) ** 2 / 4.0 for op in noise._kraus_lists(kind, p))


def _applicable_kinds(graph):
    kinds = []
    for kind in CORRECTION_KINDS:
        try:
            correction_forms(graph, kind)
        except ValueError:
            continue
        kinds.append(kind)
    return kinds


def _assert_strict_reads_the_noiseless_sum(graph, kind):
    k = 2 * graph.n_edges
    # the noiseless sum: depolarizing at p = 0 just before measurement
    clean = noise_sweep(graph, "depolarizing", (0.0,), kind, "pre_measure", "conditional")
    noiseless = clean.fidelities[0]
    for channel in CHANNEL_KINDS:
        want = _retention(channel, 0.3) ** k * noiseless
        for insertion in INSERTION_POINTS:
            assert noise_sweep(graph, channel, (0.3,), kind, insertion).fidelities[0] == want
    return noiseless


def test_strict_equals_the_noiseless_sum_on_the_catalog():
    # the pass fraction of the sign conditions is the noiseless
    # Heisenberg sum, bit for bit, under every plan that applies
    for name in catalog_names():
        graph = catalog_lookup(name)
        for kind in _applicable_kinds(graph):
            assert _assert_strict_reads_the_noiseless_sum(graph, kind) == 1.0


def test_strict_equals_the_noiseless_sum_on_broken_plans(monkeypatch):
    # seeded random (x, z) forms: most plans fail on some outcomes, and
    # strict must follow the noiseless sum down
    rng = random.Random(20260)
    graphs = [catalog_lookup(name) for name in ("P4", "C4", "K1_3", "diamond", "house")]
    current = {}
    valid_forms, real_signs = protocol.correction_forms, protocol._data_sign_forms

    def random_forms(graph, kind):
        return current[graph]

    monkeypatch.setattr(protocol, "correction_forms", random_forms)
    seen = set()
    for _ in range(40):
        graph = rng.choice(graphs)
        bits = 2 * graph.n_edges
        current[graph] = tuple(
            (rng.getrandbits(bits), rng.getrandbits(bits)) for _ in graph.vertices
        )
        seen.add(_assert_strict_reads_the_noiseless_sum(graph, "universal"))
    assert len(seen) > 2
    # one K_v negated under the valid plan: no outcome reaches |G>, and
    # both the sign conditions and the noiseless sum must read 0
    for graph in graphs:
        current[graph] = valid_forms(graph, "universal")
        negated = rng.randrange(graph.n_vertices)

        def negating(graph, negated=negated):
            forms = list(real_signs(graph))
            forms[negated] ^= 1  # the constant bit of K_v's sign form
            return tuple(forms)

        monkeypatch.setattr(protocol, "_data_sign_forms", negating)
        assert _assert_strict_reads_the_noiseless_sum(graph, "universal") == 0.0


# -- noise engines against dense Kraus branches ----------------------------------


def _dense_channels(graph):
    # dense depolarizing costs 4^(2|E|) branches, so it stops at three edges
    if graph.n_edges <= 3:
        return CHANNEL_KINDS
    return ("phase_damping", "amplitude_damping")


def _engine_vs_dense_cases():
    # every distinct catalog graph the dense engine reaches
    cases = []
    seen = []
    for name in catalog_names():
        graph = catalog_lookup(name)
        if graph in seen or graph.n_vertices + 2 * graph.n_edges > 12:
            continue
        seen.append(graph)
        for kind in _applicable_kinds(graph):
            for channel in _dense_channels(graph):
                for insertion in INSERTION_POINTS:
                    cases.append((name, kind, channel, insertion))
    return cases


def _assert_engines_match_dense(graph, kind, channel, p, insertion):
    # conditional is the Heisenberg sum; strict is the per-qubit
    # retention times the same sum with no channel
    ops = kraus_ops(channel, p)
    dense = branch_fidelity(graph, ops, kind, insertion)
    point = (graph, channel, (p,), kind, insertion)
    got = noise_sweep(*point, metric="conditional").fidelities[0]
    assert abs(got - dense) < 1e-12
    retention = sum(abs(np.trace(op)) ** 2 for op in ops) / 4.0
    noiseless = branch_fidelity(graph, (np.eye(2),), kind, insertion)
    strict = noise_sweep(*point, metric="strict").fidelities[0]
    assert abs(strict - retention ** (2 * graph.n_edges) * noiseless) < 1e-12
    return got, strict


@pytest.mark.parametrize("name,kind,channel,insertion", _engine_vs_dense_cases())
def test_frame_engine_matches_dense_branches(name, kind, channel, insertion):
    # the name predates the single Heisenberg engine and is kept so the
    # case IDs stay stable; every case checks both metrics
    _assert_engines_match_dense(catalog_lookup(name), kind, channel, 0.3, insertion)


@pytest.mark.parametrize("name", ("P4", "C4", "K1_3"))
def test_noise_engines_apply_the_plan(monkeypatch, name):
    # with every correction dropped, every channel at both insertion
    # points must follow the dense reference down instead of assuming a
    # valid plan
    graph = catalog_lookup(name)

    def identity_forms(graph, kind):
        return ((0, 0),) * graph.n_vertices

    monkeypatch.setattr(protocol, "correction_forms", identity_forms)
    for kind in _dense_channels(graph):
        for insertion in INSERTION_POINTS:
            cond, strict = _assert_engines_match_dense(graph, "universal", kind, 0.3, insertion)
            assert cond < 0.5 and strict < 0.5
    for insertion in INSERTION_POINTS:
        for metric in METRICS:
            clean = noise_sweep(graph, "depolarizing", (0.0,), insertion=insertion, metric=metric)
            got = clean.fidelities[0]
            assert got == 2.0**-graph.n_vertices
    # Z on every outcome bit at every vertex flips more resource bits than
    # any sign form reads, so pre-measure amplitude damping reaches the
    # part a of E^dagger(Z) = a + b Z that no valid or empty plan reads;
    # a is 0 for the two Pauli-diagonal channels
    every_bit = (1 << 2 * graph.n_edges) - 1

    def every_z_forms(graph, kind):
        return ((0, every_bit),) * graph.n_vertices

    monkeypatch.setattr(protocol, "correction_forms", every_z_forms)
    for insertion in INSERTION_POINTS:
        _assert_engines_match_dense(graph, "universal", "amplitude_damping", 0.3, insertion)


@settings(max_examples=20, deadline=None)
@given(
    small_connected_graphs(max_qubits=12),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.sampled_from(INSERTION_POINTS),
    st.data(),
)
def test_noise_engines_match_dense_on_random_graphs(graph, p, insertion, data):
    assert graph.n_vertices + 2 * graph.n_edges <= 12
    kind = data.draw(st.sampled_from(_dense_channels(graph)))
    _assert_engines_match_dense(graph, "universal", kind, p, insertion)


# -- calibration helpers ----------------------------------------------------------


def test_t1_damping_estimate():
    assert abs(t1_damping_estimate(3.5, 196.0) - 0.017701) < 1e-4
    assert t1_damping_estimate(0.0, 50.0) == 0.0
    assert abs(t1_damping_estimate(7.0, 7.0) - (1.0 - math.exp(-1.0))) < 1e-12
    with pytest.raises(ValueError, match="negative"):
        t1_damping_estimate(-1.0, 50.0)
    with pytest.raises(ValueError, match="positive"):
        t1_damping_estimate(1.0, 0.0)
    # NaN fails both checks, which name it
    with pytest.raises(ValueError, match="duration must be non-negative, got nan$"):
        t1_damping_estimate(math.nan, 1.0)
    with pytest.raises(ValueError, match="T1 must be positive, got nan$"):
        t1_damping_estimate(1.0, math.nan)


def test_bhattacharyya_fidelity():
    ideal4 = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
    assert abs(bhattacharyya_fidelity({"00": 1, "11": 1}, ideal4) - 0.5) < 1e-15
    assert (
        abs(
            bhattacharyya_fidelity(
                {"00": 500, "11": 500}, {"00": 0.5, "11": 0.5}
            )
            - 1.0
        )
        < 1e-15
    )
    assert bhattacharyya_fidelity({"01": 7}, {"00": 1.0}) == 0.0
    squared = bhattacharyya_fidelity({"00": 3, "11": 1}, {"00": 0.5, "11": 0.5})
    rooted = bhattacharyya_fidelity(
        {"00": 3, "11": 1}, {"00": 0.5, "11": 0.5}, squared=False
    )
    assert abs(rooted - math.sqrt(squared)) < 1e-15
    # scaling all counts by a constant changes nothing
    a = bhattacharyya_fidelity({"00": 3, "11": 1}, ideal4)
    b = bhattacharyya_fidelity({"00": 300, "11": 100}, ideal4)
    assert abs(a - b) < 1e-15
    # a zero count is an outcome never seen: accepted, and the same as no key
    assert bhattacharyya_fidelity({"00": 3, "01": 0, "11": 1}, ideal4) == a
    # and a zero ideal probability is an outcome the state never gives
    assert bhattacharyya_fidelity({"00": 3, "01": 1}, {"00": 1.0, "01": 0.0}) == (
        bhattacharyya_fidelity({"00": 3, "01": 1}, {"00": 1.0})
    )


def test_bhattacharyya_validation():
    with pytest.raises(ValueError, match="empty"):
        bhattacharyya_fidelity({}, {"00": 1.0})
    with pytest.raises(ValueError, match="negative"):
        bhattacharyya_fidelity({"00": -1}, {"00": 1.0})
    with pytest.raises(ValueError, match="expected 1"):
        bhattacharyya_fidelity({"00": 1}, {"00": 0.7})
    # NaN and infinities are refused by name, not returned or summed
    for counts, ideal, message in (
        ({"00": 1}, {"00": math.nan}, "ideal probability for '00' must be finite, got nan"),
        ({"00": math.nan}, {"00": 1.0}, "count for '00' must be finite, got nan"),
        ({"00": math.inf}, {"00": 1.0}, "count for '00' must be finite, got inf"),
        ({"00": 1}, {"00": math.inf, "11": -math.inf}, "got inf"),
        ({"00": 1}, {"00": -math.inf, "11": math.inf}, "got -inf"),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            bhattacharyya_fidelity(counts, ideal)


# -- noise sweeps -----------------------------------------------------------------


def test_noise_sweep_depolarizing_against_closed_form():
    report = noise_sweep(P4, "dep", (0.0, 0.1))
    assert report.k == 6
    assert report.fidelities[0] == pytest.approx(1.0, abs=1e-12)
    assert report.fidelities[1] == pytest.approx(f_star_dep(0.1, 6), abs=1e-10)
    assert report.analytic[1] == pytest.approx(0.925**6, abs=1e-12)


def test_noise_sweep_amplitude_damping_has_no_overlay():
    report = noise_sweep(P4, "ad", (0.0, 0.2, 0.4))
    assert report.analytic is None
    fids = report.fidelities
    assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))
    pd = noise_sweep(P4, "pd", (0.0, 0.2, 0.4)).fidelities
    assert all(x <= y + 1e-12 for x, y in zip(fids, pd))


@pytest.mark.parametrize(
    "channel_kind,grid,options,match",
    [
        ("bogus", (), {}, "unknown channel kind"),
        ("dep", (), {"insertion": "nowhere"}, "unknown insertion point"),
        ("dep", (), {"insertion": "nowhere", "metric": "nonsense"}, "unknown insertion point"),
        ("dep", (), {"metric": "nonsense"}, "unknown metric"),
        ("dep", (), {"correction_kind": "bogus"}, "unknown correction kind"),
        ("dep", (), {"correction_kind": "c4", "metric": "conditional"}, "specific to"),
        ("dep", (0.1, 0.2, 7.0), {"metric": "conditional"}, STRENGTH_REFUSAL.format(7.0)),
        ("ad", (0.1, -0.1), {}, STRENGTH_REFUSAL.format(-0.1)),
        ("pd", (math.nan,), {"metric": "conditional"}, STRENGTH_REFUSAL.format(math.nan)),
    ],
    ids=("kind", "insertion", "insertion-and-metric", "metric", "correction",
         "inapplicable-correction", "strength", "negative-strength", "nan-strength"),
)
def test_noise_sweep_checks_every_argument_before_any_point(
    monkeypatch, channel_kind, grid, options, match
):
    # an empty grid is checked too, and a bad strength anywhere in the
    # grid stops the sweep before its first point
    def refuse(kind, p):
        raise AssertionError(f"a point was computed at {kind} {p}")

    monkeypatch.setattr(noise, "_kraus_lists", refuse)
    with pytest.raises(ValueError, match=re.escape(match)):
        noise_sweep(P4, channel_kind, grid, **options)


@pytest.mark.parametrize(
    "name,kind",
    [
        (name, kind)
        for name in catalog_names()
        if catalog_lookup(name).n_vertices <= noise.DEFAULT_VERTEX_BUDGET
        for kind in _applicable_kinds(catalog_lookup(name))
    ],
)
def test_a_sweep_equals_its_points(name, kind):
    # bit for bit: nothing read at one p may carry over to the next
    graph = catalog_lookup(name)
    grid = (0.0, 0.3, 1.0)
    for channel in CHANNEL_KINDS:
        for insertion in INSERTION_POINTS:
            for metric in METRICS:
                swept = noise_sweep(graph, channel, grid, kind, insertion, metric).fidelities
                points = tuple(
                    noise_sweep(graph, channel, (p,), kind, insertion, metric).fidelities[0]
                    for p in grid
                )
                assert swept == points, (channel, insertion, metric)


# SHA-256 of repr(report.fidelities) over every catalog sweep at
# p = 0, 0.1, ..., 1: each name, each plan that applies, each channel,
# insertion and metric, in the order of the loops below.  Only a change
# meant to move a number (exact evaluation, ROADMAP item 9) re-pins it,
# and records the old and the new values in CHANGES.md.
CATALOG_NOISE_SHA256 = "3b02d96025aa1eb5ab1328cc53adac2b2d0e7d374bb3d74b441a91dad0a97aeb"


def test_every_catalog_noise_value_keeps_its_bits():
    grid = [i / 10 for i in range(11)]
    digest, count = hashlib.sha256(), 0
    for name in catalog_names():
        graph = catalog_lookup(name)
        for kind in ("universal", "tree", "l4", "c4"):
            try:
                correction_forms(graph, kind)
            except ValueError:
                continue
            for channel in ("dep", "pd", "ad"):
                for insertion in ("post_prep", "pre_measure"):
                    for metric in ("conditional", "strict"):
                        report = noise_sweep(graph, channel, grid, kind, insertion, metric)
                        digest.update(repr(report.fidelities).encode())
                        count += len(report.fidelities)
    assert count == 4488
    assert digest.hexdigest() == CATALOG_NOISE_SHA256


@pytest.mark.parametrize(
    "insertion,metric,builders",
    [
        ("post_prep", "strict", ("_sign_conditions", "_data_sign_forms")),
        ("pre_measure", "conditional", ("_data_sign_forms",)),
        ("post_prep", "conditional", ("_heisenberg_generators",)),
    ],
    ids=(
        "post_prep-strict-_sign_conditions",
        "pre_measure-conditional-_data_sign_forms",
        "post_prep-conditional-_heisenberg_generators",
    ),
)
def test_a_sweep_builds_its_code_once(monkeypatch, insertion, metric, builders):
    # no p changes the code, so an 11-point sweep builds it once; strict
    # reads its conditions through verify_all_outcomes, whose conditions
    # read the sign forms once
    calls = collections.Counter()
    for module, name in (
        (verify, "_sign_conditions"),
        (protocol, "_data_sign_forms"),
        (protocol, "_heisenberg_generators"),
    ):

        def counted(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    grid = [p / 10 for p in range(11)]
    noise_sweep(catalog_lookup("C4"), "ad", grid, insertion=insertion, metric=metric)
    assert calls == dict.fromkeys(builders, 1)


def test_pre_measure_checks_the_plan_before_reading_signs(monkeypatch):
    # a plan that does not apply is refused before either insertion point
    # runs the circuit back: pre-measure through the sign-form reader,
    # post-prep through the code's generators
    reads = collections.Counter()
    for name in ("_data_sign_forms", "_heisenberg_generators"):

        def counted(*args, name=name, real=getattr(protocol, name)):
            reads[name] += 1
            return real(*args)

        monkeypatch.setattr(protocol, name, counted)
    for insertion in ("pre_measure", "post_prep"):
        with pytest.raises(ValueError, match="tree correction requires a tree"):
            noise_sweep(catalog_lookup("K4"), "ad", (0.1,), "tree", insertion, "conditional")
    assert reads == {}


# -- report container ---------------------------------------------------------------


def test_noise_report_validation():
    NoiseReport((0.0, 0.1), (1.0, 0.9), (1.0, 0.925), 1)
    with pytest.raises(ValueError, match="length"):
        NoiseReport((0.0, 0.1), (1.0,), (1.0, 0.925), 1)
    with pytest.raises(ValueError, match="fidelit"):
        NoiseReport((0.0,), (1.5,), (1.0,), 1)
    # NaN fails the range check, in either column
    with pytest.raises(ValueError, match=r"fidelities must lie in \[0, 1\], got nan$"):
        NoiseReport((0.1,), (math.nan,), None, 2)
    with pytest.raises(ValueError, match=r"analytic overlay must lie in \[0, 1\], got nan$"):
        NoiseReport((0.1,), (0.9,), (math.nan,), 2)
    # the range allows 1e-12 of float slack at each end, and no more
    for f in (-1e-12, 1.0 + 1e-12):
        NoiseReport((0.1,), (f,), (f,), 2)
    for f in (-2e-12, 1.0 + 2e-12):
        with pytest.raises(ValueError, match=r"fidelities must lie in \[0, 1\]"):
            NoiseReport((0.1,), (f,), None, 2)
