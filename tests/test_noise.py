"""Noise channels, the two fidelity metrics, and the calibration helpers.

The frozen oracle values for the conditional metric were computed once
with an independent density-matrix enumeration and pasted in; the strict
metric is checked against its closed forms directly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import branch_fidelity, small_connected_graphs
from pqw import noise, protocol
from pqw.graphs import Graph, catalog_lookup, catalog_names, parse_edge_list
from pqw.noise import (
    CHANNEL_KINDS,
    INSERTION_POINTS,
    METRICS,
    NoiseChannel,
    NoiseReport,
    ResourceError,
    bhattacharyya_fidelity,
    extract_p_eff,
    f_star_dep,
    f_star_pd,
    kraus_ops,
    noisy_protocol_fidelity,
    parse_channel,
    t1_damping_estimate,
)
from pqw.protocol import CORRECTION_KINDS, correction_forms

P4 = catalog_lookup("P4")
K2 = Graph(("A", "B"), (("A", "B"),))

P_POINTS = (0.0, 0.05, 0.1, 0.3, 0.5)


# -- channels -----------------------------------------------------------------


@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("p", (0.0, 0.1, 0.37, 1.0))
def test_kraus_completeness(kind, p):
    total = np.zeros((2, 2), dtype=complex)
    for op in kraus_ops(NoiseChannel(kind, p)):
        total += op.conj().T @ op
    assert np.allclose(total, np.eye(2), atol=1e-14)


def test_noiseless_channel_is_identity_only():
    for kind in CHANNEL_KINDS:
        ops = kraus_ops(NoiseChannel(kind, 0.0))
        nontrivial = [op for op in ops if not np.allclose(op, np.eye(2))]
        assert all(np.allclose(op, 0) for op in nontrivial)


def test_channel_validation():
    with pytest.raises(ValueError, match="lie in"):
        NoiseChannel("depolarizing", -0.1)
    with pytest.raises(ValueError, match="lie in"):
        NoiseChannel("depolarizing", 1.5)
    with pytest.raises(ValueError, match="unknown channel"):
        NoiseChannel("bitflip", 0.1)
    with pytest.raises(ValueError, match="unknown channel"):
        parse_channel("bogus", 0.1)


def test_channel_aliases():
    assert parse_channel("dep", 0.2) == NoiseChannel("depolarizing", 0.2)
    assert parse_channel("pd", 0.2) == NoiseChannel("phase_damping", 0.2)
    assert parse_channel("ad", 0.2) == NoiseChannel("amplitude_damping", 0.2)
    assert parse_channel("phase_damping", 0.2).kind == "phase_damping"


def test_phase_damping_equals_phase_flip_channel():
    # same Choi matrix as flipping Z with probability (1 - sqrt(1-p))/2
    for p in (0.0, 0.15, 0.6, 1.0):
        q = (1.0 - math.sqrt(1.0 - p)) / 2.0
        z = np.diag([1.0, -1.0])
        flip_ops = [math.sqrt(1.0 - q) * np.eye(2), math.sqrt(q) * z]
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)

        def choi(ops):
            acc = np.zeros((4, 4), dtype=complex)
            for op in ops:
                v = np.kron(op, np.eye(2)) @ bell
                acc += np.outer(v, v.conj())
            return acc

        assert np.allclose(
            choi(kraus_ops(NoiseChannel("phase_damping", p))),
            choi(flip_ops),
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
    for fn in (f_star_dep, f_star_pd):
        with pytest.raises(ValueError, match="lie in"):
            fn(-0.01, 3)
        with pytest.raises(ValueError, match="lie in"):
            fn(1.01, 3)
        with pytest.raises(ValueError, match="non-negative"):
            fn(0.1, -1)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    st.integers(min_value=1, max_value=8),
)
def test_p_eff_inverts_the_depolarizing_form(p, k):
    assert abs(extract_p_eff(f_star_dep(p, k), k) - p) < 1e-12


def test_p_eff_validation():
    with pytest.raises(ValueError, match="positive"):
        extract_p_eff(0.0, 6)
    with pytest.raises(ValueError, match="positive"):
        extract_p_eff(-0.3, 6)
    with pytest.raises(ValueError, match="at least 1"):
        extract_p_eff(0.9, 0)


# -- exact fidelities, strict metric -------------------------------------------


@pytest.mark.parametrize("p", P_POINTS)
def test_strict_metric_matches_depolarizing_form(p):
    channel = NoiseChannel("depolarizing", p)
    got = noisy_protocol_fidelity(P4, channel, metric="strict")
    assert abs(got - f_star_dep(p, 6)) < 1e-10


@pytest.mark.parametrize("p", P_POINTS)
def test_strict_metric_matches_phase_damping_form(p):
    channel = NoiseChannel("phase_damping", p)
    got = noisy_protocol_fidelity(P4, channel, metric="strict")
    assert abs(got - f_star_pd(p, 6)) < 1e-10


def test_strict_metric_ignores_insertion_point():
    for kind in CHANNEL_KINDS:
        channel = NoiseChannel(kind, 0.23)
        a = noisy_protocol_fidelity(P4, channel, insertion="post_prep")
        b = noisy_protocol_fidelity(P4, channel, insertion="pre_measure")
        assert abs(a - b) < 1e-14


def test_strict_channel_ordering():
    # retention per noisy qubit: phase damping >= amplitude damping
    # >= depolarizing, strictly between the endpoints
    for p in np.arange(0.02, 1.0, 0.02):
        dep = noisy_protocol_fidelity(P4, NoiseChannel("depolarizing", p))
        pd = noisy_protocol_fidelity(P4, NoiseChannel("phase_damping", p))
        ad = noisy_protocol_fidelity(P4, NoiseChannel("amplitude_damping", p))
        assert pd > ad > dep or p == 1.0


def test_amplitude_damping_strict_form():
    # |tr K0 / 2|^2 with tr K1 = 0 gives the squared phase-damping factor
    for p in (0.1, 0.4, 0.8):
        got = noisy_protocol_fidelity(P4, NoiseChannel("amplitude_damping", p))
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
    got = noisy_protocol_fidelity(P4, NoiseChannel(kind, p), metric="conditional")
    assert abs(got - want) < 1e-9


def test_conditional_dominates_strict():
    # discarded branches can still overlap the corrected target, so the
    # conditional average sits at or above the strict lower bound
    for kind in CHANNEL_KINDS:
        for p in (0.0, 0.1, 0.3):
            channel = NoiseChannel(kind, p)
            strict = noisy_protocol_fidelity(P4, channel, metric="strict")
            cond = noisy_protocol_fidelity(P4, channel, metric="conditional")
            assert cond >= strict - 1e-12
            if p == 0.0:
                assert abs(cond - strict) < 1e-12


def test_single_edge_conditional_depolarizing_analytic():
    # one edge, two noisy qubits: the pair errors XZ, ZX and YY land
    # back in the shared state, so the branch sum is (1-3p/4)^2 + 3(p/4)^2
    for p in (0.1, 0.3):
        got = noisy_protocol_fidelity(
            K2, NoiseChannel("depolarizing", p), metric="conditional"
        )
        want = (1.0 - 0.75 * p) ** 2 + 3.0 * (p / 4.0) ** 2
        assert abs(got - want) < 1e-12


def test_single_edge_conditional_phase_damping_analytic():
    # the surviving cross terms cancel for diagonal damping on one edge
    for p in (0.1, 0.3):
        got = noisy_protocol_fidelity(
            K2, NoiseChannel("phase_damping", p), metric="conditional"
        )
        want = f_star_pd(p, 2)
        assert abs(got - want) < 1e-12


def test_phase_damping_before_measurement_is_invisible():
    # diagonal Kraus operators commute with the computational-basis
    # measurement, so damping inserted right before it changes nothing
    got = noisy_protocol_fidelity(
        P4,
        NoiseChannel("phase_damping", 0.3),
        insertion="pre_measure",
        metric="conditional",
    )
    assert abs(got - 1.0) < 1e-12


def test_amplitude_damping_is_monotone_and_analytic_free():
    grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    values = [
        noisy_protocol_fidelity(P4, NoiseChannel("amplitude_damping", p))
        for p in grid
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# -- budget guards ---------------------------------------------------------------


def test_qubit_budget_guard():
    # the one sum costs 2^|V| terms, so every path checks the vertex count
    path13 = parse_edge_list("".join(f"v{i} v{i + 1}\n" for i in range(12)))
    for kind, insertion, metric in (
        ("depolarizing", "post_prep", "strict"),
        ("amplitude_damping", "post_prep", "conditional"),
        ("amplitude_damping", "pre_measure", "conditional"),
    ):
        with pytest.raises(ResourceError, match="13 vertices"):
            noisy_protocol_fidelity(
                path13, NoiseChannel(kind, 0.1), insertion=insertion, metric=metric
            )


def test_frame_budget_counts_vertices():
    house = catalog_lookup("house")
    pd = NoiseChannel("phase_damping", 0.1)
    with pytest.raises(ResourceError, match="5 vertices"):
        noisy_protocol_fidelity(house, pd, metric="conditional", max_qubits=4)
    assert noisy_protocol_fidelity(house, pd, metric="conditional", max_qubits=5) < 1.0


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
        for kind in CORRECTION_KINDS:
            try:
                correction_forms(graph, kind)
            except ValueError:
                continue
            for channel in _dense_channels(graph):
                for insertion in INSERTION_POINTS:
                    cases.append((name, kind, channel, insertion))
    return cases


def _assert_engines_match_dense(graph, kind, channel, insertion):
    # conditional is the Heisenberg sum; strict is the per-qubit
    # retention times the same sum with no channel
    ops = kraus_ops(channel)
    dense = branch_fidelity(graph, ops, kind, insertion)
    got = noisy_protocol_fidelity(graph, channel, kind, insertion, metric="conditional")
    assert abs(got - dense) < 1e-12
    retention = sum(abs(np.trace(op)) ** 2 for op in ops) / 4.0
    noiseless = branch_fidelity(graph, (np.eye(2),), kind, insertion)
    strict = noisy_protocol_fidelity(graph, channel, kind, insertion, metric="strict")
    assert abs(strict - retention ** (2 * graph.n_edges) * noiseless) < 1e-12
    return got, strict


@pytest.mark.parametrize("name,kind,channel,insertion", _engine_vs_dense_cases())
def test_frame_engine_matches_dense_branches(name, kind, channel, insertion):
    # the name predates the single Heisenberg engine and is kept so the
    # case IDs stay stable; every case checks both metrics
    _assert_engines_match_dense(
        catalog_lookup(name), kind, NoiseChannel(channel, 0.3), insertion
    )


@pytest.mark.parametrize("name", ("P4", "C4", "K1_3"))
def test_noise_engines_apply_the_plan(monkeypatch, name):
    # with every correction dropped, every channel at both insertion
    # points must follow the dense reference down instead of assuming a
    # valid plan
    graph = catalog_lookup(name)

    def identity_forms(graph, kind):
        return ((0, 0),) * graph.n_vertices

    monkeypatch.setattr(protocol, "correction_forms", identity_forms)
    monkeypatch.setattr(noise, "correction_forms", identity_forms)
    noise._heisenberg_generators.cache_clear()
    try:
        for kind in _dense_channels(graph):
            for insertion in INSERTION_POINTS:
                channel = NoiseChannel(kind, 0.3)
                cond, strict = _assert_engines_match_dense(
                    graph, "universal", channel, insertion
                )
                assert cond < 0.5 and strict < 0.5
        for insertion in INSERTION_POINTS:
            clean = NoiseChannel("depolarizing", 0.0)
            for metric in METRICS:
                got = noisy_protocol_fidelity(
                    graph, clean, insertion=insertion, metric=metric
                )
                assert got == 2.0**-graph.n_vertices
    finally:
        noise._heisenberg_generators.cache_clear()


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
    _assert_engines_match_dense(graph, "universal", NoiseChannel(kind, p), insertion)


# -- calibration helpers ----------------------------------------------------------


def test_t1_damping_estimate():
    assert abs(t1_damping_estimate(3.5, 196.0) - 0.017701) < 1e-4
    assert t1_damping_estimate(0.0, 50.0) == 0.0
    assert abs(t1_damping_estimate(7.0, 7.0) - (1.0 - math.exp(-1.0))) < 1e-12
    with pytest.raises(ValueError, match="negative"):
        t1_damping_estimate(-1.0, 50.0)
    with pytest.raises(ValueError, match="positive"):
        t1_damping_estimate(1.0, 0.0)


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


def test_bhattacharyya_validation():
    with pytest.raises(ValueError, match="empty"):
        bhattacharyya_fidelity({}, {"00": 1.0})
    with pytest.raises(ValueError, match="negative"):
        bhattacharyya_fidelity({"00": -1}, {"00": 1.0})
    with pytest.raises(ValueError, match="expected 1"):
        bhattacharyya_fidelity({"00": 1}, {"00": 0.7})


# -- report container ---------------------------------------------------------------


def test_noise_report_validation():
    NoiseReport((0.0, 0.1), (1.0, 0.9), (1.0, 0.925), 1)
    with pytest.raises(ValueError, match="length"):
        NoiseReport((0.0, 0.1), (1.0,), (1.0, 0.925), 1)
    with pytest.raises(ValueError, match="fidelit"):
        NoiseReport((0.0,), (1.5,), (1.0,), 1)
