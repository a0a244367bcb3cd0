"""The protocol itself: qubit order and outcome indexing, the dense and
symbolic runs, the byproduct primitive, and every correction formula."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense as sv
from dense import (
    byproduct_step,
    check_stabilizes,
    corrected_fidelity,
    data_slab,
    graph_state,
    run_protocol,
)
from helpers import (
    engine_gates,
    grid,
    near_parity,
    near_side_mask,
    plan_from_maps,
    small_connected_graphs,
)
from pauli import (
    PauliString,
    conjugate_circuit,
    correction_plan,
    plans_equivalent,
    run_protocol_tableau,
    stabilizer_generators,
)
from pqw import protocol
from pqw.graphs import TABLE_ORDER, Graph, adjacency, catalog_lookup, catalog_names
from pqw.noise import noise_sweep
from pqw.protocol import (
    CORRECTION_KINDS,
    c4_correction,
    correction_forms,
    far_side_masks,
    l4_correction,
    tree_correction,
    prep_gates,
    universal_correction,
    walk_gates,
)
from pqw.verify import phase_lemma_check, verify_all_outcomes

P4 = catalog_lookup("P4")
C4 = catalog_lookup("C4")
K2 = Graph(("A", "B"), (("A", "B"),))

TREE_NAMES = ("P3", "P4", "P5", "K1_2", "K1_3", "K1_4", "spider", "fork")


# -- qubit order and outcome indexing ------------------------------------------


def test_layout_resource_register_is_the_outcome_index():
    # data qubits 0-3 in vertex order, then sequence bit m on qubit 9 - m:
    # s1 = AB@A on qubit 9 down to s6 = CD@D on qubit 4
    assert prep_gates(P4) == (("CZ", (9, 8)), ("CZ", (7, 6)), ("CZ", (5, 4)))
    assert walk_gates(P4) == (
        ("CZ", (0, 9)), ("CZ", (1, 8)), ("CZ", (1, 7)),
        ("CZ", (2, 6)), ("CZ", (2, 5)), ("CZ", (3, 4)),
        ("H", (4,)), ("H", (5,)), ("H", (6,)), ("H", (7,)), ("H", (8,)), ("H", (9,)),
    )


def test_walk_cz_of_each_endpoint_lands_on_its_outcome_bit():
    for name in TABLE_ORDER + ("K4",):
        graph = catalog_lookup(name)
        entanglers = walk_gates(graph)[: 2 * graph.n_edges]
        for j, edge in enumerate(graph.edges):
            for e, v in enumerate(edge):
                gate, (data, qubit) = entanglers[2 * j + e]
                assert (gate, data) == ("CZ", graph.vertices.index(v))
                bit = 1 << (qubit - graph.n_vertices)
                assert bit == protocol._outcome_bit(graph, 2 * j + e)


def test_outcome_index_is_big_endian_over_the_bit_sequence():
    # index 32 sets only s1 = AB@A, the far bit of B; index 3 sets only
    # s5 = CD@C and s6 = CD@D, the far bits of D and C
    assert correction_plan(P4, 32, "universal") == PauliString(4, 0, 0b0010)
    assert correction_plan(P4, 3, "universal") == PauliString(4, 0, 0b1100)


def test_index_out_of_range_is_refused():
    for graph in (P4, C4):
        for index in (-1, graph.outcome_count()):
            with pytest.raises(ValueError, match="out of range"):
                correction_plan(graph, index, "universal")
            with pytest.raises(ValueError, match="out of range"):
                run_protocol_tableau(graph, index)
            with pytest.raises(ValueError, match="out of range"):
                run_protocol(graph, index)
            with pytest.raises(ValueError, match="out of range"):
                data_slab(graph, index)


def _g(graph, index, v):
    return (far_side_masks(graph)[graph.vertices.index(v)] & index).bit_count() & 1


def test_near_far_parities():
    # bits: AB@A, AB@B, BC@B, BC@C, CD@C, CD@D, read as a big-endian index
    assert {v: near_side_mask(P4, v) for v in "ABCD"} == {
        "A": 0b100000,
        "B": 0b011000,
        "C": 0b000110,
        "D": 0b000001,
    }
    assert dict(zip(P4.vertices, far_side_masks(P4))) == {
        "A": 0b010000,
        "B": 0b100100,
        "C": 0b001001,
        "D": 0b000010,
    }
    outcome = 0b100000
    assert _g(P4, outcome, "A") == 0
    assert _g(P4, outcome, "B") == 1  # far side of AB at B is the bit at A
    assert near_parity(P4, outcome, "A") == 1
    assert near_parity(P4, outcome, "B") == 0
    mixed = 0b011001
    assert _g(P4, mixed, "B") == 0  # far bits at B: AB@A=0, BC@C=0
    assert _g(P4, mixed, "C") == 0  # far bits at C: BC@B=1, CD@D=1
    assert near_parity(P4, mixed, "C") == 0  # near bits at C: BC@C=0, CD@C=0
    assert near_parity(P4, mixed, "D") == 1


# -- dense protocol run -------------------------------------------------------


def test_all_zero_outcome_needs_no_correction():
    for name in ("P4", "C4", "K1_3", "K3"):
        graph = catalog_lookup(name)
        prob, data = run_protocol(graph, 0)
        assert sv.fidelity(data, graph_state(graph)) > 1.0 - 1e-12


def test_outcomes_are_uniform_on_p3():
    graph = catalog_lookup("P3")
    for index in range(graph.outcome_count()):
        prob, _ = run_protocol(graph, index)
        assert abs(prob - 1.0 / 16.0) < 1e-12


def test_the_cached_dense_walk_is_read_only():
    # data_slab is a view into the cached register, so a write through it
    # would change every later run of the graph
    graph = catalog_lookup("P3")
    with pytest.raises(ValueError):
        sv.data_slab(graph, 5)[:] *= 0.5
    assert run_protocol(graph, 5)[0] == pytest.approx(1 / 16, abs=1e-12)


def test_universal_correction_steers_every_p3_outcome():
    graph = catalog_lookup("P3")
    for index in range(graph.outcome_count()):
        plan = correction_plan(graph, index, "universal")
        assert plan.x_bits == 0  # Z-only
        assert corrected_fidelity(graph, index, plan) > 1.0 - 1e-12


# -- symbolic protocol run ----------------------------------------------------


def test_tableau_run_signs_match_far_parities():
    graph = catalog_lookup("P3")
    plain = stabilizer_generators(graph)
    for index in range(graph.outcome_count()):
        tableau = run_protocol_tableau(graph, index)
        for gen, k_v, v in zip(tableau, plain, graph.vertices):
            assert (gen.x_bits, gen.z_bits) == (k_v.x_bits, k_v.z_bits)
            assert gen.sign == (-1 if _g(graph, index, v) else 1)


def test_far_side_mask_is_g_as_a_form():
    # bit s_m of a graph with k resource bits is 1 << (k - m)
    masks = {
        "P4": {"A": 0b010000, "B": 0b100100, "C": 0b001001, "D": 0b000010},
        "C4": {"A": 0b01000010, "B": 0b10010000, "C": 0b00100100, "D": 0b00001001},
        "K1_3": {"A": 0b010101, "B": 0b100000, "C": 0b001000, "D": 0b000010},
        "K3": {"A": 0b010010, "B": 0b100100, "C": 0b001001},
    }
    for name, want in masks.items():
        graph = catalog_lookup(name)
        assert dict(zip(graph.vertices, far_side_masks(graph))) == want
    # C4 at s2 = s3 = s8 = 1: g_A = s2^s7, g_B = s1^s4, g_C = s3^s6, g_D = s5^s8
    assert [_g(C4, 0b01100001, v) for v in "ABCD"] == [1, 0, 1, 1]


def test_tableau_run_stabilizes_dense_state():
    # every outcome of every catalog graph with at most 256 outcomes:
    # the symbolic run evaluated there against the dense engine
    names = [
        name
        for name in TABLE_ORDER + ("K4",)
        if catalog_lookup(name).outcome_count() <= 256
    ]
    assert len(names) >= 8
    for name in names:
        graph = catalog_lookup(name)
        for index in range(graph.outcome_count()):
            _, data = run_protocol(graph, index)
            assert check_stabilizes(data, run_protocol_tableau(graph, index))


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(), st.data())
def test_symbolic_run_matches_dense_on_random_graphs(graph, data):
    assert graph.n_vertices + 2 * graph.n_edges <= 14
    assert phase_lemma_check(graph) is True
    index = data.draw(st.integers(min_value=0, max_value=graph.outcome_count() - 1))
    _, state = run_protocol(graph, index)
    assert check_stabilizes(state, run_protocol_tableau(graph, index))


@pytest.fixture
def altered_walk(monkeypatch):
    """Set the walk, and optionally the prep, that the dense and the
    symbolic engine both read, with no dense run of another circuit cached
    before or after; the symbolic engine keeps nothing between calls."""
    real_prep = protocol.prep_gates

    def alter(walk, prep=real_prep):
        for module in (protocol, sv):
            monkeypatch.setattr(module, "walk_gates", walk)
            monkeypatch.setattr(module, "prep_gates", prep)
        sv._premeasurement.cache_clear()

    yield alter
    sv._premeasurement.cache_clear()


def test_appended_x_negates_exactly_the_forms_that_hold_its_bit(altered_walk):
    # X on resource qubit nv + m after the walk flips bit m of the
    # outcome index, so K_v's sign form gains the constant 1 where sigma_v
    # holds that bit, and only there
    real = protocol.walk_gates
    far = far_side_masks(P4)
    for m in range(2 * P4.n_edges):
        altered_walk(lambda graph, r=P4.n_vertices + m: real(graph) + (("X", (r,)),))
        assert protocol._data_sign_forms(P4) == tuple(
            sigma << 1 | sigma >> m & 1 for sigma in far
        )
        assert not phase_lemma_check(P4)
        for index in range(P4.outcome_count()):
            _, data = run_protocol(P4, index)
            assert check_stabilizes(data, run_protocol_tableau(P4, index))


def test_a_pair_read_as_y_y_carries_its_minus_sign(altered_walk):
    # a CZ from A to B's half as well puts both bits of the pair in
    # sigma_A, and the pair's element of CZ|++> is then Y(x)Y, which is
    # -(XZ)(x)(XZ) in the X^x Z^z form: K_A's sign form is 0b11 << 1 | 1
    real = protocol.walk_gates
    b_half = protocol._resource_qubit(K2, 1)
    altered_walk(lambda graph: (("CZ", (0, b_half)),) + real(graph))
    assert protocol._data_sign_forms(K2) == (0b111, 0b100)
    for index in range(K2.outcome_count()):
        _, data = run_protocol(K2, index)
        assert check_stabilizes(data, run_protocol_tableau(K2, index))


def _assert_every_reader_refuses(graph, vertex):
    # each engine reads the sign forms through the one reader, so each
    # refuses with its message rather than guess
    readers = (
        verify_all_outcomes,
        phase_lemma_check,
        lambda graph: noise_sweep(graph, "dep", (0.1,), metric="strict"),
        lambda graph: noise_sweep(graph, "dep", (0.1,), "universal", "pre_measure", "conditional"),
        lambda graph: run_protocol_tableau(graph, 0),
    )
    for read in readers:
        with pytest.raises(AssertionError, match=f"^K_{vertex} is missing from the data group$"):
            read(graph)


def _assert_no_sign_fixes_the_data(graph, generators):
    for index in range(graph.outcome_count()):
        _, data = run_protocol(graph, index)
        for k_v in generators:
            for phase in (0, 2):
                signed = PauliString(graph.n_vertices, k_v.x_bits, k_v.z_bits, phase)
                assert not check_stabilizes(data, (signed,))


def test_symbolic_run_keeps_its_checks(altered_walk):
    # with the CZ between A and its half of AB dropped, K_A and K_B are
    # missing from the data group: the engines refuse rather than guess
    real, real_prep = protocol.walk_gates, protocol.prep_gates
    altered_walk(lambda graph: real(graph)[1:])
    _assert_every_reader_refuses(P4, "A")
    # with the CZ of pair AB dropped from the prep instead, the reader
    # follows prep_gates: no sign of K_A or K_B fixes the dense data state
    altered_walk(real, lambda graph: real_prep(graph)[1:])
    _assert_every_reader_refuses(P4, "A")
    _assert_no_sign_fixes_the_data(P4, stabilizer_generators(P4)[:2])
    # H on A's half before the walk: no sign of either K_v fixes the
    # dense data state at any outcome, and the reader refuses K_A
    a_half = protocol._resource_qubit(K2, 0)
    altered_walk(lambda graph: (("H", (a_half,)),) + real(graph))
    _assert_every_reader_refuses(K2, "A")
    _assert_no_sign_fixes_the_data(K2, stabilizer_generators(K2))


@pytest.mark.parametrize(
    "bad,message",
    [
        (("CZ", (0, 0)), "duplicate targets (0, 0)"),
        (("CZ", (0, 99)), "qubit 99 out of range"),
        (("Y", (0,)), "unknown gate 'Y'"),
        (("H", (0, 1)), "H takes 1 targets, got (0, 1)"),
    ],
    ids=("duplicate", "out-of-range", "unknown", "arity"),
)
def test_both_engines_refuse_a_bad_walk_alike(altered_walk, bad, message):
    # the dense run checks its gate lists by the symbolic engine's table
    real = protocol.walk_gates
    altered_walk(lambda graph: real(graph) + (bad,))
    for run in (verify_all_outcomes, lambda graph: run_protocol(graph, 0)):
        with pytest.raises(ValueError) as refused:
            run(catalog_lookup("P3"))
        assert str(refused.value) == message


def test_a_sign_form_read_off_any_walk_holds(altered_walk):
    # on a circuit other than prep_gates and walk_gates the reader may
    # refuse a K_v, but the forms it returns fix the dense data state at
    # every outcome; circuits are drawn until 9076 forms are checked
    rng = random.Random(2903)
    real, real_prep = protocol.walk_gates, protocol.prep_gates
    checks = reads = refusals = 0
    while checks < 9076:
        graph = rng.choice((K2, catalog_lookup("P3"), catalog_lookup("C3")))
        n_qubits = graph.n_vertices + 2 * graph.n_edges
        walk, prep = list(real(graph)), list(real_prep(graph))
        for _ in range(rng.randint(1, 3)):
            gates = rng.choice((walk, prep))
            if gates and rng.random() < 0.5:
                del gates[rng.randrange(len(gates))]
            else:
                gate = rng.choice(("H", "X", "Z", "CZ"))
                targets = rng.sample(range(n_qubits), 2 if gate == "CZ" else 1)
                gates.insert(rng.randint(0, len(gates)), (gate, tuple(targets)))
        altered_walk(lambda _, walk=tuple(walk): walk, lambda _, prep=tuple(prep): prep)
        try:
            forms = protocol._data_sign_forms(graph)
        except AssertionError as refusal:
            assert str(refusal) in {f"K_{v} is missing from the data group" for v in graph.vertices}
            refusals += 1
            continue
        reads += 1
        for index in range(graph.outcome_count()):
            try:
                _, data = run_protocol(graph, index)
            except sv.ZeroProbabilityError:
                continue
            for k_v, form in zip(stabilizer_generators(graph), forms):
                flips = (form & (index << 1 | 1)).bit_count()
                signed = PauliString(k_v.n_qubits, k_v.x_bits, k_v.z_bits, 2 * flips)
                assert check_stabilizes(data, (signed,)), (walk, index, k_v)
                checks += 1
    assert reads and refusals


def test_single_vertex_reads_one_plus_form():
    # no edge, no resource qubit and one outcome: K_A = X_A stays +1
    graph = Graph(("A",), ())
    assert protocol._data_sign_forms(graph) == (0,)
    assert run_protocol_tableau(graph, 0) == (PauliString(1, 1, 0),)
    assert verify_all_outcomes(graph).passed


def test_noise_code_equals_the_column_run(monkeypatch, altered_walk):
    # the engine runs the post-prep code back on columns and hands over
    # (x, z, odd) ints; they must equal the strings K_v (x) Z_R^{phi_v}
    # run back by conjugate_circuit, sign included, for every plan and
    # walk.  Each string comes back real, phase 0 or 2 mod 4, which is
    # what lets the engine carry its sign as one bit
    runs = 0

    def check(graph, kind="universal"):
        nonlocal runs
        nv, n = graph.n_vertices, graph.n_vertices + 2 * graph.n_edges
        phis = protocol._sign_forms(graph, kind)
        forms = zip(adjacency(graph), phis)
        seeds = [PauliString(n, 1 << v, row | phi << nv) for v, (row, phi) in enumerate(forms)]
        strings = conjugate_circuit(seeds, reversed(protocol.walk_gates(graph)))
        assert all(p.phase in (0, 2) for p in strings)
        assert protocol._heisenberg_generators(graph, phis) == tuple(
            (p.x_bits, p.z_bits, p.phase >> 1) for p in strings
        )
        runs += 1

    for graph in [catalog_lookup(name) for name in catalog_names()] + [Graph(("A",), ())]:
        for kind in CORRECTION_KINDS:
            try:
                correction_forms(graph, kind)
            except ValueError:
                continue
            check(graph, kind)
    # seeded random (x, z) forms: phi is no longer the far-side mask
    rng = random.Random(3201)
    graphs = [catalog_lookup(name) for name in ("P4", "C4", "K1_3", "diamond", "house")]
    current = {}
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "correction_forms", lambda graph, kind: current[graph])
        for _ in range(40):
            graph = rng.choice(graphs)
            bits = 2 * graph.n_edges
            current[graph] = tuple(
                (rng.getrandbits(bits), rng.getrandbits(bits)) for _ in graph.vertices
            )
            check(graph)
    # the altered walks: the noise code must read the walk pqw.protocol
    # holds at call time, not one bound at import
    real = protocol.walk_gates
    for m in range(2 * P4.n_edges):
        altered_walk(lambda graph, r=P4.n_vertices + m: real(graph) + (("X", (r,)),))
        check(P4)
    b_half, a_half = protocol._resource_qubit(K2, 1), protocol._resource_qubit(K2, 0)
    for walk, graph in (
        (lambda graph: (("CZ", (0, b_half)),) + real(graph), K2),
        (lambda graph: real(graph)[1:], P4),
        (lambda graph: (("H", (a_half,)),) + real(graph), K2),
    ):
        altered_walk(walk)
        check(graph)
    for _ in range(100):
        graph = rng.choice((K2, catalog_lookup("P3"), catalog_lookup("C3")))
        n_qubits = graph.n_vertices + 2 * graph.n_edges
        walk = list(real(graph))
        gate = rng.choice(("H", "X", "Z", "CZ"))
        targets = rng.sample(range(n_qubits), 2 if gate == "CZ" else 1)
        walk.insert(rng.randint(0, len(walk)), (gate, tuple(targets)))
        altered_walk(lambda _, walk=tuple(walk): walk)
        check(graph)
    assert runs > 160


# -- byproduct primitive ------------------------------------------------------


def test_byproduct_step_outcomes():
    bell = sv.from_amplitudes([1, 0, 0, 1], normalize=True)
    for s in (0, 1):
        prob, pair = byproduct_step(s)
        assert abs(prob - 0.5) <= 1e-12
        expected = sv.apply_gate(bell, "X", (0,)) if s else bell
        assert sv.fidelity(pair, expected) > 1.0 - 1e-12
    with pytest.raises(ValueError, match="bit"):
        byproduct_step(2)


# -- correction plans ---------------------------------------------------------


def test_pair_correction_matches_near_far_reading():
    # on a single edge the plan that works is X^near Z^far at each end;
    # the bits are AB@A (far at B) and AB@B (near at B)
    for index in range(K2.outcome_count()):
        plan = correction_plan(K2, index, "tree")
        far, near = index >> 1, index & 1
        explicit = plan_from_maps(K2, {"B": near}, {"B": far})
        assert plan == explicit
        assert corrected_fidelity(K2, index, plan) > 1.0 - 1e-12


# -- published four-vertex formulas --------------------------------------------


def test_l4_formula_exponents():
    # s1 = s2 = s4 = 1: B gets X^{s2}, C X^{s1 xor s4}, D X^{s2 xor s3 xor s6}
    # and Z^{s1 xor s4 xor s5}, so X on B and D
    plan = correction_plan(P4, 0b110100, "l4")
    assert plan == PauliString(4, 0b1010, 0)


def test_l4_passes_all_64_outcomes():
    for index in range(P4.outcome_count()):
        plan = correction_plan(P4, index, "l4")
        assert corrected_fidelity(P4, index, plan) > 1.0 - 1e-12


def test_l4_rejects_other_graphs():
    with pytest.raises(ValueError, match="P4"):
        l4_correction(C4)


def test_c4_passes_all_256_outcomes():
    for index in range(C4.outcome_count()):
        plan = correction_plan(C4, index, "c4")
        assert corrected_fidelity(C4, index, plan) > 1.0 - 1e-12


def test_c4_rejects_other_graphs():
    with pytest.raises(ValueError, match="C4"):
        c4_correction(P4)


# -- tree correction ------------------------------------------------------------


def test_tree_correction_matches_l4_formula_exactly():
    # the leaf-anchored propagation reproduces the published path plan
    # form for form, so bit for bit at every outcome, not just up to
    # stabilizer equivalence
    assert tree_correction(P4) == l4_correction(P4)


@pytest.mark.parametrize("name", TREE_NAMES)
def test_tree_correction_passes_exhaustively(name):
    graph = catalog_lookup(name)
    for index in range(graph.outcome_count()):
        plan = correction_plan(graph, index, "tree")
        assert corrected_fidelity(graph, index, plan) > 1.0 - 1e-12


def test_tree_correction_reference_is_untouched():
    # the reference is the first leaf by label: A on the path, B on the
    # star whose hub is A
    a = 1 << P4.vertices.index("A")
    for index in (5, 21, 40, 63):
        plan = correction_plan(P4, index, "tree")
        assert not (plan.x_bits | plan.z_bits) & a
        assert corrected_fidelity(P4, index, plan) > 1.0 - 1e-12
    star = catalog_lookup("K1_3")
    assert tree_correction(star)[star.vertices.index("B")] == (0, 0)
    # a one-vertex tree has no leaf, and its lone vertex is the reference
    lone = Graph(("A",), ())
    assert tree_correction(lone) == ((0, 0),)
    assert verify_all_outcomes(lone, "tree").passed


def test_tree_correction_interior_vertices_are_z_free():
    forms = dict(zip(P4.vertices, tree_correction(P4)))
    assert forms["B"][1] == 0 and forms["C"][1] == 0


def test_tree_correction_validation():
    with pytest.raises(ValueError, match="requires a tree"):
        tree_correction(C4)


def test_verbatim_parity_reading_fails_on_the_path():
    # assigning X^{near parity} Z^{far parity} at every non-reference
    # vertex looks plausible and is wrong: it breaks the parity
    # condition on some outcomes, where the delivered state is
    # orthogonal to the target
    worst = 1.0
    for index in range(P4.outcome_count()):
        literal = plan_from_maps(
            P4,
            {v: near_parity(P4, index, v) for v in "BCD"},
            {v: _g(P4, index, v) for v in "BCD"},
        )
        worst = min(worst, corrected_fidelity(P4, index, literal))
    assert worst < 1e-12


# -- plan equivalence -----------------------------------------------------------


def test_plans_differing_by_a_stabilizer_are_equivalent():
    identity = plan_from_maps(P4, {}, {})
    # X_A Z_B is a stabilizer generator of the path state
    shifted = plan_from_maps(P4, {"A": 1}, {"B": 1})
    assert plans_equivalent(identity, shifted, P4)


def test_lone_x_is_not_equivalent_to_identity():
    identity = plan_from_maps(P4, {}, {})
    lone = plan_from_maps(P4, {"B": 1}, {})
    assert not plans_equivalent(identity, lone, P4)
    # i times a plan steers every outcome to the same state up to a
    # global phase
    assert plans_equivalent(PauliString(4, 0, 0, 1), identity, P4)
    assert plans_equivalent(PauliString(4, 0b0010, 0, 3), lone, P4)
    assert not plans_equivalent(PauliString(4, 0b0010, 0, 1), identity, P4)


def test_topology_plans_equivalent_to_universal():
    for index in range(P4.outcome_count()):
        assert plans_equivalent(
            correction_plan(P4, index, "l4"),
            correction_plan(P4, index, "universal"),
            P4,
        )
    for index in (0, 100, 200, 255):
        assert plans_equivalent(
            correction_plan(C4, index, "c4"),
            correction_plan(C4, index, "universal"),
            C4,
        )


def test_plans_equivalent_rejects_foreign_plans():
    # a plan is over the graph when it acts on one qubit per vertex
    ours, foreign = plan_from_maps(P4, {}, {}), plan_from_maps(K2, {}, {})
    for pair in ((ours, foreign), (foreign, ours)):
        with pytest.raises(ValueError, match="over the given graph"):
            plans_equivalent(*pair, P4)


def test_correction_plan_dispatch():
    assert correction_forms(P4, "universal") == universal_correction(P4)
    assert correction_forms(P4, "l4") == l4_correction(P4)
    assert correction_forms(P4, "tree") == tree_correction(P4)
    assert correction_forms(C4, "c4") == c4_correction(C4)
    # s1, s3, s4 set: g_C = s3^s6 = 1 is the only odd far parity, and
    # the l4 formula puts X^{s2^s3^s6} on D instead
    outcome = 0b101100
    assert correction_plan(P4, outcome, "universal") == plan_from_maps(
        P4, {}, {"C": 1}
    )
    assert correction_plan(P4, outcome, "l4") == plan_from_maps(
        P4, {"D": 1}, {}
    )
    with pytest.raises(ValueError, match="unknown correction"):
        correction_plan(P4, outcome, "bogus")
    with pytest.raises(ValueError, match="P4"):
        correction_plan(C4, 0, "l4")


# -- the parity condition as forms -----------------------------------------------


def _parity_condition_holds(graph, kind):
    # z_v xor (xor of x_u over u ~ v) must equal g_v as forms, which is
    # the plan's validity at every outcome at once
    forms = correction_forms(graph, kind)
    for v, (_, z), g in zip(graph.vertices, forms, far_side_masks(graph)):
        for a, b in graph.edges:
            if v in (a, b):
                z ^= forms[graph.vertices.index(b if a == v else a)][0]
        if z != g:
            return False
    return True


def _catalog_kinds():
    cases = []
    for name in TABLE_ORDER + ("K4",):
        for kind in CORRECTION_KINDS:
            try:
                correction_forms(catalog_lookup(name), kind)
            except ValueError:
                continue
            cases.append((name, kind))
    return cases


@pytest.mark.parametrize("name,kind", _catalog_kinds())
def test_parity_condition_holds_as_forms(name, kind):
    assert _parity_condition_holds(catalog_lookup(name), kind)


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs())
def test_parity_condition_holds_as_forms_on_random_graphs(graph):
    assert _parity_condition_holds(graph, "universal")
    if graph.is_tree():
        assert _parity_condition_holds(graph, "tree")


def test_parity_condition_holds_as_forms_past_the_dense_ceiling():
    # 6x6 grid: 60 edges, 156 total qubits, 4^60 outcomes
    assert _parity_condition_holds(grid(6, 6), "universal")


def test_parity_condition_rejects_a_dropped_bit(monkeypatch):
    real = protocol.far_side_masks
    monkeypatch.setattr(
        protocol, "far_side_masks", lambda graph: [m & (m - 1) for m in real(graph)]
    )
    assert not _parity_condition_holds(P4, "universal")
    assert not _parity_condition_holds(P4, "tree")


# -- resource-pair structure -----------------------------------------------------


def test_shared_pair_correlations_are_x_z_not_x_x():
    # the walk entangler and a bit-copy entangler leave incompatible
    # pair correlations; the correction formulas rely on the former
    walk_pair = sv.apply_gate(sv.new_plus(2), "CZ", (0, 1))
    copy_pair = sv.apply_gate(sv.new_zero(2), "H", (0,))
    for gate, targets in engine_gates("CNOT", (0, 1)):
        copy_pair = sv.apply_gate(copy_pair, gate, targets)
    xz = (PauliString(2, 1, 2),)
    xx = (PauliString(2, 3, 0),)
    assert check_stabilizes(walk_pair, xz) and not check_stabilizes(walk_pair, xx)
    assert check_stabilizes(copy_pair, xx) and not check_stabilizes(copy_pair, xz)
