"""The protocol itself: outcome bookkeeping, the dense and symbolic
runs, the byproduct primitive, and every correction formula."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import near_parity
from pqw import statevector as sv
from pqw.graphs import TABLE_ORDER, Graph, catalog_lookup, graph_state
from pqw.protocol import (
    CorrectionPlan,
    Outcome,
    all_outcomes,
    build_layout,
    byproduct_step,
    c4_correction,
    corrected_fidelity,
    correction_plan,
    far_side_mask,
    l4_correction,
    plans_equivalent,
    run_protocol,
    run_protocol_tableau,
    tree_correction,
    universal_correction,
)
from pqw.stabilizer import check_stabilizes, extract_sign
from pqw.verify import phase_lemma_check

P4 = catalog_lookup("P4")
C4 = catalog_lookup("C4")
K2 = Graph(("A", "B"), (("A", "B"),))

TREE_NAMES = ("P3", "P4", "P5", "K1_2", "K1_3", "K1_4", "spider", "fork")


# -- layout and outcome indexing ----------------------------------------------


def test_layout_data_first_then_edge_pairs():
    layout = build_layout(P4)
    assert layout.data_index == {"A": 0, "B": 1, "C": 2, "D": 3}
    assert layout.resource_index[(("A", "B"), "A")] == 4
    assert layout.resource_index[(("A", "B"), "B")] == 5
    assert layout.resource_index[(("C", "D"), "D")] == 9
    assert layout.total_qubits == 10
    assert layout.resource_qubits() == (4, 5, 6, 7, 8, 9)


def test_outcome_index_is_big_endian_over_the_bit_sequence():
    outcome = Outcome.from_index(P4, 32)
    assert outcome.bits == (1, 0, 0, 0, 0, 0)
    assert Outcome.from_index(P4, 3).bits == (0, 0, 0, 0, 1, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=63))
def test_outcome_roundtrip(index):
    assert Outcome.from_index(P4, index).to_index() == index


def test_outcome_validation():
    with pytest.raises(ValueError, match="out of range"):
        Outcome.from_index(P4, 64)
    with pytest.raises(ValueError, match="expected 6 bits"):
        Outcome(P4, (0, 0))
    with pytest.raises(ValueError, match="0 or 1"):
        Outcome(P4, (0, 0, 0, 0, 0, 2))


def test_near_far_parities():
    # bits: AB@A, AB@B, BC@B, BC@C, CD@C, CD@D
    outcome = Outcome(P4, (1, 0, 0, 0, 0, 0))
    assert outcome.near(("A", "B"), "A") == 1
    assert outcome.far(("A", "B"), "B") == 1
    assert outcome.far(("A", "B"), "A") == 0
    assert outcome.g("A") == 0
    assert outcome.g("B") == 1  # far side of AB at B is the bit at A
    assert near_parity(outcome, "A") == 1
    assert near_parity(outcome, "B") == 0
    mixed = Outcome(P4, (0, 1, 1, 0, 0, 1))
    assert mixed.g("B") == 0  # far bits at B: AB@A=0, BC@C=0
    assert mixed.g("C") == 0  # far bits at C: BC@B=1, CD@D=1
    assert near_parity(mixed, "C") == 0  # near bits at C: BC@C=0, CD@C=0
    assert near_parity(mixed, "D") == 1


# -- dense protocol run -------------------------------------------------------


def test_all_zero_outcome_needs_no_correction():
    for name in ("P4", "C4", "K1_3", "K3"):
        graph = catalog_lookup(name)
        prob, data = run_protocol(graph, Outcome.from_index(graph, 0))
        assert sv.fidelity(data, graph_state(graph)) > 1.0 - 1e-12


def test_outcomes_are_uniform_on_p3():
    graph = catalog_lookup("P3")
    for outcome in all_outcomes(graph):
        prob, _ = run_protocol(graph, outcome)
        assert abs(prob - 1.0 / 16.0) < 1e-12


def test_run_protocol_rejects_foreign_outcome():
    with pytest.raises(ValueError, match="different graph"):
        run_protocol(P4, Outcome.from_index(C4, 0))


def test_universal_correction_steers_every_p3_outcome():
    graph = catalog_lookup("P3")
    for outcome in all_outcomes(graph):
        plan = universal_correction(graph, outcome)
        assert all(x == 0 for _, x, _ in plan.exponents)  # Z-only
        assert corrected_fidelity(graph, outcome, plan) > 1.0 - 1e-12


# -- symbolic protocol run ----------------------------------------------------


def test_tableau_run_signs_match_far_parities():
    from pqw.graphs import stabilizer_generators

    graph = catalog_lookup("P3")
    plain = stabilizer_generators(graph).generators
    for outcome in all_outcomes(graph):
        tableau = run_protocol_tableau(graph, outcome)
        for gen, v in zip(plain, graph.vertices):
            want = -1 if outcome.g(v) else 1
            assert extract_sign(tableau, gen) == want


def test_far_side_mask_is_g_as_a_form():
    for name in ("P4", "C4", "K1_3", "K3"):
        graph = catalog_lookup(name)
        masks = {v: far_side_mask(graph, v) for v in graph.vertices}
        for outcome in all_outcomes(graph):
            index = outcome.to_index()
            for v, mask in masks.items():
                assert (mask & index).bit_count() % 2 == outcome.g(v)


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
        for outcome in all_outcomes(graph):
            _, data = run_protocol(graph, outcome)
            assert check_stabilizes(data, run_protocol_tableau(graph, outcome))


@st.composite
def small_connected_graphs(draw):
    """Connected graphs of at most 14 total qubits: a random spanning
    tree plus the extra edges that still fit, each edge drawn in either
    orientation and the edge list shuffled."""
    n = draw(st.integers(min_value=2, max_value=5))
    tree = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    spare = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    room = (14 - n) // 2 - len(tree)
    extra = draw(st.sets(st.sampled_from(spare), max_size=room)) if spare else set()
    edges = []
    for i, j in draw(st.permutations(sorted(tree | extra))):
        edges.append((f"v{j}", f"v{i}") if draw(st.booleans()) else (f"v{i}", f"v{j}"))
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(edges))


@settings(max_examples=40, deadline=None)
@given(small_connected_graphs(), st.data())
def test_symbolic_run_matches_dense_on_random_graphs(graph, data):
    assert graph.n_vertices + 2 * graph.n_edges <= 14
    assert phase_lemma_check(graph) is True
    index = data.draw(st.integers(min_value=0, max_value=graph.outcome_count() - 1))
    outcome = Outcome.from_index(graph, index)
    _, state = run_protocol(graph, outcome)
    assert check_stabilizes(state, run_protocol_tableau(graph, outcome))


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


def test_plan_validation():
    with pytest.raises(ValueError, match="every vertex"):
        CorrectionPlan(P4, (("B", 0, 0), ("A", 0, 0), ("C", 0, 0), ("D", 0, 0)))
    with pytest.raises(ValueError, match="bits"):
        CorrectionPlan.from_maps(P4, {"A": 2}, {})


def test_plan_as_pauli_bitmasks():
    plan = CorrectionPlan.from_maps(P4, {"B": 1}, {"D": 1})
    pauli = plan.as_pauli()
    assert pauli.x_bits == 0b0010
    assert pauli.z_bits == 0b1000
    assert pauli.phase == 0
    assert plan.x_of("B") == 1 and plan.z_of("B") == 0
    assert not plan.is_identity()
    assert CorrectionPlan.from_maps(P4, {}, {}).is_identity()


def test_pair_correction_matches_near_far_reading():
    # on a single edge the plan that works is X^near Z^far at each end
    for outcome in all_outcomes(K2):
        plan = tree_correction(K2, outcome, reference=None)
        explicit = CorrectionPlan.from_maps(
            K2,
            {"B": outcome.near(("A", "B"), "B")},
            {"B": outcome.far(("A", "B"), "B")},
        )
        assert plan == explicit
        assert corrected_fidelity(K2, outcome, plan) > 1.0 - 1e-12


# -- published four-vertex formulas --------------------------------------------


def test_l4_formula_exponents():
    s = Outcome(P4, (1, 1, 0, 1, 0, 0))
    plan = l4_correction(s)
    assert plan.x_of("A") == 0 and plan.z_of("A") == 0
    assert plan.x_of("B") == 1  # s2
    assert plan.x_of("C") == 0  # s1 xor s4
    assert plan.x_of("D") == 1  # s2 xor s3 xor s6
    assert plan.z_of("D") == 0  # s1 xor s4 xor s5


def test_l4_passes_all_64_outcomes():
    for outcome in all_outcomes(P4):
        assert corrected_fidelity(P4, outcome, l4_correction(outcome)) > 1.0 - 1e-12


def test_l4_rejects_other_graphs():
    with pytest.raises(ValueError, match="P4"):
        l4_correction(Outcome.from_index(C4, 0))


def test_c4_passes_all_256_outcomes():
    for outcome in all_outcomes(C4):
        assert corrected_fidelity(C4, outcome, c4_correction(outcome)) > 1.0 - 1e-12


def test_c4_rejects_other_graphs():
    with pytest.raises(ValueError, match="C4"):
        c4_correction(Outcome.from_index(P4, 0))


# -- tree correction ------------------------------------------------------------


def test_tree_correction_matches_l4_formula_exactly():
    # the leaf-anchored propagation reproduces the published path plan
    # bit for bit, not just up to stabilizer equivalence
    for outcome in all_outcomes(P4):
        assert tree_correction(P4, outcome) == l4_correction(outcome)


@pytest.mark.parametrize("name", TREE_NAMES)
def test_tree_correction_passes_exhaustively(name):
    graph = catalog_lookup(name)
    for outcome in all_outcomes(graph):
        plan = tree_correction(graph, outcome)
        assert corrected_fidelity(graph, outcome, plan) > 1.0 - 1e-12


def test_tree_correction_reference_is_untouched():
    for index in (5, 21, 40, 63):
        outcome = Outcome.from_index(P4, index)
        for reference in ("A", "D"):
            plan = tree_correction(P4, outcome, reference=reference)
            assert plan.x_of(reference) == 0 and plan.z_of(reference) == 0
            assert corrected_fidelity(P4, outcome, plan) > 1.0 - 1e-12


def test_tree_correction_interior_vertices_are_z_free():
    for outcome in all_outcomes(P4):
        plan = tree_correction(P4, outcome)
        assert plan.z_of("B") == 0 and plan.z_of("C") == 0


def test_tree_correction_validation():
    with pytest.raises(ValueError, match="requires a tree"):
        tree_correction(C4, Outcome.from_index(C4, 0))
    with pytest.raises(ValueError, match="not a leaf"):
        tree_correction(P4, Outcome.from_index(P4, 0), reference="B")


def test_verbatim_parity_reading_fails_on_the_path():
    # assigning X^{near parity} Z^{far parity} at every non-reference
    # vertex looks plausible and is wrong: it breaks the parity
    # condition on some outcomes, where the delivered state is
    # orthogonal to the target
    worst = 1.0
    for outcome in all_outcomes(P4):
        literal = CorrectionPlan.from_maps(
            P4,
            {v: near_parity(outcome, v) for v in "BCD"},
            {v: outcome.g(v) for v in "BCD"},
        )
        worst = min(worst, corrected_fidelity(P4, outcome, literal))
    assert worst < 1e-12


# -- plan equivalence -----------------------------------------------------------


def test_plans_differing_by_a_stabilizer_are_equivalent():
    identity = CorrectionPlan.from_maps(P4, {}, {})
    # X_A Z_B is a stabilizer generator of the path state
    shifted = CorrectionPlan.from_maps(P4, {"A": 1}, {"B": 1})
    assert plans_equivalent(identity, shifted, P4)


def test_lone_x_is_not_equivalent_to_identity():
    identity = CorrectionPlan.from_maps(P4, {}, {})
    lone = CorrectionPlan.from_maps(P4, {"B": 1}, {})
    assert not plans_equivalent(identity, lone, P4)


def test_topology_plans_equivalent_to_universal():
    for outcome in all_outcomes(P4):
        assert plans_equivalent(
            l4_correction(outcome), universal_correction(P4, outcome), P4
        )
    for index in (0, 100, 200, 255):
        outcome = Outcome.from_index(C4, index)
        assert plans_equivalent(
            c4_correction(outcome), universal_correction(C4, outcome), C4
        )


def test_plans_equivalent_rejects_foreign_plans():
    with pytest.raises(ValueError, match="over the given graph"):
        plans_equivalent(
            CorrectionPlan.from_maps(P4, {}, {}),
            CorrectionPlan.from_maps(C4, {}, {}),
            P4,
        )


def test_correction_plan_dispatch():
    outcome = Outcome.from_index(P4, 9)
    assert correction_plan(P4, outcome, "universal") == universal_correction(P4, outcome)
    assert correction_plan(P4, outcome, "l4") == l4_correction(outcome)
    assert correction_plan(P4, outcome, "tree") == tree_correction(P4, outcome)
    with pytest.raises(ValueError, match="unknown correction"):
        correction_plan(P4, outcome, "bogus")


# -- resource-pair structure -----------------------------------------------------


def test_shared_pair_correlations_are_x_z_not_x_x():
    # the walk entangler and a bit-copy entangler leave incompatible
    # pair correlations; the correction formulas rely on the former
    from pqw.stabilizer import PauliString, conjugate, zero_state_tableau

    walk_pair = zero_state_tableau(2)
    for q in (0, 1):
        walk_pair = conjugate(walk_pair, "H", (q,))
    walk_pair = conjugate(walk_pair, "CZ", (0, 1))
    copy_pair = zero_state_tableau(2)
    copy_pair = conjugate(copy_pair, "H", (0,))
    copy_pair = conjugate(copy_pair, "CNOT", (0, 1))
    xz = PauliString(2, 1, 2, 0)
    xx = PauliString(2, 3, 0, 0)
    assert extract_sign(walk_pair, xz) == 1 and extract_sign(walk_pair, xx) is None
    assert extract_sign(copy_pair, xx) == 1 and extract_sign(copy_pair, xz) is None
