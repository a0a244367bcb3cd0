"""Dense engine: gate kernels against explicit matrix oracles, the
measurement projector, fidelity, and Schmidt ranks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense as sv
from helpers import (
    apply_matrix_oracle,
    engine_gates,
    random_circuit,
    random_state,
    run_dense,
    states_equal,
)
from pqw.graphs import parse_edge_list

# -- construction and validation --------------------------------------------


def test_new_plus_amplitudes():
    state = sv.new_plus(3)
    assert np.allclose(state.amplitudes, np.full(8, 8**-0.5))


def test_new_zero_amplitudes():
    state = sv.new_zero(2)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_norm_is_validated():
    with pytest.raises(ValueError, match="norm"):
        sv.StateVector(1, np.array([1.0, 1.0], dtype=complex))


def test_amplitude_count_is_validated():
    with pytest.raises(ValueError, match="expected"):
        sv.StateVector(2, np.zeros(3, dtype=complex))


def test_from_amplitudes_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        sv.from_amplitudes([1.0, 0.0, 0.0])


def test_from_amplitudes_normalize_flag():
    state = sv.from_amplitudes([3.0, 4.0], normalize=True)
    assert np.isclose(state.probability(0), 9.0 / 25.0)


def test_qubit_ceiling():
    # refused before any allocation, also where the protocol allocates
    too_many = sv.DEFAULT_QUBIT_CEILING + 1
    message = f"{too_many} qubits exceeds the ceiling of {sv.DEFAULT_QUBIT_CEILING}$"
    for make in (sv.new_plus, sv.new_zero):
        with pytest.raises(sv.ResourceError, match=message):
            make(too_many)
    path = parse_edge_list("\n".join(f"v{i} v{i + 1}" for i in range(8)))
    assert path.n_vertices + 2 * path.n_edges == too_many
    with pytest.raises(sv.ResourceError, match=message):
        sv.run_protocol(path, 0)
    assert sv.new_zero(3).n_qubits == 3


# -- gate kernels vs matrix oracle -------------------------------------------

CASES = [
    ("H", (0,)),
    ("H", (2,)),
    ("X", (1,)),
    ("Z", (2,)),
    ("CZ", (0, 1)),
    ("CZ", (2, 0)),
    ("CNOT", (0, 2)),
    ("CNOT", (2, 0)),
    ("CNOT", (1, 2)),
]


@pytest.mark.parametrize("gate,targets", CASES)
def test_gate_kernel_matches_matrix_oracle(gate, targets):
    # CNOT runs as H CZ H against the oracle's basis permutation
    rng = np.random.default_rng(7)
    for _ in range(5):
        state = random_state(rng, 3)
        want = apply_matrix_oracle(state.amplitudes, gate, targets)
        for step in engine_gates(gate, targets):
            state = sv.apply_gate(state, *step)
        assert np.allclose(state.amplitudes, want, atol=1e-12)


def test_lsb_convention_is_pinned():
    # X on qubit 0 toggles the least significant bit of the basis index
    state = sv.apply_gate(sv.new_zero(2), "X", (0,))
    assert state.probability(1) == 1.0
    state = sv.apply_gate(sv.new_zero(2), "X", (1,))
    assert state.probability(2) == 1.0


def test_apply_gate_rejects_bad_targets():
    state = sv.new_zero(2)
    with pytest.raises(ValueError, match="unknown gate"):
        sv.apply_gate(state, "T", (0,))
    with pytest.raises(ValueError, match="unknown gate"):
        sv.apply_gate(state, "CNOT", (0, 1))
    with pytest.raises(ValueError, match="H takes 1 targets"):
        sv.apply_gate(state, "H", (0, 1))
    with pytest.raises(ValueError, match="out of range"):
        sv.apply_gate(state, "X", (2,))
    with pytest.raises(ValueError, match="duplicate"):
        sv.apply_gate(state, "CZ", (1, 1))


def test_cz_is_symmetric():
    rng = np.random.default_rng(11)
    state = random_state(rng, 3)
    forward = sv.apply_gate(state, "CZ", (0, 2)).amplitudes
    backward = sv.apply_gate(state, "CZ", (2, 0)).amplitudes
    assert np.array_equal(forward, backward)


circuit_seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=40, deadline=None)
@given(circuit_seeds, st.integers(min_value=1, max_value=4))
def test_random_circuits_preserve_norm(seed, n_qubits):
    import random

    ops = random_circuit(random.Random(seed), n_qubits, depth=12)
    state = run_dense(n_qubits, ops)
    norm = float(np.vdot(state.amplitudes, state.amplitudes).real)
    assert abs(norm - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(circuit_seeds, st.integers(min_value=1, max_value=4))
def test_gates_are_involutions(seed, n_qubits):
    # every supported gate squares to the identity, so undoing a circuit
    # is replaying it in reverse
    import random

    ops = random_circuit(random.Random(seed), n_qubits, depth=10)
    state = run_dense(n_qubits, ops)
    for gate, targets in reversed(ops):
        state = sv.apply_gate(state, gate, targets)
    assert sv.fidelity(state, sv.new_zero(n_qubits)) > 1.0 - 1e-12


# -- measurement -------------------------------------------------------------


def test_measure_project_on_plus():
    prob, state = sv.measure_project(sv.new_plus(1), 0, 0)
    assert abs(prob - 0.5) < 1e-15
    assert np.isclose(state.probability(0), 1.0)


def test_measure_project_keeps_collapsed_qubit():
    prob, state = sv.measure_project(sv.new_plus(2), 1, 1)
    assert state.n_qubits == 2
    # qubit 1 is now |1>, qubit 0 still |+>
    assert np.isclose(state.probability(2), 0.5)
    assert np.isclose(state.probability(3), 0.5)
    assert state.probability(0) == 0.0


def test_measure_project_zero_probability_branch():
    with pytest.raises(sv.ZeroProbabilityError):
        sv.measure_project(sv.new_zero(2), 0, 1)


def test_measure_project_validates_arguments():
    with pytest.raises(ValueError, match="out of range"):
        sv.measure_project(sv.new_plus(1), 1, 0)
    with pytest.raises(ValueError, match="outcome"):
        sv.measure_project(sv.new_plus(1), 0, 2)


# -- fidelity ----------------------------------------------------------------


def test_fidelity_orthogonal_and_phase_invariant():
    zero = sv.new_zero(1)
    one = sv.apply_gate(zero, "X", (0,))
    assert sv.fidelity(zero, one) == 0.0
    phased = sv.StateVector(1, zero.amplitudes * np.exp(1j * 0.7))
    assert abs(sv.fidelity(zero, phased) - 1.0) < 1e-15


def test_fidelity_rejects_size_mismatch():
    with pytest.raises(ValueError, match="qubit counts"):
        sv.fidelity(sv.new_zero(1), sv.new_zero(2))


def test_states_equal_tolerance():
    a = sv.new_plus(2)
    b = sv.apply_gate(a, "Z", (0,))
    assert states_equal(a, a)
    assert not states_equal(a, b)


# -- Schmidt rank -------------------------------------------


def test_schmidt_rank_refuses_an_empty_or_full_side():
    state = sv.new_plus(2)
    for side_a in ((), (0, 1)):
        with pytest.raises(ValueError, match="non-empty proper subset"):
            sv.schmidt_rank(state, side_a)


def test_schmidt_rank_product_state():
    assert sv.schmidt_rank(sv.new_plus(2), [0]) == 1


def test_schmidt_rank_bell_pair():
    bell = sv.from_amplitudes([1, 0, 0, 1], normalize=True)
    assert sv.schmidt_rank(bell, [0]) == 2


def test_schmidt_rank_invariant_under_local_gates():
    rng = np.random.default_rng(23)
    cut = (0, 1)
    for _ in range(5):
        state = random_state(rng, 4)
        rank = sv.schmidt_rank(state, cut)
        rotated = state
        for q in range(4):
            rotated = sv.apply_gate(rotated, "H", (q,))
        assert sv.schmidt_rank(rotated, cut) == rank


def test_schmidt_rank_asymmetric_cut():
    # |000> + |111>: any split of GHZ has rank 2
    ghz = sv.from_amplitudes([1, 0, 0, 0, 0, 0, 0, 1], normalize=True)
    assert sv.schmidt_rank(ghz, [1]) == 2
    assert sv.schmidt_rank(ghz, [0, 2]) == 2
