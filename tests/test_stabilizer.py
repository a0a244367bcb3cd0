"""The test-side Pauli strings of tests/pauli.py, and through them the
engine's column run: multiplication signs and conjugation rules against
a dense oracle."""

import copy
import itertools
import pickle

import numpy as np
import pytest

import dense as sv
from dense import apply_pauli, check_stabilizes
from helpers import apply_matrix_oracle, engine_gates, run_dense, run_tableau, zero_state
from pauli import PauliString, conjugate_circuit
from pqw import noise
from scope import circuits, pauli_strings

X1 = PauliString(1, 1, 0)
Z1 = PauliString(1, 0, 1)
Y1 = PauliString(1, 1, 1, 1)  # i * XZ = Y
I1 = PauliString(1, 0, 0)


# -- multiplication ----------------------------------------------------------


def test_multiplication_signs():
    assert X1 * Z1 == PauliString(1, 1, 1, 0)
    assert Z1 * X1 == PauliString(1, 1, 1, 2)  # anticommute
    assert X1 * X1 == I1
    assert Z1 * Z1 == I1
    assert Y1 * Y1 == I1
    assert X1 * Y1 == PauliString(1, 0, 1, 1)  # X Y = i Z
    assert Y1 * X1 == PauliString(1, 0, 1, 3)


def test_phase_normalizes_mod_four():
    assert PauliString(1, 0, 0, 7).phase == 3
    assert PauliString(1, 0, 0, -1).phase == 3


def test_sign_property():
    assert PauliString(2, 1, 2, 0).sign == 1
    assert PauliString(2, 1, 2, 2).sign == -1
    with pytest.raises(ValueError, match="not a real sign"):
        _ = Y1.sign


def test_mask_validation():
    with pytest.raises(ValueError, match="exceed"):
        PauliString(1, 2, 0)


def test_pauli_string_is_a_value_not_a_tuple():
    p = PauliString(3, 0b101, 0b011, 7)
    same = PauliString(3, 0b101, 0b011, 3)
    assert p == same and hash(p) == hash(same)
    assert p != PauliString(3, 0b101, 0b011, 1)
    assert not isinstance(p, tuple)
    assert p != (3, 0b101, 0b011, 3)
    assert repr(p) == "PauliString(n_qubits=3, x_bits=5, z_bits=3, phase=3)"
    # copies and pickles rebuild through the constructor
    assert copy.copy(p) == p and copy.deepcopy(p) == p
    assert pickle.loads(pickle.dumps(p)) == p


def test_label():
    assert PauliString(2, 3, 0, 0).label() == "+XX"
    assert PauliString(1, 1, 1, 0).label() == "+XZ"
    assert PauliString(2, 1, 2, 2).label() == "-XZ"
    assert PauliString(2, 0, 0, 1).label() == "+i.."


def test_multiplication_associative():
    """Every triple of strings on one qubit, every phase (16^3 = 4,096),
    and of phase-0 strings on two qubits (16^3 = 4,096)."""
    for strings in (pauli_strings(1), pauli_strings(2, (0,))):
        for a, b, c in itertools.product(strings, repeat=3):
            assert (a * b) * c == a * (b * c), (a, b, c)


def test_commutator_phase():
    """Every pair of strings on two qubits, every phase (64^2 = 4,096),
    and of phase-0 strings on three qubits (64^2 = 4,096)."""
    for strings in (pauli_strings(2), pauli_strings(3, (0,))):
        for a, b in itertools.product(strings, repeat=2):
            n, ab, ba = a.n_qubits, a * b, b * a
            # the post-prep noise sum multiplies real strings as (x, z, odd)
            # triples: with a and b's strings signed each way, the product is
            # real again and its sign bit is the string product's
            for odd_a, odd_b in itertools.product((0, 1), repeat=2):
                real_a = PauliString(n, a.x_bits, a.z_bits, 2 * odd_a)
                real_b = PauliString(n, b.x_bits, b.z_bits, 2 * odd_b)
                product = real_a * real_b
                assert product.phase in (0, 2)
                assert noise._times((a.x_bits, a.z_bits, odd_a), (b.x_bits, b.z_bits, odd_b)) == (
                    product.x_bits, product.z_bits, product.phase >> 1
                )
            assert (ab.x_bits, ab.z_bits) == (ba.x_bits, ba.z_bits)
            # the symplectic product decides whether a and b commute
            if ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2 == 0:
                assert ab.phase == ba.phase
            else:
                assert (ab.phase - ba.phase) % 4 == 2


# -- dense action oracle -----------------------------------------------------

SITE_MATS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}


def pauli_matrix(p: PauliString) -> np.ndarray:
    mat = np.eye(1, dtype=complex)
    for k in reversed(range(p.n_qubits)):
        mat = np.kron(mat, SITE_MATS[((p.x_bits >> k) & 1, (p.z_bits >> k) & 1)])
    return (1j**p.phase) * mat


def test_apply_to_matches_matrix_oracle():
    """Every string on two qubits, every phase (64), on three states."""
    # a seeded sample: random complex amplitudes form no finite scope
    rng = np.random.default_rng(3)
    states = [
        sv.from_amplitudes(
            rng.normal(size=4) + 1j * rng.normal(size=4), normalize=True
        )
        for _ in range(3)
    ]
    for p in pauli_strings(2):
        mat = pauli_matrix(p)
        for state in states:
            got = apply_pauli(state, p).amplitudes
            assert np.allclose(got, mat @ state.amplitudes, atol=1e-12)


def test_apply_to_pinned_case():
    # XZ on |1> = X(-|1>) = -|0>
    one = sv.apply_gate(sv.new_zero(1), "X", (0,))
    moved = apply_pauli(one, PauliString(1, 1, 1))
    assert np.allclose(moved.amplitudes, [-1.0, 0.0])


# -- conjugation rules vs dense ----------------------------------------------

CONJ_CASES = [
    ("H", (0,)),
    ("H", (1,)),
    ("X", (0,)),
    ("Z", (1,)),
    ("CZ", (0, 1)),
    ("CZ", (1, 0)),
    ("CNOT", (0, 1)),
    ("CNOT", (1, 0)),
]


def gate_matrix(gate: str, targets, n_qubits: int) -> np.ndarray:
    dim = 2**n_qubits
    mat = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[j] = 1.0
        mat[:, j] = apply_matrix_oracle(basis, gate, targets)
    return mat


@pytest.mark.parametrize("gate,targets", CONJ_CASES)
def test_conjugation_matches_dense_for_every_pauli(gate, targets):
    # CNOT runs as H CZ H against the oracle's basis permutation
    u = gate_matrix(gate, targets, 2)
    for x_bits in range(4):
        for z_bits in range(4):
            for phase in range(4):
                p = PauliString(2, x_bits, z_bits, phase)
                (conj,) = conjugate_circuit((p,), engine_gates(gate, targets))
                got = pauli_matrix(conj)
                want = u @ pauli_matrix(p) @ u.conj().T
                assert np.allclose(got, want, atol=1e-12), (
                    gate,
                    targets,
                    p.label(),
                )


def test_conjugate_validates_targets():
    zs = zero_state(2)
    with pytest.raises(ValueError, match="out of range"):
        conjugate_circuit(zs, (("H", (2,)),))
    with pytest.raises(ValueError, match="duplicate"):
        conjugate_circuit(zs, (("CZ", (0, 0)),))
    with pytest.raises(ValueError, match="unknown gate"):
        conjugate_circuit(zs, (("T", (0,)),))
    with pytest.raises(ValueError, match="unknown gate"):
        conjugate_circuit(zs, (("CNOT", (0, 1)),))


def test_conjugate_leaves_untouched_generators_equal():
    strings = conjugate_circuit(zero_state(3), (("H", (0,)),))
    moved = conjugate_circuit(strings, (("CZ", (0, 1)),))
    assert moved[2] == strings[2]
    assert moved[0] == PauliString(3, 0b001, 0b010)
    with pytest.raises(ValueError, match="takes 2 targets"):
        conjugate_circuit(strings, (("CZ", (2,)),))


def test_conjugate_circuit_rejects_size_mismatch():
    with pytest.raises(ValueError, match="qubit counts differ"):
        conjugate_circuit((X1, PauliString(2, 1, 0)), ())


def test_conjugate_circuit_equals_gate_by_gate():
    """Every gate list of scope.circuits(3), 1,193 lists on one to three
    qubits, each run on every string of phase 0 and 1 at once (32, 128 or
    512 strings).  The strings need not commute or be Hermitian here:
    conjugation acts on each one alone."""
    for n, gates in circuits(3):
        strings = pauli_strings(n, (0, 1))
        folded = strings
        for gate in gates:
            folded = conjugate_circuit(folded, [gate])
        assert conjugate_circuit(strings, gates) == folded, gates


BAD_GATES = [("T", (0,)), ("CZ", (0,)), ("H", (3,)), ("CZ", (1, 1))]


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("bad", BAD_GATES, ids=["unknown", "arity", "range", "duplicate"])
def test_conjugate_circuit_rejects_a_bad_gate_anywhere(bad, position):
    zs = zero_state(3)
    with pytest.raises(ValueError) as single:
        conjugate_circuit(zs, [bad])
    gates = [("H", (0,)), ("CZ", (0, 1)), ("X", (2,)), ("CZ", (2, 0))]
    gates.insert(position, bad)
    with pytest.raises(ValueError) as batched:
        conjugate_circuit(zs, gates)
    assert str(batched.value) == str(single.value)


# -- stabilizer groups ---------------------------------------------------------


def test_pair_state_generators():
    # CZ |++>: generators X(x)Z and Z(x)X
    pair = conjugate_circuit(zero_state(2), (("H", (0,)), ("H", (1,)), ("CZ", (0, 1))))
    assert pair == (PauliString(2, 1, 2, 0), PauliString(2, 2, 1, 0))


# -- dense/symbolic agreement on every short circuit ---------------------------


def test_check_stabilizes_rejects_wrong_state():
    assert not check_stabilizes(sv.new_zero(1), (X1,))
    assert check_stabilizes(sv.new_plus(1), (X1,))
    with pytest.raises(ValueError, match="qubit counts differ"):
        check_stabilizes(sv.new_plus(2), (X1,))


def test_random_circuit_dense_matches_tableau():
    """Every gate list of scope.circuits(5): 1,832 lists on one to five
    qubits."""
    for n_qubits, ops in circuits(5):
        state = run_dense(n_qubits, ops)
        tableau = run_tableau(n_qubits, ops)
        assert check_stabilizes(state, tableau, tol=1e-10), ops
