"""Dense pure-state simulator for small qubit registers, and every dense
function of the package.

Qubit index convention, used everywhere in this package: qubit k is the
k-th tensor factor and occupies bit k of the basis-state integer, so
qubit 0 is the least significant bit.  All bit arithmetic in the other
modules relies on this.

This is the one module that imports numpy, and no other module imports
it: the commands run on the symbolic engines alone.  Besides the
simulator it holds the dense oracles the tests check those engines
against: graph_state and ghz_state; the per-outcome protocol reference
(run_protocol, corrected_fidelity, byproduct_step), which names an
outcome by its index and a plan by its Pauli string; the Pauli action
apply_pauli with check_stabilizes; and the Kraus operators as matrices,
written from the channels' definitions.
Gates are checked by pqw.protocol's gate table, so the dense and the
symbolic engine accept and refuse the same gate lists: H, X, Z and CZ.

States are value-like: every operation returns a fresh StateVector and
never mutates its input, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from pauli import PauliString, _check_index

# the same ResourceError the CLI and the noise sum raise
from pqw.graphs import Graph, ResourceError, _index_of
from pqw.protocol import _checked_gates, prep_gates, walk_gates

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# the largest register built: 2^24 complex amplitudes are 256 MiB
DEFAULT_QUBIT_CEILING = 24


class ZeroProbabilityError(ValueError):
    """Raised when projecting a state onto an outcome of probability zero."""


def _check_size(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > DEFAULT_QUBIT_CEILING:
        raise ResourceError(f"{n_qubits} qubits exceeds the ceiling of {DEFAULT_QUBIT_CEILING}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over 2**n_qubits basis states.

    eq is disabled on purpose: state equality is a physics question and
    must go through fidelity, never through amplitude comparison.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes, got {self.amplitudes.shape}"
            )
        norm = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-12")

    def probability(self, basis_index: int) -> float:
        return float(abs(self.amplitudes[basis_index]) ** 2)


def new_plus(n_qubits: int) -> StateVector:
    """|+>^n: every amplitude is 2**(-n/2)."""
    _check_size(n_qubits)
    amps = np.full(2**n_qubits, 2.0 ** (-n_qubits / 2.0), dtype=complex)
    return StateVector(n_qubits, amps)


def new_zero(n_qubits: int) -> StateVector:
    """|0>^n."""
    _check_size(n_qubits)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def from_amplitudes(amps, normalize: bool = False) -> StateVector:
    a = np.asarray(amps, dtype=complex)
    n = int(a.size).bit_length() - 1
    if 2**n != a.size:
        raise ValueError(f"amplitude count {a.size} is not a power of two")
    if normalize:
        a = a / np.sqrt(np.vdot(a, a).real)
    return StateVector(n, a.copy())


# Gate kernels take a checked row's targets a and b (b = a for a one-qubit
# gate) and work on a view reshaped to (high bits, 2, low bits), the middle
# axis the target qubit; no 2^n x 2^n matrices are ever built.


def _split(amps: np.ndarray, qubit: int) -> np.ndarray:
    return amps.reshape(-1, 2, 2**qubit)


def _apply_h(amps: np.ndarray, qubit: int, _: int) -> np.ndarray:
    view = _split(amps, qubit)
    out = np.empty_like(view)
    out[:, 0, :] = (view[:, 0, :] + view[:, 1, :]) * _INV_SQRT2
    out[:, 1, :] = (view[:, 0, :] - view[:, 1, :]) * _INV_SQRT2
    return out.reshape(amps.size)


def _apply_x(amps: np.ndarray, qubit: int, _: int) -> np.ndarray:
    view = _split(amps, qubit)
    out = np.empty_like(view)
    out[:, 0, :] = view[:, 1, :]
    out[:, 1, :] = view[:, 0, :]
    return out.reshape(amps.size)


def _apply_z(amps: np.ndarray, qubit: int, _: int) -> np.ndarray:
    out = _split(amps, qubit).copy()
    out[:, 1, :] *= -1.0
    return out.reshape(amps.size)


def _split2(amps: np.ndarray, q_hi: int, q_lo: int) -> np.ndarray:
    # axes: (above hi, hi, between, lo, below lo)
    return amps.reshape(-1, 2, 2 ** (q_hi - q_lo - 1), 2, 2**q_lo)


def _apply_cz(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    hi, lo = max(q1, q2), min(q1, q2)
    out = _split2(amps, hi, lo).copy()
    out[:, 1, :, 1, :] *= -1.0
    return out.reshape(amps.size)


_KERNELS = {"H": _apply_h, "X": _apply_x, "Z": _apply_z, "CZ": _apply_cz}


def _run_gates(amps: np.ndarray, rows) -> np.ndarray:
    """Checked (gate, a, b) rows, as pqw.protocol._checked_gates returns
    them, on raw, possibly unnormalized amplitudes."""
    for gate, a, b in rows:
        amps = _KERNELS[gate](amps, a, b)
    return amps


def apply_gate(state: StateVector, gate: str, targets) -> StateVector:
    """Apply H, X, Z or CZ."""
    rows = _checked_gates(state.n_qubits, ((gate, targets),))
    return StateVector(state.n_qubits, _run_gates(state.amplitudes, rows))


def measure_project(state: StateVector, qubit: int, outcome: int):
    """Project one qubit onto |outcome> and renormalize.

    Returns (probability, post-measurement state).  The measured qubit is
    kept in the register, collapsed.  Projecting onto an outcome of
    probability zero raises ZeroProbabilityError instead of silently
    renormalizing garbage.
    """
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    view = _split(state.amplitudes, qubit)
    kept = view[:, outcome, :]
    prob = float(np.vdot(kept, kept).real)
    if prob < 1e-14:
        raise ZeroProbabilityError(
            f"outcome {outcome} on qubit {qubit} has probability {prob}"
        )
    out = np.zeros_like(view)
    out[:, outcome, :] = kept / np.sqrt(prob)
    return prob, StateVector(state.n_qubits, out.reshape(state.amplitudes.size))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, invariant under global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def schmidt_rank(state: StateVector, side_a, tol: float = 1e-9) -> int:
    """Rank of the coefficient matrix across the cut between the qubit
    indices side_a and the rest of the register.

    Singular values of stabilizer states are bounded away from zero by
    powers of 1/2, so the default tolerance is safely below any of them.
    """
    n = state.n_qubits
    side_a = frozenset(side_a)
    if not side_a or not side_a < frozenset(range(n)):
        raise ValueError(
            f"cut {sorted(side_a)} is not a non-empty proper subset of "
            f"the {n} qubit indices"
        )
    tensor = state.amplitudes.reshape([2] * n)
    # axis for qubit k is n-1-k (C order puts qubit n-1 first)
    a_axes = sorted(n - 1 - q for q in side_a)
    b_axes = sorted(n - 1 - q for q in range(n) if q not in side_a)
    matrix = tensor.transpose(a_axes + b_axes).reshape(
        2 ** len(a_axes), 2 ** len(b_axes)
    )
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(singular > tol))


# -- graph states ------------------------------------------------------------


def graph_state(graph: Graph) -> StateVector:
    """CZ along every edge applied to |+> everywhere; qubit k hosts
    vertex graph.vertices[k]."""
    state = new_plus(graph.n_vertices)
    index = _index_of(graph.vertices)
    for u, v in graph.edges:
        state = apply_gate(state, "CZ", (index[u], index[v]))
    return state


def ghz_state(n_qubits: int = 4) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2)."""
    amps = [0.0] * (2**n_qubits)
    amps[0] = amps[-1] = 1.0
    return from_amplitudes(amps, normalize=True)


# -- Pauli strings ------------------------------------------------------------


def apply_pauli(state: StateVector, pauli: PauliString) -> StateVector:
    """Dense action of a Pauli string: amplitude j picks up
    i^phase (-1)^{|j & z|}, then the X block permutes j to j ^ x."""
    if state.n_qubits != pauli.n_qubits:
        raise ValueError("qubit counts differ")
    indices = np.arange(state.amplitudes.size, dtype=np.uint64)
    z_par = np.bitwise_count(indices & np.uint64(pauli.z_bits)) & np.uint64(1)
    signs = 1.0 - 2.0 * z_par.astype(float)
    out = np.empty_like(state.amplitudes)
    out[indices ^ np.uint64(pauli.x_bits)] = (1j**pauli.phase) * signs * state.amplitudes
    return StateVector(state.n_qubits, out)


def check_stabilizes(state: StateVector, generators, tol: float = 1e-10) -> bool:
    """True iff every generator, a PauliString on the state's qubits,
    fixes the state with eigenvalue +1."""
    for g in generators:
        overlap = np.vdot(state.amplitudes, apply_pauli(state, g).amplitudes)
        if abs(overlap - 1.0) > tol:
            return False
    return True


# -- the protocol, run densely -------------------------------------------------
# The per-outcome reference the symbolic engines are checked against; the
# circuit is pqw.protocol's gate lists, checked once each, on the kernels.


def _after_prep(graph: Graph) -> np.ndarray:
    """Raw amplitudes after S1 + S2, every qubit prepared."""
    # no name holds the |+> register, so the first gate frees it
    n_qubits = graph.n_vertices + 2 * graph.n_edges
    rows = _checked_gates(n_qubits, prep_gates(graph))
    return _run_gates(new_plus(n_qubits).amplitudes, rows)


@lru_cache(maxsize=32)
def _premeasurement(graph: Graph) -> StateVector:
    # no name holds the prepared register, so the walk frees it after
    # its first gate instead of keeping one more register alive
    n_qubits = graph.n_vertices + 2 * graph.n_edges
    amps = _run_gates(_after_prep(graph), _checked_gates(n_qubits, walk_gates(graph)))
    amps.flags.writeable = False  # cached, so no caller may write into it
    return StateVector(n_qubits, amps)


def data_slab(graph: Graph, index: int) -> np.ndarray:
    """Unnormalized data-qubit amplitudes after projecting all resource
    qubits onto outcome index; squared norm is the outcome probability."""
    row = _check_index(graph, index)
    return _premeasurement(graph).amplitudes.reshape(-1, 2**graph.n_vertices)[row]


def run_protocol(graph: Graph, index: int) -> tuple[float, StateVector]:
    """Run S1-S4 up to (not including) correction.

    Returns the joint probability of outcome index and the
    post-measurement pure state of the data qubits.
    """
    slab = data_slab(graph, index)
    prob = float(np.vdot(slab, slab).real)
    if prob < 1e-14:
        raise ZeroProbabilityError(f"outcome {index} has probability {prob}")
    return prob, StateVector(graph.n_vertices, slab / np.sqrt(prob))


def byproduct_step(s: int) -> tuple[float, StateVector]:
    """The single-edge primitive: entangle one data qubit with one half
    of CZ|++>, rotate, and measure that half.

    Qubits: 0 = data d, 1 = measured half r, 2 = far half r'.  Returns
    the outcome probability (always 1/2) and the joint state of (d, r')
    as a two-qubit register with d at qubit 0.
    """
    if s not in (0, 1):
        raise ValueError("s must be a bit")
    state = new_plus(3)
    state = apply_gate(state, "CZ", (1, 2))  # the shared pair
    state = apply_gate(state, "CZ", (0, 1))  # walk step, then coin
    state = apply_gate(state, "H", (1,))
    prob, projected = measure_project(state, 1, s)
    # drop the collapsed qubit: keep (q2, q0) as a 2-qubit register
    view = projected.amplitudes.reshape(2, 2, 2)  # [q2, q1, q0]
    pair = view[:, s, :].reshape(4)  # index = 2*q2 + q0 -> (d, r') order
    return prob, StateVector(2, pair)


def corrected_fidelity(graph: Graph, index: int, plan: PauliString) -> float:
    """Fidelity of the post-measurement data state at outcome index,
    corrected by the plan, with the target graph state."""
    _, data = run_protocol(graph, index)
    return fidelity(apply_pauli(data, plan), graph_state(graph))


# -- noise ---------------------------------------------------------------------


def kraus_ops(kind: str, p: float) -> tuple[np.ndarray, ...]:
    """The Kraus operators of a channel kind at strength p as 2x2 complex
    matrices, written from the channels' definitions rather than read off
    the engine's table:

      depolarizing       rho -> (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z)
      phase damping      populations kept, coherences scaled by sqrt(1 - p)
      amplitude damping  |1> decays to |0> with probability p
    """
    if kind == "depolarizing":
        paulis = (
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        )
        return (np.sqrt(1 - 0.75 * p) * np.eye(2, dtype=complex),) + tuple(
            np.sqrt(p / 4) * pauli for pauli in paulis
        )
    no_jump = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    if kind == "phase_damping":
        return no_jump, np.array([[0, 0], [0, np.sqrt(p)]], dtype=complex)
    # amplitude damping
    return no_jump, np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
