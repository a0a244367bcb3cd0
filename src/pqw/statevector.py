"""Dense pure-state simulator for small qubit registers.

Qubit index convention, used everywhere in this package: qubit k is the
k-th tensor factor and occupies bit k of the basis-state integer, so
qubit 0 is the least significant bit.  All bit arithmetic in the other
modules relies on this.

This is the one module that imports numpy at load time; every other
module reaches it from inside the dense functions that need it, so the
symbolic engines start without it.

States are value-like: every operation returns a fresh StateVector and
never mutates its input, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# defined numpy-free so the noise sum and verify can use them; the same
# objects here
from .graphs import DEFAULT_QUBIT_CEILING, ResourceError

GATE_NAMES = ("H", "X", "Z", "CZ", "CNOT")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class ZeroProbabilityError(ValueError):
    """Raised when projecting a state onto an outcome of probability zero."""


def _check_size(n_qubits: int, max_qubits: int | None) -> None:
    ceiling = DEFAULT_QUBIT_CEILING if max_qubits is None else max_qubits
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > ceiling:
        raise ResourceError(
            f"{n_qubits} qubits exceeds the ceiling of {ceiling}; "
            "pass max_qubits to override"
        )


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


@dataclass(frozen=True)
class Bipartition:
    """A cut of the qubit register into two non-empty disjoint sides."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    def __post_init__(self):
        if not self.side_a or not self.side_b:
            raise ValueError("both sides of a bipartition must be non-empty")
        if self.side_a & self.side_b:
            raise ValueError("bipartition sides overlap")

    @classmethod
    def of(cls, side_a, n_qubits: int) -> "Bipartition":
        a = frozenset(side_a)
        return cls(a, frozenset(range(n_qubits)) - a)

    def qubits(self) -> frozenset[int]:
        return self.side_a | self.side_b


def new_plus(n_qubits: int, max_qubits: int | None = None) -> StateVector:
    """|+>^n: every amplitude is 2**(-n/2)."""
    _check_size(n_qubits, max_qubits)
    amps = np.full(2**n_qubits, 2.0 ** (-n_qubits / 2.0), dtype=complex)
    return StateVector(n_qubits, amps)


def new_zero(n_qubits: int, max_qubits: int | None = None) -> StateVector:
    """|0>^n."""
    _check_size(n_qubits, max_qubits)
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


# Gate kernels work on a view reshaped to (high bits, 2, low bits) so the
# middle axis is the target qubit; no 2^n x 2^n matrices are ever built.


def _split(amps: np.ndarray, qubit: int) -> np.ndarray:
    return amps.reshape(-1, 2, 2**qubit)


def _apply_h(amps: np.ndarray, qubit: int) -> np.ndarray:
    view = _split(amps, qubit)
    out = np.empty_like(view)
    out[:, 0, :] = (view[:, 0, :] + view[:, 1, :]) * _INV_SQRT2
    out[:, 1, :] = (view[:, 0, :] - view[:, 1, :]) * _INV_SQRT2
    return out.reshape(amps.size)


def _apply_x(amps: np.ndarray, qubit: int) -> np.ndarray:
    view = _split(amps, qubit)
    out = np.empty_like(view)
    out[:, 0, :] = view[:, 1, :]
    out[:, 1, :] = view[:, 0, :]
    return out.reshape(amps.size)


def _apply_z(amps: np.ndarray, qubit: int) -> np.ndarray:
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


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    hi, lo = max(control, target), min(control, target)
    view = _split2(amps, hi, lo)
    out = view.copy()
    if control > target:
        out[:, 1, :, 0, :] = view[:, 1, :, 1, :]
        out[:, 1, :, 1, :] = view[:, 1, :, 0, :]
    else:
        out[:, 0, :, 1, :] = view[:, 1, :, 1, :]
        out[:, 1, :, 1, :] = view[:, 0, :, 1, :]
    return out.reshape(amps.size)


def apply_gate(state: StateVector, gate: str, targets) -> StateVector:
    """Apply H, X, Z, CZ, or CNOT; CNOT targets are (control, target)."""
    targets = tuple(targets)
    arity = 2 if gate in ("CZ", "CNOT") else 1
    if gate in GATE_NAMES and len(targets) != arity:
        raise ValueError(f"{gate} expects {arity} target(s), got {targets}")
    for q in targets:
        if not 0 <= q < state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {targets}")
    amps = state.amplitudes
    if gate == "H":
        (q,) = targets
        out = _apply_h(amps, q)
    elif gate == "X":
        (q,) = targets
        out = _apply_x(amps, q)
    elif gate == "Z":
        (q,) = targets
        out = _apply_z(amps, q)
    elif gate == "CZ":
        q1, q2 = targets
        out = _apply_cz(amps, q1, q2)
    elif gate == "CNOT":
        control, target = targets
        out = _apply_cnot(amps, control, target)
    else:
        raise ValueError(f"unknown gate {gate!r}; expected one of {GATE_NAMES}")
    return StateVector(state.n_qubits, out)


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


def schmidt_rank(state: StateVector, cut: Bipartition, tol: float = 1e-9) -> int:
    """Rank of the coefficient matrix across the cut.

    Singular values of stabilizer states are bounded away from zero by
    powers of 1/2, so the default tolerance is safely below any of them.
    """
    n = state.n_qubits
    if cut.qubits() != frozenset(range(n)):
        raise ValueError("bipartition does not cover exactly this register")
    tensor = state.amplitudes.reshape([2] * n)
    # axis for qubit k is n-1-k (C order puts qubit n-1 first)
    a_axes = sorted(n - 1 - q for q in cut.side_a)
    b_axes = sorted(n - 1 - q for q in cut.side_b)
    matrix = tensor.transpose(a_axes + b_axes).reshape(
        2 ** len(a_axes), 2 ** len(b_axes)
    )
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(singular > tol))
