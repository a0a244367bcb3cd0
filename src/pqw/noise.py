"""Exact noisy-protocol fidelity, plus the closed-form curves and the
count post-processing arithmetic.

Noise model: one single-qubit channel applied independently to each of
the k = 2|E| resource qubits, either right after the pairs are prepared
(insertion "post_prep", the default: the halves are what get shipped)
or just before they are measured ("pre_measure").  Data qubits stay
clean.

Two fidelity accountings are provided, and they are not the same
number:

* metric="strict" charges every resource-qubit error as a loss.  A
  qubit comes through error-free with probability
  sum_b |tr(K_b)/2|^2, independently of the others, so the no-error
  fraction is that per-qubit retention to the power k; it multiplies
  the exact noiseless fidelity, which is 1 for a valid plan and below 1
  for a broken one.  This is why the result matches the closed-form
  curves (1-3p/4)^k and ((1+sqrt(1-p))/2)^k to machine precision,
  identically for both insertion points.

* metric="conditional" is the operational fidelity of the state
  actually delivered: every error branch runs through the remaining
  circuit, every outcome is projected and corrected, and the squared
  overlaps with the target state are summed.  It sits above the strict
  value at order p^2 and cannot reproduce the closed forms: on any
  single edge the pair errors X(x)Z, Z(x)X and Y(x)Y leave the shared
  pair state invariant, so the correction step silently repairs some
  multi-error patterns that the strict accounting already wrote off.
  The two metrics agree at p=0 and conditional >= strict everywhere.

Two exact engines compute these numbers, and neither touches a
statevector.  Depolarizing noise is a Pauli channel and phase damping
equals a Z flip with probability (1-sqrt(1-p))/2, so for these two
every error branch is a Pauli error that the Clifford walk carries to a
data-Z frame, and the conditional fidelity is the probability that the
frames of all k qubits cancel.  That distribution over GF(2)^|V| is
enumerated exactly, one qubit at a time.  Amplitude damping just before
measurement only misreads bits, so it runs on the same frames.

Amplitude damping after prep, and the noiseless factor of strict, run
as a Heisenberg-picture sum.  The corrected-fidelity operator
M = sum_s |s><s| (x) C_s^dagger |G><G| C_s is the projector of a
stabilizer code with one generator K_v (x) Z_R^{phi_v} per vertex, so
F = tr(M rho) is 2^-|V| times the sum of the expectations of its 2^|V|
elements.  Each element is carried back through the walk and through
the adjoint channel, where the prepared state factors into |+> per data
qubit and CZ|++> per edge.  Both engines cost 2^|V| terms, so the
qubit budget bounds |V| on every path.

The default is strict because the closed-form curves are the quantity
the rest of the toolchain (effective-p extraction, channel comparisons)
is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, stabilizer_generators
from .protocol import _bit_reversed, _outcome_bit, correction_forms, walk_gates
from .stabilizer import PauliString, Tableau, conjugate
from .statevector import ResourceError

CHANNEL_KINDS = ("depolarizing", "phase_damping", "amplitude_damping")
CHANNEL_ALIASES = {
    "dep": "depolarizing",
    "pd": "phase_damping",
    "ad": "amplitude_damping",
}

INSERTION_POINTS = ("post_prep", "pre_measure")
METRICS = ("strict", "conditional")

DEFAULT_VERTEX_BUDGET = 12


@dataclass(frozen=True)
class NoiseChannel:
    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(
                f"unknown channel kind {self.kind!r}; expected one of {CHANNEL_KINDS}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"channel strength must lie in [0, 1], got {self.p}")


def parse_channel(name: str, p: float) -> NoiseChannel:
    """Accepts both the full kind names and the short aliases dep, pd, ad."""
    return NoiseChannel(CHANNEL_ALIASES.get(name, name), p)


def kraus_ops(channel: NoiseChannel) -> tuple[np.ndarray, ...]:
    p = channel.p
    if channel.kind == "depolarizing":
        return (
            math.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=complex),
            math.sqrt(p / 4.0) * np.array([[0, 1], [1, 0]], dtype=complex),
            math.sqrt(p / 4.0) * np.array([[0, -1j], [1j, 0]], dtype=complex),
            math.sqrt(p / 4.0) * np.array([[1, 0], [0, -1]], dtype=complex),
        )
    if channel.kind == "phase_damping":
        return (
            np.array([[1, 0], [0, math.sqrt(1.0 - p)]], dtype=complex),
            np.array([[0, 0], [0, math.sqrt(p)]], dtype=complex),
        )
    # amplitude damping: decay |1> -> |0>
    return (
        np.array([[1, 0], [0, math.sqrt(1.0 - p)]], dtype=complex),
        np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex),
    )


# -- closed forms and count arithmetic --------------------------------------


def f_star_dep(p: float, k: int) -> float:
    """No-error retention of k resource qubits under depolarizing noise."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return (1.0 - 0.75 * p) ** k

def f_star_pd(p: float, k: int) -> float:
    """Same for phase damping."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return ((1.0 + math.sqrt(1.0 - p)) / 2.0) ** k


def extract_p_eff(fidelity: float, k: int) -> float:
    """Invert the depolarizing curve: the per-qubit strength that would
    produce the observed fidelity over k resource qubits."""
    if fidelity <= 0.0:
        raise ValueError(f"fidelity must be positive, got {fidelity}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return (4.0 / 3.0) * (1.0 - fidelity ** (1.0 / k))


def t1_damping_estimate(duration_us: float, t1_us: float) -> float:
    """Decay probability 1 - exp(-duration/T1) accumulated over a gate
    or delay of the given length."""
    if duration_us < 0:
        raise ValueError(f"duration must be non-negative, got {duration_us}")
    if t1_us <= 0:
        raise ValueError(f"T1 must be positive, got {t1_us}")
    return 1.0 - math.exp(-duration_us / t1_us)


def bhattacharyya_fidelity(
    counts: dict[str, int], ideal: dict[str, float], squared: bool = True
) -> float:
    """Classical overlap of an empirical distribution with an ideal one:
    (sum_x sqrt(phat_x * q_x))^2, or the unsquared sum when asked."""
    if not counts:
        raise ValueError("counts must be non-empty")
    if any(c < 0 for c in counts.values()):
        raise ValueError("counts must be non-negative")
    total = sum(counts.values())
    if total == 0:
        raise ValueError("counts must not all be zero")
    ideal_total = math.fsum(ideal.values())
    if abs(ideal_total - 1.0) > 1e-9:
        raise ValueError(
            f"ideal probabilities sum to {ideal_total}, expected 1 within 1e-9"
        )
    if any(q < 0 for q in ideal.values()):
        raise ValueError("ideal probabilities must be non-negative")
    overlap = math.fsum(
        math.sqrt((counts.get(x, 0) / total) * q) for x, q in ideal.items()
    )
    return overlap**2 if squared else overlap


@dataclass(frozen=True)
class NoiseReport:
    """One fidelity curve: the grid, the enumerated values, and the
    closed-form overlay when one exists for the channel."""

    p_grid: tuple[float, ...]
    fidelities: tuple[float, ...]
    analytic: tuple[float, ...] | None
    k: int

    def __post_init__(self):
        if len(self.p_grid) != len(self.fidelities):
            raise ValueError("p_grid and fidelities must have equal length")
        if self.analytic is not None and len(self.analytic) != len(self.p_grid):
            raise ValueError("analytic overlay must match the grid length")
        if any(f < -1e-12 or f > 1.0 + 1e-12 for f in self.fidelities):
            raise ValueError("fidelities must lie in [0, 1]")


# -- exact enumeration -------------------------------------------------------


def noisy_protocol_fidelity(
    graph: Graph,
    channel: NoiseChannel,
    correction_kind: str = "universal",
    insertion: str = "post_prep",
    metric: str = "strict",
    max_qubits: int | None = None,
) -> float:
    """Exact fidelity of the distributed state under independent noise
    on every resource qubit.

    Every one of the 4^|E| measurement outcomes and every error branch
    over the k = 2|E| resource qubits is accounted for, with the
    noiseless correction formula applied per outcome.  Pauli channels,
    and amplitude damping before measurement, run as data-Z frames;
    amplitude damping after prep and the strict metric run as a
    Heisenberg-picture sum over the code of the corrected fidelity.
    Both engines cost 2^|V| terms, so max_qubits bounds the vertex
    count.  See the module docstring for what the two metrics count.
    Both reduce to 1 at p=0.
    """
    if insertion not in INSERTION_POINTS:
        raise ValueError(
            f"unknown insertion point {insertion!r}; expected one of {INSERTION_POINTS}"
        )
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    heisenberg = metric == "strict" or (
        channel.kind == "amplitude_damping" and insertion == "post_prep"
    )
    budget = DEFAULT_VERTEX_BUDGET if max_qubits is None else max_qubits
    if graph.n_vertices > budget:
        engine = "Heisenberg sum" if heisenberg else "Pauli-frame enumeration"
        raise ResourceError(
            f"{engine} over {graph.n_vertices} vertices exceeds the budget of "
            f"{budget}; pick a smaller graph or raise max_qubits"
        )
    if not heisenberg:
        return _frame_fidelity(
            graph, _pauli_probabilities(channel), correction_kind, insertion
        )
    ops = kraus_ops(channel)
    if metric == "conditional":
        return _heisenberg_fidelity(graph, ops, correction_kind)
    # each qubit comes through error-free with probability
    # sum_b |tr(K_b)/2|^2, independently of the others; that fraction
    # multiplies the noiseless sum
    retention = math.fsum(abs(np.trace(op)) ** 2 / 4.0 for op in ops)
    noiseless = _heisenberg_fidelity(graph, (np.eye(2),), correction_kind)
    return retention ** (2 * graph.n_edges) * noiseless


def _sign_forms(graph: Graph, correction_kind: str) -> list[int]:
    """phi_v = z_v xor (xor of x_u over u ~ v) per vertex, as outcome-bit
    forms: the plan for outcome s flips the sign of K_v by
    (-1)^{|phi_v & s|}, so it is valid exactly when phi_v equals
    far_side_mask(v)."""
    forms = correction_forms(graph, correction_kind)
    phis = []
    for v, (_, z) in zip(graph.vertices, forms):
        for u in graph.neighbors(v):
            z ^= forms[graph.vertex_index(u)][0]
        phis.append(z)
    return phis


# -- Heisenberg-picture sum ----------------------------------------------------


@lru_cache(maxsize=32)
def _heisenberg_generators(graph: Graph, correction_kind: str) -> tuple[PauliString, ...]:
    """W^dagger S_v W for the generators S_v = K_v (x) Z_R^{phi_v} of the
    code whose projector is the corrected-fidelity operator
    M = sum_s |s><s| (x) C_s^dagger |G><G| C_s, W the walk.

    C_s^dagger K_v C_s = (-1)^{|phi_v & s|} K_v, and Z_R^{phi_v} reads that
    sign off the resource register, so M = prod_v (1 + S_v)/2.
    """
    nv = graph.n_vertices
    total = nv + 2 * graph.n_edges
    generators = []
    for k_v, phi in zip(
        stabilizer_generators(graph).generators, _sign_forms(graph, correction_kind)
    ):
        # resource qubit nv + m holds sequence bit m of the outcome
        z_r = _bit_reversed(graph, phi) << nv
        generators.append(PauliString(total, k_v.x_bits, k_v.z_bits | z_r))
    tableau = Tableau(total, tuple(generators))
    # every walk gate is its own inverse, so W^dagger P W is the walk run
    # backwards in the Schroedinger rule U P U^dagger
    for gate, targets in reversed(walk_gates(graph)):
        tableau = conjugate(tableau, gate, targets)
    return tableau.generators


_PAIR = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0  # CZ|++>
_SITE_PAULIS = {  # X^x Z^z at key (x, z)
    (0, 0): np.eye(2),
    (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]]),
    (0, 1): np.array([[1.0, 0.0], [0.0, -1.0]]),
    (1, 1): np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def _edge_table(ops: tuple[np.ndarray, ...]) -> list[complex]:
    """<CZ++| E^dagger(P_0) (x) E^dagger(P_1) |CZ++> for the pair's Paulis
    P_h = X^{x_h} Z^{z_h}, at index x + 4z with x = x_0 + 2 x_1 and
    z = z_0 + 2 z_1; E^dagger(P) = sum_b K_b^dagger P K_b is the adjoint
    channel."""
    adjoint = {
        site: sum(op.conj().T @ pauli @ op for op in ops)
        for site, pauli in _SITE_PAULIS.items()
    }
    return [
        complex(_PAIR @ np.kron(adjoint[x >> 1, z >> 1], adjoint[x & 1, z & 1]) @ _PAIR)
        for z in range(4)
        for x in range(4)
    ]


def _heisenberg_fidelity(
    graph: Graph, ops: tuple[np.ndarray, ...], correction_kind: str
) -> float:
    """Conditional fidelity of a channel with these Kraus operators on
    every resource qubit right after the pairs are prepared:

        F = 2^-|V| sum_{A subset V} <psi_prep| E^dagger(W^dagger S_A W) |psi_prep>

    with S_A the product of the code generators in A.  psi_prep is |+>
    on each data qubit, where a Z gives 0, and CZ|++> on each edge, where
    the adjoint channel on both halves gives one entry of the edge table.
    The subsets run in Gray-code order, one generator product a step.
    """
    table = _edge_table(ops)
    generators = _heisenberg_generators(graph, correction_kind)
    nv = graph.n_vertices
    data = (1 << nv) - 1
    term = PauliString(nv + 2 * graph.n_edges, 0, 0)
    values = []
    for step in range(1 << nv):
        if step:
            term = term * generators[(step & -step).bit_length() - 1]
        if term.z_bits & data:
            continue
        x, z = term.x_bits >> nv, term.z_bits >> nv
        value = 1j**term.phase
        for _ in range(graph.n_edges):
            value *= table[(x & 3) | (z & 3) << 2]
            x, z = x >> 2, z >> 2
        values.append(value.real)
    return math.fsum(values) / (1 << nv)


# -- Pauli-frame enumeration -------------------------------------------------


def _pauli_probabilities(channel: NoiseChannel) -> tuple[float, float, float, float]:
    """(I, X, Y, Z) probabilities of the Pauli channel equal to this
    one; phase damping is a Z flip with q = (1 - sqrt(1-p))/2.

    Amplitude damping has no Pauli form, but just before a Z
    measurement it only reads a 1 as 0 with probability p.  Every bit is
    uniform, so there it acts as an X flip with probability p/2; the
    result holds for insertion "pre_measure" only."""
    p = channel.p
    if channel.kind == "depolarizing":
        return (1.0 - 0.75 * p, p / 4.0, p / 4.0, p / 4.0)
    if channel.kind == "amplitude_damping":
        return (1.0 - p / 2.0, p / 2.0, 0.0, 0.0)
    q = (1.0 - math.sqrt(1.0 - p)) / 2.0
    return (1.0 - q, 0.0, 0.0, q)


def _misread_frames(graph: Graph, correction_kind: str) -> list[int]:
    """Entry m is the data-Z frame, a bitmask in vertex order, left
    behind when resource bit m is read flipped.

    Every plan is a linear form in the outcome bits, so applying the
    plan for s while the data carry the byproduct of s xor e_m leaves
    the plan read at e_m.  Multiplying by K_u = X_u Z_{N(u)} for every
    X_u in it reduces it modulo Stab(|G>) to a pure Z string, whose bit
    at v is bit m of z_v xor (xor of x_u over u ~ v).  No nonzero Z
    string stabilizes |G>, so the frame is harmless exactly when it is
    zero.
    """
    frame_forms = _sign_forms(graph, correction_kind)
    frames = []
    for m in range(2 * graph.n_edges):
        bit = _outcome_bit(graph, m)
        frames.append(sum(1 << i for i, form in enumerate(frame_forms) if form & bit))
    return frames


def _frame_fidelity(
    graph: Graph,
    probabilities: tuple[float, float, float, float],
    correction_kind: str,
    insertion: str,
) -> float:
    """Conditional fidelity of a Pauli channel as the probability that
    the data-Z frames of all resource-qubit errors cancel.

    On v's half of an edge, after the pairs are prepared, X passes the
    CZ to v's data qubit as Z_v and then becomes a harmless Z on the
    measured qubit, Z becomes a misread bit, and Y does both.  Just
    before measurement X and Y misread the bit and Z does nothing.
    Every outcome stays equally likely, so only the frame matters.  The
    frames are relative to the noiseless run, so this assumes a plan
    that corrects every noiseless outcome, as every correction kind does.
    """
    misread = _misread_frames(graph, correction_kind)
    index = np.arange(2**graph.n_vertices)
    dist = np.zeros(index.size)
    dist[0] = 1.0
    for m, flip in enumerate(misread):
        edge = graph.edges[m // 2]
        kick = 1 << graph.vertex_index(edge[m % 2])
        if insertion == "post_prep":
            frames = (0, kick, kick ^ flip, flip)
        else:
            frames = (0, flip, flip, 0)
        weights: dict[int, float] = {}
        for frame, prob in zip(frames, probabilities):
            weights[frame] = weights.get(frame, 0.0) + prob
        dist = sum(
            prob * dist[index ^ frame] for frame, prob in weights.items() if prob
        )
    return float(dist[0])
