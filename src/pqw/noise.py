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

One exact engine computes every one of these numbers, with no
statevector.  The corrected-fidelity operator
M = sum_s |s><s| (x) C_s^dagger |G><G| C_s is the projector of a
stabilizer code with one generator K_v (x) Z_R^{phi_v} per vertex, so
F = tr(M rho) is 2^-|V| times the sum of the expectations of its 2^|V|
elements, taken in Gray-code order.  After prep, each element is
carried back through the walk and the adjoint channel to the prepared
state, |+> per data qubit and CZ|++> per edge.  Before measurement the
channel only reaches Z_R, and the walk fixes each expectation by two
xor-linear outcome-bit masks.  Every path costs 2^|V| terms, so the
qubit budget bounds |V|.

The default is strict because the closed-form curves are the quantity
the rest of the toolchain (effective-p extraction, channel comparisons)
is built around.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .graphs import Graph, stabilizer_generators
from .protocol import _bit_reversed, correction_forms, far_side_mask, walk_gates
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
    noiseless correction formula applied per outcome.  Every channel,
    insertion point and metric runs as one Heisenberg-picture sum over
    the 2^|V| elements of the code of the corrected fidelity, so
    max_qubits bounds the vertex count.  See the module docstring for
    what the two metrics count.  Both reduce to 1 at p=0.
    """
    if insertion not in INSERTION_POINTS:
        raise ValueError(
            f"unknown insertion point {insertion!r}; expected one of {INSERTION_POINTS}"
        )
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    budget = DEFAULT_VERTEX_BUDGET if max_qubits is None else max_qubits
    if graph.n_vertices > budget:
        raise ResourceError(
            f"Heisenberg sum over {graph.n_vertices} vertices exceeds the budget "
            f"of {budget}; pick a smaller graph or raise max_qubits"
        )
    # plain nested lists: a matrix product on 2x2 operands would only
    # wake BLAS, which costs peak memory and buys no speed
    ops = [op.tolist() for op in kraus_ops(channel)]
    if metric == "strict":
        # each qubit comes through error-free with probability
        # sum_b |tr(K_b)/2|^2, independently of the others; that fraction
        # multiplies the noiseless sum, where E^dagger(Z) = Z
        retention = math.fsum(abs(op[0][0] + op[1][1]) ** 2 / 4.0 for op in ops)
        noiseless = _measured_sum(graph, correction_kind, 0.0, 1.0)
        return retention ** (2 * graph.n_edges) * noiseless
    if insertion == "post_prep":
        return _prepared_sum(graph, ops, correction_kind)
    # every channel here is diagonal in E^dagger(Z) = a + b Z
    z = _adjoint(ops, _SITE_PAULIS[0, 1])
    a = (z[0][0] + z[1][1]).real / 2.0
    b = (z[0][0] - z[1][1]).real / 2.0
    return _measured_sum(graph, correction_kind, a, b)


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


def _code_sum(identity, generators, multiply, read) -> float:
    """2^-n times the sum of read(S_A) over the 2^n products S_A of the
    n generators, in Gray-code order: one product a step."""
    term, values = identity, [read(identity)]
    for step in range(1, 1 << len(generators)):
        term = multiply(term, generators[(step & -step).bit_length() - 1])
        values.append(read(term))
    return math.fsum(values) / (1 << len(generators))


def _measured_sum(graph: Graph, correction_kind: str, a: float, b: float) -> float:
    """Conditional fidelity of a channel with E^dagger(Z) = a + b Z on
    every resource qubit just before it is measured:

        F = 2^-|V| sum_{A subset V} <psi_pre| E^dagger(K_A (x) Z_R^{phi_A}) |psi_pre>

    E^dagger turns Z_R^{phi_A} into the sum over T subset phi_A of
    a^{|phi_A - T|} b^{|T|} Z_R^T, and the walk leaves
    <K_A (x) Z_R^T> = [T = far_A] (the phase lemma that
    phase_lemma_check proves), with far_A the xor of far_side_mask(v)
    over A.  So per resource bit (phi_A, far_A) reads (0,0) -> 1,
    (1,0) -> a, (1,1) -> b and (0,1) -> 0.  Both masks are xor-linear in
    A, so a code element is the pair packed into one int.
    """
    k = 2 * graph.n_edges
    low = (1 << k) - 1
    generators = [
        phi | far_side_mask(graph, v) << k
        for v, phi in zip(graph.vertices, _sign_forms(graph, correction_kind))
    ]

    def read(term: int) -> float:
        phi, far = term & low, term >> k
        if far & ~phi:
            return 0.0
        return a ** (phi ^ far).bit_count() * b ** far.bit_count()

    return _code_sum(0, generators, operator.xor, read)


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


_PAIR = (0.5, 0.5, 0.5, -0.5)  # CZ|++>
_SITE_PAULIS = {  # X^x Z^z at key (x, z)
    (0, 0): ((1.0, 0.0), (0.0, 1.0)),
    (1, 0): ((0.0, 1.0), (1.0, 0.0)),
    (0, 1): ((1.0, 0.0), (0.0, -1.0)),
    (1, 1): ((0.0, -1.0), (1.0, 0.0)),
}


def _adjoint(ops: list, pauli) -> list[list[complex]]:
    """E^dagger(P) = sum_b K_b^dagger P K_b, the adjoint channel, on 2x2
    nested lists."""
    pairs = tuple(product((0, 1), repeat=2))
    return [
        [
            sum(
                op[r][i].conjugate() * pauli[r][c] * op[c][j]
                for op in ops
                for r, c in pairs
            )
            for j in (0, 1)
        ]
        for i in (0, 1)
    ]


def _edge_table(ops: list) -> list[complex]:
    """<CZ++| E^dagger(P_0) (x) E^dagger(P_1) |CZ++> for the pair's Paulis
    P_h = X^{x_h} Z^{z_h}, at index x + 4z with x = x_0 + 2 x_1 and
    z = z_0 + 2 z_1; P_1 is the high factor of the pair's index."""
    adjoint = {site: _adjoint(ops, pauli) for site, pauli in _SITE_PAULIS.items()}
    table = []
    for z in range(4):
        for x in range(4):
            high, low = adjoint[x >> 1, z >> 1], adjoint[x & 1, z & 1]
            table.append(
                sum(
                    _PAIR[2 * i + k] * high[i][j] * low[k][l] * _PAIR[2 * j + l]
                    for i, j, k, l in product((0, 1), repeat=4)
                )
            )
    return table


def _prepared_sum(graph: Graph, ops: list, correction_kind: str) -> float:
    """Conditional fidelity of a channel with these Kraus operators on
    every resource qubit right after the pairs are prepared:

        F = 2^-|V| sum_{A subset V} <psi_prep| E^dagger(W^dagger S_A W) |psi_prep>

    with S_A the product of the code generators in A.  psi_prep is |+>
    on each data qubit, where a Z gives 0, and CZ|++> on each edge, where
    the adjoint channel on both halves gives one entry of the edge table.
    """
    table = _edge_table(ops)
    nv = graph.n_vertices
    data = (1 << nv) - 1

    def read(term: PauliString) -> float:
        if term.z_bits & data:
            return 0.0
        x, z = term.x_bits >> nv, term.z_bits >> nv
        value = 1j**term.phase
        for _ in range(graph.n_edges):
            value *= table[(x & 3) | (z & 3) << 2]
            x, z = x >> 2, z >> 2
        return value.real

    identity = PauliString(nv + 2 * graph.n_edges, 0, 0)
    generators = _heisenberg_generators(graph, correction_kind)
    return _code_sum(identity, generators, operator.mul, read)
