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
  the exact noiseless outcome enumeration, which is 1 for a valid plan
  and below 1 for a broken one.  This is why the result matches the
  closed-form curves (1-3p/4)^k and ((1+sqrt(1-p))/2)^k to machine
  precision, identically for both insertion points.

* metric="conditional" is the operational fidelity of the state
  actually delivered: every error branch runs through the remaining
  circuit, every outcome is projected and corrected, and the squared
  overlaps with the target state are summed.  It sits above the strict
  value at order p^2 and cannot reproduce the closed forms: on any
  single edge the pair errors X(x)Z, Z(x)X and Y(x)Y leave the shared
  pair state invariant, so the correction step silently repairs some
  multi-error patterns that the strict accounting already wrote off.
  The two metrics agree at p=0 and conditional >= strict everywhere.

How conditional is enumerated depends on the channel.  Depolarizing
noise is a Pauli channel and phase damping equals a Z flip with
probability (1-sqrt(1-p))/2, so for these two every error branch is a
Pauli error that the Clifford walk carries to a data-Z frame, and the
conditional fidelity is the probability that the frames of all k
qubits cancel.  That distribution over GF(2)^|V| is enumerated
exactly, one qubit at a time, with no statevector; the qubit budget
applies to |V| there and the term budget does not.  Amplitude damping
has no Pauli form and runs every Kraus branch through a dense
statevector, under both budgets.  The strict metric is computed the
same way for every channel and is held to the qubit budget only: its
one dense enumeration is the noiseless one.

The default is strict because the closed-form curves are the quantity
the rest of the toolchain (effective-p extraction, channel comparisons)
is built around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .graphs import Graph
from .protocol import (
    _after_prep,
    _correction_targets,
    _outcome_bit,
    _outcome_overlaps,
    _premeasurement,
    _walk,
    build_layout,
    correction_forms,
)
from .statevector import ResourceError

CHANNEL_KINDS = ("depolarizing", "phase_damping", "amplitude_damping")
CHANNEL_ALIASES = {
    "dep": "depolarizing",
    "pd": "phase_damping",
    "ad": "amplitude_damping",
}

INSERTION_POINTS = ("post_prep", "pre_measure")
METRICS = ("strict", "conditional")

DEFAULT_TOTAL_QUBIT_BUDGET = 12
DEFAULT_TERM_BUDGET = 2**24  # branch-outcome pairs


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


def _apply_one_qubit_matrix(amps: np.ndarray, mat: np.ndarray, qubit: int) -> np.ndarray:
    view = amps.reshape(-1, 2, 2**qubit)
    out = np.einsum("ab,ibj->iaj", mat, view)
    return out.reshape(amps.size)


def _check_qubit_budget(what: str, size: int, max_qubits) -> None:
    budget = DEFAULT_TOTAL_QUBIT_BUDGET if max_qubits is None else max_qubits
    if size > budget:
        raise ResourceError(
            f"{what} exceeds the budget of {budget}; "
            "pick a smaller graph or raise max_qubits"
        )


def noisy_protocol_fidelity(
    graph: Graph,
    channel: NoiseChannel,
    correction_kind: str = "universal",
    insertion: str = "post_prep",
    metric: str = "strict",
    max_qubits: int | None = None,
    max_terms: int | None = None,
) -> float:
    """Exact fidelity of the distributed state under independent noise
    on every resource qubit.

    All 4^|E| measurement outcomes are enumerated, with the noiseless
    correction formula applied per outcome.  The conditional metric
    also enumerates every error branch over the k = 2|E| resource
    qubits: as data-Z frames for a Pauli channel, as dense Kraus
    branches for amplitude damping.  See the module docstring for what
    the two metrics count.  Both reduce to 1 at p=0.
    """
    if insertion not in INSERTION_POINTS:
        raise ValueError(
            f"unknown insertion point {insertion!r}; expected one of {INSERTION_POINTS}"
        )
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "conditional" and channel.kind != "amplitude_damping":
        # the frame distribution has one entry per data-Z pattern, 2^|V|
        _check_qubit_budget(
            f"Pauli-frame enumeration over {graph.n_vertices} vertices",
            graph.n_vertices,
            max_qubits,
        )
        return _frame_fidelity(
            graph, _pauli_probabilities(channel), correction_kind, insertion
        )
    total = graph.n_vertices + 2 * graph.n_edges
    _check_qubit_budget(f"noisy enumeration over {total} qubits", total, max_qubits)
    ops = kraus_ops(channel)
    k = 2 * graph.n_edges
    if metric == "strict":
        # each qubit comes through error-free with probability
        # sum_b |tr(K_b)/2|^2, independently of the others; that
        # fraction multiplies the exact noiseless outcome enumeration
        retention = math.fsum(abs(np.trace(op)) ** 2 / 4.0 for op in ops)
        targets = _correction_targets(graph, correction_kind)
        clean = _premeasurement(graph).amplitudes
        noiseless = math.fsum(_outcome_overlaps(graph, clean, targets).tolist())
        return retention**k * noiseless
    terms = len(ops) ** k * graph.outcome_count()
    term_budget = DEFAULT_TERM_BUDGET if max_terms is None else max_terms
    if terms > term_budget:
        raise ResourceError(
            f"{len(ops)}^{k} branches x {graph.outcome_count()} outcomes = "
            f"{terms} terms exceeds the budget of {term_budget}"
        )
    return _branch_fidelity(graph, ops, correction_kind, insertion)


def _branch_fidelity(
    graph: Graph, ops: tuple[np.ndarray, ...], correction_kind: str, insertion: str
) -> float:
    """Conditional fidelity by running each of the m^k Kraus branches
    through a dense statevector: the path for amplitude damping, and
    the reference the Pauli-frame engine is tested against."""
    layout = build_layout(graph)
    targets = _correction_targets(graph, correction_kind)
    resource_qubits = layout.resource_qubits()
    k = len(resource_qubits)
    branch_totals = []
    prepped = _after_prep(graph).amplitudes
    for branch in iter_product(range(len(ops)), repeat=k):
        if insertion == "post_prep":
            amps = prepped
            for q, b in zip(resource_qubits, branch):
                amps = _apply_one_qubit_matrix(amps, ops[b], q)
            amps = _walk(graph, amps)
        else:
            amps = _premeasurement(graph).amplitudes
            for q, b in zip(resource_qubits, branch):
                amps = _apply_one_qubit_matrix(amps, ops[b], q)
        branch_totals.append(
            math.fsum(_outcome_overlaps(graph, amps, targets).tolist())
        )
    return math.fsum(branch_totals)


# -- Pauli-frame enumeration -------------------------------------------------


def _pauli_probabilities(channel: NoiseChannel) -> tuple[float, float, float, float]:
    """(I, X, Y, Z) probabilities of the Pauli channel equal to this
    one; phase damping is a Z flip with q = (1 - sqrt(1-p))/2."""
    p = channel.p
    if channel.kind == "depolarizing":
        return (1.0 - 0.75 * p, p / 4.0, p / 4.0, p / 4.0)
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
    forms = correction_forms(graph, correction_kind)
    frame_forms = []
    for v, (_, z) in zip(graph.vertices, forms):
        for u in graph.neighbors(v):
            z ^= forms[graph.vertex_index(u)][0]
        frame_forms.append(z)
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
    Every outcome stays equally likely, so only the frame matters.
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
