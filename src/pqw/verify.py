"""Exhaustive verification: every outcome of every prepared graph is
checked against the target state, the symbolic signs of the data
stabilizers are checked against their far-side forms, and noise curves
are swept with their closed-form overlays.

Everything here is exact; nothing is sampled.  Reports are plain data
and render elsewhere; two runs over the same inputs produce equal
reports.  A report and each of its outcome records are named tuples,
whose fields cannot be assigned.

The outcome sweep reads the symbolic tableau run, not a statevector.
After S1-S4 the data group holds each K_v with sign
sign_v (-1)^{|sigma_v & s|} at outcome s, and the plan flips that sign by
(-1)^{|phi_v & s|}, phi_v its sign form.  Every corrected state is
therefore a Pauli times |G>: it has fidelity exactly 1 when every
product is +1 and exactly 0 otherwise, and every outcome has probability
exactly 4^-|E|, as no measurement is determined.  Only the rank
comparison is dense, and it loads numpy when it runs.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .graphs import DEFAULT_QUBIT_CEILING, Graph, ResourceError, stabilizer_generators
from .noise import (
    CHANNEL_ALIASES,
    NoiseChannel,
    NoiseReport,
    f_star_dep,
    f_star_pd,
    noisy_protocol_fidelity,
)
from .protocol import _sign_forms, far_side_mask, symbolic_protocol_tableau
from .stabilizer import extract_sign_form

if TYPE_CHECKING:
    from . import statevector as sv

FIDELITY_TOL = 1e-12
PROBABILITY_TOL = 1e-12


class OutcomeRecord(NamedTuple):
    """One outcome of a report; a tuple, so a sweep builds its records in
    bulk rather than through one __init__ each."""

    index: int
    probability: float
    fidelity: float


class VerificationReport(NamedTuple):
    graph_name: str
    correction_kind: str
    outcome_count: int
    min_fidelity: float
    max_fidelity: float
    max_probability_deviation: float
    records: tuple[OutcomeRecord, ...]

    @property
    def passed(self) -> bool:
        # every outcome has probability 1/count, so the deviation is
        # judged relative to that
        return (
            self.min_fidelity >= 1.0 - FIDELITY_TOL
            and self.max_probability_deviation * self.outcome_count <= PROBABILITY_TOL
        )


def verify_all_outcomes(
    graph: Graph, correction_kind: str = "universal", name: str | None = None
) -> VerificationReport:
    """Correct every outcome and compare it with the target graph state,
    all from the sign forms of one symbolic run."""
    if name is None:
        name = f"graph-{graph.n_vertices}v-{graph.n_edges}e"
    # the report lists all 4^|E| outcomes, so the register size still
    # bounds the work
    n_qubits = graph.n_vertices + 2 * graph.n_edges
    if n_qubits > DEFAULT_QUBIT_CEILING:
        raise ResourceError(
            f"{n_qubits} qubits exceeds the ceiling of {DEFAULT_QUBIT_CEILING}"
        )
    phis = _sign_forms(graph, correction_kind)
    tableau = symbolic_protocol_tableau(graph)
    # outcome s reaches |G> exactly when sign_v (-1)^{|(sigma_v ^ phi_v) & s|}
    # is +1 at every v; a vertex with sign_v = +1 and sigma_v = phi_v holds
    # at every s, so only the others are kept, as (mask, parity needed)
    conditions = []
    for v, k_v, phi in zip(graph.vertices, stabilizer_generators(graph).generators, phis):
        form = extract_sign_form(tableau, k_v)
        if form is None:
            raise AssertionError(f"K_{v} is missing from the data group")
        sign, sigma = form
        if sign == -1 or sigma != phi:
            conditions.append((sigma ^ phi, sign == -1))
    count = graph.outcome_count()
    if conditions:
        fidelities = [
            float(all(((mask & s).bit_count() & 1) == odd for mask, odd in conditions))
            for s in range(count)
        ]
    else:
        fidelities = [1.0] * count
    probability = 1.0 / count
    return VerificationReport(
        graph_name=name,
        correction_kind=correction_kind,
        outcome_count=count,
        min_fidelity=min(fidelities),
        max_fidelity=max(fidelities),
        max_probability_deviation=0.0,
        records=tuple(
            map(OutcomeRecord._make, zip(range(count), repeat(probability), fidelities))
        ),
    )


def phase_lemma_check(graph: Graph) -> bool:
    """Confirm the symbolic run: for each vertex v the data group after
    the protocol contains K_v with sign (-1)^{g_v(s)} at every outcome s,
    g_v the XOR of far-side bits at v.

    The tableau runs once with every sign an affine form in the outcome
    bits, so comparing K_v's form with g_v's far-side mask checks all
    4^|E| outcomes at once, at every graph size.
    """
    tableau = symbolic_protocol_tableau(graph)
    generators = stabilizer_generators(graph).generators
    return all(
        extract_sign_form(tableau, k_v) == (1, far_side_mask(graph, v))
        for v, k_v in zip(graph.vertices, generators)
    )


class CutRecord(NamedTuple):
    cut: sv.Bipartition
    rank_a: int
    rank_b: int


class LcReport(NamedTuple):
    records: tuple[CutRecord, ...]

    @property
    def inequivalent(self) -> bool:
        """A single differing Schmidt rank separates the two states
        under local unitaries, hence under local Cliffords."""
        return any(r.rank_a != r.rank_b for r in self.records)


def lc_check(
    state_a: sv.StateVector, state_b: sv.StateVector, bipartitions
) -> LcReport:
    """Schmidt ranks of both states across each cut.

    Ranks are invariant under local unitaries, so differing ranks prove
    the states inequivalent; equal ranks prove nothing.
    """
    from . import statevector as sv

    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError(
            f"qubit counts differ: {state_a.n_qubits} vs {state_b.n_qubits}"
        )
    records = []
    for cut in bipartitions:
        if cut.qubits() != frozenset(range(state_a.n_qubits)):
            raise ValueError("bipartition must cover exactly the state's qubits")
        records.append(
            CutRecord(cut, sv.schmidt_rank(state_a, cut), sv.schmidt_rank(state_b, cut))
        )
    return LcReport(tuple(records))


def noise_sweep(
    graph: Graph,
    channel_kind: str,
    p_grid,
    correction_kind: str = "universal",
    insertion: str = "post_prep",
    metric: str = "strict",
    max_qubits: int | None = None,
) -> NoiseReport:
    """Enumerate the exact fidelity on each grid point and attach the
    closed-form curve where one exists (depolarizing and phase damping;
    amplitude damping has none and gets no overlay)."""
    kind = CHANNEL_ALIASES.get(channel_kind, channel_kind)
    grid = tuple(float(p) for p in p_grid)
    k = 2 * graph.n_edges
    fidelities = tuple(
        noisy_protocol_fidelity(
            graph,
            NoiseChannel(kind, p),
            correction_kind=correction_kind,
            insertion=insertion,
            metric=metric,
            max_qubits=max_qubits,
        )
        for p in grid
    )
    if kind == "depolarizing":
        analytic = tuple(f_star_dep(p, k) for p in grid)
    elif kind == "phase_damping":
        analytic = tuple(f_star_pd(p, k) for p in grid)
    else:
        analytic = None
    return NoiseReport(grid, fidelities, analytic, k)
