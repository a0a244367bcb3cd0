"""Exhaustive verification: every outcome of every prepared graph is
checked against the target state, the symbolic signs of the data
stabilizers are checked against their far-side forms, and noise curves
are swept with their closed-form overlays.

Everything here is exact; nothing is sampled.  Reports are plain data
and render elsewhere; two runs over the same inputs produce equal
reports.  Every report is a named tuple, whose fields cannot be
assigned.

The outcome sweep reads the symbolic tableau run, not a statevector.
After S1-S4 the data group holds each K_v with sign
sign_v (-1)^{|sigma_v & s|} at outcome s, and the plan flips that sign by
(-1)^{|phi_v & s|}, phi_v its sign form.  Every corrected state is
therefore a Pauli times |G>: it has fidelity exactly 1 when every
product is +1 and exactly 0 otherwise, and every outcome has probability
exactly 4^-|E|, as no measurement is determined.  So a report is the
GF(2) conditions (sigma_v ^ phi_v) . s = [sign_v = -1] that do not hold
at every outcome, and everything else is read from them: pass/fail and
the first counterexample from the rows themselves, the maximum fidelity
from one elimination, and the fidelity of each outcome as one column
that builds no object per outcome.
Only the rank comparison is dense, and it loads numpy when it runs;
the noise sweep loads pqw.noise when it runs, so verification never does.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .graphs import DEFAULT_QUBIT_CEILING, Graph, ResourceError, stabilizer_generators
from .protocol import _sign_forms, far_side_mask, symbolic_protocol_tableau
from .stabilizer import extract_sign_forms

if TYPE_CHECKING:
    from . import statevector as sv
    from .noise import NoiseReport


class OutcomeRecord(NamedTuple):
    """One outcome of a report."""

    index: int
    probability: float
    fidelity: float


_FIDELITY = (0.0, 1.0)  # by whether an outcome meets every condition
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _met(count: int, conditions) -> bytes:
    """Byte s is 1 when outcome s meets every condition: each
    condition's column doubles once per outcome bit, its upper half
    flipped where the mask has that bit, and the columns are ANDed as
    integers."""
    met = int.from_bytes(b"\1" * count, "little")
    for mask, odd in conditions:
        column = b"\0" if odd else b"\1"  # outcome 0 has parity 0
        while len(column) < count:
            column += column.translate(_FLIP) if mask & len(column) else column
        met &= int.from_bytes(column, "little")
    return met.to_bytes(count, "little")


def _solvable(conditions) -> bool:
    """Whether some outcome meets every (mask, odd) condition: GF(2)
    elimination of the rows mask . s = odd, each kept as mask << 1 | odd,
    fails exactly when a row reduces to 0 = 1."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for mask, odd in conditions:
        row = mask << 1 | odd
        while row > 1:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
        if row == 1:
            return False
    return True


class VerificationReport(NamedTuple):
    """The outcome sweep of one graph under one plan, as its sign
    conditions: outcome s reaches |G> exactly when |mask & s| has parity
    odd for every (mask, odd) condition, and has probability
    1/outcome_count.  Each condition fails some outcome, as
    verify_all_outcomes keeps only those."""

    graph_name: str
    correction_kind: str
    outcome_count: int
    conditions: tuple[tuple[int, bool], ...]

    @property
    def passed(self) -> bool:
        return not self.conditions

    @property
    def min_fidelity(self) -> float:
        return 0.0 if self.conditions else 1.0

    @property
    def max_fidelity(self) -> float:
        # some outcome passes exactly when the conditions can all hold
        return 1.0 if _solvable(self.conditions) else 0.0

    def first_failure(self) -> int | None:
        """The lowest index that misses |G>, or None: outcome 0 fails any
        odd condition, and else the lowest set bit of a mask is the first
        index whose parity flips."""
        if not self.conditions:
            return None
        return min(0 if odd else mask & -mask for mask, odd in self.conditions)

    def fidelities(self):
        """Each outcome's fidelity, 0.0 or 1.0, in index order, as an
        iterator that builds no object per outcome."""
        if not self.conditions:
            return repeat(1.0, self.outcome_count)
        return map(_FIDELITY.__getitem__, _met(self.outcome_count, self.conditions))

    def fidelity_runs(self) -> list[tuple[int, int, float]]:
        """The fidelity column as its maximal runs of equal fidelity, each
        (start, stop, fidelity) in index order: one run on a pass, and
        else one bytes.find over the column per run, with no step per
        outcome."""
        count = self.outcome_count
        if not self.conditions:
            return [(0, count, 1.0)]
        column = _met(count, self.conditions)
        runs = []
        start = 0
        while start < count:
            met = column[start]
            stop = column.find(b"\0" if met else b"\1", start)
            if stop < 0:
                stop = count
            runs.append((start, stop, _FIDELITY[met]))
            start = stop
        return runs

    @property
    def records(self) -> tuple[OutcomeRecord, ...]:
        """Every outcome as an OutcomeRecord, built when this is read."""
        probability = 1.0 / self.outcome_count
        return tuple(
            OutcomeRecord(s, probability, f) for s, f in enumerate(self.fidelities())
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
    forms = extract_sign_forms(
        symbolic_protocol_tableau(graph), stabilizer_generators(graph).generators
    )
    # outcome s reaches |G> exactly when sign_v (-1)^{|(sigma_v ^ phi_v) & s|}
    # is +1 at every v; a vertex with sign_v = +1 and sigma_v = phi_v holds
    # at every s, so only the others are kept, as (mask, parity needed)
    conditions = []
    for v, form, phi in zip(graph.vertices, forms, phis):
        if form is None:
            raise AssertionError(f"K_{v} is missing from the data group")
        sign, sigma = form
        if sign == -1 or sigma != phi:
            conditions.append((sigma ^ phi, sign == -1))
    return VerificationReport(
        name, correction_kind, graph.outcome_count(), tuple(conditions)
    )


def phase_lemma_check(graph: Graph) -> bool:
    """Confirm the symbolic run: for each vertex v the data group after
    the protocol contains K_v with sign (-1)^{g_v(s)} at every outcome s,
    g_v the XOR of far-side bits at v.

    The tableau runs once with every sign an affine form in the outcome
    bits, so comparing K_v's form with g_v's far-side mask checks all
    4^|E| outcomes at once, at every graph size.
    """
    forms = extract_sign_forms(
        symbolic_protocol_tableau(graph), stabilizer_generators(graph).generators
    )
    return all(
        form == (1, far_side_mask(graph, v)) for v, form in zip(graph.vertices, forms)
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
    from .noise import (
        CHANNEL_ALIASES,
        NoiseChannel,
        NoiseReport,
        f_star_dep,
        f_star_pd,
        noisy_protocol_fidelity,
    )

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
