"""Exhaustive verification: every outcome of every prepared graph is
checked against the target state, the symbolic signs of the data
stabilizers are checked against their far-side forms, and two graph
states are compared by their Schmidt ranks across cuts.

Everything here is exact; nothing is sampled.  Reports are plain data
and render elsewhere; two runs over the same inputs produce equal
reports.  Every report is a named tuple, whose fields cannot be
assigned.

The outcome sweep reads sign forms, defined in pqw.protocol's
docstring, not a statevector: every corrected state is a Pauli times
|G>, with fidelity exactly 1 when each K_v's corrected sign form gives
+1 and exactly 0 otherwise, and every outcome has probability exactly
4^-|E|, as no measurement is determined.  So a report is the corrected
sign forms that are not 0, the GF(2) conditions that do not hold at
every outcome, and everything else is read from them: pass/fail and
the first counterexample from the rows themselves, the maximum fidelity
from one elimination, and the fidelities of all outcomes as the runs of
equal fidelity in one column, which both writers of pqw verify join run
by run, with no object per outcome.  Outcomes are named by their index,
so a report is as small at 4^180 outcomes as at 64; only a writer that
lists every outcome needs a size limit, and pqw verify holds it.

The rank comparison is symbolic as well.  Across a cut (A, B) a graph
state has Schmidt rank 2^r, r the GF(2) rank of the cut's block of the
adjacency matrix (Hein, Eisert & Briegel, quant-ph/0307130), so one
elimination, _pivots, gives both that rank and a report's pass_count,
the number of outcomes that pass.  That count over the outcome count is
also the noiseless factor of pqw.noise's strict metric, which reads it
off the report of verify_all_outcomes.
"""

from collections import namedtuple

from . import protocol
from .graphs import Graph, adjacency
from .protocol import _sign_forms, far_side_masks

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _met(count: int, conditions) -> bytes:
    """Byte s is 1 when outcome s meets every condition: each
    condition's column doubles once per outcome bit, its upper half
    flipped where the mask has that bit, and the columns are ANDed as
    integers."""
    met = int.from_bytes(b"\1" * count, "little")
    for row in conditions:
        column = b"\0" if row & 1 else b"\1"  # outcome 0 has parity 0
        while len(column) < count:
            column += column.translate(_FLIP) if row >> 1 & len(column) else column
        met &= int.from_bytes(column, "little")
    return met.to_bytes(count, "little")


def _pivots(rows) -> dict[int, int]:
    """GF(2) elimination of int rows by leading bit: each row is reduced
    by the pivots found so far and, unless it reduces to 0, becomes the
    pivot of its leading bit.  Returns {leading bit: row}; their number is
    the rank."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return pivots


class VerificationReport(
    namedtuple("VerificationReport", "graph_name correction_kind outcome_count conditions")
):
    """The outcome sweep of one graph under one plan, as its sign
    conditions, a tuple of int sign forms: outcome s reaches |G> exactly
    when every condition gives +1 there, |row & (s << 1 | 1)| even, and
    has probability 1/outcome_count.  A row that is 0 holds at every
    outcome."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not any(self.conditions)

    @property
    def min_fidelity(self) -> float:
        return 0.0 if any(self.conditions) else 1.0

    @property
    def pass_count(self) -> int:
        """The number of outcomes that meet every condition, exact at any
        size: each pivot of consistent rows halves the outcomes, and the
        rows are inconsistent exactly when one reduces to 0 = 1, a pivot
        at bit 0."""
        pivots = _pivots(self.conditions)
        return 0 if 0 in pivots else self.outcome_count >> len(pivots)

    @property
    def max_fidelity(self) -> float:
        # an int count, as 2^-rank is 0.0 past 1074 conditions
        return 1.0 if self.pass_count else 0.0

    def first_failure(self) -> int | None:
        """The lowest index that misses |G>, or None: outcome 0 fails any
        odd condition, and else the lowest set bit of a mask is the first
        index whose parity flips; row & -row is bit 0 for the first and
        that bit shifted up for the second."""
        return min(((row & -row) >> 1 for row in self.conditions if row), default=None)

    def fidelity_runs(self) -> list[tuple[int, int, float]]:
        """The fidelity column as its maximal runs of equal fidelity, each
        (start, stop, fidelity) in index order: one run on a pass, and
        else one bytes.find over the column per run, with no step per
        outcome."""
        count = self.outcome_count
        if not any(self.conditions):
            return [(0, count, 1.0)]
        column = _met(count, self.conditions)
        runs = []
        start = 0
        while start < count:
            met = column[start]
            stop = column.find(b"\0" if met else b"\1", start)
            if stop < 0:
                stop = count
            runs.append((start, stop, float(met)))
            start = stop
        return runs


def _sign_conditions(graph: Graph, correction_kind: str) -> tuple[int, ...]:
    """The conditions an outcome s must meet to reach |G> under the plan:
    the corrected sign form form_v ^ phi_v << 1 of every K_v gives +1 at
    s.  A form that is 0 holds at every s, so only the others are kept."""
    phis = _sign_forms(graph, correction_kind)
    forms = protocol._data_sign_forms(graph)
    return tuple(filter(None, (form ^ phi << 1 for form, phi in zip(forms, phis))))


def verify_all_outcomes(
    graph: Graph, correction_kind: str = "universal", name: str | None = None
) -> VerificationReport:
    """Correct every outcome and compare it with the target graph state,
    all from the sign forms of the K_v.  The report holds its
    conditions, not one entry per outcome, so it has no size limit; only
    listing its fidelities grows with the 4^|E| outcomes."""
    if name is None:
        name = f"graph-{graph.n_vertices}v-{graph.n_edges}e"
    return VerificationReport(
        name, correction_kind, graph.outcome_count(), _sign_conditions(graph, correction_kind)
    )


def phase_lemma_check(graph: Graph) -> bool:
    """Confirm the phase lemma: for each vertex v the data group after
    the protocol contains K_v with sign (-1)^{g_v(s)} at every outcome s,
    g_v the XOR of far-side bits at v.

    Each K_v's sign is read once as an affine form in the outcome bits,
    so comparing it with g_v's far-side mask checks all 4^|E| outcomes
    at once, at every graph size.  Where the reader finds no sign form
    for some K_v, it raises AssertionError naming the first such vertex
    rather than answer False.
    """
    forms = protocol._data_sign_forms(graph)
    return all(form == g << 1 for form, g in zip(forms, far_side_masks(graph)))


# cut is the frozenset of side A's vertex indices
CutRecord = namedtuple("CutRecord", "cut rank_a rank_b")


class LcReport(namedtuple("LcReport", "records")):
    """The CutRecords of lc_check, one per cut."""

    __slots__ = ()

    @property
    def inequivalent(self) -> bool:
        """A single differing Schmidt rank separates the two states
        under local unitaries, hence under local Cliffords."""
        return any(r.rank_a != r.rank_b for r in self.records)


def _schmidt_rank(rows: list[int], side_a: frozenset[int]) -> int:
    """The graph state's Schmidt rank across (A, B): 2^r, r the GF(2)
    rank of the rows "neighbours of a that lie in B", one per a in A."""
    in_a = sum(1 << a for a in side_a)
    return 1 << len(_pivots(rows[a] & ~in_a for a in side_a))


def lc_check(graph_a: Graph, graph_b: Graph, cuts) -> LcReport:
    """Schmidt ranks of both graph states across each cut, given as the
    vertex indices of side A; side B holds the other vertices.

    Ranks are invariant under local unitaries, so differing ranks prove
    the states inequivalent; equal ranks prove nothing.
    """
    n = graph_a.n_vertices
    if graph_b.n_vertices != n:
        raise ValueError(f"vertex counts differ: {n} vs {graph_b.n_vertices}")
    sides = [frozenset(cut) for cut in cuts]
    for side in sides:
        if not side or not side < frozenset(range(n)):
            raise ValueError(
                f"cut {sorted(side)} is not a non-empty proper subset of "
                f"the {n} vertex indices"
            )
    a, b = adjacency(graph_a), adjacency(graph_b)
    return LcReport(
        tuple(CutRecord(side, _schmidt_rank(a, side), _schmidt_rank(b, side)) for side in sides)
    )
