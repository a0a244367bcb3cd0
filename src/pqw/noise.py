"""Exact noisy-protocol fidelity and its sweeps over a strength grid,
plus the closed-form curves and the count post-processing arithmetic.

Noise model: one single-qubit channel applied independently to each of
the k = 2|E| resource qubits, either right after the pairs are prepared
(insertion "post_prep", the default: the halves are what get shipped)
or just before they are measured ("pre_measure").  Data qubits stay
clean.

Two fidelity accountings are provided, and they are not the same
number:

* metric="strict" charges every resource-qubit error as a loss.  A
  qubit comes through error-free with probability
  sum_b (tr(K_b)/2)^2, independently of the others, so the no-error
  fraction is that per-qubit retention to the power k; it multiplies
  the exact noiseless fidelity, which is 1 for a valid plan and below 1
  for a broken one.  This is why the result matches the closed-form
  curves (1-3p/4)^k and ((1+sqrt(1-p))/2)^k to machine precision,
  identically for both insertion points.  The noiseless fidelity is the
  fraction of outcomes that meet the GF(2) sign conditions pqw.verify
  reads off the sign forms of the K_v, the pass_count of its report over
  the outcome count, so strict costs one elimination and has no vertex
  budget.

* metric="conditional" is the operational fidelity of the state
  actually delivered: every error branch runs through the remaining
  circuit, every outcome is projected and corrected, and the squared
  overlaps with the target state are summed.  It sits above the strict
  value at order p^2 and cannot reproduce the closed forms: on any
  single edge the pair errors X(x)Z, Z(x)X and Y(x)Y leave the shared
  pair state invariant, so the correction step silently repairs some
  multi-error patterns that the strict accounting already wrote off.
  The two metrics agree at p=0 and conditional >= strict everywhere.

One exact engine computes every conditional value, with no
statevector, no numpy and no complex number.  The corrected-fidelity operator
M = sum_s |s><s| (x) C_s^dagger |G><G| C_s is the projector of a
stabilizer code with one generator K_v (x) Z_R^{phi_v} per vertex, so
F = tr(M rho) is 2^-|V| times the sum of the expectations of its 2^|V|
elements, taken in Gray-code order.  After prep, each element is
carried back through the walk (pqw.protocol runs the generators back as
bit-packed columns and hands each over as (x, z, odd) ints, a real
string and its sign bit, which multiply with a few int operations) and
the adjoint channel to the prepared state, |+> per data qubit and
CZ|++> per edge.  Before measurement the channel only reaches Z_R, and
each expectation is read off the sign forms of the K_v, defined in
pqw.protocol's docstring.  Both conditional paths cost 2^|V| terms, so
DEFAULT_VERTEX_BUDGET bounds |V| there.  No channel changes the code, so
a sweep builds it, or strict's noiseless fraction, once, as one reader of
a Kraus list, and reads every p off that one build.  noise_sweep is the
one function here that calls the engine; it imports pqw.verify when it
runs strict and pqw.protocol when it runs conditional, and the readers
read only the ints it hands them and the Kraus lists, so the closed
forms and the count arithmetic load no engine.

The default is strict because the closed-form curves are the quantity
the rest of the toolchain (effective-p extraction, channel comparisons)
is built around.
"""

import math
import operator
import sys
from collections import namedtuple
from itertools import product

from .graphs import CHANNEL_ALIASES, INSERTION_POINTS, METRICS, Graph, ResourceError, _Checked

CHANNEL_KINDS = tuple(CHANNEL_ALIASES.values())

DEFAULT_VERTEX_BUDGET = 12


def _check_choice(what: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")


def _check_strength(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails it
        raise ValueError(f"channel strength must lie in [0, 1], got {p}")


def _kraus_lists(kind: str, p: float) -> tuple[list[list[float]], ...]:
    """Real 2x2 Kraus lists.  Depolarizing's Y branch is sqrt(p/4) XZ = -i sqrt(p/4) Y:
    a global phase on one Kraus operator leaves the channel unchanged."""
    if kind == "depolarizing":
        c, s = math.sqrt(1.0 - 0.75 * p), math.sqrt(p / 4.0)
        return (
            [[c, 0.0], [0.0, c]],
            [[0.0, s], [s, 0.0]],
            [[0.0, -s], [s, 0.0]],
            [[s, 0.0], [0.0, -s]],
        )
    kept = [[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]]
    if kind == "phase_damping":
        return kept, [[0.0, 0.0], [0.0, math.sqrt(p)]]
    # amplitude damping: decay |1> -> |0>
    return kept, [[0.0, math.sqrt(p)], [0.0, 0.0]]


# -- closed forms and count arithmetic --------------------------------------


def _check_resource_count(k: int, least: int) -> None:
    """Refuse a k that is not a whole number of resource qubits from
    least up to the largest float."""
    if not k >= least:  # NaN fails it
        raise ValueError(f"k must be {'at least 1' if least else 'non-negative'}, got {k}")
    if k > sys.float_info.max:  # infinity, or past what a float power takes
        raise ValueError(f"k must be at most {sys.float_info.max:g}, the largest float")
    if k != int(k):
        raise ValueError(f"k must be a whole number, got {k}")


def f_star_dep(p: float, k: int) -> float:
    """No-error retention of k resource qubits under depolarizing noise."""
    _check_strength(p)
    _check_resource_count(k, 0)
    return (1.0 - 0.75 * p) ** k


def f_star_pd(p: float, k: int) -> float:
    """Same for phase damping."""
    _check_strength(p)
    _check_resource_count(k, 0)
    return ((1.0 + math.sqrt(1.0 - p)) / 2.0) ** k


def extract_p_eff(fidelity: float, k: int) -> float:
    """Invert the depolarizing curve: the per-qubit strength that would
    produce the observed fidelity over k resource qubits."""
    if not 0.0 < fidelity < math.inf:
        raise ValueError(f"fidelity must be positive and finite, got {fidelity}")
    # the slack bhattacharyya_fidelity allows on the ideal distribution's
    # sum; a fidelity inside it fits as 1, so p_eff is never negative
    if fidelity > 1.0 + 1e-9:
        raise ValueError(f"fidelity must be at most 1, got {fidelity}")
    _check_resource_count(k, 1)
    floor = 0.25**k  # p = 1; the same slack below it fits as 1, so p_eff is never above 1
    if fidelity < floor * (1.0 - 1e-9):
        raise ValueError(f"fidelity must be at least 4^-k = {floor:.12g} (p = 1), got {fidelity}")
    # 1 - F^(1/k) as -expm1(log(F) / k), which keeps the digits the
    # subtraction cancels near F = 1; 0.0 - turns -0 into 0
    return min((4.0 / 3.0) * (0.0 - math.expm1(math.log(min(fidelity, 1.0)) / k)), 1.0)


def bhattacharyya_fidelity(
    counts: dict[str, int], ideal: dict[str, float], squared: bool = True
) -> float:
    """Classical overlap of an empirical distribution with an ideal one:
    (sum_x sqrt(phat_x * q_x))^2, or the unsquared sum when asked."""
    if not counts:
        raise ValueError("counts must be non-empty")
    for what, values in (("count", counts), ("ideal probability", ideal)):
        for x, v in values.items():
            if not abs(v) < math.inf:  # NaN fails too
                raise ValueError(f"{what} for {x!r} must be finite, got {v}")
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


class NoiseReport(_Checked, namedtuple("NoiseReport", "p_grid fidelities analytic k")):
    """One fidelity curve: the grid, the exact values, and the
    closed-form overlay when one exists for the channel."""

    __slots__ = ()

    def __new__(
        cls,
        p_grid: tuple[float, ...],
        fidelities: tuple[float, ...],
        analytic: tuple[float, ...] | None,
        k: int,
    ):
        if len(p_grid) != len(fidelities):
            raise ValueError("p_grid and fidelities must have equal length")
        if analytic is not None and len(analytic) != len(p_grid):
            raise ValueError("analytic overlay must match the grid length")
        # written so that NaN fails it
        for what, values in (("fidelities", fidelities), ("analytic overlay", analytic or ())):
            for f in values:
                if not -1e-12 <= f <= 1.0 + 1e-12:
                    raise ValueError(f"{what} must lie in [0, 1], got {f}")
        return super().__new__(cls, p_grid, fidelities, analytic, k)


# -- exact fidelities --------------------------------------------------------


def noise_sweep(
    graph: Graph,
    channel_kind: str,
    p_grid,
    correction_kind: str = "universal",
    insertion: str = "post_prep",
    metric: str = "strict",
) -> NoiseReport:
    """Exact fidelity under independent noise of each strength in p_grid
    on every resource qubit, with the closed-form curve where one exists
    (depolarizing and phase damping; amplitude damping gets no overlay).

    Neither metric enumerates outcomes or error branches.  Strict is the
    per-qubit retention to the power k = 2|E| times the share
    pass_count / outcome_count of the outcomes that pass the noiseless
    sign conditions.  Conditional sums the 2^|V| code elements of the
    module docstring, so DEFAULT_VERTEX_BUDGET bounds |V| there.  Under a
    valid plan both are 1 at p=0.  Each argument is checked once, all before
    any point is computed; the one engine call reads the correction kind's
    forms, and so checks it, before the walk runs back, and builds one
    reader that one loop reads at the Kraus list of each p."""
    kind = CHANNEL_ALIASES.get(channel_kind, channel_kind)
    _check_choice("channel kind", kind, CHANNEL_KINDS)
    grid = tuple(float(p) for p in p_grid)
    for p in grid:
        _check_strength(p)
    _check_choice("insertion point", insertion, INSERTION_POINTS)
    _check_choice("metric", metric, METRICS)
    k = 2 * graph.n_edges
    if metric == "strict":
        # the per-qubit retention sum_b (tr(K_b)/2)^2 to the power k, times
        # the noiseless fidelity: the share of outcomes that meet every sign condition
        from . import verify

        report = verify.verify_all_outcomes(graph, correction_kind)
        noiseless = report.pass_count / report.outcome_count

        def read(ops):
            return math.fsum((op[0][0] + op[1][1]) ** 2 / 4.0 for op in ops) ** k * noiseless

    elif graph.n_vertices > DEFAULT_VERTEX_BUDGET:
        raise ResourceError(
            f"Heisenberg sum over {graph.n_vertices} vertices exceeds the budget "
            f"of {DEFAULT_VERTEX_BUDGET}; pick a smaller graph"
        )
    else:
        from . import protocol

        phis = protocol._sign_forms(graph, correction_kind)
        if insertion == "post_prep":
            read = _prepared_sums(graph, protocol._heisenberg_generators(graph, phis))
        else:
            read = _measured_sums(graph, protocol._data_sign_forms(graph), phis)
    fidelities = tuple(read(_kraus_lists(kind, p)) for p in grid)
    if kind == "depolarizing":
        analytic = tuple(f_star_dep(p, k) for p in grid)
    elif kind == "phase_damping":
        analytic = tuple(f_star_pd(p, k) for p in grid)
    else:
        analytic = None
    return NoiseReport(grid, fidelities, analytic, k)


# -- Heisenberg-picture sum ----------------------------------------------------


def _code(identity, generators, multiply):
    """The 2^n products S_A of the n generators, in Gray-code order: one
    product a step."""
    term = identity
    yield term
    for step in range(1, 1 << len(generators)):
        term = multiply(term, generators[(step & -step).bit_length() - 1])
        yield term


def _times(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of two real strings (-1)^odd X^x Z^z given as
    (x, z, odd): moving b's X block left past a's Z block anticommutes
    once per overlapping site, each time flipping the sign."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + (a[1] & b[0]).bit_count()) & 1


def _measured_sums(graph: Graph, forms, phis):
    """The reader of the conditional fidelity under a channel's Kraus list,
    E^dagger(Z) = a + b Z, on every resource qubit just before it is measured:

        F = 2^-|V| sum_{A subset V} <psi_pre| E^dagger(K_A (x) Z_R^{phi_A}) |psi_pre>

    E^dagger turns Z_R^{phi_A} into the sum over T subset phi_A of
    a^{|phi_A - T|} b^{|T|} Z_R^T, and the walk leaves
    <K_A (x) Z_R^T> = [T = sigma_A] (-1)^{odd_A}, with sigma_v << 1 | odd_v
    the sign form of K_v that the circuit run backwards gives
    (_data_sign_forms) and sigma_A << 1 | odd_A the xor of those over A.
    So per resource bit (phi_A, sigma_A) reads (0,0) -> 1, (1,0) -> a,
    (1,1) -> b and (0,1) -> 0.  phi_A and the sign form are xor-linear in
    A, so a code element is phi_A | form_A << k, kept, when sigma_A lies
    in phi_A, as the exponents of a and b and the sign.  forms are the
    sign forms of the K_v and phis the plan's masks phi_v, as ints.
    """
    k = 2 * graph.n_edges
    low = (1 << k) - 1
    generators = [phi | form << k for form, phi in zip(forms, phis)]
    terms = []
    for term in _code(0, generators, operator.xor):
        phi, sigma = term & low, term >> k + 1
        if not sigma & ~phi:
            sign = -1.0 if term >> k & 1 else 1.0
            terms.append(((phi ^ sigma).bit_count(), sigma.bit_count(), sign))

    def read(ops):
        # every channel here is diagonal in E^dagger(Z) = a + b Z
        z = _adjoint(ops, _SITE_PAULIS[0, 1])
        a = (z[0][0] + z[1][1]) / 2.0
        b = (z[0][0] - z[1][1]) / 2.0
        values = (sign * (a**m * b**n) for m, n, sign in terms)
        return math.fsum(values) / (1 << len(generators))

    return read


_PAIR = (0.5, 0.5, 0.5, -0.5)  # CZ|++>
_SITE_PAULIS = {  # X^x Z^z at key (x, z)
    (0, 0): ((1.0, 0.0), (0.0, 1.0)),
    (1, 0): ((0.0, 1.0), (1.0, 0.0)),
    (0, 1): ((1.0, 0.0), (0.0, -1.0)),
    (1, 1): ((0.0, -1.0), (1.0, 0.0)),
}


def _adjoint(ops: list, pauli) -> list[list[float]]:
    """E^dagger(P) = sum_b K_b^T P K_b, the adjoint channel, on real 2x2
    nested lists."""
    pairs = tuple(product((0, 1), repeat=2))
    return [
        [
            sum(
                op[r][i] * pauli[r][c] * op[c][j]
                for op in ops
                for r, c in pairs
            )
            for j in (0, 1)
        ]
        for i in (0, 1)
    ]


def _edge_table(ops: list) -> list[float]:
    """<CZ++| E^dagger(P_0) (x) E^dagger(P_1) |CZ++> for the pair's Paulis
    P_h = X^{x_h} Z^{z_h}, at index x + 4z with x = x_0 + 2 x_1 and
    z = z_0 + 2 z_1; P_1 is the high factor of the pair's index, its first
    endpoint, and as CZ|++> is symmetric either half may be the low one.
    _PAIR is the one hand copy of the resource beside prep_gates: the table
    is taken on amplitudes, which prep_gates would need a simulator for."""
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


def _prepared_sums(graph: Graph, generators):
    """The reader of the conditional fidelity under a channel's Kraus list
    on every resource qubit right after the pairs are prepared:

        F = 2^-|V| sum_{A subset V} <psi_prep| E^dagger(W^dagger S_A W) |psi_prep>

    with S_A the product of the code generators in A, given walked back
    as (x, z, odd) ints.  psi_prep is |+>
    on each data qubit, where a Z gives 0, and CZ|++> on each edge, where
    the adjoint channel on both halves gives one entry of the edge table.
    So an element is kept, when it has no data Z, as its sign and the
    table index of each edge from the low end of the register.
    """
    nv, n_edges = graph.n_vertices, graph.n_edges
    data = (1 << nv) - 1
    terms = []
    for x, z, odd in _code((0, 0, 0), generators, _times):
        if not z & data:
            x, z = x >> nv, z >> nv
            keys = [(x >> 2 * j & 3) | (z >> 2 * j & 3) << 2 for j in range(n_edges)]
            terms.append((-1 if odd else 1, keys))

    def read(ops):
        table = _edge_table(ops)
        values = []
        for value, keys in terms:
            for key in keys:
                value *= table[key]
            values.append(value)
        return math.fsum(values) / (1 << nv)

    return read
