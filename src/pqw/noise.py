"""Exact noisy-protocol fidelity and its sweeps over a strength grid,
plus the closed-form curves and the count post-processing arithmetic.

Noise model: one single-qubit channel applied independently to each of
the k = 2|E| resource qubits, either right after the pairs are prepared
(insertion "post_prep", the default: the halves are what get shipped)
or just before they are measured ("pre_measure").  Data qubits stay
clean.  A channel is its Pauli transfer matrix R (_transfer), whose
entries are int polynomials in p and s = sqrt(1-p).

* metric="strict", the default, as effective-p extraction and the
  channel comparisons are built on its closed forms, charges every
  resource-qubit error as a loss: it is the per-qubit retention tr R / 4
  to the power k times the share of outcomes that meet the sign
  conditions pqw.verify reads (1 for a valid plan, which gives the closed
  forms (1-3p/4)^k and ((1+sqrt(1-p))/2)^k at both insertion points).

* metric="conditional" is the fidelity of the state actually delivered:
  every error branch runs through the rest of the circuit and every
  outcome is corrected and compared with the target.  It sits above
  strict from order p^2 on, as on any edge the pair errors X(x)Z, Z(x)X
  and Y(x)Y leave the shared pair state invariant; the two agree at p=0.

One exact engine computes every conditional value, with no statevector,
no numpy and no complex number.  The corrected-fidelity operator
M = sum_s |s><s| (x) C_s^dagger |G><G| C_s is the projector of a
stabilizer code with one generator K_v (x) Z_R^{phi_v} per vertex, so
F = tr(M rho) is 2^-|V| times the sum of the expectations of its 2^|V|
elements, in Gray-code order; DEFAULT_VERTEX_BUDGET bounds |V|.  After
prep, each element is carried back through the walk (pqw.protocol hands
each generator over as (x, z, odd) ints) and through R to |+> per data
qubit and CZ|++> per edge, whose 16 pair expectations pqw.protocol reads
off prep_gates.  Before measurement the channel only reaches Z_R, and
each expectation is read off the sign forms of the K_v.

No p changes the code, so a sweep builds it once, as one polynomial in p
and s: the elements fall into few classes of equal factors, each with a
signed int multiplicity.  At the float p = n/d a value is exactly
(a + b sqrt(q)) / 2^e in ints, and it is rounded once: a rational one by
one int true division, which CPython rounds correctly, and an irrational
one by isqrt brackets of doubling precision; strict takes its power on
such a bracket.  No float sum or product computes a value.  noise_sweep,
the one caller of the engine, imports pqw.verify for strict and
pqw.protocol for conditional when it runs.
"""

import math
import operator
import sys
from collections import Counter, namedtuple

from .graphs import CHANNEL_ALIASES, INSERTION_POINTS, METRICS, Graph, ResourceError, _Checked

CHANNEL_KINDS = tuple(CHANNEL_ALIASES.values())

DEFAULT_VERTEX_BUDGET = 12


def _check_choice(what: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")


def _check_strength(p: float) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails it
        raise ValueError(f"channel strength must lie in [0, 1], got {p}")


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
    (depolarizing and phase damping), each value rounded once.  Neither metric
    enumerates outcomes or error branches (module docstring).  Each argument
    is checked once, all before any point is computed, and the one engine
    call reads, and so checks, the correction kind's forms before the walk
    runs back."""
    kind = CHANNEL_ALIASES.get(channel_kind, channel_kind)
    _check_choice("channel kind", kind, CHANNEL_KINDS)
    grid = tuple(float(p) for p in p_grid)
    for p in grid:
        _check_strength(p)
    _check_choice("insertion point", insertion, INSERTION_POINTS)
    _check_choice("metric", metric, METRICS)
    k = 2 * graph.n_edges
    if metric == "strict":
        # the retention tr R / 4 to the power k times the noiseless pass share
        from . import verify

        passed = verify.verify_all_outcomes(graph, correction_kind).pass_count
        trace = _collect({(i,): 1 for i in (0, 5, 10, 15)}, _transfer(kind))  # tr R
        fidelities = tuple(_nearest(_strict_bounds, trace, p, k, passed) for p in grid)
    elif graph.n_vertices > DEFAULT_VERTEX_BUDGET:
        raise ResourceError(
            f"Heisenberg sum over {graph.n_vertices} vertices exceeds the budget "
            f"of {DEFAULT_VERTEX_BUDGET}; pick a smaller graph"
        )
    else:
        from . import protocol

        phis = protocol._sign_forms(graph, correction_kind)
        transfer = _transfer(kind)
        trace = _collect({(i,): 1 for i in (0, 5, 10, 15)}, transfer)  # tr R, for the closed forms
        if insertion == "post_prep":
            table = _edge_table(transfer, protocol._pair_expectations(graph))
            poly = _prepared_sums(graph, protocol._heisenberg_generators(graph, phis), table)
        else:  # R's Z row: E^dagger(Z) = a + b Z
            poly = _measured_sums(graph, protocol._data_sign_forms(graph), phis, transfer[8:12])
        fidelities = tuple(_nearest(_bracket, poly, p, graph.n_vertices) for p in grid)
    analytic = None
    if kind != "amplitude_damping":  # the closed forms: strict with every outcome passing
        analytic = tuple(_nearest(_strict_bounds, trace, p, k, 1 << k) for p in grid)
    return NoiseReport(grid, fidelities, analytic, k)


# -- exact values, rounded once -------------------------------------------------


def _product(*factors: dict) -> dict:
    """The product of polynomials in p and s = sqrt(1-p), each a dict from
    the exponents (i, j) of p^i s^j to an int coefficient."""
    product = {(0, 0): 1}
    for f in factors:
        h = {}
        for (i, j), a in product.items():
            for (m, n), b in f.items():
                h[i + m, j + n] = h.get((i + m, j + n), 0) + a * b
        product = h
    return product


def _transfer(kind: str) -> list[dict]:
    """The channel's Pauli transfer matrix, E^dagger(P) = sum_Q R[P][Q] Q
    over the strings X^x Z^z at index x + 2z, flat with R[P][Q] at 4P + Q,
    each entry a polynomial in p and s ({} for 0):

      depolarizing       diag(1, 1-p, 1-p, 1-p)
      phase damping      diag(1, s, 1, s)
      amplitude damping  I -> I, X -> s X, XZ -> s XZ, Z -> p I + (1-p) Z
    """
    one, s, u = {(0, 0): 1}, {(0, 1): 1}, {(0, 2): 1}  # u = 1 - p = s^2
    diagonal = {"depolarizing": (one, u, u, u), "phase_damping": (one, s, one, s)}
    flat = [diagonal.get(kind, (one, s, u, s))[i // 5] if i % 5 == 0 else {} for i in range(16)]
    flat[8] = {(1, 0): 1} if kind == "amplitude_damping" else {}  # R[Z][I]
    return flat


def _bracket(poly: dict, p: float, shift: int, bits: int) -> tuple[int, int, int]:
    """(low, high, scale) with low <= poly(p, s) / 2^shift * 2^scale <= high:
    at the float p = n/d the value is (a + b sqrt(q)) / 2^e in ints, as
    s = sqrt(q)/d for q = d(d - n), d a power of two, and sqrt(q) is cut to
    bits fraction bits, so low == high when b is 0 or q is a square."""
    n, d = p.as_integer_ratio()
    e = d.bit_length() - 1
    top = max((i + (j + 1) // 2 for i, j in poly), default=0)
    a, b, q = 0, 0, d * (d - n) << 2 * bits
    for (i, j), c in poly.items():
        term = c * n**i * (d - n) ** (j >> 1) << e * (top - i - (j + 1) // 2)
        a, b = (a, b + term) if j & 1 else (a + term, b)
    root = math.isqrt(q)
    low, high = (a << bits) + b * root, (a << bits) + b * (root + (root * root != q))
    return min(low, high), max(low, high), e * top + shift + bits


def _strict_bounds(trace: dict, p: float, k: int, passed: int, bits: int) -> tuple[int, int, int]:
    """A bracket on (trace / 4)^k * passed / 2^k, the strict fidelity (the
    outcome count is 4^|E| = 2^k), by squaring a bracket on the retention
    trace / 4 with each product cut to bits bits, low down and high up."""

    def cut(f, g):
        drop = max((f[1] * g[1]).bit_length() - bits, 0)
        return f[0] * g[0] >> drop, -(-f[1] * g[1] >> drop), f[2] + g[2] - drop

    result, base = (passed, passed, k), _bracket(trace, p, 2, bits)
    while k:
        if k & 1:
            result = cut(result, base)
        k, base = k >> 1, cut(base, base)
    return result


def _nearest(bounds, *args) -> float:
    """The float nearest an exact value, rounded once: bounds(*args, bits)
    brackets it, and bits doubles until both ends round to the same float.
    A rational value's ends are equal, so it is one int true division; an
    irrational one is never a float or a tie, so the loop ends."""
    bits = 64
    while True:
        low, high, scale = bounds(*args, bits)
        if low / (1 << scale) == high / (1 << scale):
            return low / (1 << scale)
        bits *= 2


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


def _collect(classes: dict, factors) -> Counter:
    """The sum over classes of multiplicity * prod of factors[i], i in key."""
    total = Counter()
    for key, count in classes.items():
        total.update(_product({(0, 0): count}, *(factors[i] for i in key)))
    return total


def _measured_sums(graph: Graph, forms, phis, z_row: list[dict]) -> Counter:
    """2^|V| F with the channel on every resource qubit just before it is
    measured, E^dagger(Z) = a + b Z with z_row R's Z row (a, 0, b, 0):

        F = 2^-|V| sum_{A subset V} <psi_pre| E^dagger(K_A (x) Z_R^{phi_A}) |psi_pre>

    E^dagger turns Z_R^{phi_A} into the sum over T subset phi_A of
    a^{|phi_A - T|} b^{|T|} Z_R^T, and the walk leaves <K_A (x) Z_R^T> =
    [T = sigma_A] (-1)^{odd_A}, sigma_A << 1 | odd_A the xor over A of the
    K_v's sign forms (_data_sign_forms).  So an element phi_A | form_A << k,
    phis the plan's masks, is kept when sigma_A lies in phi_A, in the class
    of its exponents of a and b.
    """
    k = 2 * graph.n_edges
    low = (1 << k) - 1
    generators = [phi | form << k for form, phi in zip(forms, phis)]
    classes = Counter()
    for term in _code(0, generators, operator.xor):
        phi, sigma = term & low, term >> k + 1
        if not sigma & ~phi:
            classes[(phi ^ sigma).bit_count(), sigma.bit_count()] += -1 if term >> k & 1 else 1
    return _collect({(0,) * m + (2,) * n: c for (m, n), c in classes.items()}, z_row)


def _edge_table(transfer: list[dict], pair: tuple[int, ...]) -> list[dict]:
    """<CZ++| E^dagger(P_1) (x) E^dagger(P_0) |CZ++> at the pair index
    4 P_1 + P_0, P_1 on the first endpoint:
    sum_{Q_1, Q_0} R[P_1][Q_1] R[P_0][Q_0] pair[4 Q_1 + Q_0], with pair the
    expectations protocol._pair_expectations reads off prep_gates."""
    return [
        _collect({(4 * (key >> 2) + (q >> 2), 4 * (key & 3) + (q & 3)): sign
                  for q, sign in enumerate(pair) if sign}, transfer)
        for key in range(16)
    ]


def _prepared_sums(graph: Graph, generators, table: list[dict]) -> Counter:
    """2^|V| F with the channel on every resource qubit right after the
    pairs are prepared, F = 2^-|V| sum_{A subset V} <psi_prep|
    E^dagger(W^dagger S_A W) |psi_prep>, S_A the product of the generators
    in A, walked back as (x, z, odd) ints.  psi_prep is |+> per data qubit,
    where a Z gives 0, and CZ|++> per pair, which gives one table entry.
    So an element with no data Z is its sign times those entries, in the
    class of its sorted table indices: the hex digits of x | z << 1 with
    its strings spread to two bits a qubit, so that a pair is a nibble.
    """
    nv = graph.n_vertices

    def spread(bits):  # qubit i, counted from an even first pair, to bit 2i
        bits <<= nv & 1
        return sum((bits >> i & 1) << 2 * i for i in range(bits.bit_length()))

    data, shift, width = spread((1 << nv) - 1), 2 * (nv + (nv & 1)), f"0{graph.n_edges}x"
    spread_generators = [(spread(x), spread(z), odd) for x, z, odd in generators]
    classes = Counter()
    for x, z, odd in _code((0, 0, 0), spread_generators, _times):
        if not z & data:
            classes["".join(sorted(format((x | z << 1) >> shift, width)))] += -1 if odd else 1
    return _collect(classes, dict(zip("0123456789abcdef", table)))
