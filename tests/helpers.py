"""Shared test machinery: random Clifford circuits applied both densely
and symbolically, explicit matrix builders used as oracles for the
reshape-based gate kernels, the dense references for the noise engine
(every Kraus branch, the pairs' mixture for post-prep noise and the
outcome slabs' mixture for pre-measure noise), its exact 100-digit
reference, the T1 decay arithmetic, and small comparisons that only
tests use."""

from __future__ import annotations

import decimal
import math
import random
from decimal import Decimal
from itertools import product as iter_product

import numpy as np

import dense as sv
from dense import _after_prep, _premeasurement, _run_gates, graph_state
from pauli import PauliString, conjugate_circuit
from pqw.graphs import Graph, catalog_lookup, parse_edge_list
from pqw.protocol import (
    _checked_gates,
    _data_sign_forms,
    _heisenberg_generators,
    _outcome_bit,
    _sign_forms,
    walk_gates,
)

GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2}


def engine_gates(gate: str, targets) -> list:
    """One gate as a list the engines run: CNOT(c, t), which neither
    engine takes, as H(t) CZ(c, t) H(t); any other gate as itself."""
    if gate != "CNOT":
        return [(gate, tuple(targets))]
    control, target = targets
    return [("H", (target,)), ("CZ", (control, target)), ("H", (target,))]


def random_circuit(rng: random.Random, n_qubits: int, depth: int):
    """depth gates drawn from H, X, Z, CZ and CNOT, each CNOT written out
    as H CZ H."""
    ops = []
    for _ in range(depth):
        gate = rng.choice(tuple(GATE_ARITY))
        if GATE_ARITY[gate] == 1 or n_qubits == 1:
            gate = gate if GATE_ARITY[gate] == 1 else "Z"
            ops.append((gate, (rng.randrange(n_qubits),)))
        else:
            ops += engine_gates(gate, rng.sample(range(n_qubits), 2))
    return ops


def run_dense(n_qubits: int, ops) -> sv.StateVector:
    state = sv.new_zero(n_qubits)
    for gate, targets in ops:
        state = sv.apply_gate(state, gate, targets)
    return state


def zero_state(n_qubits: int) -> tuple[PauliString, ...]:
    """The stabilizer group of |0>^n: Z on each qubit."""
    return tuple(PauliString(n_qubits, 0, 1 << q) for q in range(n_qubits))


def run_tableau(n_qubits: int, ops) -> tuple[PauliString, ...]:
    return conjugate_circuit(zero_state(n_qubits), ops)


# Explicit matrix construction, deliberately different from the reshape
# kernels: single-qubit gates by Kronecker products, two-qubit gates by
# basis-index arithmetic.

H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)


def single_qubit_matrix(mat: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    # qubit 0 is the least significant bit, so it sits rightmost in the
    # Kronecker chain
    out = np.eye(2 ** (n_qubits - 1 - qubit), dtype=complex)
    out = np.kron(out, mat)
    return np.kron(out, np.eye(2**qubit, dtype=complex))


def apply_matrix_oracle(amps: np.ndarray, gate: str, targets) -> np.ndarray:
    n = amps.size.bit_length() - 1
    if gate in ("H", "X", "Z"):
        mat = {"H": H_MAT, "X": X_MAT, "Z": Z_MAT}[gate]
        return single_qubit_matrix(mat, targets[0], n) @ amps
    if gate == "CZ":
        a, b = targets
        signs = np.array(
            [-1.0 if (i >> a) & 1 and (i >> b) & 1 else 1.0 for i in range(amps.size)]
        )
        return amps * signs
    if gate == "CNOT":
        control, target = targets
        out = np.zeros_like(amps)
        for i, amp in enumerate(amps):
            out[i ^ (((i >> control) & 1) << target)] = amp
        return out
    raise ValueError(gate)


def random_state(rng: np.random.Generator, n_qubits: int) -> sv.StateVector:
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return sv.from_amplitudes(amps, normalize=True)


def states_equal(a: sv.StateVector, b: sv.StateVector, tol: float = 1e-12) -> bool:
    return sv.fidelity(a, b) >= 1.0 - tol


def ghz_from_star() -> sv.StateVector:
    """The four-qubit GHZ state built from the K1_3 graph state by a
    Hadamard on each leaf; equals ghz_state(4) exactly."""
    star = catalog_lookup("K1_3")
    state = graph_state(star)
    for leaf in ("B", "C", "D"):
        state = sv.apply_gate(state, "H", (star.vertices.index(leaf),))
    return state


def near_side_mask(graph: Graph, v: str) -> int:
    """The near-side reading as an outcome-bit form: the bit at v's own
    half of each edge at v, in far_side_masks' big-endian convention."""
    mask = 0
    for j, edge in enumerate(graph.edges):
        if v in edge:
            mask |= _outcome_bit(graph, 2 * j + edge.index(v))
    return mask


def near_side_masks(graph: Graph) -> list[int]:
    """near_side_mask of every vertex, in vertex order, shaped like
    far_side_masks."""
    return [near_side_mask(graph, v) for v in graph.vertices]


def near_parity(graph: Graph, index: int, v: str) -> int:
    """XOR of near-side bits over the edges at v at outcome index; the
    wrong reading of the sign exponent, which the far-side g_v replaces."""
    return (near_side_mask(graph, v) & index).bit_count() & 1


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph, vertices labelled r<row>c<col>."""
    lines = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                lines.append(f"r{r}c{c} r{r}c{c + 1}")
            if r + 1 < rows:
                lines.append(f"r{r}c{c} r{r + 1}c{c}")
    return parse_edge_list("\n".join(lines))


def plan_from_maps(graph: Graph, x: dict[str, int], z: dict[str, int]) -> PauliString:
    """A plan from sparse exponent bit maps; a vertex not named gets 0."""
    x_bits = sum(bit << graph.vertices.index(v) for v, bit in x.items())
    z_bits = sum(bit << graph.vertices.index(v) for v, bit in z.items())
    return PauliString(graph.n_vertices, x_bits, z_bits)


# -- dense Kraus-branch reference for the noise engines ----------------------


def apply_one_qubit_matrix(amps: np.ndarray, mat: np.ndarray, qubit: int) -> np.ndarray:
    view = amps.reshape(-1, 2, 2**qubit)
    out = np.einsum("ab,ibj->iaj", mat, view)
    return out.reshape(amps.size)


def correction_targets(graph: Graph, correction_kind: str) -> np.ndarray:
    """Row s holds conj(C_s^dagger |G>) for outcome s, whose resource
    register reads s, up to a sign per row, so that row . slab is
    <G| C_s |slab> up to that sign and its modulus is exact."""
    bra = graph_state(graph).amplitudes.conj()
    basis = np.arange(bra.size)
    # X_u|G> = Z_{N(u)}|G>, so C_s^dagger|G> = +-Z^{phi(s)}|G>: row p of
    # the table is conj(Z^p|G>), whose sign flips wherever j and p share
    # an odd number of bits
    table = (1.0 - 2.0 * (np.bitwise_count(basis[:, None] & basis) & 1)) * bra
    # phi(s) packs the sign forms read at each row's outcome index
    index = np.arange(graph.outcome_count())
    phi = np.zeros_like(index)
    for i, form in enumerate(_sign_forms(graph, correction_kind)):
        phi |= (np.bitwise_count(index & form) & 1).astype(index.dtype) << i
    return table[phi]


def branch_fidelity(
    graph: Graph, ops: tuple[np.ndarray, ...], correction_kind: str, insertion: str
) -> float:
    """Conditional fidelity by running each of the m^k Kraus branches
    through a dense statevector: the reference the Heisenberg-sum noise
    engine is tested against.  With ops = (identity,) it is the noiseless
    outcome contraction."""
    targets = correction_targets(graph, correction_kind)
    resource_qubits = range(graph.n_vertices, graph.n_vertices + 2 * graph.n_edges)
    k = len(resource_qubits)
    branch_totals = []
    prepped = _after_prep(graph)
    walk = _checked_gates(graph.n_vertices + k, walk_gates(graph))
    for branch in iter_product(range(len(ops)), repeat=k):
        if insertion == "post_prep":
            amps = prepped
            for q, b in zip(resource_qubits, branch):
                amps = apply_one_qubit_matrix(amps, ops[b], q)
            amps = _run_gates(amps, walk)
        else:
            amps = _premeasurement(graph).amplitudes
            for q, b in zip(resource_qubits, branch):
                amps = apply_one_qubit_matrix(amps, ops[b], q)
        # <G| C_s |slab_s> per resource row s
        overlaps = np.einsum("sj,sj->s", targets, amps.reshape(-1, 2**graph.n_vertices))
        branch_totals.append(math.fsum((np.abs(overlaps) ** 2).tolist()))
    return math.fsum(branch_totals)


# -- exact 100-digit reference for the noise engine ---------------------------

# CZ|++> over |b_1 b_0>, b_1 the pair's first endpoint
_PAIR_AMPLITUDES = (1, 1, 1, -1)


def _exact_kraus(kind: str, p: Decimal) -> list[list[list[Decimal]]]:
    """Real 2x2 Kraus lists at the context's precision, spelled from the
    definitions dense.kraus_ops writes.  Depolarizing's Y branch is
    sqrt(p/4) XZ = -i sqrt(p/4) Y: a global phase on one Kraus operator
    leaves the channel unchanged."""
    zero, one = Decimal(0), Decimal(1)
    if kind == "depolarizing":
        c, r = (1 - 3 * p / 4).sqrt(), (p / 4).sqrt()
        return [[[c, zero], [zero, c]], [[zero, r], [r, zero]],
                [[zero, -r], [r, zero]], [[r, zero], [zero, -r]]]
    kept = [[one, zero], [zero, (1 - p).sqrt()]]
    if kind == "phase_damping":
        return [kept, [[zero, zero], [zero, p.sqrt()]]]
    return [kept, [[zero, p.sqrt()], [zero, zero]]]


def _exact_adjoint(ops, x: int, z: int) -> list[list[Decimal]]:
    """E^dagger(X^x Z^z) = sum_b K_b^T X^x Z^z K_b on real 2x2 lists."""
    pauli = [[(1 - 2 * (z and j)) * (i ^ j == x) for j in (0, 1)] for i in (0, 1)]
    return [
        [sum(op[r][i] * pauli[r][c] * op[c][j] for op in ops for r in (0, 1) for c in (0, 1))
         for j in (0, 1)]
        for i in (0, 1)
    ]


def _string_times(a, b):
    """The product of two real strings (-1)^odd X^x Z^z as (x, z, odd)."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + (a[1] & b[0]).bit_count()) & 1


def _prepared_elements(graph: Graph, correction_kind: str) -> list[tuple[int, list[int]]]:
    """Each element of the post-prep code with no data Z, as its sign and
    the edge-table index of each pair, from the low end of the register."""
    nv = graph.n_vertices
    generators = _heisenberg_generators(graph, _sign_forms(graph, correction_kind))
    elements = []
    for subset in range(1 << nv):
        x, z, odd = 0, 0, 0
        for v, generator in enumerate(generators):
            if subset >> v & 1:
                x, z, odd = _string_times((x, z, odd), generator)
        if not z & (1 << nv) - 1:
            x, z = x >> nv, z >> nv
            keys = [(x >> j & 3) | (z >> j & 3) << 2 for j in range(0, 2 * graph.n_edges, 2)]
            elements.append((1 - 2 * odd, keys))
    return elements


def _prepared_value(elements, nv: int, ops) -> Decimal:
    adjoint = {(x, z): _exact_adjoint(ops, x, z) for x in (0, 1) for z in (0, 1)}
    table = []
    for key in range(16):
        high, low = adjoint[key >> 1 & 1, key >> 3], adjoint[key & 1, key >> 2 & 1]
        table.append(sum(
            _PAIR_AMPLITUDES[2 * i + k] * high[i][j] * low[k][l] * _PAIR_AMPLITUDES[2 * j + l]
            for i, j, k, l in iter_product((0, 1), repeat=4)
        ) / 4)
    return sum(math.prod((table[key] for key in keys), start=Decimal(sign))
               for sign, keys in elements) / 2**nv


def _measured_value(graph: Graph, correction_kind: str, ops) -> Decimal:
    k = 2 * graph.n_edges
    z = _exact_adjoint(ops, 0, 1)
    a, b = (z[0][0] + z[1][1]) / 2, (z[0][0] - z[1][1]) / 2
    pairs = list(zip(_data_sign_forms(graph), _sign_forms(graph, correction_kind)))
    total = Decimal(0)
    for subset in range(1 << graph.n_vertices):
        form = phi = 0
        for v, (form_v, phi_v) in enumerate(pairs):
            if subset >> v & 1:
                form, phi = form ^ form_v, phi ^ phi_v
        sigma = form >> 1
        if not sigma & ~phi & (1 << k) - 1:
            factors = (a,) * (phi ^ sigma).bit_count() + (b,) * sigma.bit_count()
            total += math.prod(factors, start=Decimal(1 - 2 * (form & 1)))
    return total / 2**graph.n_vertices


def round_once(value: Decimal) -> float:
    """The float nearest a 100-digit value, checked to lie more than
    10^-90 of the value away from either rounding boundary, so that the
    exact value it approximates rounds to the same float."""
    nearest = float(value)
    for neighbour in (math.nextafter(nearest, -math.inf), math.nextafter(nearest, math.inf)):
        boundary = (Decimal(nearest) + Decimal(neighbour)) / 2
        assert abs(value - boundary) > abs(value).scaleb(-90), value
    return nearest


def exact_strict(channel: str, p: float, k: int, noiseless) -> float:
    """The strict fidelity by its definition: the retention
    sum_b (tr K_b / 2)^2 to the power k times the noiseless fidelity, in
    100-digit decimal arithmetic at the float p, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        ops = _exact_kraus(channel, Decimal(p))
        retention = sum((op[0][0] + op[1][1]) ** 2 for op in ops) / 4
        return round_once(retention**k * Decimal(noiseless))


def exact_noise_sweep(
    graph: Graph, correction_kind: str, channel: str, grid, insertion: str, metric: str
) -> tuple[float, ...]:
    """noise_sweep's fidelities by the definitions, per code element, in
    100-digit decimal arithmetic at each float p of the grid, each rounded
    once: conditional sums the code elements under the channel's Kraus
    lists, and strict is exact_strict of the noiseless post-prep sum."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        elements = _prepared_elements(graph, correction_kind)
        if metric == "strict":
            identity = [[[Decimal(1), Decimal(0)], [Decimal(0), Decimal(1)]]]
            noiseless = _prepared_value(elements, graph.n_vertices, identity)
            return tuple(exact_strict(channel, p, 2 * graph.n_edges, noiseless) for p in grid)
        values = []
        for p in grid:
            ops = _exact_kraus(channel, Decimal(p))
            if insertion == "post_prep":
                value = _prepared_value(elements, graph.n_vertices, ops)
            else:
                value = _measured_value(graph, correction_kind, ops)
            values.append(round_once(value))
        return tuple(values)


def mixture_fidelity(graph: Graph, ops: tuple[np.ndarray, ...], correction_kind: str) -> float:
    """Conditional fidelity under post-prep noise by the pairs' mixture:
    the channel acts on each prepared pair CZ|++> alone, so each pair's
    noisy state is one 4x4 density matrix, which eigh splits into at most
    4 weighted pure states, and the 4^|E| products of those run through
    the dense walk together, one product a row.  The post-prep reference,
    in place of branch_fidelity's m^(2|E|) Kraus branches."""
    pair = _run_gates(sv.new_plus(2).amplitudes, _checked_gates(2, (("CZ", (1, 0)),)))
    noisy = sum(
        np.kron(a, b) @ np.outer(pair, pair.conj()) @ np.kron(a, b).conj().T
        for a in ops
        for b in ops
    )
    weights, vectors = np.linalg.eigh(noisy)
    # parts under 1e-15 are dropped: at most 4 a pair, so the sum moves by under 4|E| * 1e-15
    kept = weights > 1e-15
    nv = graph.n_vertices
    rows, row_weights = np.full((1, 2**nv), 2.0 ** (-nv / 2), dtype=complex), np.ones(1)
    for _ in range(graph.n_edges):  # each pair above the data qubits and the pairs before it
        rows = np.einsum("pi,rj->rpij", vectors[:, kept].T, rows).reshape(-1, 4 * rows.shape[1])
        row_weights = np.outer(row_weights, weights[kept]).ravel()
    # the rows are the high bits of one register that the walk never touches
    walk = _checked_gates(nv + 2 * graph.n_edges, walk_gates(graph))
    slabs = _run_gates(rows.ravel(), walk).reshape(len(rows), -1, 2**nv)
    overlaps = np.einsum("sj,rsj->rs", correction_targets(graph, correction_kind), slabs)
    return math.fsum((row_weights[:, None] * np.abs(overlaps) ** 2).ravel().tolist())


def slab_fidelity(graph: Graph, ops: tuple[np.ndarray, ...], correction_kind: str) -> float:
    """Conditional fidelity under pre-measure noise by mixing outcome
    slabs: each channel here leaves E^dagger(|s><s|) diagonal on the
    measured bit, so the data state read as s' is
    sum_s w(s'|s) |slab_s><slab_s|, with w(s'|s) the product over the
    resource qubits of the 2x2 classical matrix sum_b |K_b[s', s]|^2.  The
    pre-measure reference, in place of branch_fidelity's m^(2|E|) Kraus
    branches."""
    # the off-diagonal entry of E^dagger(|r><r|) is sum_b conj(K_b[r, 0]) K_b[r, 1]
    assert all(abs(sum(op[r, 0].conjugate() * op[r, 1] for op in ops)) == 0 for r in (0, 1))
    weights = np.ones((1, 1))
    for _ in range(2 * graph.n_edges):
        weights = np.kron(weights, sum(np.abs(op) ** 2 for op in ops))
    slabs = _premeasurement(graph).amplitudes.reshape(-1, 2**graph.n_vertices)
    # row s', column s: <G| C_s' |slab_s>
    overlaps = correction_targets(graph, correction_kind) @ slabs.T
    return math.fsum((weights * np.abs(overlaps) ** 2).ravel().tolist())


def fidelity_column(report) -> list[float]:
    """Each outcome's fidelity in index order: a VerificationReport's
    fidelity_runs() expanded to one value per outcome."""
    return [f for start, stop, f in report.fidelity_runs() for _ in range(start, stop)]


def t1_damping_estimate(duration_us: float, t1_us: float) -> float:
    """Decay probability 1 - exp(-duration/T1) accumulated over a gate
    or delay of the given length: the amplitude-damping p of a hardware
    step."""
    # written so that NaN fails them
    if not duration_us >= 0:
        raise ValueError(f"duration must be non-negative, got {duration_us}")
    if not t1_us > 0:
        raise ValueError(f"T1 must be positive, got {t1_us}")
    return 1.0 - math.exp(-duration_us / t1_us)
