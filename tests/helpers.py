"""Shared test machinery: random Clifford circuits applied both densely
and symbolically, explicit matrix builders used as oracles for the
reshape-based gate kernels, the dense Kraus-branch reference for the
noise engines, random graphs, and small comparisons that only tests
use."""

from __future__ import annotations

import math
import random
from itertools import product as iter_product

import numpy as np
from hypothesis import strategies as st

from pqw import statevector as sv
from pqw.graphs import Graph, catalog_lookup, graph_state, parse_edge_list
from pqw.protocol import (
    CorrectionPlan,
    Outcome,
    _after_prep,
    _correction_targets,
    _outcome_overlaps,
    _premeasurement,
    _walk,
    build_layout,
)
from pqw.stabilizer import Tableau, conjugate, zero_state_tableau

GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2}


def random_circuit(rng: random.Random, n_qubits: int, depth: int):
    ops = []
    for _ in range(depth):
        gate = rng.choice(tuple(GATE_ARITY))
        if GATE_ARITY[gate] == 1 or n_qubits == 1:
            gate = gate if GATE_ARITY[gate] == 1 else "Z"
            ops.append((gate, (rng.randrange(n_qubits),)))
        else:
            targets = rng.sample(range(n_qubits), 2)
            ops.append((gate, tuple(targets)))
    return ops


def run_dense(n_qubits: int, ops) -> sv.StateVector:
    state = sv.new_zero(n_qubits)
    for gate, targets in ops:
        state = sv.apply_gate(state, gate, targets)
    return state


def run_tableau(n_qubits: int, ops) -> Tableau:
    tableau = zero_state_tableau(n_qubits)
    for gate, targets in ops:
        tableau = conjugate(tableau, gate, targets)
    return tableau


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
        state = sv.apply_gate(state, "H", (star.vertex_index(leaf),))
    return state


def near_side_mask(graph: Graph, v: str) -> int:
    """The near-side reading as an outcome-bit form: the bit at v's own
    half of each edge at v, in far_side_mask's big-endian convention."""
    last = 2 * graph.n_edges - 1
    mask = 0
    for j, edge in enumerate(graph.edges):
        if v in edge:
            mask |= 1 << (last - 2 * j - edge.index(v))
    return mask


def near_parity(outcome: Outcome, v: str) -> int:
    """XOR of near-side bits over the edges at v; the wrong reading of
    the sign exponent, which the far-side g_v replaces."""
    return (near_side_mask(outcome.graph, v) & outcome.to_index()).bit_count() & 1


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


def plan_from_maps(graph: Graph, x: dict[str, int], z: dict[str, int]) -> CorrectionPlan:
    """A plan from sparse exponent maps; a vertex not named gets 0."""
    return CorrectionPlan(
        graph, tuple((v, x.get(v, 0), z.get(v, 0)) for v in graph.vertices)
    )


@st.composite
def small_connected_graphs(draw, max_qubits: int = 14):
    """Connected graphs of at most max_qubits total qubits: a random
    spanning tree plus the extra edges that still fit, each edge drawn in
    either orientation and the edge list shuffled."""
    # a tree on n vertices takes n + 2(n - 1) qubits
    n = draw(st.integers(min_value=2, max_value=min(5, (max_qubits + 2) // 3)))
    tree = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    spare = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    room = (max_qubits - n) // 2 - len(tree)
    extra = draw(st.sets(st.sampled_from(spare), max_size=room)) if spare else set()
    edges = []
    for i, j in draw(st.permutations(sorted(tree | extra))):
        edges.append((f"v{j}", f"v{i}") if draw(st.booleans()) else (f"v{i}", f"v{j}"))
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(edges))


# -- dense Kraus-branch reference for the noise engines ----------------------


def apply_one_qubit_matrix(amps: np.ndarray, mat: np.ndarray, qubit: int) -> np.ndarray:
    view = amps.reshape(-1, 2, 2**qubit)
    out = np.einsum("ab,ibj->iaj", mat, view)
    return out.reshape(amps.size)


def branch_fidelity(
    graph: Graph, ops: tuple[np.ndarray, ...], correction_kind: str, insertion: str
) -> float:
    """Conditional fidelity by running each of the m^k Kraus branches
    through a dense statevector: the reference the Heisenberg-sum noise
    engine is tested against.  With ops = (identity,) it is the noiseless
    outcome contraction."""
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
                amps = apply_one_qubit_matrix(amps, ops[b], q)
            amps = _walk(graph, amps)
        else:
            amps = _premeasurement(graph).amplitudes
            for q, b in zip(resource_qubits, branch):
                amps = apply_one_qubit_matrix(amps, ops[b], q)
        branch_totals.append(
            math.fsum(_outcome_overlaps(graph, amps, targets).tolist())
        )
    return math.fsum(branch_totals)
