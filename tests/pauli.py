"""Pauli strings as objects, and the per-outcome protocol API built on
them: the test-side reference for the package's int columns and forms.

A Pauli operator is stored in the normal form

    i^phase * prod_k X_k^{x_k} * prod_k Z_k^{z_k}

with x and z packed into Python ints (bit k = qubit k) and phase mod 4.
The site value x_k = z_k = 1 therefore means X_k Z_k = -i Y_k; a plain
Y_k is phase=1, x=z=1.  The dense engine in tests/dense.py acts with
these strings, and the tests cross-check every rule here against it.

A stabilizer group is a plain tuple of its generators.  Products
computed along the way pass through imaginary phases, so the phase is
tracked mod 4 throughout and collapsed to a sign only at the boundary
(the .sign property).  conjugate_circuit runs strings through
pqw.protocol's column engine, transposed in and out; the per-outcome
functions read pqw.protocol's forms at one outcome index.  No command
reaches any of them.
"""

from functools import reduce
from operator import xor

from pqw import protocol
from pqw.graphs import Graph, adjacency
from pqw.protocol import _checked_gates, _conj_columns, _set_bits, _transpose


class PauliString:
    """An immutable Pauli string, equal and hashed by its four fields.

    A plain slotted class, not a tuple: it has its own product, and a
    tuple would also lend it +, len and iteration.
    """

    __slots__ = ("n_qubits", "x_bits", "z_bits", "phase")

    def __init__(
        self,
        n_qubits: int,
        x_bits: int,
        z_bits: int,
        phase: int = 0,  # exponent of i, mod 4
    ):
        limit = 1 << n_qubits
        if not (0 <= x_bits < limit and 0 <= z_bits < limit):
            raise ValueError("bit masks exceed the qubit count")
        init = object.__setattr__
        init(self, "n_qubits", n_qubits)
        init(self, "x_bits", x_bits)
        init(self, "z_bits", z_bits)
        init(self, "phase", phase % 4)

    def _key(self) -> tuple[int, int, int, int]:
        return (self.n_qubits, self.x_bits, self.z_bits, self.phase)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PauliString(n_qubits={self.n_qubits!r}, x_bits={self.x_bits!r}, "
            f"z_bits={self.z_bits!r}, phase={self.phase!r})"
        )

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since the slots refuse
        # assignment
        return PauliString, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def sign(self) -> int:
        """+1 or -1; raises if the operator carries an imaginary phase."""
        if self.phase % 2:
            raise ValueError(f"phase i^{self.phase} is not a real sign")
        return 1 if self.phase == 0 else -1

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit counts differ")
        # Moving other's X block left past self's Z block anticommutes
        # once per overlapping site.
        swaps = (self.z_bits & other.x_bits).bit_count()
        return PauliString(
            self.n_qubits,
            self.x_bits ^ other.x_bits,
            self.z_bits ^ other.z_bits,
            (self.phase + other.phase + 2 * swaps) % 4,
        )

    def label(self) -> str:
        """Readable form like '-XZ.ZX' with '.' for identity sites."""
        site = {(0, 0): ".", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}
        body = ""
        for k in range(self.n_qubits):
            body += site[((self.x_bits >> k) & 1, (self.z_bits >> k) & 1)]
        return {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase] + body


def conjugate_circuit(paulis, gates) -> tuple[PauliString, ...]:
    """Conjugate every string by a gate list, first gate first.

    The strings must share one qubit count, and every gate is validated
    against it before any runs.  The strings run as columns, transposed
    in and out, so the list runs once for all of them.
    """
    paulis = tuple(paulis)
    n = paulis[0].n_qubits if paulis else 0
    if any(p.n_qubits != n for p in paulis):
        raise ValueError("qubit counts differ")
    rows = _checked_gates(n, gates)
    x = _transpose((p.x_bits for p in paulis), n)
    z = _transpose((p.z_bits for p in paulis), n)
    flips = _conj_columns(x, z, rows)
    m = len(paulis)
    return tuple(
        PauliString(n, x_bits, z_bits, p.phase + 2 * (flips >> v & 1))
        for v, (p, x_bits, z_bits) in enumerate(zip(paulis, _transpose(x, m), _transpose(z, m)))
    )


def stabilizer_generators(graph: Graph) -> tuple[PauliString, ...]:
    """One PauliString per vertex: X there, Z on each neighbor."""
    n = graph.n_vertices
    return tuple(PauliString(n, 1 << i, row) for i, row in enumerate(adjacency(graph)))


def _check_index(graph: Graph, index: int) -> int:
    """index, or ValueError when it names no outcome of graph."""
    if not 0 <= index < graph.outcome_count():
        raise ValueError(f"outcome index {index} out of range")
    return index


def run_protocol_tableau(graph: Graph, index: int) -> tuple[PauliString, ...]:
    """Symbolic mirror of the dense run_protocol: the data-qubit
    stabilizer group with its signs at outcome index, K_v with the sign
    its sign form gives at index for each vertex v.  The forms are read
    through the module, so a test that replaces protocol._data_sign_forms
    reaches this reader too."""
    _check_index(graph, index)
    generators = []
    for k_v, form in zip(stabilizer_generators(graph), protocol._data_sign_forms(graph)):
        flips = (form & (index << 1 | 1)).bit_count()
        generators.append(PauliString(k_v.n_qubits, k_v.x_bits, k_v.z_bits, 2 * flips))
    return tuple(generators)


def correction_plan(graph: Graph, index: int, kind: str) -> PauliString:
    """The kind's plan for outcome index: X^x Z^z on the data qubits,
    bit i of x and z the parity of vertex i's forms read at index.  The
    forms are read through the module, so a test that replaces
    protocol.correction_forms changes the plan too."""
    _check_index(graph, index)
    x_bits = z_bits = 0
    for i, (x, z) in enumerate(protocol.correction_forms(graph, kind)):
        x_bits |= ((x & index).bit_count() & 1) << i
        z_bits |= ((z & index).bit_count() & 1) << i
    return PauliString(graph.n_vertices, x_bits, z_bits)


def plans_equivalent(plan_a: PauliString, plan_b: PauliString, graph: Graph) -> bool:
    """True iff the two plans differ by an element of Stab(|G>) times a
    phase, i.e. they steer every outcome to the same corrected state up
    to a global phase."""
    if plan_a.n_qubits != graph.n_vertices or plan_b.n_qubits != graph.n_vertices:
        raise ValueError("plans must be over the given graph")
    # the one element of Stab(|G>) with the product's X bits is the
    # product of the K_i there, whose Z bits xor their adjacency rows; it
    # must carry the product's Z bits, and any phase steers to the same state
    product = plan_a * plan_b
    rows = adjacency(graph)
    return reduce(xor, (rows[i] for i in _set_bits(product.x_bits)), 0) == product.z_bits
