"""Bit-packed Pauli strings and their conjugation by Clifford gates.

A Pauli operator is stored in the normal form

    i^phase * prod_k X_k^{x_k} * prod_k Z_k^{z_k}

with x and z packed into Python ints (bit k = qubit k) and phase mod 4.
The site value x_k = z_k = 1 therefore means X_k Z_k = -i Y_k; a plain
Y_k is phase=1, x=z=1.  Every conjugation and multiplication rule below
is derived in this normal form; none of them are copied from elsewhere,
and the dense engine cross-checks all of them in the test suite.

A stabilizer group is a plain tuple of its generators.  The protocol
circuits only ever produce generators with real signs, but products
computed along the way pass through imaginary phases, so the phase is
tracked mod 4 throughout and collapsed to a sign only at the boundary
(the .sign property).  A sign that depends on the measurement outcome
is not a string: pqw.protocol keeps it as a form (sign_v, sigma_v).
"""

from __future__ import annotations


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


_GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2}


def _checked_gates(n_qubits: int, gates) -> list[tuple[str, int, int, int]]:
    """Validate a gate list and return it as (gate, a, b, support) rows:
    a and b the targets (b = a for a one-qubit gate), support their mask."""
    rows = []
    for gate, targets in gates:
        targets = tuple(targets)
        if gate not in _GATE_ARITY:
            raise ValueError(f"unknown gate {gate!r}")
        if len(targets) != _GATE_ARITY[gate]:
            raise ValueError(f"{gate} takes {_GATE_ARITY[gate]} targets, got {targets}")
        support = 0
        for q in targets:
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range")
            support |= 1 << q
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate targets {targets}")
        rows.append((gate, targets[0], targets[-1], support))
    return rows


def _conj_bits(x: int, z: int, phase: int, rows) -> tuple[int, int, int]:
    """Run X^x Z^z i^phase through checked gate rows in order, each step
    U P U^dagger, on plain ints; the phase comes back unreduced.

    Sign bookkeeping, derived once in the X^x Z^z normal form:
      H(q):    swap x_q and z_q; an occupied XZ site reorders, phase += 2.
      X(q):    Z_q present flips sign.
      Z(q):    X_q present flips sign.
      CZ(a,b): z_a ^= x_b, z_b ^= x_a; both X's present, phase += 2.
    A gate with no support under the string commutes with it.
    """
    for gate, a, b, support in rows:
        if not (x | z) & support:
            continue
        if gate == "CZ":
            xa, xb = (x >> a) & 1, (x >> b) & 1
            if xa and xb:
                phase += 2
            if xb:
                z ^= 1 << a
            if xa:
                z ^= 1 << b
        elif gate == "H":
            xq, zq = x & support, z & support
            if xq and zq:
                phase += 2
            x ^= xq ^ zq
            z ^= xq ^ zq
        elif gate == "X":
            if z & support:
                phase += 2
        elif x & support:  # Z(q)
            phase += 2
    return x, z, phase


def conjugate_circuit(paulis, gates) -> tuple[PauliString, ...]:
    """Conjugate every string by a gate list, first gate first.

    The strings must share one qubit count, and every gate is validated
    against it before any runs.  Each string then goes through the whole
    list on plain ints, and one PauliString is built per string, so the
    cost is one pass over the gates per string.  A string that comes out
    unchanged is kept as it is.
    """
    paulis = tuple(paulis)
    n = paulis[0].n_qubits if paulis else 0
    if any(p.n_qubits != n for p in paulis):
        raise ValueError("qubit counts differ")
    rows = _checked_gates(n, gates)
    out = []
    for p in paulis:
        x, z, phase = _conj_bits(p.x_bits, p.z_bits, p.phase, rows)
        phase %= 4
        if x == p.x_bits and z == p.z_bits and phase == p.phase:
            out.append(p)
        else:
            out.append(PauliString(n, x, z, phase))
    return tuple(out)
