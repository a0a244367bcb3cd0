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
A group is conjugated as bit-packed columns, the layout of Aaronson &
Gottesman (quant-ph/0406196) that Stim also uses, so each gate costs a
few integer operations for all its strings at once.
"""


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


def _checked_gates(n_qubits: int, gates) -> list[tuple[str, int, int]]:
    """Validate a gate list and return it as (gate, a, b) rows, a and b
    the targets (b = a for a one-qubit gate)."""
    rows = []
    for gate, targets in gates:
        targets = tuple(targets)
        arity = _GATE_ARITY.get(gate)
        if arity is None:
            raise ValueError(f"unknown gate {gate!r}")
        if len(targets) != arity:
            raise ValueError(f"{gate} takes {arity} targets, got {targets}")
        a, b = targets[0], targets[-1]
        for q in (a, b):
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range")
        if arity == 2 and a == b:
            raise ValueError(f"duplicate targets {targets}")
        rows.append((gate, a, b))
    return rows


def _set_bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows, width: int) -> list[int]:
    """The width columns of a bit matrix given as int rows: bit i of
    column j is bit j of row i."""
    columns = [0] * width
    for i, row in enumerate(rows):
        for j in _set_bits(row):
            columns[j] |= 1 << i
    return columns


def _conj_columns(x: list[int], z: list[int], rows) -> int:
    """Run strings X^x Z^z through checked gate rows in order, each step
    U P U^dagger, on columns updated in place: bit v of x[q] and z[q] is
    string v's exponent at qubit q.  Returns the mask of the strings
    whose sign flipped.

    Sign bookkeeping, derived once in the X^x Z^z normal form:
      H(q):    swap x_q and z_q; an occupied XZ site reorders, phase += 2.
      X(q):    Z_q present flips sign.
      Z(q):    X_q present flips sign.
      CZ(a,b): z_a ^= x_b, z_b ^= x_a; both X's present, phase += 2.
    """
    flips = 0
    for gate, a, b in rows:
        if gate == "CZ":
            flips ^= x[a] & x[b]
            z[a] ^= x[b]
            z[b] ^= x[a]
        elif gate == "H":
            flips ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif gate == "X":
            flips ^= z[a]
        else:  # Z(q)
            flips ^= x[a]
    return flips


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
