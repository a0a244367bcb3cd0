"""Bit-packed Pauli algebra and stabilizer tableau.

A Pauli operator is stored in the normal form

    i^phase * prod_k X_k^{x_k} * prod_k Z_k^{z_k}

with x and z packed into Python ints (bit k = qubit k) and phase mod 4.
The site value x_k = z_k = 1 therefore means X_k Z_k = -i Y_k; a plain
Y_k is phase=1, x=z=1.  Every conjugation and multiplication rule below
is derived in this normal form; none of them are copied from elsewhere,
and the dense engine cross-checks all of them in the test suite.

The protocol circuits only ever produce generators with real signs, but
products computed along the way pass through imaginary phases, so the
phase is tracked mod 4 throughout and collapsed to a sign only at the
boundary (the .sign property).

A sign may also depend on the measurement outcomes: a string carries an
outcome mask, and at outcome index s its full sign is
i^phase (-1)^{|outcome_mask & s|}.  Products add the phases and XOR the
masks, and conjugation keeps the mask, so one tableau covers every
outcome, and .evaluate(s) gives it at outcome s.
"""

from __future__ import annotations

from typing import NamedTuple


class PauliString:
    """An immutable Pauli string, equal and hashed by its five fields.

    A plain slotted class, not a tuple: it has its own product, and a
    tuple would also lend it +, len and iteration.
    """

    __slots__ = ("n_qubits", "x_bits", "z_bits", "phase", "outcome_mask")

    def __init__(
        self,
        n_qubits: int,
        x_bits: int,
        z_bits: int,
        phase: int = 0,  # exponent of i, mod 4
        outcome_mask: int = 0,  # extra sign (-1)^{|outcome_mask & s|} at outcome s
    ):
        limit = 1 << n_qubits
        if not (0 <= x_bits < limit and 0 <= z_bits < limit):
            raise ValueError("bit masks exceed the qubit count")
        if outcome_mask < 0:
            raise ValueError("outcome mask must be non-negative")
        init = object.__setattr__
        init(self, "n_qubits", n_qubits)
        init(self, "x_bits", x_bits)
        init(self, "z_bits", z_bits)
        init(self, "phase", phase % 4)
        init(self, "outcome_mask", outcome_mask)

    def _key(self) -> tuple[int, int, int, int, int]:
        return (self.n_qubits, self.x_bits, self.z_bits, self.phase, self.outcome_mask)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"PauliString(n_qubits={self.n_qubits!r}, x_bits={self.x_bits!r}, "
            f"z_bits={self.z_bits!r}, phase={self.phase!r}, "
            f"outcome_mask={self.outcome_mask!r})"
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
        """+1 or -1; raises if the operator carries an imaginary phase or
        a sign that depends on the outcome."""
        if self.phase % 2:
            raise ValueError(f"phase i^{self.phase} is not a real sign")
        if self.outcome_mask:
            raise ValueError("the sign depends on the outcome; evaluate it first")
        return 1 if self.phase == 0 else -1

    def evaluate(self, outcome_index: int) -> "PauliString":
        """The string at one outcome: the mask folded into the phase."""
        flips = (self.outcome_mask & outcome_index).bit_count() & 1
        return PauliString(
            self.n_qubits, self.x_bits, self.z_bits, self.phase + 2 * flips
        )

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
            self.outcome_mask ^ other.outcome_mask,
        )

    def label(self) -> str:
        """Readable form like '-XZ.ZX' with '.' for identity sites."""
        site = {(0, 0): ".", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}
        body = ""
        for k in range(self.n_qubits):
            body += site[((self.x_bits >> k) & 1, (self.z_bits >> k) & 1)]
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        if self.outcome_mask:
            body += f" (-1)^(s&{self.outcome_mask:#x})"
        return prefix + body


def single_x(n_qubits: int, qubit: int) -> PauliString:
    return PauliString(n_qubits, 1 << qubit, 0)


def single_z(n_qubits: int, qubit: int) -> PauliString:
    return PauliString(n_qubits, 0, 1 << qubit)


_GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2}


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
      CNOT(c,t): x_t ^= x_c, z_c ^= z_t; no phase change in this form.
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
        elif gate == "Z":
            if x & support:
                phase += 2
        else:  # CNOT(a, b)
            if (x >> a) & 1:
                x ^= 1 << b
            if (z >> b) & 1:
                z ^= 1 << a
    return x, z, phase


class _Checked:
    """Base of a named tuple whose checks run in __new__.

    typing.NamedTuple refuses __new__ in its own body, so such a class
    is a slotted subclass of (_Checked, its fields) that defines __new__.
    Here _make, and _replace, which builds through it, run __new__ too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _TableauFields(NamedTuple):
    n_qubits: int
    generators: tuple[PauliString, ...]


class Tableau(_Checked, _TableauFields):
    """A stabilizer group given by n_qubits commuting generators."""

    __slots__ = ()

    def __new__(cls, n_qubits: int, generators: tuple[PauliString, ...]):
        for g in generators:
            if g.n_qubits != n_qubits:
                raise ValueError("generator qubit count mismatch")
            if g.phase % 2:
                raise ValueError(f"generator {g.label()} has imaginary phase")
        return super().__new__(cls, n_qubits, generators)

    def evaluate(self, outcome_index: int) -> "Tableau":
        """The group at one outcome: every mask folded into its sign."""
        return Tableau(
            self.n_qubits, tuple(g.evaluate(outcome_index) for g in self.generators)
        )


def zero_state_tableau(n_qubits: int) -> Tableau:
    return Tableau(n_qubits, tuple(single_z(n_qubits, q) for q in range(n_qubits)))


def conjugate_circuit(tableau: Tableau, gates) -> Tableau:
    """Conjugate every generator by a gate list, first gate first.

    Every gate is validated before any runs.  Each generator then goes
    through the whole list on plain ints, and one PauliString is built
    per generator, so the cost is one pass over the gates per generator
    rather than one tableau per gate.  A generator that comes out
    unchanged is kept as it is.
    """
    n = tableau.n_qubits
    rows = _checked_gates(n, gates)
    generators = []
    for g in tableau.generators:
        x, z, phase = _conj_bits(g.x_bits, g.z_bits, g.phase, rows)
        phase %= 4
        if x == g.x_bits and z == g.z_bits and phase == g.phase:
            generators.append(g)
        else:
            generators.append(PauliString(n, x, z, phase, g.outcome_mask))
    return Tableau(n, tuple(generators))


def conjugate(tableau: Tableau, gate: str, targets) -> Tableau:
    """Conjugate every generator by one gate; a generator with no support
    on the targets commutes with it and is kept as it is."""
    return conjugate_circuit(tableau, ((gate, targets),))
