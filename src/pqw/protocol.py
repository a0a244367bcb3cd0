"""The distribution protocol and its correction formulas.

One data qubit sits at each vertex of the target graph; every edge is
served by a pre-shared two-qubit resource state CZ|++>, one half per
endpoint.  The steps are:

  S1  put every data qubit in |+>
  S2  prepare CZ|++> on each edge's resource pair
  S3  each vertex applies CZ(data, own resource half) for every
      incident edge, then H on every resource qubit
  S4  measure all resource qubits in the Z basis, broadcast the bits,
      apply a local correction on the data qubits

An outcome is its index s in [0, 4^|E|), used by every report and test:
the resource bits are ordered edge by edge (catalog edge order), within
an edge first endpoint then second endpoint, and s is the big-endian
integer of that bit sequence.  For the path A-B-C-D this reproduces the
conventional labels s1=AB@A, s2=AB@B, s3=BC@B, s4=BC@C, s5=CD@C,
s6=CD@D; for the cycle A-B-C-D-A it appends s7=DA@D, s8=DA@A.  Every
form here covers all outcomes at once, so no function takes s.
Qubit order: vertex v is qubit graph.vertices.index(v), and sequence bit
m = 2*j + e, endpoint e of edge j, is qubit n_vertices + 2|E| - 1 - m, so
the resource register read as an integer is s and a form over s is a Z
mask on it; each pair sits on two aligned bits, its second endpoint on
the even one.

A correction plan is a Pauli string X^x Z^z on the data qubits, bit i
of x and z its exponents at vertex i; applying it means Z^z then X^x at
each vertex.  Validity of a plan for outcome s reduces to the parity
condition

    z_v XOR (XOR of x_u over neighbors u of v)  ==  g_v(s)

where g_v is the XOR of the far-side bits at v, which is exactly the
sign of K_v in the data group after the walk (the phase lemma).

Every correction kind is a function of the graph alone: it returns
per-vertex (x, z) outcome-bit forms, masks over the big-endian outcome
index like far_side_masks, and the plan of outcome s is those forms read
at s by parity.  As X_u|G> = Z_{N(u)}|G>, a plan reaches |G> only through
its flip masks phi_v = z_v xor (xor of x_u over u ~ v), and the parity
condition is phi_v = g_v, v's entry of far_side_masks.

A sign is one GF(2) bit, and a sign that depends on the outcome is one
int, its sign form mask << 1 | odd, which gives (-1)^{|form & (s << 1 | 1)|}
at outcome s.  _data_sign_forms gives K_v's as sigma_v << 1 | odd_v, the
plan flips it by phi_v << 1, and pqw.verify and pqw.noise read the
corrected form ^ phi_v << 1.

The circuit is written once, as the gate lists prep_gates and
walk_gates, and one function, _data_sign_forms, runs both backwards to
|+> on every qubit, in the Heisenberg picture on its own bit-packed
columns, for every K_v (x) Z_R^{sigma_v} at once.  |+>^n is stabilized by
exactly the Z-free strings, so each sign form is read off that run with
no measurement rule and no elimination, and nothing is cached.
_heisenberg_generators runs the noise code of a plan's masks back through
the walk alone, as post-prep noise acts between the two lists, and hands
it over as plain ints; the tests' dense reference runs both lists on amplitudes.

The columns are the layout of Aaronson & Gottesman (quant-ph/0406196)
that Stim also uses: a set of Pauli strings X^x Z^z is one pair of int
columns per qubit, bit v of x[q] and z[q] string v's exponent at qubit
q, so each gate costs a few integer operations for all the strings at
once.  No other module of the package knows that layout.
"""

from functools import reduce
from operator import or_

from .graphs import CORRECTION_KINDS, Graph, _index_of, _neighbour_xor, adjacency, catalog_lookup


# -- bit-packed columns ----------------------------------------------------

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
      H(q):    swap x_q and z_q; an occupied XZ site reorders, sign flips.
      X(q):    Z_q present flips sign.
      Z(q):    X_q present flips sign.
      CZ(a,b): z_a ^= x_b, z_b ^= x_a; both X's present, sign flips.
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


# -- protocol circuit ------------------------------------------------------


def _resource_qubit(graph: Graph, m: int) -> int:
    """The qubit of sequence bit m, the one place the layout is decided:
    register bit 2|E|-1-m, so the register reads as the outcome index."""
    return graph.n_vertices + 2 * graph.n_edges - 1 - m


def _outcome_bit(graph: Graph, m: int) -> int:
    """Sequence bit m as a mask over the big-endian outcome index."""
    return 1 << (_resource_qubit(graph, m) - graph.n_vertices)


def prep_gates(graph: Graph) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """S1 + S2 as a gate list, applied after |+> on every qubit: the CZ
    of each edge's resource pair, in edge order."""
    return tuple(
        ("CZ", (_resource_qubit(graph, 2 * j), _resource_qubit(graph, 2 * j + 1)))
        for j in range(graph.n_edges)
    )


def walk_gates(graph: Graph) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """S3 as a gate list, the one copy of the walk circuit: the
    entangling CZ(data, own resource half) for every incidence in edge
    order, then H on every resource qubit."""
    nv = graph.n_vertices
    index = _index_of(graph.vertices)
    gates = [
        ("CZ", (index[v], _resource_qubit(graph, 2 * j + e)))
        for j, edge in enumerate(graph.edges)
        for e, v in enumerate(edge)
    ]
    gates += [("H", (q,)) for q in range(nv, nv + 2 * graph.n_edges)]
    return tuple(gates)


def far_side_masks(graph: Graph) -> list[int]:
    """g_v as an outcome-bit form per vertex, in vertex order: the XOR of
    the far-side bits at v is the parity of its mask AND the outcome index."""
    index = _index_of(graph.vertices)
    masks = [0] * len(index)
    for j, (u, w) in enumerate(graph.edges):
        first = _outcome_bit(graph, 2 * j)  # big-endian: the second is first >> 1
        masks[index[u]] |= first >> 1
        masks[index[w]] |= first
    return masks


def _data_sign_forms(graph: Graph) -> tuple[int, ...]:
    """The sign form sigma_v << 1 | odd_v of each K_v after S1-S4: at
    outcome s the data group holds (-1)^{odd_v + |sigma_v & s|} K_v.
    Raises AssertionError naming the first K_v in vertex order that it
    cannot read, as no sign form answers for that K_v exactly.

    Measuring resource qubit r gives (-1)^{s_r} Z_r, so K_v has that form
    when (-1)^{odd_v} K_v (x) Z_R^{sigma_v} stabilizes the walked state, that is
    when prep_gates then walk_gates, run backwards, take it to +P with no
    Z on any qubit, a stabilizer of |+>^n; the prep CZ rows carry each
    pair's sign.  Pass 1 runs every K_v back alone and reads sigma_v off
    the Z it leaves on each pair partner, as on the real walk a resource
    Z_r comes back as X_r Z_{r'} Z_{d(r)}; pass 2 runs every K_v (x)
    Z_R^{sigma_v} back and checks it.  So a form returned holds on any
    circuit, but on another circuit pass 1 may pick a sigma_v that fails
    and refuse a K_v that the data group holds: on K2 with CZ(3, 2)
    before the walk and H(0) after it the reader refuses K_A, though K_A
    is there at every outcome with sign (-1)^{|s|}.
    """
    nv, k = graph.n_vertices, 2 * graph.n_edges
    # each gate is its own inverse, so the circuit runs back last gate first
    rows = _checked_gates(nv + k, reversed(prep_gates(graph) + walk_gates(graph)))
    neighbours = adjacency(graph)
    # bit v of the columns x[q], z[q] is K_v: X_v, Z on v's neighbours, none on R
    x, z = [1 << v for v in range(nv)] + [0] * k, neighbours + [0] * k
    _conj_columns(x, z, rows)
    # resource qubit nv + t; its pair partner nv + (t ^ 1) holds the Z it leaves
    sigmas = [z[nv + (t ^ 1)] for t in range(k)]
    x, z = [1 << v for v in range(nv)] + [0] * k, neighbours + sigmas
    flips = _conj_columns(x, z, rows)
    missing = reduce(or_, z, 0)
    if missing:
        first = graph.vertices[next(_set_bits(missing))]
        raise AssertionError(f"K_{first} is missing from the data group")
    return tuple(sigma << 1 | flips >> v & 1 for v, sigma in enumerate(_transpose(sigmas, nv)))


# -- correction formulas ---------------------------------------------------

# one (x, z) pair of outcome-bit forms per vertex, in vertex order
Forms = tuple[tuple[int, int], ...]


def _forms(graph: Graph, x: dict[str, int], z: dict[str, int]) -> Forms:
    return tuple((x.get(v, 0), z.get(v, 0)) for v in graph.vertices)


def universal_correction(graph: Graph) -> Forms:
    """Z at exactly the vertices with odd far-side parity; valid for
    every connected graph and every outcome."""
    return tuple((0, g) for g in far_side_masks(graph))


def l4_correction(graph: Graph) -> Forms:
    """The four-vertex path formula in its published per-vertex form:
    A untouched, B gets X^{s2}, C gets X^{s1 xor s4}, D collects both
    X and Z parities from the remaining bits."""
    if graph != catalog_lookup("P4"):
        raise ValueError("this formula is specific to the catalog P4 labeling")
    s1, s2, s3, s4, s5, s6 = (_outcome_bit(graph, m) for m in range(6))
    return _forms(
        graph,
        {"B": s2, "C": s1 ^ s4, "D": s2 ^ s3 ^ s6},
        {"D": s1 ^ s4 ^ s5},
    )


def c4_correction(graph: Graph) -> Forms:
    """The four-cycle formula: two adjacent vertices stay untouched and
    the opposite pair absorbs all eight bits."""
    if graph != catalog_lookup("C4"):
        raise ValueError("this formula is specific to the catalog C4 labeling")
    s1, s2, s3, s4, s5, s6, s7, s8 = (_outcome_bit(graph, m) for m in range(8))
    return _forms(
        graph,
        {"C": s1 ^ s4, "D": s2 ^ s7},
        {"C": s2 ^ s3 ^ s6 ^ s7, "D": s1 ^ s4 ^ s5 ^ s8},
    )


def tree_correction(graph: Graph) -> Forms:
    """Tree plan with the first leaf in vertex-label order left untouched.

    X exponents are assigned by walking the tree away from the
    reference leaf: at each vertex q the first child (sorted order)
    absorbs g_q xor x_{parent(q)}, further children get 0.  Z exponents
    then follow from the parity condition in the module docstring, which
    leaves every interior vertex Z-free and reproduces the published
    path formulas exactly.  Assigning X^{f_v} Z^{g_v} verbatim at every
    non-reference vertex fails the parity condition already on the
    four-vertex path, so that reading is rejected by construction; the
    test suite pins the counterexample.
    """
    if not graph.is_tree():
        raise ValueError("tree correction requires a tree")
    rows = adjacency(graph)
    by_label = graph.vertices.__getitem__
    # the lone vertex of a one-vertex tree is its own reference
    reference = min(
        (i for i, row in enumerate(rows) if row.bit_count() == 1), key=by_label, default=0
    )
    g = far_side_masks(graph)
    x = [0] * len(rows)
    parent = {reference: reference}  # never a child, so x[reference] is 0
    order = [reference]
    for q in order:  # order grows as the walk reaches each child
        children = sorted((u for u in _set_bits(rows[q]) if u not in parent), key=by_label)
        parent.update(dict.fromkeys(children, q))
        order += children
        if children:
            x[children[0]] = g[q] ^ x[parent[q]]
    return tuple(zip(x, (gv ^ s for gv, s in zip(g, _neighbour_xor(graph, x)))))


def correction_forms(graph: Graph, kind: str) -> Forms:
    """The kind's per-vertex (x, z) outcome-bit forms; raises ValueError
    when the kind does not apply to this graph."""
    if kind == "universal":
        return universal_correction(graph)
    if kind == "l4":
        return l4_correction(graph)
    if kind == "c4":
        return c4_correction(graph)
    if kind == "tree":
        return tree_correction(graph)
    raise ValueError(f"unknown correction kind {kind!r}; expected {CORRECTION_KINDS}")


def _sign_forms(graph: Graph, correction_kind: str) -> list[int]:
    """phi_v = z_v xor (xor of x_u over u ~ v) per vertex, as outcome-bit
    masks: the plan for outcome s flips the sign of K_v by
    (-1)^{|phi_v & s|}, so it is valid exactly when phi_v equals v's
    far_side_masks entry."""
    forms = correction_forms(graph, correction_kind)
    flips = _neighbour_xor(graph, [x for x, _ in forms])
    return [z ^ f for (_, z), f in zip(forms, flips)]


def _heisenberg_generators(graph: Graph, phis: list[int]) -> tuple[tuple[int, int, int], ...]:
    """W^dagger S_v W for the generators S_v = K_v (x) Z_R^{phi_v} of the
    code whose projector is the corrected-fidelity operator
    M = sum_s |s><s| (x) C_s^dagger |G><G| C_s, W the walk, each as an
    (x, z, odd) triple: the string (-1)^odd X^x Z^z, real as every gate
    is, bit q of x and z its exponents at qubit q, and phis the masks phi_v
    that _sign_forms reads, and checks, before the walk runs back.

    C_s^dagger K_v C_s = (-1)^{|phi_v & s|} K_v, and Z_R^{phi_v} reads that
    sign off the resource register, so M = prod_v (1 + S_v)/2.  Every gate
    is its own inverse, so W^dagger S_v W runs the walk last gate first.
    """
    nv, k = graph.n_vertices, 2 * graph.n_edges
    rows = _checked_gates(nv + k, reversed(walk_gates(graph)))
    # bit v of the columns is S_v: K_v on the data qubits, phi_v on R
    x = [1 << v for v in range(nv)] + [0] * k
    z = adjacency(graph) + _transpose(phis, k)
    flips = _conj_columns(x, z, rows)
    return tuple(
        (x_bits, z_bits, flips >> v & 1)
        for v, (x_bits, z_bits) in enumerate(zip(_transpose(x, nv), _transpose(z, nv)))
    )
