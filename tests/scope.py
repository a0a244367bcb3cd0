"""Enumerated test scopes: every case of a bounded domain, in one fixed
order, so that a property test checks its whole domain and a test run is
a function of the tree.  Each test that iterates a scope states the
scope's size in its docstring."""

from itertools import combinations, permutations, product

from pauli import PauliString
from pqw.graphs import Graph
from pqw.verify import VerificationReport


def labelled_graphs(max_qubits: int | None = None):
    """Every connected graph on the vertices v0 .. v(n-1), 2 <= n <= 5,
    with at most max_qubits = n + 2|E| qubits (no cap when None), each
    edge (vi, vj) with i < j and the edges in lexicographic order: 771
    graphs, or 21, 36 or 167 within 10, 12 or 14 qubits."""
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
            reached = 1  # the vertices joined to v0: n passes over the edges reach them all
            for i, j in edges * n:
                if reached >> i & 1 or reached >> j & 1:
                    reached |= 1 << i | 1 << j
            if reached == (1 << n) - 1 and (max_qubits is None or n + 2 * len(edges) <= max_qubits):
                vertices = tuple(f"v{i}" for i in range(n))
                yield Graph(vertices, tuple((f"v{i}", f"v{j}") for i, j in edges))


def ordered_graphs(max_qubits: int):
    """Every edge order and orientation of every labelled graph within
    max_qubits, as the resource pairs follow the edge list and each
    pair's halves its edge's orientation: 74, 842 or 6,602 graphs within
    9, 10 or 12 qubits."""
    for graph in labelled_graphs(max_qubits):
        for order in permutations(graph.edges):
            for flips in range(1 << len(order)):
                edges = ((v, u) if flips >> i & 1 else (u, v) for i, (u, v) in enumerate(order))
                yield Graph(graph.vertices, tuple(edges))


def dense_graphs():
    """The dense checks' graphs: every order and orientation within 9
    qubits (74), then every labelled graph of 10 to 12 qubits (31): 105
    graphs, every labelled graph within 12 qubits among them."""
    yield from ordered_graphs(9)
    yield from (g for g in labelled_graphs(12) if g.n_vertices + 2 * g.n_edges > 9)


def gate_alphabet(n_qubits: int) -> list:
    """Every gate over {H, X, Z, CZ} on n_qubits: 3n one-qubit gates and
    n(n - 1) CZs, each ordered pair of targets once."""
    ones = [(gate, (q,)) for gate in ("H", "X", "Z") for q in range(n_qubits)]
    return ones + [("CZ", pair) for pair in permutations(range(n_qubits), 2)]


# the exhaustive depth of each qubit count's gate lists; past it, one
# named long list per count holds the whole alphabet in order
CIRCUIT_DEPTHS = {1: 5, 2: 3, 3: 2, 4: 2, 5: 1}


def circuits(max_qubits: int):
    """(n_qubits, gates) for every gate list over gate_alphabet of at most
    CIRCUIT_DEPTHS[n] gates, the empty list included, and then the whole
    alphabet as one list, for n = 1 .. max_qubits: 1,193, 1,795 or 1,832
    lists for a max_qubits of 3, 4 or 5."""
    for n in range(1, max_qubits + 1):
        alphabet = gate_alphabet(n)
        for depth in range(CIRCUIT_DEPTHS[n] + 1):
            for gates in product(alphabet, repeat=depth):
                yield n, gates
        yield n, alphabet


def pauli_strings(n_qubits: int, phases=range(4)) -> tuple[PauliString, ...]:
    """Every string i^phase X^x Z^z on n_qubits with its phase in phases:
    4^n * len(phases) strings."""
    bits = range(1 << n_qubits)
    return tuple(PauliString(n_qubits, x, z, phase) for x in bits for z in bits for phase in phases)


# outcomes alternate; every outcome fails; a row that is 0 holds at
# every outcome; two rows contradict each other; and runs that cross the
# boundaries of verify's pieces, multiples of PIECE: outcomes of 4^8
# alternate at bit 0, and under bits 12 and 0 of 4^7 the runs of failures
# from 4095 to 8192 and from 12287 to 16384 each start off a boundary and
# cross one
REPORT_EXAMPLES = (
    [VerificationReport("a,b", "universal", 16, (0b11,))],
    [VerificationReport("P3", "universal", 4, (0b1,))],
    [VerificationReport("x", "universal", 4, (0,))],
    [
        VerificationReport("big", "universal", 4096, (0b1100,)),
        VerificationReport('"q"', "universal", 4, (0b101, 0b100)),
        VerificationReport("P3", "universal", 16, ()),
    ],
    [VerificationReport("C8", "universal", 4**8, (0b11,))],
    [
        VerificationReport("high", "universal", 4**7, (1 << 13, 0b10)),
        VerificationReport("P3", "universal", 16, ()),
    ],
)


def report_lists():
    """The verify writers' inputs: a report for every list of at most two
    conditions mask << 1 | odd on 4 outcomes (73) and of at most one on 16
    (33), named in turn by the 30 names of one or two of the characters
    CSV must quote, in lists of 1, 2, 3 and 4 reports in turn (43 lists);
    then a list of a report on each count 4^1 .. 4^6, and REPORT_EXAMPLES:
    50 lists of 121 reports."""
    names = ["".join(chars) for size in (1, 2) for chars in product('A,"\r\n', repeat=size)]
    shapes = [(count, rows) for count, most in ((4, 2), (16, 1)) for size in range(most + 1)
              for rows in product(range(2 * count), repeat=size)]
    reports = [VerificationReport(names[i % 30], "universal", *shape)
               for i, shape in enumerate(shapes)]
    start = size = 0
    while start < len(reports):
        size = size % 4 + 1
        yield reports[start:start + size]
        start += size
    yield [VerificationReport("A", "universal", 4**e, (0b110,)) for e in range(1, 7)]
    yield from REPORT_EXAMPLES
