"""Target graphs, the named-topology catalog, and graph-state generators.

A graph state |G> is prepared by applying CZ along every edge of G to
|+> on every vertex; it is the unique joint +1 eigenstate of the
generators K_v = X_v * prod_{u~v} Z_u, whose Z parts are the rows that
adjacency returns.  Vertex order is significant here: it fixes qubit indices,
measurement-outcome indexing, and report ordering, which is why Graph
keeps ordered tuples instead of sets.

The catalog's entries are edge-list texts in a Python literal below, so
the interpreter loads them from cached bytecode with no file to open;
catalog_lookup reads each one on lookup with parse_edge_list, the reader
of an edge-list file, so one parser and one vertex-order rule, first
appearance, serve every graph.  Edge lists follow the standard
small-graph atlas, and their edge order is fixed, as it fixes qubit and
outcome indices.
"""

from collections import namedtuple


# the 18 topologies `verify --graph all` runs, in order; K4 is outside them
TABLE_ORDER: tuple[str, ...] = (
    "P3", "P4", "P5", "K1_2", "K1_3", "K1_4", "spider", "C3", "C4", "C5",
    "diamond", "paw", "K3", "bull", "house", "cricket", "kite", "fork",
)

# a paper name for its catalog graph: |L4> is the path P4, and |GHZ4>
# is the star K1_3 up to H on every leaf, which changes no Schmidt rank
ALIASES: dict[str, str] = {"GHZ4": "K1_3", "L4": "P4"}

# name -> its edge list, one "u v" line per edge
GRAPHS: dict[str, str] = {
    "P3": "A B\nB C",
    "P4": "A B\nB C\nC D",
    "P5": "A B\nB C\nC D\nD E",
    "K1_2": "A B\nA C",
    "K1_3": "A B\nA C\nA D",
    "K1_4": "A B\nA C\nA D\nA E",
    "spider": "A B\nA C\nA D\nD E",
    "C3": "A B\nB C\nC A",
    "C4": "A B\nB C\nC D\nD A",
    "C5": "A B\nB C\nC D\nD E\nE A",
    "diamond": "A B\nA C\nB C\nB D\nC D",
    "paw": "A B\nB C\nC A\nA D",
    "K3": "A B\nB C\nC A",
    "bull": "A B\nB C\nC A\nB D\nC E",
    "house": "A B\nB C\nC D\nD E\nE A\nA C",
    "cricket": "A B\nB C\nC A\nA D\nA E",
    "kite": "A B\nA C\nB C\nB D\nC D\nC E",
    "fork": "A B\nB C\nC D\nB E",
    "K4": "A B\nA C\nA D\nB C\nB D\nC D",
}


class CatalogError(KeyError):
    """Unknown catalog name."""


class ResourceError(RuntimeError):
    """Raised when a request exceeds the configured memory or time budget."""


# the plan kinds pqw.protocol.correction_forms builds and the noise
# vocabulary pqw.noise checks; here, so that the CLI lists them without
# loading an engine.  The first entry of each tuple is its default.
CORRECTION_KINDS = ("universal", "l4", "c4", "tree")
CHANNEL_ALIASES = {"dep": "depolarizing", "pd": "phase_damping", "ad": "amplitude_damping"}
INSERTION_POINTS = ("post_prep", "pre_measure")
METRICS = ("strict", "conditional")


class _Checked:
    """Base of a named tuple whose checks run in __new__.

    Such a class is a slotted subclass of (_Checked, a
    collections.namedtuple) that defines __new__.  namedtuple's _make
    builds through tuple.__new__ and skips it; here _make, and _replace,
    which builds through it, run __new__ too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Graph(_Checked, namedtuple("Graph", "vertices edges")):
    """A connected simple graph with ordered vertices and edges, stored as
    tuples whatever sequences built it."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]):
        vertices, edges = tuple(vertices), tuple((u, v) for u, v in edges)
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex labels")
        adjacency = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in adjacency or v not in adjacency:
                raise ValueError(f"edge ({u},{v}) mentions an unknown vertex")
            if v in adjacency[u]:  # either order of the pair
                raise ValueError(f"duplicate edge ({u},{v})")
            adjacency[u].add(v)
            adjacency[v].add(u)
        # connectivity required: the universal correction argument only
        # covers connected graphs
        if vertices:
            frontier = [vertices[0]]
            reached = {vertices[0]}
            while frontier:
                for u in adjacency[frontier.pop()]:
                    if u not in reached:
                        reached.add(u)
                        frontier.append(u)
            if reached != set(vertices):
                raise ValueError("graph is not connected")
        return super().__new__(cls, vertices, edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def is_tree(self) -> bool:
        # connected is guaranteed, so the edge count decides
        return self.n_edges == self.n_vertices - 1

    def outcome_count(self) -> int:
        """Number of measurement records the protocol can produce: two
        resource qubits per edge, so 4**|E|."""
        return 4**self.n_edges


def catalog_names() -> tuple[str, ...]:
    return tuple(GRAPHS) + tuple(ALIASES)


def catalog_lookup(name: str) -> Graph:
    """Resolve a catalog name (or alias) to its documented graph."""
    try:
        text = GRAPHS[ALIASES.get(name, name)]
    except KeyError:
        raise CatalogError(
            f"unknown graph {name!r}; valid names: {', '.join(sorted(catalog_names()))}"
        ) from None
    return parse_edge_list(text)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list file format: one 'u v' pair per line.

    Blank lines and lines starting with '#' are skipped.  Vertices are
    ordered by first appearance, which keeps qubit indices reproducible
    for a given file.
    """
    vertices: dict[str, None] = {}  # an ordered set
    edges: list[tuple[str, str]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'u v', got {line!r}")
        u, v = parts
        for label in (u, v):
            if not label.isalnum():
                raise ValueError(f"line {line_no}: label {label!r} is not alphanumeric")
            vertices[label] = None
        edges.append((u, v))
    if not edges:
        raise ValueError("edge list is empty")
    return Graph(tuple(vertices), tuple(edges))


def _index_of(vertices: tuple[str, ...]) -> dict[str, int]:
    """Each vertex label's qubit index, its place in the vertex tuple."""
    return {v: i for i, v in enumerate(vertices)}


def _neighbour_xor(graph: Graph, values: list[int]) -> list[int]:
    """The XOR of values[u] over the neighbours u of each vertex, in
    vertex order, read in one pass over the edges."""
    index = _index_of(graph.vertices)
    out = [0] * len(index)
    for u, w in graph.edges:
        i, j = index[u], index[w]
        out[i] ^= values[j]
        out[j] ^= values[i]
    return out


def adjacency(graph: Graph) -> list[int]:
    """The adjacency matrix as one neighbour mask per vertex index; it is
    symmetric, so row v is column v."""
    return _neighbour_xor(graph, [1 << i for i in range(graph.n_vertices)])

