"""Graph model, the shipped catalog, edge-list parsing, and the target
states built from graphs."""

import numpy as np
import pytest

import dense as sv
from dense import check_stabilizes, ghz_state, graph_state
from helpers import ghz_from_star, states_equal
from pauli import PauliString, stabilizer_generators
from pqw.graphs import (
    CatalogError,
    Graph,
    TABLE_ORDER,
    catalog_lookup,
    catalog_names,
    parse_edge_list,
)
from pqw.noise import noise_sweep
from pqw.verify import phase_lemma_check, verify_all_outcomes

K2 = Graph(("A", "B"), (("A", "B"),))


# -- validation ---------------------------------------------------------------


def test_rejects_duplicate_vertices():
    with pytest.raises(ValueError, match="duplicate vertex"):
        Graph(("A", "A"), ())


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(("A", "B"), (("A", "A"),))


def test_rejects_duplicate_edge_even_reversed():
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(("A", "B"), (("A", "B"), ("B", "A")))


def test_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph(("A", "B"), (("A", "C"),))


def test_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        Graph(("A", "B", "C", "D"), (("A", "B"), ("C", "D")))


def test_accessors():
    p4 = catalog_lookup("P4")
    assert p4.vertices == ("A", "B", "C", "D")
    assert p4.n_vertices == 4 and p4.n_edges == 3
    # a label's index is its place in p4.vertices, and graphs.adjacency
    # gives every vertex's neighbours in one pass
    for name in ("vertex_index", "neighbors", "degree"):
        assert not hasattr(Graph, name), name
    assert p4.is_tree()
    assert not catalog_lookup("C4").is_tree()
    assert p4.outcome_count() == 64


def test_any_sequences_build_the_tuple_graph():
    # lists are stored as tuples, so the graph is equal, hashes alike and
    # runs through every engine as the tuple graph does
    assert Graph(("A", "B"), (["A", "B"],)) == K2
    built = Graph(["A", "B"], [("A", "B")])
    assert built == K2 and hash(built) == hash(K2)
    assert built.edges == (("A", "B"),)
    assert verify_all_outcomes(built).passed
    assert phase_lemma_check(built)
    dep = [noise_sweep(graph, "depolarizing", (0.1,)).fidelities[0] for graph in (built, K2)]
    assert dep[0] == dep[1]


# -- catalog ------------------------------------------------------------------


def test_table_order_has_eighteen_entries():
    assert len(TABLE_ORDER) == 18
    assert "K4" not in TABLE_ORDER
    assert TABLE_ORDER[0] == "P3"


def test_catalog_names_include_alias_and_k4():
    names = catalog_names()
    assert "K4" in names
    assert "GHZ4" in names


def test_alias_resolves_to_star():
    assert catalog_lookup("GHZ4") == catalog_lookup("K1_3")


def test_unknown_name_lists_alternatives():
    with pytest.raises(CatalogError, match="valid names"):
        catalog_lookup("Q7")


# The whole catalog as it shipped in catalog.json: each name's vertices
# in order and its edges in order, one two-letter pair per edge.  Vertex
# and edge order fix qubit and outcome indices, so every report's bytes
# depend on them.
CATALOG_GOLDEN = {
    "P3": ("ABC", "AB BC"),
    "P4": ("ABCD", "AB BC CD"),
    "P5": ("ABCDE", "AB BC CD DE"),
    "K1_2": ("ABC", "AB AC"),
    "K1_3": ("ABCD", "AB AC AD"),
    "K1_4": ("ABCDE", "AB AC AD AE"),
    "spider": ("ABCDE", "AB AC AD DE"),
    "C3": ("ABC", "AB BC CA"),
    "C4": ("ABCD", "AB BC CD DA"),
    "C5": ("ABCDE", "AB BC CD DE EA"),
    "diamond": ("ABCD", "AB AC BC BD CD"),
    "paw": ("ABCD", "AB BC CA AD"),
    "K3": ("ABC", "AB BC CA"),
    "bull": ("ABCDE", "AB BC CA BD CE"),
    "house": ("ABCDE", "AB BC CD DE EA AC"),
    "cricket": ("ABCDE", "AB BC CA AD AE"),
    "kite": ("ABCDE", "AB AC BC BD CD CE"),
    "fork": ("ABCDE", "AB BC CD BE"),
    "K4": ("ABCD", "AB AC AD BC BD CD"),
    "GHZ4": ("ABCD", "AB AC AD"),
    "L4": ("ABCD", "AB BC CD"),
}


def test_catalog_matches_its_golden_contents():
    assert catalog_names() == tuple(CATALOG_GOLDEN)
    assert TABLE_ORDER == tuple(CATALOG_GOLDEN)[:18]
    for name, (vertices, edges) in CATALOG_GOLDEN.items():
        graph = catalog_lookup(name)
        assert graph.vertices == tuple(vertices), name
        assert graph.edges == tuple(tuple(pair) for pair in edges.split()), name


def test_catalog_entries_cover_table_order():
    assert set(TABLE_ORDER) <= set(catalog_names())
    for name in TABLE_ORDER:
        graph = catalog_lookup(name)
        assert graph.outcome_count() == 4**graph.n_edges
        assert graph.n_vertices + 2 * graph.n_edges <= 17


def test_every_catalog_state_is_stabilized():
    for name in TABLE_ORDER:
        graph = catalog_lookup(name)
        assert check_stabilizes(graph_state(graph), stabilizer_generators(graph))
    k4 = catalog_lookup("K4")
    assert check_stabilizes(graph_state(k4), stabilizer_generators(k4))


# -- edge-list parsing --------------------------------------------------------


def test_parse_edge_list_roundtrip():
    graph = parse_edge_list("# a path\nA B\n\nB C\n")
    assert graph.vertices == ("A", "B", "C")
    assert graph.edges == (("A", "B"), ("B", "C"))


def test_parse_edge_list_vertex_order_is_appearance_order():
    graph = parse_edge_list("X Y\nW X\n")
    assert graph.vertices == ("X", "Y", "W")


def test_parse_edge_list_rejects_bad_lines():
    with pytest.raises(ValueError, match="expected 'u v'"):
        parse_edge_list("A B C\n")
    # lines are counted from 1, blank and comment lines included
    with pytest.raises(ValueError, match="^line 2: "):
        parse_edge_list("a b\nbad\n")
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("# nothing\n")


# -- states -------------------------------------------------------------------


def test_pair_graph_state_amplitudes():
    # CZ|++> has amplitudes (1,1,1,-1)/2
    state = graph_state(K2)
    assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2.0)


def test_graph_state_is_edge_order_independent():
    forward = graph_state(catalog_lookup("C3"))
    backward = graph_state(Graph(("A", "B", "C"), (("C", "A"), ("B", "C"), ("A", "B"))))
    assert states_equal(forward, backward)


def test_stabilizer_generators_structure():
    gens = stabilizer_generators(catalog_lookup("P3"))
    # X on the vertex, Z on each neighbor, vertex order A, B, C
    assert gens[0] == PauliString(3, 0b001, 0b010, 0)
    assert gens[1] == PauliString(3, 0b010, 0b101, 0)
    assert gens[2] == PauliString(3, 0b100, 0b010, 0)


def test_ghz_state_amplitudes():
    state = ghz_state(4)
    assert np.isclose(state.probability(0), 0.5)
    assert np.isclose(state.probability(15), 0.5)
    assert np.count_nonzero(state.amplitudes) == 2


def test_ghz_from_star_matches_ghz():
    assert sv.fidelity(ghz_from_star(), ghz_state(4)) > 1.0 - 1e-12
