"""The named small-graph catalog, as a Python literal so that cached
bytecode loads it.

Edge lists follow the standard small-graph atlas.  Labels, vertex order
and edge order are fixed: they fix qubit indices, so measurement-outcome
indices and correction formulas are reproducible.
"""

from __future__ import annotations

# the 18 topologies `verify --graph all` runs, in order; K4 is outside them
TABLE_ORDER: tuple[str, ...] = (
    "P3", "P4", "P5", "K1_2", "K1_3", "K1_4", "spider", "C3", "C4", "C5",
    "diamond", "paw", "K3", "bull", "house", "cricket", "kite", "fork",
)

ALIASES: dict[str, str] = {"GHZ4": "K1_3"}

# name -> (vertices, edges)
GRAPHS: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {
    "P3": (
        ("A", "B", "C"),
        (("A", "B"), ("B", "C")),
    ),
    "P4": (
        ("A", "B", "C", "D"),
        (("A", "B"), ("B", "C"), ("C", "D")),
    ),
    "P5": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")),
    ),
    "K1_2": (
        ("A", "B", "C"),
        (("A", "B"), ("A", "C")),
    ),
    "K1_3": (
        ("A", "B", "C", "D"),
        (("A", "B"), ("A", "C"), ("A", "D")),
    ),
    "K1_4": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("A", "C"), ("A", "D"), ("A", "E")),
    ),
    "spider": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("A", "C"), ("A", "D"), ("D", "E")),
    ),
    "C3": (
        ("A", "B", "C"),
        (("A", "B"), ("B", "C"), ("C", "A")),
    ),
    "C4": (
        ("A", "B", "C", "D"),
        (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")),
    ),
    "C5": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")),
    ),
    "diamond": (
        ("A", "B", "C", "D"),
        (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D")),
    ),
    "paw": (
        ("A", "B", "C", "D"),
        (("A", "B"), ("B", "C"), ("C", "A"), ("A", "D")),
    ),
    "K3": (
        ("A", "B", "C"),
        (("A", "B"), ("B", "C"), ("C", "A")),
    ),
    "bull": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "A"), ("B", "D"), ("C", "E")),
    ),
    "house": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A"), ("A", "C")),
    ),
    "cricket": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "A"), ("A", "D"), ("A", "E")),
    ),
    "kite": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D"), ("C", "E")),
    ),
    "fork": (
        ("A", "B", "C", "D", "E"),
        (("A", "B"), ("B", "C"), ("C", "D"), ("B", "E")),
    ),
    "K4": (
        ("A", "B", "C", "D"),
        (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")),
    ),
}
