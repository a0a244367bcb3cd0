"""End-to-end verification drivers: exhaustive outcome sweeps, the sign
check on the symbolic run, and entanglement-rank comparison."""

import contextlib
import io
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense as sv
from dense import corrected_fidelity, ghz_state, graph_state, run_protocol
from helpers import fidelity_column, grid, near_side_masks, small_connected_graphs
from pauli import correction_plan, stabilizer_generators
from pqw import cli, protocol, verify
from pqw.graphs import TABLE_ORDER, Graph, catalog_lookup, parse_edge_list
from pqw.noise import f_star_dep, noise_sweep
from pqw.verify import (
    LcReport,
    VerificationReport,
    lc_check,
    phase_lemma_check,
    verify_all_outcomes,
)

P4 = catalog_lookup("P4")


# -- exhaustive outcome verification -------------------------------------------


def test_verify_p4_universal():
    report = verify_all_outcomes(P4, "universal")
    assert report.graph_name == "graph-4v-3e"
    assert report.correction_kind == "universal"
    assert report.outcome_count == 64
    assert report.passed
    assert report.conditions == ()
    assert report.min_fidelity == report.max_fidelity == 1.0
    assert report.first_failure() is None
    # read off the sign forms, so exact: 1, not merely close
    assert fidelity_column(report) == [1.0] * 64


def test_verify_is_deterministic():
    a = verify_all_outcomes(P4, "universal", name="P4")
    b = verify_all_outcomes(P4, "universal", name="P4")
    assert a == b


@pytest.mark.parametrize(
    "name,kind",
    (("C4", "c4"), ("P4", "l4"), ("K1_3", "tree"), ("K3", "universal")),
)
def test_verify_topology_specific_plans(name, kind):
    graph = catalog_lookup(name)
    report = verify_all_outcomes(graph, kind, name=name)
    assert report.passed
    assert report.outcome_count == graph.outcome_count()


def _contraction_cases():
    # every catalog graph the table lists, plus K4, under every plan
    # that applies to it, and three graphs under broken plans
    cases = []
    for name in TABLE_ORDER + ("K4",):
        graph = catalog_lookup(name)
        cases.append((name, "universal"))
        if name == "P4":
            cases.append((name, "l4"))
        if name == "C4":
            cases.append((name, "c4"))
        if graph.is_tree():
            cases.append((name, "tree"))
    cases += [(name, "broken") for name in ("P4", "C4", "K1_3")]
    return cases


@pytest.mark.parametrize("name,kind", _contraction_cases())
def test_contraction_matches_per_outcome_reference(monkeypatch, name, kind):
    graph = catalog_lookup(name)
    if kind == "broken":
        # seeded random (x, z) forms: X parts move the sign forms of the
        # neighbours, and the plan misses the target at some outcomes
        rng = random.Random(8)
        k = 2 * graph.n_edges
        forms = tuple((rng.getrandbits(k), rng.getrandbits(k)) for _ in graph.vertices)
        assert all(x for x, _ in forms)
        monkeypatch.setattr(protocol, "correction_forms", lambda graph, kind: forms)
    report = verify_all_outcomes(graph, kind, name=name)
    fidelities = fidelity_column(report)
    assert len(fidelities) == report.outcome_count == graph.outcome_count()
    for index, fidelity in zip(range(graph.outcome_count()), fidelities):
        plan = correction_plan(graph, index, kind)
        assert 1 / report.outcome_count == pytest.approx(
            run_protocol(graph, index)[0], abs=1e-12
        )
        assert fidelity == pytest.approx(
            corrected_fidelity(graph, index, plan), abs=1e-12
        )
    if kind == "broken":
        assert report.min_fidelity < 1e-12


def test_contraction_applies_the_plan(monkeypatch):
    # with every correction dropped, some outcome must miss the target
    monkeypatch.setattr(
        protocol,
        "correction_forms",
        lambda graph, kind: ((0, 0),) * graph.n_vertices,
    )
    report = verify_all_outcomes(P4, "universal")
    assert report.passed is False
    assert min(fidelity_column(report)) == 0.0


def test_verify_decides_a_grid_past_the_ceiling(monkeypatch):
    # 10x10 grid: 180 edges, 460 qubits, 4^180 outcomes; the report is
    # its sign conditions, so nothing in it grows with the outcome count
    graph = grid(10, 10)
    start = time.perf_counter()
    report = verify_all_outcomes(graph)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.outcome_count == 4**180
    assert report.first_failure() is None
    assert report.max_fidelity == 1.0
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    # with every correction dropped, each K_v keeps its far-side sign
    # form, so the first failure is the lowest bit of any of them
    monkeypatch.setattr(
        protocol, "correction_forms", lambda graph, kind: ((0, 0),) * graph.n_vertices
    )
    masks = protocol.far_side_masks(graph)
    assert verify_all_outcomes(graph).first_failure() == min(m & -m for m in masks)


@settings(max_examples=30, deadline=None)
@given(
    graph=small_connected_graphs(max_qubits=12),
    seed=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tableau_engine_matches_the_dense_reference(graph, seed):
    # universal forms when no seed is drawn, else seeded random (x, z)
    # forms, which miss the target at some outcomes
    with pytest.MonkeyPatch.context() as mp:
        if seed is not None:
            rng = random.Random(seed)
            k = 2 * graph.n_edges
            forms = tuple((rng.getrandbits(k), rng.getrandbits(k)) for _ in graph.vertices)
            mp.setattr(protocol, "correction_forms", lambda graph, kind: forms)
        report = verify_all_outcomes(graph)
        fidelities = fidelity_column(report)
        assert len(fidelities) == report.outcome_count == graph.outcome_count()
        for index, fidelity in zip(range(graph.outcome_count()), fidelities):
            plan = correction_plan(graph, index, "universal")
            assert 1 / report.outcome_count == pytest.approx(
                run_protocol(graph, index)[0], abs=1e-12
            )
            assert fidelity == pytest.approx(
                corrected_fidelity(graph, index, plan), abs=1e-12
            )
    if seed is None:
        assert report.passed


def test_engine_follows_the_tableau_sign_forms(monkeypatch):
    real = protocol._data_sign_forms
    b = P4.vertices.index("B")
    s1 = 1 << (2 * P4.n_edges - 1)

    def patched(change):
        return lambda graph: tuple(
            change(form) if i == b else form for i, form in enumerate(real(graph))
        )

    # K_B's sign negated: the plan now misses the target at every outcome
    monkeypatch.setattr(protocol, "_data_sign_forms", patched(lambda form: form ^ 1))
    report = verify_all_outcomes(P4)
    assert not report.passed
    assert set(fidelity_column(report)) == {0.0}
    # negated and carrying s1 too: exactly the outcomes with s1 = 1 reach |G>
    monkeypatch.setattr(
        protocol, "_data_sign_forms", patched(lambda form: form ^ (s1 << 1 | 1))
    )
    report = verify_all_outcomes(P4)
    assert fidelity_column(report) == [float(i >= 32) for i in range(64)]
    # with the walk's CZ between B and its half of BC dropped, the reader
    # finds no sign form for K_B: the engine cannot answer exactly, so it
    # passes the reader's refusal on
    monkeypatch.setattr(protocol, "_data_sign_forms", real)
    walk = protocol.walk_gates
    monkeypatch.setattr(protocol, "walk_gates", lambda graph: walk(graph)[:2] + walk(graph)[3:])
    with pytest.raises(AssertionError, match="^K_B is missing from the data group$"):
        verify_all_outcomes(P4)


@settings(max_examples=40, deadline=None)
@given(
    graph=small_connected_graphs(max_qubits=12),
    mode=st.sampled_from(("universal", "broken", "negated")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_records_and_summaries_match_enumerating_the_conditions(graph, mode, seed):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        if mode == "broken":
            # seeded random (x, z) forms, which miss the target at some outcomes
            k = 2 * graph.n_edges
            forms = tuple((rng.getrandbits(k), rng.getrandbits(k)) for _ in graph.vertices)
            mp.setattr(protocol, "correction_forms", lambda graph, kind: forms)
        if mode == "negated":
            # one K_v negated under the universal plan: its condition reads
            # 0 = 1, so no outcome reaches |G>
            negated = rng.randrange(graph.n_vertices)
            real = protocol._data_sign_forms

            def negating(graph):
                forms = list(real(graph))
                forms[negated] ^= 1  # the constant bit of K_v's sign form
                return tuple(forms)

            mp.setattr(protocol, "_data_sign_forms", negating)
        report = verify_all_outcomes(graph, name="G")
    count = graph.outcome_count()
    conditions = report.conditions
    fidelities = [
        float(not any((row & (s << 1 | 1)).bit_count() & 1 for row in conditions))
        for s in range(count)
    ]
    assert fidelity_column(report) == fidelities
    # the runs tile [0, count) in order, each non-empty and maximal, and
    # the first failure starts the first run of 0.0
    runs = list(report.fidelity_runs())
    assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
    assert runs[-1][1] == count and all(start < stop for start, stop, _ in runs)
    assert all(a[2] != b[2] for a, b in zip(runs, runs[1:]))
    assert report.first_failure() == next((start for start, _, f in runs if f == 0.0), None)
    assert report.pass_count == sum(fidelities)
    assert report.min_fidelity == min(fidelities)
    assert report.max_fidelity == max(fidelities)
    assert report.passed is (min(fidelities) == 1.0)
    first = next((s for s, f in enumerate(fidelities) if f < 1.0), None)
    assert report.first_failure() == first
    if mode == "universal":
        assert report.passed
    if mode == "negated":
        assert report.max_fidelity == 0.0
    # both CLI formats write the same records and name the first failing index
    outputs = {}
    for fmt in ("csv", "json"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "verify_all_outcomes", lambda *args, **kwargs: report)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", "--graph", "P3", "--format", fmt])
        assert code == (cli.EXIT_PASS if report.passed else cli.EXIT_FAIL)
        assert err.getvalue() == (
            "" if first is None else f"pqw: G: outcome {first} has fidelity 0\n"
        )
        outputs[fmt] = out.getvalue()
    assert outputs["csv"].splitlines()[1:] == [
        f"G,{s},{cli._fmt(1 / count)},{cli._fmt(f)}" for s, f in enumerate(fidelities)
    ]
    payload = json.loads(outputs["json"])
    assert payload["records"] == [
        {"index": s, "probability": 1 / count, "fidelity": f}
        for s, f in enumerate(fidelities)
    ]
    assert payload["min_fidelity"] == min(fidelities)
    assert payload["max_fidelity"] == max(fidelities)
    assert payload["passed"] is (first is None)


def test_report_pass_logic():
    # outcome s meets the sign form mask << 1 | odd when |mask & s| has
    # parity odd, that is when |row & (s << 1 | 1)| is even
    odd_only = VerificationReport("toy", "universal", 4, (0b11,))
    assert not odd_only.passed and odd_only.first_failure() == 0
    assert fidelity_column(odd_only) == [0.0, 1.0, 0.0, 1.0]
    assert (odd_only.min_fidelity, odd_only.max_fidelity) == (0.0, 1.0)
    assert odd_only.pass_count == 2
    high_even = VerificationReport("toy", "universal", 4, (0b100,))
    assert high_even.first_failure() == 2 and high_even.pass_count == 2
    assert fidelity_column(high_even) == [1.0, 1.0, 0.0, 0.0]
    # 0 = 1 fails every outcome, as do two contradicting rows
    for conditions in ((0b1,), (0b111, 0b110)):
        never = VerificationReport("toy", "universal", 4, conditions)
        assert never.first_failure() == 0 and never.max_fidelity == 0.0
        assert never.pass_count == 0
        assert set(fidelity_column(never)) == {0.0}
    clean = VerificationReport("toy", "universal", 4, ())
    assert clean.passed and clean.first_failure() is None and clean.pass_count == 4
    assert fidelity_column(clean) == [1.0] * 4
    # seeded row sets over 2^6 outcomes against each row's sign read at
    # every outcome: duplicate and dependent rows, rows that are only the
    # constant, rows that are 0, and contradicting pairs such as {0b11, 0b10}
    rng = random.Random(3906)
    count, kinds = 64, set()
    for _ in range(400):
        rows = [rng.randrange(1, 2 * count) for _ in range(rng.randint(0, 4))]
        for kind, chance in (("duplicate", 0.3), ("dependent", 0.3), ("contradiction", 0.3)):
            if rows and rng.random() < chance:
                a, b = rng.choice(rows), rng.choice(rows)
                row = {"duplicate": a, "dependent": a ^ b, "contradiction": a ^ 1}[kind]
                if row:
                    rows.append(row)
                    kinds.add(kind)
        if rng.random() < 0.2:
            rows.append(0b1)
            kinds.add("odd-only")
        if rng.random() < 0.2:
            rows.append(0)
            kinds.add("zero")
        rng.shuffle(rows)
        report = VerificationReport("toy", "universal", count, tuple(rows))
        met = [not any((row & (s << 1 | 1)).bit_count() & 1 for row in rows) for s in range(count)]
        runs, start = [], 0
        for value, group in itertools.groupby(met):
            stop = start + len(list(group))
            runs.append((start, stop, float(value)))
            start = stop
        assert report.passed is all(met)
        assert (report.min_fidelity, report.max_fidelity) == (float(all(met)), float(any(met)))
        assert report.pass_count == sum(met)
        assert report.first_failure() == next((s for s, m in enumerate(met) if not m), None)
        assert report.fidelity_runs() == runs
        kinds.add(("never", "some", "all")[(sum(met) > 0) + all(met)])
    assert kinds == {
        "duplicate", "dependent", "contradiction", "odd-only", "zero", "never", "some", "all",
    }


def test_max_fidelity_is_decided_past_the_float_range():
    # 1,100 independent conditions: their pass fraction 2^-1100 is 0.0 as
    # a float, yet some outcome meets them all
    independent = tuple(1 << i + 1 for i in range(1100))
    report = VerificationReport("G", "universal", 4**600, independent)
    assert report.max_fidelity == 1.0 and report.pass_count == 4**600 >> 1100
    contradicted = independent + (0b111, 0b110)
    never = VerificationReport("G", "universal", 4**600, contradicted)
    assert never.max_fidelity == 0.0 and never.pass_count == 0


# -- symbolic sign check ---------------------------------------------------------


def test_phase_lemma_on_p4_is_exhaustive():
    assert phase_lemma_check(P4) is True


def test_phase_lemma_exhaustive_on_a_long_path():
    # seven edges: 16384 outcomes and 22 total qubits, all covered by
    # the one symbolic run
    graph = parse_edge_list(
        "\n".join(("A B", "B C", "C D", "D E", "E F", "F G", "G H"))
    )
    assert graph.outcome_count() == 16384
    assert phase_lemma_check(graph) is True


def test_phase_lemma_on_a_grid_past_the_dense_ceiling():
    # 5x5 grid: 40 edges, 105 total qubits, 4^40 outcomes
    graph = grid(5, 5)
    assert graph.n_vertices + 2 * graph.n_edges == 105
    assert phase_lemma_check(graph) is True


def test_phase_lemma_rejects_the_near_side_sign_form(monkeypatch):
    monkeypatch.setattr(verify, "far_side_masks", near_side_masks)
    assert phase_lemma_check(P4) is False
    assert phase_lemma_check(grid(3, 3)) is False


def test_each_check_reads_the_walk_afresh(monkeypatch):
    # the engines keep nothing between calls: with the first CZ of the
    # walk dropped, the next check reads the altered walk, which leaves
    # K_A missing, and no cache needs clearing
    assert phase_lemma_check(P4) is True
    real = protocol.walk_gates
    monkeypatch.setattr(protocol, "walk_gates", lambda graph: real(graph)[1:])
    with pytest.raises(AssertionError, match="^K_A is missing from the data group$"):
        phase_lemma_check(P4)


# -- entanglement rank comparison -------------------------------------------------

# GHZ4 is the graph state of the star K1_3 with H on each leaf
K1_3 = catalog_lookup("K1_3")


def _cut(labels, side):
    return frozenset(labels.index(c) for c in side)


def test_lc_check_separates_line_from_ghz():
    report = lc_check(P4, K1_3, (_cut("ABCD", "AC"),))
    assert isinstance(report, LcReport)
    assert report.inequivalent
    (rec,) = report.records
    assert rec == (frozenset({0, 2}), 4, 2)


def test_lc_check_same_state_shows_no_separation():
    report = lc_check(P4, P4, (_cut("ABCD", "AC"), _cut("ABCD", "AB")))
    assert not report.inequivalent
    for rec in report.records:
        assert rec.rank_a == rec.rank_b


def test_lc_check_validation():
    with pytest.raises(ValueError, match="vertex counts differ: 4 vs 3"):
        lc_check(P4, catalog_lookup("P3"), (_cut("ABCD", "AC"),))
    # empty, the whole register, and an index past it
    for cut in ((), (0, 1, 2, 3), (0, 4)):
        with pytest.raises(ValueError, match="proper subset"):
            lc_check(P4, P4, (cut,))


def test_engines_make_no_per_vertex_graph_lookup():
    # a lookup that scans the graph for one vertex makes an engine
    # quadratic when it runs per vertex; Graph offers none, and each
    # engine reads the graph in one pass over its edges
    square = grid(6, 6)
    path = parse_edge_list("\n".join(f"v{i} v{i + 1}" for i in range(39)))
    for name in ("neighbors", "vertex_index", "degree"):
        assert not hasattr(Graph, name), name
    assert verify_all_outcomes(square).passed
    assert verify_all_outcomes(path, "tree").passed
    assert phase_lemma_check(square) is True
    assert noise_sweep(square, "depolarizing", (0.1,)).fidelities[0] == pytest.approx(
        f_star_dep(0.1, 2 * square.n_edges), rel=1e-12
    )
    assert lc_check(P4, K1_3, (_cut("ABCD", "AC"),)).inequivalent


@st.composite
def connected_graphs(draw, max_vertices: int = 12):
    """Connected graphs on 2 to max_vertices vertices: a random spanning
    tree plus any set of further edges."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    spare = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    if spare:
        edges |= draw(st.sets(st.sampled_from(spare)))
    return Graph(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"v{i}", f"v{j}") for i, j in sorted(edges)),
    )


@settings(max_examples=60, deadline=None)
@given(graph=connected_graphs(), data=st.data())
def test_cut_rank_matches_the_dense_schmidt_rank(graph, data):
    n = graph.n_vertices
    sides = st.integers(min_value=1, max_value=2**n - 2).map(
        lambda m: frozenset(i for i in range(n) if m >> i & 1)
    )
    cuts = data.draw(st.lists(sides, min_size=1, max_size=8))
    state = graph_state(graph)
    for rec in lc_check(graph, graph, cuts).records:
        dense = sv.schmidt_rank(state, rec.cut)
        assert rec.rank_a == rec.rank_b == dense


def test_ghz_ranks_are_the_star_graph_ranks():
    # every cut of the four qubits
    cuts = [frozenset(i for i in range(4) if m >> i & 1) for m in range(1, 15)]
    ghz = ghz_state(4)
    for rec in lc_check(K1_3, K1_3, cuts).records:
        assert rec.rank_a == sv.schmidt_rank(ghz, rec.cut) == 2


# one instance of every public value class of the symbolic modules, built
# when its case runs, and the field each case tries to change
VALUE_INSTANCES = {
    "Graph": (lambda: P4, "edges"),
    "PauliString": (lambda: stabilizer_generators(P4)[0], "phase"),
    "NoiseReport": (lambda: noise_sweep(P4, "dep", (0.1,)), "fidelities"),
    "VerificationReport": (
        lambda: verify_all_outcomes(catalog_lookup("P3"), "universal"),
        "outcome_count",
    ),
    "CutRecord": (
        lambda: lc_check(P4, P4, (_cut("ABCD", "AC"),)).records[0],
        "rank_a",
    ),
    "LcReport": (
        lambda: lc_check(P4, P4, (_cut("ABCD", "AC"),)),
        "records",
    ),
    "RunConfig": (lambda: cli.RunConfig("verify", graph="P4"), "graph"),
}


@pytest.mark.parametrize("class_name", sorted(VALUE_INSTANCES))
def test_reports_are_frozen(class_name):
    make, field = VALUE_INSTANCES[class_name]
    value = make()
    assert type(value).__name__ == class_name
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before
    assert value == make()


# _replace builds through _make, so a changed value passes the same checks
# as a new one
REPLACE_CASES = {
    "Graph": ({"edges": P4.edges + (("A", "A"),)}, "self-loop"),
    "NoiseReport": ({"fidelities": ()}, "equal length"),
}


@pytest.mark.parametrize("class_name", sorted(REPLACE_CASES))
def test_replace_runs_the_constructor_checks(class_name):
    changes, message = REPLACE_CASES[class_name]
    value = VALUE_INSTANCES[class_name][0]()
    with pytest.raises(ValueError, match=message):
        value._replace(**changes)
    assert value._replace() == value
