"""Command-line surface: argument handling, output formats, exit codes."""

import contextlib
import csv
import decimal
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqw
from dense import kraus_ops
from helpers import branch_fidelity, fidelity_column, grid, small_connected_graphs
from pqw import cli, protocol, verify
from pqw.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from pqw.graphs import parse_edge_list
from pqw.verify import VerificationReport

FIG4_CSV = (
    "name,k,p,F\n"
    "Bell,1,0.2,0.85\n"
    "GHZ4,2,0.2,0.7225\n"
    "L4,6,0.2,0.377149515625\n"
)


# -- verify ---------------------------------------------------------------------


def test_verify_p3_csv_golden(capsys):
    code = main(["verify", "--graph", "P3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert lines[0] == "graph,outcome_index,probability,fidelity"
    assert len(lines) == 17
    assert lines[1] == "P3,0,0.0625,1"
    assert lines[-1] == "P3,15,0.0625,1"


def test_verify_json_is_byte_stable(capsys):
    main(["verify", "--graph", "P4", "--format", "json"])
    first = capsys.readouterr().out
    main(["verify", "--graph", "P4", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["outcome_count"] == 64


def test_verify_all_graphs_summary(capsys):
    code = main(["verify", "--graph", "all", "--format", "json", "--jobs", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 18


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


@pytest.mark.parametrize(
    "reference,argv",
    (
        (
            "verify-catalog.out",
            ["verify", "--graph", "all", "--correction", "universal",
             "--format", "csv", "--jobs", "1"],
        ),
        (
            "noise-dep.out",
            ["noise", "--graph", "P4", "--channel", "dep", "--p", "0.1:0.3:0.1",
             "--metric", "conditional", "--format", "csv", "--jobs", "1"],
        ),
        (
            "noise-ad.out",
            ["noise", "--graph", "C4", "--channel", "ad", "--p", "0:0.5:0.05",
             "--metric", "conditional", "--format", "csv", "--jobs", "1"],
        ),
    ),
)
def test_cli_output_matches_benchmark_reference(reference, argv, capsys):
    assert main(argv) == EXIT_PASS
    expected = (REFERENCE_DIR / reference).read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected


# sha256 of `pqw verify --graph all` in JSON
ALL_JSON_SHA256 = "aa763cd60184600f44f1f8aec0660e7a2a6021b54818204333b390b16414149a"


def test_verify_all_matches_the_catalog_goldens(capsys):
    # the catalog's 14,112 lines and records, in either format, come from
    # the reports' fidelity columns
    assert main(["verify", "--graph", "all", "--format", "csv"]) == EXIT_PASS
    expected = (REFERENCE_DIR / "verify-catalog.out").read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected
    assert main(["verify", "--graph", "all", "--format", "json"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ALL_JSON_SHA256


# outcome s of a doctored report meets a condition, the sign form
# mask << 1 | odd, when |mask & s| has parity odd: this one fails
# outcomes 0 and 2 of 4
DOCTORED = VerificationReport("P3", "universal", 4, (0b11,))


def test_verify_exit_fail_on_doctored_report(monkeypatch, capsys):
    monkeypatch.setattr(verify, "verify_all_outcomes", lambda *a, **k: DOCTORED)
    code = main(["verify", "--graph", "P3"])
    assert code == EXIT_FAIL
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    assert (payload["min_fidelity"], payload["max_fidelity"]) == (0.0, 1.0)
    assert [r["fidelity"] for r in payload["records"]] == [0.0, 1.0, 0.0, 1.0]
    assert captured.err == "pqw: P3: outcome 0 has fidelity 0\n"


def test_verify_csv_formats_each_value_as_fmt_does(monkeypatch, capsys):
    # each distinct value is formatted once per report; the text must be
    # what _fmt gives record by record
    monkeypatch.setattr(verify, "verify_all_outcomes", lambda *a, **k: DOCTORED)
    assert main(["verify", "--graph", "P3", "--format", "csv"]) == EXIT_FAIL
    expected = "graph,outcome_index,probability,fidelity\n" + "".join(
        f"P3,{s},{cli._fmt(1 / 4)},{cli._fmt(f)}\n"
        for s, f in enumerate(fidelity_column(DOCTORED))
    )
    assert capsys.readouterr().out == expected


@st.composite
def _reports(draw):
    """A report on 1 to 6 edges, under random conditions mask << 1 | odd,
    named with the characters CSV must quote."""
    count = 4 ** draw(st.integers(1, 6))
    name = draw(st.text(alphabet='A,"\r\n', min_size=1, max_size=4))
    conditions = draw(st.lists(st.integers(0, 2 * count - 1), max_size=4))
    return VerificationReport(name, "universal", count, tuple(conditions))


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


def _over_reports(test):
    """Run test on lists of 1 to 4 random reports, and on REPORT_EXAMPLES."""
    for reports in REPORT_EXAMPLES:
        test = example(reports)(test)
    test = given(st.lists(_reports(), min_size=1, max_size=4))(test)
    return settings(max_examples=60, deadline=None)(test)


def _written(reports, fmt: str) -> tuple[str, bytes]:
    """What `verify --graph all` writes to stdout and to --out when the
    catalog's graphs yield reports."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        produced = itertools.cycle(reports)
        patch.setattr(cli, "TABLE_ORDER", ("P3",) * len(reports))
        patch.setattr(verify, "verify_all_outcomes", lambda *a, **k: next(produced))
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["verify", "--graph", "all", "--format", fmt]
        columns = [fidelity_column(r) for r in reports]
        code = EXIT_PASS if all(0.0 not in c for c in columns) else EXIT_FAIL
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(argv) == code
            assert main([*argv, "--out", f"{tmp}/out"]) == code
        # each run names the first outcome of fidelity 0 of each report that has one
        failures = "".join(
            f"pqw: {r.graph_name}: outcome {c.index(0.0)} has fidelity 0\n"
            for r, c in zip(reports, columns)
            if 0.0 in c
        )
        assert stderr.getvalue() == 2 * failures
        return stdout.getvalue(), Path(tmp, "out").read_bytes()


@_over_reports
def test_verify_csv_matches_one_line_per_outcome(reports):
    # a piece slices one list of the first PIECE index texts, or converts
    # the indices past it
    expected = "graph,outcome_index,probability,fidelity\n" + "".join(
        f"{cli._csv_field(r.graph_name)},{i},{cli._fmt(1 / r.outcome_count)},"
        f"{cli._fmt(f)}\n"
        for r in reports
        for i, f in enumerate(fidelity_column(r))
    )
    assert "".join(cli._verify_csv(reports)) == expected
    # and through the command, on stdout and to --out alike
    assert _written(reports, "csv") == (expected, expected.encode("utf-8"))


def _report_dict(report: VerificationReport) -> dict:
    """A report as JSON with one dict per outcome: the payload that the
    run-by-run JSON writer must render byte for byte."""
    probability = 1.0 / report.outcome_count
    return {
        "graph": report.graph_name,
        "correction": report.correction_kind,
        "outcome_count": report.outcome_count,
        "min_fidelity": report.min_fidelity,
        "max_fidelity": report.max_fidelity,
        "max_probability_deviation": 0.0,
        "passed": report.passed,
        "records": [
            {"index": i, "probability": probability, "fidelity": f}
            for i, f in enumerate(fidelity_column(report))
        ],
    }


@_over_reports
def test_verify_json_matches_one_dict_per_outcome(reports):
    # one report is the payload itself; more sit under "reports"
    if len(reports) == 1:
        payload = _report_dict(reports[0])
    else:
        payload = {
            "all_passed": all(r.passed for r in reports),
            "reports": [_report_dict(r) for r in reports],
        }
    expected = "".join(cli._render_json(payload))
    pieces = list(cli._verify_json(reports))
    assert "".join(pieces) == expected
    # each piece holds at most PIECE records; a name cannot spell the key
    assert max(piece.count('"index": ') for piece in pieces) <= cli.PIECE
    out, saved = _written(reports, "json")
    assert (out, saved) == (expected, expected.encode("utf-8"))
    # passed and min_fidelity are what the records written beside them say
    written = json.loads(out)
    for entry in written["reports"] if len(reports) > 1 else [written]:
        fidelities = [record["fidelity"] for record in entry["records"]]
        assert entry["passed"] is (min(fidelities) == 1.0)
        assert entry["min_fidelity"] == min(fidelities)


C8_CSV_SHA256 = "b4e495ae585d4ac91087a056e2a89e0d53f8cf0b056d2490087411836d524771"
C8_JSON_SHA256 = "289e6931b091d465d12a41f3d7334d76c5e4407c31926055ae0ac24b73c960c0"


def _c8(tmp_path) -> str:
    """The selector of an 8-cycle's edge-list file: 8 + 2 * 8 = 24 qubits,
    65,536 outcomes."""
    cycle = "ABCDEFGH"
    edges = tmp_path / "c8.txt"
    edges.write_text("".join(f"{a} {b}\n" for a, b in zip(cycle, cycle[1:] + cycle[0])))
    return f"@{edges}"


def test_verify_8_cycle_csv_golden(tmp_path, capsys):
    c8 = _c8(tmp_path)
    assert main(["verify", "--graph", c8, "--format", "csv"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("\n") == 1 + 4**8
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == C8_CSV_SHA256
    assert main(["verify", "--graph", c8, "--format", "json"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == C8_JSON_SHA256


def test_verify_holds_one_piece_at_a_time(tmp_path):
    # under tracemalloc the 8-cycle peaks near 1 MiB a piece at a time; its
    # whole text at once would peak at 16 MiB (JSON) and 7.5 MiB (CSV)
    c8, out = _c8(tmp_path), tmp_path / "out"
    for fmt, digest in (("json", C8_JSON_SHA256), ("csv", C8_CSV_SHA256)):
        tracemalloc.start()
        try:
            assert main(["verify", "--graph", c8, "--format", fmt, "--out", str(out)]) == EXIT_PASS
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (fmt, peak)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, fmt


@pytest.mark.parametrize("unbuffered", ("", "1"), ids=("buffered", "unbuffered"))
def test_a_closed_pipe_exits_141_and_writes_no_error(unbuffered):
    # the catalog's CSV is 362 KB, more than a pipe holds, so pqw is still
    # writing when the reader closes the pipe after one line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    env["PYTHONUNBUFFERED"] = unbuffered  # an empty value leaves stdout buffered
    argv = [sys.executable, "-m", "pqw", "verify", "--graph", "all", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as run:
        assert run.stdout.readline() == b"graph,outcome_index,probability,fidelity\n"
        run.stdout.close()
        assert run.wait(timeout=60) == 141  # 128 + SIGPIPE
        assert run.stderr.read() == b""


CEILING_SHAPES = {
    "K1_8": [("hub", f"leaf{i}") for i in range(8)],
    "K3_3": [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)],
    "K5_minus_edge": list(itertools.combinations("ABCDE", 2))[1:],
    "P11": [(f"v{i}", f"v{i + 1}") for i in range(10)],
}


@pytest.mark.parametrize("name", CEILING_SHAPES)
def test_verify_ceiling_counts_outcome_records(name, monkeypatch, tmp_path, capsys):
    # the writers list 4^|E| records, and that count is the ceiling, not
    # the register size: K1_8 is 25 qubits, and K3_3 and K5_minus_edge
    # sit at the ceiling with nine edges each
    edges = CEILING_SHAPES[name]
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    argv = ["verify", "--graph", f"@{path}", "--format", "csv"]
    if 4 ** len(edges) <= cli.MAX_VERIFY_RECORDS:
        assert main(argv) == EXIT_PASS
        assert capsys.readouterr().out.count("\n") == 1 + 4 ** len(edges)
        return

    # refused before the walk runs
    def refuse(*args, **kwargs):
        raise AssertionError("the walk ran past the ceiling")

    monkeypatch.setattr(verify, "verify_all_outcomes", refuse)
    assert main(argv) == EXIT_BUDGET
    assert capsys.readouterr() == (
        "", f"pqw: {name}: 4^10 outcome records exceed the ceiling of 262,144\n"
    )


def test_verify_failure_names_its_first_counterexample(monkeypatch, tmp_path, capsys):
    # with every correction dropped, outcome 0 (no bit set) still reaches
    # |G>, and outcome 1 (s6 = 1) leaves K_C with the wrong sign
    monkeypatch.setattr(
        protocol, "correction_forms", lambda graph, kind: ((0, 0),) * graph.n_vertices
    )
    assert main(["verify", "--graph", "P4", "--format", "csv"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:3] == ["P4,0,0.015625,1", "P4,1,0.015625,0"]
    assert captured.err == "pqw: P4: outcome 1 has fidelity 0\n"
    out = tmp_path / "p4.csv"
    assert main(["verify", "--graph", "P4", "--format", "csv", "--out", str(out)]) == (
        EXIT_FAIL
    )
    rerun = capsys.readouterr()
    assert out.read_text() == captured.out
    assert rerun.out == "" and rerun.err == captured.err


def test_verify_formula_on_wrong_graph_is_usage_error(capsys):
    code = main(["verify", "--graph", "C4", "--correction", "l4"])
    assert code == EXIT_USAGE
    assert "P4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,message",
    (
        ("tree", "C3: tree correction requires a tree"),
        ("l4", "P3: this formula is specific to the catalog P4 labeling"),
        ("c4", "P3: this formula is specific to the catalog C4 labeling"),
    ),
    ids=("tree", "l4", "c4"),
)
def test_verify_names_the_graph_a_correction_refuses(kind, message, capsys):
    # the catalog's first graph that the kind does not apply to
    assert main(["verify", "--graph", "all", "--correction", kind]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"pqw: {message}\n")


def test_verify_unknown_graph_lists_names(capsys):
    code = main(["verify", "--graph", "pentagon"])
    assert code == EXIT_USAGE
    assert "valid names: C3, C4, C5, GHZ4, K1_2, K1_3, K1_4, K3, K4, L4, P3," in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_paper_names_are_catalog_aliases_in_every_command(fmt, capsys):
    # verify and noise take L4 and GHZ4 as lc does, and write the bytes
    # of the graph each names with only the name changed
    def run(*argv):
        assert main([*argv, "--format", fmt]) == EXIT_PASS
        return capsys.readouterr().out

    noise = ("--channel", "dep", "--p", "0.1:0.3:0.1", "--metric", "conditional")
    for alias, name in (("L4", "P4"), ("GHZ4", "K1_3")):
        for command, options in (("verify", ()), ("noise", noise)):
            text = run(command, "--graph", alias, *options)
            assert text == run(command, "--graph", name, *options).replace(name, alias)
            assert alias in text or (command, fmt) == ("noise", "csv")


def test_verify_graph_from_edge_list_file(tmp_path, capsys):
    edges = tmp_path / "tri.txt"
    edges.write_text("A B\nB C\nC A\n")
    code = main(["verify", "--graph", f"@{edges}", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["graph"] == "tri"
    assert payload["outcome_count"] == 64


def test_input_files_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # an edge list or a counts file saved with a UTF-8 BOM reads as the
    # same file without one
    def run(folder: str, bom: bytes) -> str:
        files = tmp_path / folder
        files.mkdir()
        texts = {
            "tri.txt": "A B\nB C\nC A\n",
            "counts.json": json.dumps({"00": 45, "11": 55}),
            "ideal.json": json.dumps({"00": 0.5, "11": 0.5}),
        }
        for name, text in texts.items():
            (files / name).write_bytes(bom + text.encode())
        edges, counts, ideal = (str(files / name) for name in texts)
        assert main(["verify", "--graph", f"@{edges}", "--format", "csv"]) == EXIT_PASS
        argv = ["counts", "--counts", counts, "--ideal", ideal, "--k", "2"]
        assert main(argv) == EXIT_PASS
        return capsys.readouterr().out

    plain = run("plain", b"")
    assert plain.startswith("graph,") and '"fidelity"' in plain
    assert run("bom", "\ufeff".encode()) == plain


# -- noise ----------------------------------------------------------------------


def test_fig4_compare_golden(capsys):
    code = main(["noise", "--compare", "fig4", "--p", "0.2", "--format", "csv"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == FIG4_CSV


def test_noise_zero_strength_golden(capsys):
    code = main(["noise", "--channel", "pd", "--p", "0", "--format", "csv"])
    assert code == EXIT_PASS
    assert capsys.readouterr().out == "p,F_exact,F_analytic\n0,1,1\n"


def test_noise_grid_matches_analytic_stringwise(capsys):
    code = main(
        ["noise", "--graph", "P4", "--channel", "dep", "--p", "0:0.5:0.05"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    rows = out.splitlines()[1:]
    assert len(rows) == 11  # inclusive upper endpoint
    for row in rows:
        _, exact, analytic = row.split(",")
        assert exact == analytic


def test_noise_amplitude_damping_blank_analytic(capsys):
    main(["noise", "--channel", "ad", "--p", "0.3", "--format", "csv"])
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].endswith(",")  # no overlay column value


def test_noise_json_carries_metadata(capsys):
    main(
        [
            "noise",
            "--channel",
            "dep",
            "--p",
            "0.1",
            "--metric",
            "conditional",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["metric"] == "conditional"
    assert payload["channel"] == "depolarizing"
    assert payload["k"] == 6
    assert payload["fidelities"][0] == pytest.approx(0.63450175, abs=1e-9)


def test_noise_budget_exit(tmp_path, capsys):
    edges = tmp_path / "path13.txt"
    edges.write_text("".join(f"v{i} v{i + 1}\n" for i in range(12)))
    argv = ["noise", "--graph", f"@{edges}", "--channel", "dep", "--p", "0.1"]
    assert main([*argv, "--metric", "conditional"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget" in err and "13 vertices" in err


def test_noise_strict_runs_a_10x10_grid(tmp_path, capsys):
    path = tmp_path / "grid10.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in grid(10, 10).edges), encoding="utf-8")
    argv = ["noise", "--graph", f"@{path}", "--channel", "dep", "--p", "0.1"]
    assert main(argv) == EXIT_PASS
    (row,) = capsys.readouterr().out.splitlines()[1:]
    _, exact, analytic = row.split(",")
    assert exact == analytic == cli._fmt(0.925**360)


def test_noise_strict_reaches_p5(capsys):
    # 13 qubits in all, but the strict sum only needs 2^5 terms
    code = main(["noise", "--graph", "P5", "--channel", "dep", "--p", "0.1:0.3:0.1"])
    assert code == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,F_exact,F_analytic"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert all(exact == analytic for _, exact, analytic in rows)


def test_noise_conditional_amplitude_damping_reaches_house(capsys):
    code = main(
        ["noise", "--graph", "house", "--channel", "ad", "--p", "0.1",
         "--metric", "conditional", "--format", "json"]
    )
    assert code == EXIT_PASS
    (got,) = json.loads(capsys.readouterr().out)["fidelities"]
    # the strict value is the squared phase-damping retention per qubit
    strict = ((1.0 + math.sqrt(0.9)) / 2.0) ** (2 * 12)
    assert strict < got < 1.0


def test_noise_conditional_pauli_reaches_house(capsys):
    # 17 qubits in all, but the Heisenberg sum only needs 2^5 terms
    code = main(
        ["noise", "--graph", "house", "--channel", "dep", "--p", "0.1",
         "--metric", "conditional", "--format", "json"]
    )
    assert code == EXIT_PASS
    (got,) = json.loads(capsys.readouterr().out)["fidelities"]
    assert (1.0 - 0.75 * 0.1) ** 12 < got < 1.0


def test_noise_house_phase_damping_before_measurement_is_exact(capsys):
    code = main(
        ["noise", "--graph", "house", "--channel", "pd", "--p", "0.4",
         "--metric", "conditional", "--insertion", "pre_measure", "--format", "json"]
    )
    assert code == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["fidelities"] == [1.0]


def test_noise_vertex_budget_names_vertex_count(tmp_path, capsys):
    edges = tmp_path / "path13.txt"
    edges.write_text("".join(f"v{i} v{i + 1}\n" for i in range(12)))
    code = main(
        ["noise", "--graph", f"@{edges}", "--channel", "pd", "--p", "0.1",
         "--metric", "conditional"]
    )
    assert code == EXIT_BUDGET
    assert "13 vertices" in capsys.readouterr().err


def test_noise_output_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["noise", "--channel", "dep", "--p", "0.2", "--out", str(out)]
    )
    assert code == EXIT_PASS
    assert out.read_text().startswith("p,F_exact,F_analytic\n")


def test_missing_graph_file_names_the_path(capsys):
    code = main(
        ["noise", "--graph", "@/nonexistent/graph.txt", "--channel", "dep", "--p", "0.1"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "/nonexistent/graph.txt" in err


def test_unwritable_output_names_the_path(tmp_path, capsys):
    out = tmp_path / "missing" / "sweep.csv"
    code = main(["noise", "--channel", "dep", "--p", "0.2", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(out) in err


# each file that cannot be opened or read, as argv with {tmp} for a folder
# that holds a folder sub and the files FILE_TEXTS names, and the one line
# pqw writes; the path is quoted as given, so "" stays "" and a trailing /
# stays, and a file that opens but does not read is named before its error
FILE_ERRORS = {
    "empty graph name": (
        "verify --graph @", "[Errno 2] No such file or directory: ''",
    ),
    "graph is a folder": (
        "verify --graph @{tmp}/sub/", "[Errno 21] Is a directory: '{tmp}/sub/'",
    ),
    "missing edge list": (
        "noise --graph @{tmp}/p4.txt --channel dep --p 0.1",
        "[Errno 2] No such file or directory: '{tmp}/p4.txt'",
    ),
    "out is a folder": (
        "counts --fidelity 0.9 --k 6 --out {tmp}/sub", "[Errno 21] Is a directory: '{tmp}/sub'",
    ),
    "missing counts": (
        "counts --counts {tmp}/counts.json --ideal {tmp}/ideal.json --k 2",
        "[Errno 2] No such file or directory: '{tmp}/counts.json'",
    ),
    "edge list not UTF-8": (
        "verify --graph @{tmp}/latin1.txt",
        "{tmp}/latin1.txt: 'utf-8' codec can't decode byte 0xc9 in position 2: "
        "invalid continuation byte",
    ),
    "malformed edge list": (
        "lc --a @{tmp}/l4.txt --b @{tmp}/bad.txt --cut AB|CD",
        "{tmp}/bad.txt: line 1: expected 'u v', got 'A B C'",
    ),
    "counts not JSON": (
        "counts --counts {tmp}/counts.txt --ideal {tmp}/ideal.json --k 2",
        "{tmp}/counts.txt: Expecting value: line 1 column 1 (char 0)",
    ),
}
FILE_TEXTS = {
    "ideal.json": json.dumps({"00": 1.0}).encode(),
    "latin1.txt": b"A \xc9\n",
    "l4.txt": b"A B\nB C\nC D\n",
    "bad.txt": b"A B C\n",
    "counts.txt": b"not json\n",
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_errors_are_one_usage_line(case, tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    for name, data in FILE_TEXTS.items():
        (tmp_path / name).write_bytes(data)
    argv, message = FILE_ERRORS[case]
    argv = [token.replace("{tmp}", str(tmp_path)) for token in argv.split()]
    message = message.replace("{tmp}", str(tmp_path))
    assert _usage_error(argv, capsys) == f"pqw: {message}\n"


def test_negative_zero_p_reads_as_zero(capsys):
    noise = ["noise", "--graph", "P4", "--channel", "dep"]
    for spec in ("-0", "-0:0.1:0.1"):
        assert main([*noise, "--p", spec, "--format", "csv"]) == EXIT_PASS
        assert capsys.readouterr().out.splitlines()[1] == "0,1,1"
    assert main([*noise, "--p", "-0", "--format", "json"]) == EXIT_PASS
    (p,) = json.loads(capsys.readouterr().out)["p_grid"]
    assert math.copysign(1.0, p) == 1.0


def test_bad_p_grid_is_usage_error(capsys):
    assert main(["noise", "--channel", "dep", "--p", "0.5:0.1:0.1"]) == EXIT_USAGE
    capsys.readouterr()
    # a value that is not a number names the spec, not the float parser
    assert _usage_error(["noise", "--channel", "dep", "--p", "nope"], capsys) == (
        "pqw: bad p spec 'nope'; expected P or START:STOP:STEP\n"
    )
    # a zero step is refused by name, before the grid's size is worked out
    assert main(["noise", "--channel", "dep", "--p", "0:1:0"]) == EXIT_USAGE
    assert "p step must be positive, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ("0:inf:0.1", "0:nan:0.1", "nan:1:0.1", "0:1:nan"))
def test_non_finite_p_grid_is_usage_error(spec, capsys):
    # a non-finite bound or step never reaches the grid's exit test
    assert main(["noise", "--channel", "dep", "--p", spec]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, points",
    (
        ("0:1:1e-9", "1000000001"),
        ("0:1:1e-5", "100001"),
        ("0:1:1e-300", "about 1e+300"),
        ("-1e308:1e308:1e-10", "about inf"),
        # a span of exactly 100,000 steps is one point past the limit, and
        # one of exactly 1e15 steps is the first given as "about"
        ("0:99999.999999999:1", "100001"),
        ("0:1e15:1", "about 1e+15"),
    ),
)
def test_oversized_p_grid_is_usage_error(spec, points, capsys):
    # the point count is checked before the grid is built, so a tiny step
    # exits at once instead of filling memory
    assert main(["noise", "--channel", "dep", f"--p={spec}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"has {points} points" in err and f"limit is {cli.MAX_P_POINTS}" in err


def _old_p_grid(start, stop, step):
    # the unbounded loop the grid used to be built with
    grid = []
    i = 0
    while start + i * step <= stop + 1e-9:
        grid.append(round(start + i * step, 12))
        i += 1
    return tuple(grid)


def test_bounded_p_grid_matches_the_old_loop():
    rng = random.Random(7)
    for _ in range(2000):
        start, stop = sorted(round(rng.random(), rng.randrange(1, 6)) for _ in "ab")
        step = rng.choice((0.1, 0.05, 0.01, 1 / 3, 1e-3, rng.uniform(1e-4, 1.0)))
        spec = f"{start}:{stop}:{step}"
        assert cli._parse_p_grid(spec) == _old_p_grid(start, stop, step), spec


def test_p_grid_stops_when_the_step_is_below_the_float_spacing():
    # 1e-9 is below the spacing of floats at 1e9, so x never moves; the
    # loop is bounded by the point count, and the repeats are one point
    assert cli._parse_p_grid("1e9:1e9:1e-9") == (1e9,)


def test_p_grid_with_a_tiny_step_ends_at_stop_and_keeps_every_point():
    # the slack past stop and the rounding both scale with the step, so
    # no point lies past stop and no two points merge
    assert cli._parse_p_grid("0:1e-10:1e-11") == tuple(i / 1e11 for i in range(11))
    assert cli._parse_p_grid("0:3e-13:1e-13") == (0.0, 1e-13, 2e-13, 3e-13)


def test_huge_p_grid_bound_exits_without_filling_memory():
    # a fresh interpreter under a 1 GiB address-space cap and a timeout,
    # as an unbounded grid loop would fill all memory
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "pqw", "noise", "--channel", "dep", "--p", "1e308:1e308:1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        preexec_fn=cap,
    )
    assert run.returncode == EXIT_USAGE
    assert run.stderr == "pqw: channel strength must lie in [0, 1], got 1e+308\n"


def test_p_grid_at_the_point_limit_is_built():
    grid = cli._parse_p_grid(f"0:1:{1 / (cli.MAX_P_POINTS - 1)}")
    assert len(grid) == cli.MAX_P_POINTS
    assert grid[0] == 0.0 and grid[-1] == 1.0


def _usage_error(argv, capsys) -> str:
    """Run argv, which must exit 2 with nothing on stdout; return stderr."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_noise_requires_channel_or_compare(capsys):
    assert _usage_error(["noise", "--p", "0.1"], capsys) == (
        "pqw: noise needs --channel (or --compare)\n"
    )
    argv = ["noise", "--compare", "fig4", "--channel", "dep", "--p", "0.1"]
    assert _usage_error(argv, capsys) == (
        "pqw: --compare and --channel are mutually exclusive\n"
    )
    # the parser itself requires --p
    assert "required: --p" in _usage_error(["noise", "--channel", "dep"], capsys)


@pytest.mark.parametrize(
    "flag,value",
    (("--graph", "C4"), ("--correction", "universal"), ("--insertion", "pre_measure"),
     ("--metric", "strict")),
)
def test_compare_refuses_each_graph_option(flag, value, capsys):
    # fig4 draws closed-form curves, so an option that names a graph run
    # would be ignored; even its default value is refused when given
    argv = ["noise", "--compare", "fig4", "--p", "0.2", "--format", "csv", flag, value]
    assert _usage_error(argv, capsys) == (
        f"pqw: --compare and {flag} are mutually exclusive\n"
    )


@settings(max_examples=10, deadline=None)
@given(small_connected_graphs(max_qubits=12))
def test_graph_file_matches_dense_reference(graph):
    # the edge file goes through the parser and both commands; the dense
    # Kraus-branch loop on the parsed graph is the reference
    text = "".join(f"{u} {v}\n" for u, v in graph.edges)
    with tempfile.TemporaryDirectory() as scratch:
        edges = Path(scratch) / "graph.txt"
        edges.write_text(text)
        out = Path(scratch) / "out.json"
        code = main(
            ["noise", "--graph", f"@{edges}", "--channel", "ad", "--metric",
             "conditional", "--p", "0.3", "--format", "json", "--out", str(out)]
        )
        assert code == EXIT_PASS
        (got,) = json.loads(out.read_text())["fidelities"]
        ops = kraus_ops("amplitude_damping", 0.3)
        dense = branch_fidelity(parse_edge_list(text), ops, "universal", "post_prep")
        assert abs(got - dense) < 1e-12
        code = main(
            ["verify", "--graph", f"@{edges}", "--format", "json", "--out", str(out)]
        )
        assert code == EXIT_PASS
        assert json.loads(out.read_text())["passed"] is True


# -- lc -------------------------------------------------------------------------


def test_lc_golden_json(capsys):
    code = main(
        [
            "lc",
            "--a",
            "L4",
            "--b",
            "GHZ4",
            "--cut",
            "AC|BD",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload == {
        "a": "L4",
        "b": "GHZ4",
        "cuts": [{"cut": "AC|BD", "rank_a": 4, "rank_b": 2}],
        "inequivalent": True,
    }


def test_lc_names_an_edge_list_by_its_stem(tmp_path, capsys):
    # as verify and noise name it: the file name up to its last dot, unless
    # that dot leads or ends the name
    stems = {
        "p4.txt": "p4", "g.v2.txt": "g.v2", "p4.x": "p4", "a.txt": "a", ".p4": ".p4", "p4.": "p4.",
    }
    for file_name, stem in stems.items():
        path = tmp_path / file_name
        path.write_text("A B\nB C\nC D\n", encoding="utf-8")
        assert main(["lc", "--a", f"@{path}", "--b", "GHZ4", "--cut", "AC|BD"]) == EXIT_PASS
        payload = json.loads(capsys.readouterr().out)
        assert (payload["a"], payload["b"]) == (stem, "GHZ4")
        assert main(["verify", "--graph", f"@{path}"]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["graph"] == stem


def test_lc_same_state_is_not_inequivalent(capsys):
    code = main(["lc", "--a", "L4", "--b", "L4", "--cut", "AC|BD"])
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["inequivalent"] is False
    assert payload["cuts"][0]["rank_a"] == payload["cuts"][0]["rank_b"] == 4


def test_lc_comma_cut_spelling(capsys):
    code = main(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "A,C|B,D"])
    assert code == EXIT_PASS


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def test_csv_quotes_a_graph_name_with_a_comma(tmp_path, capsys):
    path = tmp_path / "a,b.txt"
    path.write_text("u v\n", encoding="utf-8")
    assert main(["verify", "--graph", f"@{path}", "--format", "csv"]) == EXIT_PASS
    header, *rows = _csv_rows(capsys.readouterr().out)
    assert header == ["graph", "outcome_index", "probability", "fidelity"]
    assert rows == [["a,b", str(i), "0.25", "1"] for i in range(4)]


def test_csv_quotes_a_comma_separated_cut(capsys):
    argv = ["lc", "--a", "L4", "--b", "GHZ4", "--cut", "A,B|C,D", "--format", "csv"]
    assert main(argv) == EXIT_PASS
    assert _csv_rows(capsys.readouterr().out) == [
        ["cut", "rank_a", "rank_b"],
        ["A,B|C,D", "2", "2"],
    ]


def test_render_csv_round_trips_every_special_character():
    header = ("h0", "h1", "h2", "h3", "h4")
    row = ("plain", "a,b", 'say "hi"', "two\nlines", "carriage\rreturn")
    text = "".join(cli._render_csv(header, [row]))
    assert _csv_rows(text) == [list(header), list(row)]
    # a field without a special character is written as it is
    assert text.startswith("h0,h1,h2,h3,h4\nplain,")


def test_lc_bad_cut_is_usage_error(capsys):
    _usage_error(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AX|BD"], capsys)
    _usage_error(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AB|BD"], capsys)
    _usage_error(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "A|B"], capsys)
    # an empty side is refused with the spec the user typed, not an index list
    for spec in ("ABCD|", "|ABCD"):
        assert _usage_error(["lc", "--a", "P4", "--b", "K1_3", "--cut", spec], capsys) == (
            f"pqw: cut {spec!r} must split the vertices into two disjoint non-empty sides\n"
        )


def test_lc_cut_side_may_be_one_multi_character_label(tmp_path, capsys):
    path = tmp_path / "ring.txt"
    path.write_text("r0 r1\nr1 r2\nr2 r3\nr3 r0\n", encoding="utf-8")
    argv = ["lc", "--a", f"@{path}", "--b", f"@{path}", "--format", "csv"]
    for cut in ("r0|r1,r2,r3", "r1,r2,r3|r0", "r0,r1|r2,r3"):
        argv += ["--cut", cut]
    assert main(argv) == EXIT_PASS
    assert _csv_rows(capsys.readouterr().out)[1:] == [
        ["r0|r1,r2,r3", "2", "2"],
        ["r1,r2,r3|r0", "2", "2"],
        ["r0,r1|r2,r3", "4", "4"],
    ]
    # a trailing comma still names an empty label
    assert main(["lc", "--a", f"@{path}", "--b", "C4", "--cut", "r0,|r1,r2,r3"]) == EXIT_USAGE
    assert "cut label ''" in capsys.readouterr().err


def test_cut_labels_resolve_through_one_map():
    # the labels are read once into a map, not scanned per label
    class Unscannable(tuple):
        def index(self, *args):
            raise AssertionError("per-label scan")

        def __contains__(self, item):
            raise AssertionError("per-label scan")

    labels = ("r0", "r1", "r2", "r3")
    for spec in ("r0,r2|r1,r3", "r3|r0,r1,r2"):
        side = cli._parse_cut(spec, labels)
        assert cli._parse_cut(spec, Unscannable(labels)) == side


def test_unknown_cut_label_names_it_and_the_vertex_count(tmp_path, capsys):
    # one bad label in a 5,000|5,000 cut of a 100x100 grid: the message
    # names that label and the vertex count, not all 10,000 labels
    g = grid(100, 100)
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges), encoding="utf-8")
    cut = ",".join(g.vertices[:5000]) + ",r0c100|" + ",".join(g.vertices[5000:])
    err = _usage_error(["lc", "--a", f"@{path}", "--b", f"@{path}", "--cut", cut], capsys)
    assert err == "pqw: cut label 'r0c100' not among the 10000 vertices of --a\n"
    assert len(err.encode()) < 200


def test_lc_vertex_count_mismatch_names_both_counts(capsys):
    assert main(["lc", "--a", "P3", "--b", "GHZ4", "--cut", "A|BC"]) == EXIT_USAGE
    assert capsys.readouterr().err == "pqw: vertex counts differ: 3 vs 4\n"


def test_lc_reads_b_by_label(tmp_path, capsys):
    # P4 with its vertices listed B, C, A, D: the cut AB|CD must split it
    # by label, where its rank is 2, not by index
    path = tmp_path / "p4bc.txt"
    path.write_text("B C\nA B\nC D\n", encoding="utf-8")
    argv = ["lc", "--a", "P4", "--b", f"@{path}", "--cut", "AB|CD", "--format", "csv"]
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == "cut,rank_a,rank_b\nAB|CD,2,2\n"


def test_lc_label_mismatch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "ring.txt"
    path.write_text("r0 r1\nr1 r2\nr2 r3\nr3 r0\n", encoding="utf-8")
    argv = ["lc", "--a", f"@{path}", "--b", "P4", "--cut", "r0,r1|r2,r3"]
    assert _usage_error(argv, capsys) == "pqw: --b has no vertex 'r0' of --a\n"


def test_lc_runs_past_the_dense_ceiling(tmp_path, capsys):
    # 25 vertices: a graph state of 2^25 amplitudes, which the dense
    # simulator refuses, but lc reads cut-ranks off the adjacency matrix
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in grid(5, 5).edges), encoding="utf-8")
    left = ",".join(f"r{r}c{c}" for r in range(5) for c in range(2))
    right = ",".join(f"r{r}c{c}" for r in range(5) for c in range(2, 5))
    argv = ["lc", "--a", f"@{path}", "--b", f"@{path}", "--cut", f"{left}|{right}"]
    assert main([*argv, "--format", "csv"]) == EXIT_PASS
    # the five edges across the cut form a matching, so the rank is 2^5
    assert capsys.readouterr().out == f"cut,rank_a,rank_b\n\"{left}|{right}\",32,32\n"


# -- counts ---------------------------------------------------------------------


def test_counts_direct_fidelity_golden(capsys):
    code = main(
        ["counts", "--fidelity", "0.9241", "--k", "6", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert out == (
        "fidelity,k,p_eff\n"
        "0.9241,6,0.0174262288624\n"
    )


def test_counts_from_files(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    ideal = tmp_path / "ideal.json"
    counts.write_text(json.dumps({"00": 50, "11": 50}))
    ideal.write_text(json.dumps({"00": 0.5, "11": 0.5}))
    code = main(
        [
            "counts",
            "--counts",
            str(counts),
            "--ideal",
            str(ideal),
            "--k",
            "2",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert payload["p_eff"] == pytest.approx(0.0, abs=1e-12)


def test_counts_disjoint_support_is_usage_error(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    ideal = tmp_path / "ideal.json"
    counts.write_text(json.dumps({"01": 100}))
    ideal.write_text(json.dumps({"00": 1.0}))
    code = main(
        ["counts", "--counts", str(counts), "--ideal", str(ideal), "--k", "2"]
    )
    assert code == EXIT_USAGE


def test_counts_malformed_json_is_usage_error(tmp_path):
    counts = tmp_path / "counts.json"
    ideal = tmp_path / "ideal.json"
    counts.write_text("{not json")
    ideal.write_text(json.dumps({"00": 1.0}))
    code = main(
        ["counts", "--counts", str(counts), "--ideal", str(ideal), "--k", "2"]
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "counts_text,ideal_text",
    (('{"00": Infinity}', '{"00": 1.0}'), ('{"00": 1}', '{"00": NaN}')),
)
def test_counts_non_finite_file_value_is_usage_error(
    tmp_path, capsys, counts_text, ideal_text
):
    counts = tmp_path / "counts.json"
    ideal = tmp_path / "ideal.json"
    counts.write_text(counts_text)
    ideal.write_text(ideal_text)
    code = main(
        ["counts", "--counts", str(counts), "--ideal", str(ideal), "--k", "2"]
    )
    assert code == EXIT_USAGE
    assert "not a finite number" in capsys.readouterr().err


def test_counts_file_value_may_be_the_largest_float(tmp_path, capsys):
    # finite up to and including the largest float; an int past it is not
    counts, ideal = tmp_path / "counts.json", tmp_path / "ideal.json"
    ideal.write_text('{"00": 1.0}')
    argv = ["counts", "--counts", str(counts), "--ideal", str(ideal), "--k", "2"]
    counts.write_text(json.dumps({"00": sys.float_info.max}))
    assert main(argv) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["fidelity"] == 1.0
    counts.write_text(json.dumps({"00": 2**1024}))
    assert main(argv) == EXIT_USAGE
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("nan", "inf"))
def test_counts_non_finite_fidelity_is_usage_error(value, capsys):
    assert main(["counts", "--fidelity", value, "--k", "6"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_counts_fidelity_above_one_is_usage_error(capsys):
    assert main(["counts", "--fidelity", "1.5", "--k", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "at most 1" in captured.err


def test_counts_fidelity_below_the_p_one_floor_is_usage_error(capsys):
    # 4^-6 is the fidelity at p = 1; below it p_eff would exceed 1
    for value in ("0.0002", "1e-320"):
        argv = ["counts", "--fidelity", value, "--k", "6"]
        assert _usage_error(argv, capsys) == (
            f"pqw: fidelity must be at least 4^-k = 0.000244140625 (p = 1), got {float(value)}\n"
        )


def test_counts_fidelity_within_the_slack_fits_as_one(capsys):
    # the 1e-9 slack admits this value, and its p_eff is 0, not negative
    argv = ["counts", "--fidelity", "1.0000000001", "--k", "3", "--format", "csv"]
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == "fidelity,k,p_eff\n1.0000000001,3,0\n"


def test_counts_fidelity_near_one_keeps_its_digits(capsys):
    # 1 - F^(1/k) cancels near F = 1; the 60-digit decimal value of
    # (4/3)(1 - F^(1/k)) at the float F agrees with the CSV field to all
    # 12 digits, where 2.22192634662e-13 was wrong from the fourth
    argv = ["counts", "--fidelity", "0.999999999999", "--k", "6", "--format", "csv"]
    assert main(argv) == EXIT_PASS
    assert capsys.readouterr().out == "fidelity,k,p_eff\n0.999999999999,6,2.22217306285e-13\n"
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        root = (decimal.Decimal(0.999999999999).ln() / 6).exp()
        assert format(decimal.Decimal(4) / 3 * (1 - root), ".12g") == "2.22217306285e-13"


def _run_counts(tmp_path, counts_map):
    counts = tmp_path / "counts.json"
    ideal = tmp_path / "ideal.json"
    counts.write_text(json.dumps(counts_map))
    ideal.write_text(json.dumps({"00": 0.5, "11": 0.5}))
    return main(
        ["counts", "--counts", str(counts), "--ideal", str(ideal), "--k", "2"]
    )


def test_counts_k_past_the_float_range_is_usage_error(capsys):
    argv = ["counts", "--fidelity", "0.9", "--k", "1" + "0" * 400]
    assert _usage_error(argv, capsys) == (
        f"pqw: k must be at most {sys.float_info.max:g}, the largest float\n"
    )


def test_counts_fractional_count_is_usage_error(tmp_path, capsys):
    assert _run_counts(tmp_path, {"00": 2.7, "11": 3}) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("value for '00' is not a whole number\n")
    # a whole count written as a float is still a count
    assert _run_counts(tmp_path, {"00": 100.0, "11": 100}) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["fidelity"] == pytest.approx(1.0)


def test_counts_modes_are_exclusive(capsys):
    # refused before any file is read, so x.json need not exist
    for argv, message in (
        (
            ["counts", "--fidelity", "0.9", "--counts", "x.json", "--k", "6"],
            "--fidelity excludes --counts/--ideal",
        ),
        (
            ["counts", "--counts", "x.json", "--k", "6"],
            "file mode needs both --counts and --ideal",
        ),
        (["counts", "--k", "6"], "counts needs either --counts/--ideal or --fidelity"),
    ):
        assert _usage_error(argv, capsys) == f"pqw: {message}\n"
    # the parser itself requires --k
    argv = ["counts", "--fidelity", "0.9", "--counts", "x.json"]
    assert "required: --k" in _usage_error(argv, capsys)


def test_counts_unsquared_needs_file_mode(capsys):
    # a direct fidelity has no overlap to leave unsquared
    argv = ["counts", "--fidelity", "0.9", "--k", "6", "--unsquared"]
    assert _usage_error(argv, capsys) == "pqw: --unsquared applies only to --counts/--ideal\n"


def test_counts_unsquared_reports_the_overlap(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    ideal = tmp_path / "ideal.json"
    counts.write_text(json.dumps({"00": 30, "11": 70}))
    ideal.write_text(json.dumps({"00": 0.5, "11": 0.5}))
    argv = ["counts", "--counts", str(counts), "--ideal", str(ideal), "--k", "2"]
    fidelities = []
    for extra in ([], ["--unsquared"]):
        assert main(argv + extra) == EXIT_PASS
        fidelities.append(json.loads(capsys.readouterr().out)["fidelity"])
    squared, unsquared = fidelities
    assert unsquared == pytest.approx(math.sqrt(0.15) + math.sqrt(0.35), rel=1e-12)
    assert unsquared == pytest.approx(math.sqrt(squared), rel=1e-12)
    assert unsquared > squared


# -- one writer -------------------------------------------------------------------

# SHA-256 of the stdout of each form, (JSON, CSV), as written before noise,
# lc and counts shared one writer; COUNTS and IDEAL name the files of
# _writer_runs
WRITER_SHA256 = {
    "noise --graph P4 --channel dep --p 0:0.3:0.1": (
        "15c868f00b7a77c02ce39e471f42c1749c6dd38fa395de8b963064119424fca7",
        "1fecd0dca56a8c79397cb5c415e497606717a93895939c3d70080f96d92284de",
    ),
    "noise --graph P4 --channel ad --p 0:0.2:0.1 --metric conditional": (
        "e00c8a22aa2b3802b19a570e45e67f8034a66e7306f96d8af7c2b76e99332408",
        "e78980c302ee74583f208f0ccbbad6af8f042306f1ee26d8336757fbe3edcdf0",
    ),
    "noise --compare fig4 --p 0:0.2:0.1": (
        "da1f77dd98c0ca5932c67e4d64cb831a35aa36b725b48165163e27af64d8bda7",
        "d5462e9bf02697e9bb8252361e7d4c131ae8d807cb7c8f75bd4d7be1b1362a62",
    ),
    "lc --a L4 --b GHZ4 --cut AC|BD --cut AB|CD": (
        "01344874978aaf8f0c76e42a4f738fa94e6e4055b0f94cc98a29f1b65ff58004",
        "5f7a6542a5e1791c2e399c1dd8ad151e7add91253c0242cbfbe2f8f64ecc88e3",
    ),
    "counts --fidelity 0.9241 --k 6": (
        "6023a18fbcc2c865238fc1ae9d5e707674b18b0abb59c1c8cb4f4a0198be8a50",
        "157f656f55d5cfe93aaf1f20c0a1c031acda517af89a840e417983f279b1def4",
    ),
    "counts --counts COUNTS --ideal IDEAL --k 6": (
        "33166c07e6c2082e852bebbd2d4c1e150e49e1966f44ae8658aa8e2f39a68b8d",
        "c8fdb19866b338df3a4f457090b9ca25ee0c3be26401727030b553139c8eddf9",
    ),
    "counts --counts COUNTS --ideal IDEAL --k 6 --unsquared": (
        "7126276a44f98fd71223448e6a82417699d4ff5177755ea68cbfdfdd4d6bad50",
        "162426cbb2b3f7e76533a9c9c1f1db23bc8a8cd894c4efb03cd83734f3a1664c",
    ),
}


def _writer_runs(tmp_path):
    """(argv, stdout SHA-256) for each form of WRITER_SHA256 in each format."""
    files = {"COUNTS": tmp_path / "counts.json", "IDEAL": tmp_path / "ideal.json"}
    files["COUNTS"].write_text('{"00": 480, "01": 15, "10": 25, "11": 480}')
    files["IDEAL"].write_text('{"00": 0.5, "11": 0.5}')
    for form, digests in WRITER_SHA256.items():
        argv = [str(files.get(arg, arg)) for arg in form.split()]
        for fmt, digest in zip(("json", "csv"), digests):
            yield [*argv, "--format", fmt], digest


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_each_run_writes_its_bytes_to_stdout_or_out(tmp_path, capsys):
    out = tmp_path / "out.txt"
    for argv, digest in _writer_runs(tmp_path):
        assert main(argv) == EXIT_PASS, argv
        text = capsys.readouterr().out
        assert _sha256(text) == digest, argv
        assert main([*argv, "--out", str(out)]) == EXIT_PASS, argv
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == text.encode(), argv


# SHA-256 of the stdout of each form, (JSON, CSV), for the conditional runs
# no other golden reaches: the post-prep code of a graph with two cycles
# that share an edge (house, a 5-cycle with a chord), and the pre-measure sum
NOISE_SHA256 = {
    "noise --graph house --channel pd --p 0:0.3:0.1 --metric conditional": (
        "4628c99424681d6aa755fb0c96de1656ceb7c4b8d671000c9edb779a3840dab6",
        "0dffea280432dbe05cab3e61c06a20941992a02feaed8cd21f5304160241df23",
    ),
    "noise --graph C4 --channel dep --p 0:0.2:0.1 --insertion pre_measure --metric conditional": (
        "7e381638583b60dd2f58240a4db7f2088451fda794925d4880033c8e21de535c",
        "f4a0b00b0dc2e9f89f1023391eb0fd86b63f36899f30a739c342966067103490",
    ),
}


@pytest.mark.parametrize("form", NOISE_SHA256)
def test_conditional_noise_keeps_its_bytes(form, capsys):
    for fmt, digest in zip(("json", "csv"), NOISE_SHA256[form]):
        assert main([*form.split(), "--format", fmt]) == EXIT_PASS
        assert _sha256(capsys.readouterr().out) == digest, fmt


def test_a_json_run_formats_no_csv_field(tmp_path, monkeypatch, capsys):
    runs = list(_writer_runs(tmp_path))

    def refuse(*args):
        raise AssertionError("a CSV field was formatted")

    monkeypatch.setattr(cli, "_fmt", refuse)
    monkeypatch.setattr(cli, "_csv_field", refuse)
    for argv, digest in runs:
        if argv[-1] == "json":
            assert main(argv) == EXIT_PASS, argv
            assert _sha256(capsys.readouterr().out) == digest, argv
        else:  # so the patch can fail a run
            with pytest.raises(AssertionError, match="CSV field"):
                main(argv)


# -- shared plumbing --------------------------------------------------------------


def test_explicit_jobs_must_be_positive():
    assert main(["verify", "--graph", "P3", "--jobs", "0"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv,report,code",
    (
        (["verify", "--graph", "P3"], None, EXIT_PASS),
        (["verify"], None, EXIT_USAGE),
        (["verify", "--graph", "P3"], DOCTORED, EXIT_FAIL),
    ),
    ids=("pass", "usage", "fail"),
)
def test_console_entry_exits_with_the_command_code(monkeypatch, argv, report, code):
    if report is not None:
        monkeypatch.setattr(verify, "verify_all_outcomes", lambda *a, **k: report)
    monkeypatch.setattr("sys.argv", ["pqw", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == code


def test_version_prints_package_version(capsys):
    assert main(["--version"]) == EXIT_PASS
    assert capsys.readouterr().out == f"pqw {pqw.__version__}\n"


# the names each help text must list: the commands and --version at the
# top level, every option of each command
HELP_NAMES = {
    (): ("verify", "noise", "lc", "counts", "--version", "--help"),
    ("verify",): ("--graph", "--correction", "--format", "--out", "--jobs", "--help"),
    ("noise",): (
        "--graph", "--channel", "--correction", "--p", "--insertion", "--metric",
        "--compare", "--format", "--out", "--jobs", "--help",
    ),
    ("lc",): ("--a", "--b", "--cut", "--format", "--out", "--jobs", "--help"),
    ("counts",): (
        "--counts", "--ideal", "--fidelity", "--k", "--unsquared", "--format", "--out",
        "--jobs", "--help",
    ),
}


def test_help_exits_zero(capsys):
    for command, names in HELP_NAMES.items():
        assert main([*command, "--help"]) == EXIT_PASS
        out = capsys.readouterr().out
        for name in names:
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", out), (command, name)
        # each entry is indented two spaces, its help text six
        entries = [line for line in out.splitlines() if re.match(r"  \S", line)]
        assert entries[0] == "  -h, --help", command


VERIFY_HELP = """usage: pqw verify [options]

enumerate every outcome and check the corrected state

  -h, --help
      show this help and exit
  --graph GRAPH
      catalog name, @edge-list-file, or 'all' (required)
  --correction {universal,l4,c4,tree}
      (default universal)
  --format {json,csv}
      (default json)
  --out OUT
      output file (default stdout)
  --jobs JOBS
      ignored: every command runs in one thread
"""


def test_verify_help_golden(capsys):
    # an option that takes text shows it as its name in capitals
    assert main(["verify", "--help"]) == EXIT_PASS
    assert capsys.readouterr().out == VERIFY_HELP


def test_exit_codes_are_the_documented_ones():
    # the codes the pqw.cli docstring lists; every other test reads the names
    assert (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET, cli.EXIT_PIPE) == (0, 1, 2, 3, 141)


# -- seeded fuzz -----------------------------------------------------------------

# the graph selectors a case may name, good then bad; {edges} and {json}
# stand for a file of the case's own, {tmp} for the test's folder, and an
# edge list is often broken itself
FUZZ_GRAPHS = (
    ("P3", "P4", "C4", "K4", "L4", "GHZ4", "house", "{edges}", "{edges}"),
    ("all", "nope", "", "@", "@{tmp}", "@{tmp}/missing.txt", "{json}"),
)
# the values tried for each RunConfig field, good then bad
FUZZ_VALUES = {
    "graph": FUZZ_GRAPHS,
    "state_a": FUZZ_GRAPHS,
    "state_b": FUZZ_GRAPHS,
    "correction": (("universal",), ("c4", "l4", "tree", "bogus", "")),
    "channel": (("dep", "pd", "ad"), ("depolarizing", "x")),
    "p_grid": (
        ("0.1", "0:0.2:0.1", "-0", "0", "1", "0:1:0.25", "1e-3", "-1e-3:0:1e-3"),
        ("1.5", "-0.1", "nan", "inf", "0:1:0", "1:0:0.1", "0:1:1e-9", "a:b:c", "0.1:0.3"),
    ),
    "insertion": (("post_prep", "pre_measure"), ("mid",)),
    "metric": (("strict", "conditional"), ("best",)),
    "compare": (("fig4",), ("fig5",)),
    "fmt": (("json", "csv"), ("xml",)),
    "out": (("{tmp}/out.txt",), ("{tmp}", "{tmp}/missing/out.txt", "")),
    "jobs": (("1", "2"), ("0", "-1", "x", "1.5")),
    "cuts": (
        ("AC|BD", "AB|CD", "A|BCD", "A,B|C,D", "u0,u1|u2,u3", "u0|u1", "A|B"),
        ("|", "AC", "A|B|C", "X|Y", "AA|BCD"),
    ),
    "counts_path": (("{json}",), ("{tmp}", "{tmp}/missing.json")),
    "ideal_path": (("{json}",), ("{tmp}", "{tmp}/missing.json")),
    "fidelity": (("0.9241", "1", "0", "1e-300"), ("1.5", "-0.1", "nan", "inf", "x")),
    "k": (("6", "1", "100000"), ("0", "-1", "1.5", "x", "99999999999")),
}
FUZZ_FLAGS = sorted({flag for _, options in cli.COMMANDS.values() for flag in options})


def _fuzz_edge_list(rng: random.Random) -> bytes:
    """A connected edge list of at most 6 edges, then one mutation."""
    labels = rng.sample(("A", "B", "C", "D", "E", "u0", "u1", "u2", "u3"), rng.randint(2, 5))
    edges = [(rng.choice(labels[:i]), labels[i]) for i in range(1, len(labels))]
    pairs = list(itertools.combinations(labels, 2))
    while len(edges) < 6 and rng.random() < 0.4:
        u, v = rng.choice(pairs)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    lines = [f"{u} {v}" for u, v in edges]
    mutation = rng.randrange(12)  # 9 to 11 leave the list as it is
    if mutation == 0:
        lines.append(f"{labels[0]} {labels[0]}")  # a self-loop
    elif mutation == 1:
        lines.append(f"{labels[0]} b-d")  # a label that is not alphanumeric
    elif mutation == 2:
        lines.append("Y Z")  # a second component
    elif mutation == 3:
        lines.append(rng.choice(("A", "A B C", "\t", "# a comment", "A\tB", "A  B ")))
    elif mutation == 4:
        lines.append(f"{edges[0][1]} {edges[0][0]}")  # the first edge again, reversed
    elif mutation == 5:
        lines = []
    text = ("\r\n" if rng.random() < 0.2 else "\n").join(lines)
    data = (text + rng.choice(("", "\n"))).encode("utf-8")
    if mutation == 6:
        data = b"\xef\xbb\xbf" + data  # a BOM, which pqw skips
    elif mutation == 7:
        data = data[: rng.randrange(len(data) + 1)]  # cut short
    elif mutation == 8:
        data += b"\xff\xfe"  # not UTF-8
    return data


def _fuzz_json(rng: random.Random) -> bytes:
    """A counts or ideal file: a map of bitstrings to numbers, or not."""
    keys = rng.sample(("00", "01", "10", "11", "0", "111"), rng.randint(0, 4))
    value = {key: rng.choice((rng.randint(0, 50), rng.random())) for key in keys}
    if keys and rng.random() < 0.5:
        value[keys[0]] = rng.choice((
            True, None, "3", [1], {"a": 1}, 2.5, 3.0, -1, 10**400, float("nan"),
            float("inf"), 1e308,
        ))
    if rng.random() < 0.15:
        value = rng.choice(([], [1, 2], "00", 7, None, True))
    text = json.dumps(value)
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text) + 1)]  # malformed
    return (("\ufeff" if rng.random() < 0.1 else "") + text).encode("utf-8")


def _fuzz_flag(rng: random.Random, flag: str) -> str:
    """flag in full, or cut to a prefix that may be ambiguous."""
    if rng.random() < 0.7:
        return flag
    return flag[: rng.randint(3, len(flag))]


def _fuzz_argv(rng: random.Random, files: dict) -> list[str]:
    command = rng.choice((*cli.COMMANDS,) * 6 + ("bogus", "--help", "--version", "--vers", "-h"))
    if command not in cli.COMMANDS:
        return rng.choice(([command], [command, "verify"], []))
    argv = [command]
    options = list(cli.COMMANDS[command][1].items())
    rng.shuffle(options)
    if rng.random() < 0.1:  # a flag this command may not take, given a --jobs value
        options.append((rng.choice(FUZZ_FLAGS + ["--help", "--nope"]), None))
    for flag, opt in options:
        if opt is not None and rng.random() > (0.9 if opt.required else 0.3):
            continue
        spelled = _fuzz_flag(rng, flag)
        if opt is not None and opt.type is None:  # a switch
            argv.append(spelled + ("=x" if rng.random() < 0.1 else ""))
            continue
        field = opt.field if opt is not None else "jobs"
        good, bad = FUZZ_VALUES[field]
        value = rng.choice(bad if rng.random() < 0.1 else good)
        value = value.format(tmp=files["tmp"], edges="@" + rng.choice(files["edges"]),
                             json=rng.choice(files["json"]))
        form = rng.random()
        if form < 0.25:
            argv.append(f"{spelled}={value}")
        elif form < 0.95:
            argv += [spelled, value]
        else:
            argv.append(spelled)  # the value left out
    if rng.random() < 0.05:
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(("stray", "-", "-1", "--")))
    return argv


def test_seeded_fuzz_of_main_exits_with_one_message(tmp_path, monkeypatch):
    # structured command lines over every command and flag, abbreviated
    # and --flag=value forms, mutated edge lists, JSON count files and
    # --out paths: each returns an exit code, and each refusal writes one
    # line, never a traceback.  A value may land on --out, so every
    # relative path is in the test's folder.
    monkeypatch.chdir(tmp_path)
    rng = random.Random(31)
    files = {"tmp": str(tmp_path), "edges": [], "json": []}
    for i in range(40):
        path = tmp_path / f"g{i}.txt"
        path.write_bytes(_fuzz_edge_list(rng))
        files["edges"].append(str(path))
        path = tmp_path / f"c{i}.json"
        path.write_bytes(_fuzz_json(rng))
        files["json"].append(str(path))
    codes = []
    for _ in range(2000):
        argv = _fuzz_argv(rng, files)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        codes.append(code)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET), argv
        if code in (EXIT_USAGE, EXIT_BUDGET):
            assert re.fullmatch(r"pqw: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
        elif code == EXIT_PASS:
            assert err.getvalue() == "", argv
    # the cases reach the engines as well as the refusals
    assert codes.count(EXIT_PASS) > 100 and codes.count(EXIT_USAGE) > 1000
