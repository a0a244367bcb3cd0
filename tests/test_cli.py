"""Command-line surface: argument handling, output formats, exit codes."""

import json
import math
from pathlib import Path

import pytest

from pqw import cli
from pqw.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
from pqw.verify import OutcomeRecord, VerificationReport

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


def test_verify_exit_fail_on_doctored_report(monkeypatch, capsys):
    rec = OutcomeRecord(0, 1.0, 0.5)
    broken = VerificationReport("P3", "universal", 1, 0.5, 0.5, 0.0, (rec,))
    monkeypatch.setattr(cli, "verify_all_outcomes", lambda *a, **k: broken)
    code = main(["verify", "--graph", "P3"])
    assert code == EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_verify_formula_on_wrong_graph_is_usage_error(capsys):
    code = main(["verify", "--graph", "C4", "--correction", "l4"])
    assert code == EXIT_USAGE
    assert "P4" in capsys.readouterr().err


def test_verify_unknown_graph_lists_names(capsys):
    code = main(["verify", "--graph", "pentagon"])
    assert code == EXIT_USAGE
    assert "valid names" in capsys.readouterr().err


def test_verify_graph_from_edge_list_file(tmp_path, capsys):
    edges = tmp_path / "tri.txt"
    edges.write_text("A B\nB C\nC A\n")
    code = main(["verify", "--graph", f"@{edges}", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_PASS
    assert payload["graph"] == "tri"
    assert payload["outcome_count"] == 64


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
    code = main(["noise", "--graph", f"@{edges}", "--channel", "dep", "--p", "0.1"])
    assert code == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget" in err and "13 vertices" in err


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


def test_noise_frame_budget_names_vertex_count(tmp_path, capsys):
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


def test_bad_p_grid_is_usage_error(capsys):
    assert main(["noise", "--channel", "dep", "--p", "0.5:0.1:0.1"]) == EXIT_USAGE
    assert main(["noise", "--channel", "dep", "--p", "nope"]) == EXIT_USAGE
    assert main(["noise", "--channel", "dep", "--p", "0:1:0"]) == EXIT_USAGE


def test_noise_requires_channel_or_compare():
    assert main(["noise", "--p", "0.1"]) == EXIT_USAGE


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


def test_lc_same_state_is_not_inequivalent(capsys):
    code = main(["lc", "--a", "L4", "--b", "L4", "--cut", "AC|BD"])
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["inequivalent"] is False
    assert payload["cuts"][0]["rank_a"] == payload["cuts"][0]["rank_b"] == 4


def test_lc_comma_cut_spelling(capsys):
    code = main(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "A,C|B,D"])
    assert code == EXIT_PASS


def test_lc_bad_cut_is_usage_error(capsys):
    assert main(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AX|BD"]) == EXIT_USAGE
    assert main(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AB|BD"]) == EXIT_USAGE
    assert main(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "A|B"]) == EXIT_USAGE


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


def test_counts_modes_are_exclusive():
    assert main(["counts", "--fidelity", "0.9", "--counts", "x.json"]) == EXIT_USAGE
    assert main(["counts", "--k", "6"]) == EXIT_USAGE


# -- shared plumbing --------------------------------------------------------------


def test_explicit_jobs_must_be_positive():
    assert main(["verify", "--graph", "P3", "--jobs", "0"]) == EXIT_USAGE


def test_argparse_errors_map_to_usage(capsys):
    assert main(["noise", "--channel", "sparkle", "--p", "0.1"]) == EXIT_USAGE
    assert main(["bogus-subcommand"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit):
        # argparse raises; main() traps it, so call the parser directly
        cli.build_parser().parse_args(["--help"])
    assert main(["--help"]) == EXIT_PASS
    assert "verify" in capsys.readouterr().out
