"""Command-line parsing: every argv form pqw accepts, the RunConfig it
resolves to, and the exit code of each form it refuses.

The commands themselves are replaced by a recorder, so these tests pin
the parser alone and run no engine."""

import sys

import pytest

import pqw
from pqw import cli
from pqw.cli import EXIT_PASS, EXIT_USAGE, RunConfig, main


@pytest.fixture
def configs(monkeypatch):
    """The RunConfig each command call receives, in call order."""
    seen = []

    def record(config):
        seen.append(config)
        return EXIT_PASS

    for name in ("cmd_verify", "cmd_noise", "cmd_lc", "cmd_counts"):
        monkeypatch.setattr(cli, name, record)
    return seen


ACCEPTED = {
    # each command with only its required options, so every default shows
    "verify-defaults": (
        ["verify", "--graph", "P3"],
        RunConfig("verify", graph="P3", fmt="json"),
    ),
    "noise-defaults": (
        ["noise", "--channel", "dep", "--p", "0.1"],
        RunConfig("noise", graph="P4", channel="dep", p_grid=(0.1,), fmt="csv"),
    ),
    "compare-defaults": (
        ["noise", "--compare", "fig4", "--p", "0.2"],
        RunConfig("noise", p_grid=(0.2,), compare="fig4", fmt="csv"),
    ),
    "lc-defaults": (
        ["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AB|CD"],
        RunConfig("lc", state_a="L4", state_b="GHZ4", cuts=("AB|CD",), fmt="json"),
    ),
    "counts-defaults": (
        ["counts", "--fidelity", "0.9", "--k", "6"],
        RunConfig("counts", fidelity=0.9, k=6, fmt="json"),
    ),
    # every option of each command, given once
    "verify-every-option": (
        ["verify", "--graph", "all", "--correction", "tree", "--format", "csv",
         "--out", "v.csv", "--jobs", "4"],
        RunConfig("verify", graph="all", correction="tree", fmt="csv", out="v.csv"),
    ),
    "noise-every-option": (
        ["noise", "--graph", "C4", "--channel", "ad", "--correction", "c4",
         "--p", "0:0.2:0.1", "--insertion", "pre_measure", "--metric",
         "conditional", "--format", "json", "--out", "n.json", "--jobs", "1"],
        RunConfig("noise", graph="C4", correction="c4", channel="ad",
                  p_grid=(0.0, 0.1, 0.2), insertion="pre_measure",
                  metric="conditional", fmt="json", out="n.json"),
    ),
    "counts-file-mode": (
        ["counts", "--counts", "c.json", "--ideal", "i.json", "--k", "2",
         "--unsquared", "--format", "csv"],
        RunConfig("counts", counts_path="c.json", ideal_path="i.json", k=2,
                  unsquared=True, fmt="csv"),
    ),
    # --flag=value, alone and with a prefix; only the first = splits
    "equals": (
        ["verify", "--graph=P3", "--correction=l4", "--out=a=b.csv"],
        RunConfig("verify", graph="P3", correction="l4", out="a=b.csv"),
    ),
    "prefixes": (
        ["verify", "--gr", "P4", "--corr", "l4", "--form", "csv"],
        RunConfig("verify", graph="P4", correction="l4", fmt="csv"),
    ),
    # one letter after "--" is enough when it is a unique prefix
    "one-letter-prefix": (["verify", "--g", "P4"], RunConfig("verify", graph="P4", fmt="json")),
    "prefix-equals": (
        ["noise", "--ch=pd", "--p=0.3", "--ins=pre_measure"],
        RunConfig("noise", graph="P4", channel="pd", p_grid=(0.3,),
                  insertion="pre_measure", fmt="csv"),
    ),
    "exact-match-wins": (
        ["counts", "--fidelity", "0.5", "--k", "3"],
        RunConfig("counts", fidelity=0.5, k=3),
    ),
    # negative numbers are values, and reach the checks after parsing
    "negative-p": (
        ["noise", "--channel", "dep", "--p", "-0.1"],
        RunConfig("noise", graph="P4", channel="dep", p_grid=(-0.1,), fmt="csv"),
    ),
    "negative-numbers": (
        ["counts", "--fidelity", "-0.5", "--k", "-2"],
        RunConfig("counts", fidelity=-0.5, k=-2),
    ),
    "dash-value": (
        ["verify", "--graph", "-"],
        RunConfig("verify", graph="-"),
    ),
    # a repeated option keeps its last value; --cut collects them all
    "last-wins": (
        ["verify", "--graph", "P3", "--format", "csv", "--graph", "C4",
         "--format", "json", "--jobs", "0", "--jobs", "2"],
        RunConfig("verify", graph="C4", fmt="json"),
    ),
    "repeated-cut": (
        ["lc", "--cut", "AB|CD", "--a", "L4", "--cut=AC|BD", "--b", "C4",
         "--cu", "A,B|C,D"],
        RunConfig("lc", state_a="L4", state_b="C4",
                  cuts=("AB|CD", "AC|BD", "A,B|C,D")),
    ),
}


@pytest.mark.parametrize("argv, config", ACCEPTED.values(), ids=ACCEPTED)
def test_accepted_argv_resolves_to_its_config(argv, config, configs, capsys):
    assert main(argv) == EXIT_PASS
    assert configs == [config]
    assert capsys.readouterr() == ("", "")


REFUSED = {
    "empty-argv": [],
    "unknown-command": ["bogus-subcommand"],
    "option-before-command": ["--graph", "P3", "verify"],
    "missing-value-at-end": ["verify", "--graph"],
    "missing-value-before-option": ["verify", "--graph", "--correction", "l4"],
    "missing-value-before-short-option": ["verify", "--graph", "-h"],
    "bad-choice": ["verify", "--graph", "P3", "--correction", "bogus"],
    "bad-channel": ["noise", "--channel", "sparkle", "--p", "0.1"],
    "bad-format": ["counts", "--fidelity", "0.9", "--k", "6", "--format", "xml"],
    "non-integer-jobs": ["verify", "--graph", "P3", "--jobs", "two"],
    "fractional-jobs": ["verify", "--graph", "P3", "--jobs", "1.5"],
    "zero-jobs": ["verify", "--graph", "P3", "--jobs", "0"],
    "non-integer-k": ["counts", "--fidelity", "0.9", "--k", "six"],
    "non-float-fidelity": ["counts", "--fidelity", "high", "--k", "6"],
    "ambiguous-prefix": ["noise", "--c", "dep", "--p", "0.1"],
    "ambiguous-prefix-equals": ["counts", "--f=0.9", "--k", "6"],
    "unknown-option": ["verify", "--graph", "P3", "--bogus"],
    "end-of-options-marker": ["verify", "--", "--graph", "P3"],
    "stray-value": ["verify", "--graph", "P3", "extra"],
    "switch-with-value": ["counts", "--fidelity", "0.9", "--k", "6", "--unsquared=yes"],
    "version-after-command": ["verify", "--graph", "P3", "--version"],
    "other-command-option": ["verify", "--graph", "P3", "--channel", "dep"],
    "missing-graph": ["verify"],
    "missing-lc-states": ["lc", "--cut", "AB|CD"],
    "missing-k": ["counts", "--fidelity", "0.9"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_refused_argv_exits_2(argv, configs, capsys):
    assert main(argv) == EXIT_USAGE
    assert configs == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("pqw")


def test_a_bare_double_dash_prefixes_no_option(configs, capsys):
    # "--" spells no letter of a name, so it matches none, not every option
    assert main(["verify", "--", "--graph", "P3"]) == EXIT_USAGE
    assert configs == []
    assert capsys.readouterr() == ("", "pqw: unrecognized arguments: --\n")


@pytest.mark.parametrize(
    "argv, missing",
    (
        (["noise", "--channel", "dep"], "--p"),
        (["counts", "--fidelity", "0.9"], "--k"),
        (["lc", "--cut", "AB|CD"], "--a, --b"),
        (["verify", "--format", "csv"], "--graph"),
    ),
)
def test_missing_required_options_are_named(argv, missing, configs, capsys):
    assert main(argv) == EXIT_USAGE
    assert f"the following arguments are required: {missing}\n" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv", (["--version"], ["--vers"], ["--version", "verify", "--bogus"])
)
def test_version_prints_and_exits_zero(argv, configs, capsys):
    assert main(argv) == EXIT_PASS
    assert configs == []
    assert capsys.readouterr() == (f"pqw {pqw.__version__}\n", "")


def test_main_reads_sys_argv_when_given_none(monkeypatch, configs, capsys):
    monkeypatch.setattr(sys, "argv", ["pqw", "--version"])
    assert main() == EXIT_PASS
    assert capsys.readouterr() == (f"pqw {pqw.__version__}\n", "")


@pytest.mark.parametrize(
    "argv",
    (
        ["--help"],
        ["-h"],
        ["--he"],
        ["--help", "verify"],
        ["verify", "--help"],
        ["noise", "-h"],
        ["counts", "--fidelity", "0.9", "--he"],
        ["lc", "--help", "--bogus"],
    ),
)
def test_help_runs_no_command(argv, configs, capsys):
    assert main(argv) == EXIT_PASS
    assert configs == []
    out, err = capsys.readouterr()
    assert out.startswith("usage: pqw") and err == ""
