"""Package surface: the names pqw exports, its version, and which entry
points load numpy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pqw
from pqw import cli, graphs, noise, statevector
from pqw.cli import EXIT_BUDGET, main

ROOT = Path(__file__).resolve().parents[1]

# every name pqw exported before the dense simulator's names became lazy,
# by the module that defines (or, for ResourceError, re-exports) it
EXPORTS = {
    "graphs": (
        "CatalogError", "Graph", "TABLE_ORDER", "catalog_lookup", "catalog_names",
        "ghz_state", "graph_state", "parse_edge_list", "stabilizer_generators",
    ),
    "noise": (
        "NoiseChannel", "NoiseReport", "bhattacharyya_fidelity", "extract_p_eff",
        "f_star_dep", "f_star_pd", "kraus_ops", "noisy_protocol_fidelity",
        "parse_channel", "t1_damping_estimate",
    ),
    "protocol": (
        "CorrectionPlan", "Layout", "Outcome", "all_outcomes", "apply_correction",
        "build_layout", "byproduct_step", "c4_correction", "corrected_fidelity",
        "correction_forms", "correction_plan", "l4_correction", "plans_equivalent",
        "run_protocol", "run_protocol_tableau", "tree_correction",
        "universal_correction",
    ),
    "stabilizer": (
        "PauliString", "Tableau", "ZeroProbabilityBranch", "check_stabilizes",
        "conjugate", "conjugate_circuit", "extract_sign", "extract_sign_forms",
        "measure_z", "zero_state_tableau",
    ),
    "statevector": (
        "Bipartition", "ResourceError", "StateVector", "ZeroProbabilityError",
        "apply_gate", "fidelity", "from_amplitudes", "measure_project", "new_plus",
        "new_zero", "schmidt_rank",
    ),
    "verify": (
        "LcReport", "VerificationReport", "lc_check", "noise_sweep",
        "phase_lemma_check", "verify_all_outcomes",
    ),
}
SUBMODULES = ("data", "graphs", "noise", "protocol", "stabilizer", "statevector", "verify")


def test_exports_resolve_to_their_defining_module():
    for module, names in EXPORTS.items():
        defining = sys.modules[f"pqw.{module}"]
        for name in names:
            assert getattr(pqw, name) is getattr(defining, name), name
    for module in SUBMODULES:
        assert getattr(pqw, module) is sys.modules[f"pqw.{module}"]
    exported = {name for names in EXPORTS.values() for name in names}
    assert exported | set(SUBMODULES) <= set(dir(pqw))


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pqw.no_such_name


def test_resource_error_is_one_class(tmp_path, capsys):
    assert statevector.ResourceError is graphs.ResourceError
    assert noise.ResourceError is graphs.ResourceError
    assert cli.ResourceError is graphs.ResourceError
    # 9 vertices and 8 edges make 25 qubits, past the dense ceiling,
    # which raises before anything is allocated
    path9 = tmp_path / "path9.txt"
    path9.write_text("".join(f"v{i} v{i + 1}\n" for i in range(8)))
    assert main(["verify", "--graph", f"@{path9}"]) == EXIT_BUDGET
    assert "25 qubits" in capsys.readouterr().err
    # 13 vertices exceed the noise sum's vertex budget
    path13 = tmp_path / "path13.txt"
    path13.write_text("".join(f"v{i} v{i + 1}\n" for i in range(12)))
    assert main(["noise", "--graph", f"@{path13}", "--channel", "ad", "--p", "0.1"]) == (
        EXIT_BUDGET
    )
    assert "13 vertices" in capsys.readouterr().err


def test_package_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert pqw.__version__ == match.group(1)


# Runs in a fresh interpreter, because this one has loaded numpy and
# dataclasses already.  Each step prints [label, exit code, whether numpy
# is loaded, whether dataclasses is loaded]; the steps share the
# interpreter, so every step before the last is free of both only if all
# of them are.
GUARD_SCRIPT = r"""
import contextlib
import io
import json
import sys


def report(label, code):
    print(json.dumps([label, code, "numpy" in sys.modules, "dataclasses" in sys.modules]))


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report(" ".join(argv), code)


import pqw

report("import pqw", 0)
import pqw.cli
from pqw.cli import main

report("import pqw.cli", 0)
for channel in ("dep", "pd", "ad"):
    for metric in ("strict", "conditional"):
        for insertion in ("post_prep", "pre_measure"):
            run([
                "noise", "--graph", "P4", "--channel", channel, "--p", "0:0.2:0.1",
                "--metric", metric, "--insertion", insertion,
            ])
run(["noise", "--compare", "fig4", "--p", "0.2"])
run(["counts", "--fidelity", "0.9241", "--k", "6"])
run(["--version"])
from pqw.graphs import catalog_lookup
from pqw.verify import phase_lemma_check

report("phase_lemma_check C5", 0 if phase_lemma_check(catalog_lookup("C5")) else 1)
report("pqw.ResourceError", 0 if pqw.ResourceError is pqw.graphs.ResourceError else 1)
run(["verify", "--graph", "P4"])
run(["verify", "--graph", "all", "--format", "csv"])
run(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AB|CD"])
"""


def _run_fresh(script: str) -> str:
    """stdout of script in a fresh interpreter that imports pqw from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return result.stdout


def test_symbolic_entry_points_do_not_import_numpy():
    steps = [json.loads(line) for line in _run_fresh(GUARD_SCRIPT).splitlines()]
    assert len(steps) == 22
    *symbolic, dense = steps
    for label, code, numpy_loaded, dataclasses_loaded in symbolic:
        assert code == 0, label
        assert not numpy_loaded, f"numpy loaded by {label}"
        assert not dataclasses_loaded, f"dataclasses loaded by {label}"
    # the Schmidt-rank comparison loads both, through pqw.statevector, so
    # the check can fail
    assert dense == ["lc --a L4 --b GHZ4 --cut AB|CD", 0, True, True]


# Runs in a fresh interpreter and imports no json itself.  Each step
# prints its label, exit code and whether json is loaded, tab-separated;
# the steps share the interpreter, as in GUARD_SCRIPT.
JSON_GUARD_SCRIPT = r"""
import contextlib
import io
import sys


def report(label, code):
    print(label, code, "json" in sys.modules, sep="\t")


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report(" ".join(argv), code)


report("start", 0)
import pqw.cli
from pqw.cli import main

report("import pqw.cli", 0)
run(["verify", "--graph", "all", "--format", "csv"])
run(["noise", "--channel", "dep", "--p", "0:0.2:0.1", "--format", "csv"])
run(["noise", "--compare", "fig4", "--p", "0.2", "--format", "csv"])
run(["counts", "--fidelity", "0.9241", "--k", "6", "--format", "csv"])
from pqw.graphs import catalog_lookup
from pqw.verify import phase_lemma_check

report("phase_lemma_check C5", 0 if phase_lemma_check(catalog_lookup("C5")) else 1)
run(["verify", "--graph", "P4", "--format", "json"])
"""


def test_csv_runs_do_not_import_json():
    # the catalog is compiled Python, so json serves only JSON output and
    # the counts files
    steps = [line.split("\t") for line in _run_fresh(JSON_GUARD_SCRIPT).splitlines()]
    assert [label for label, _, _ in steps] == [
        "start",
        "import pqw.cli",
        "verify --graph all --format csv",
        "noise --channel dep --p 0:0.2:0.1 --format csv",
        "noise --compare fig4 --p 0.2 --format csv",
        "counts --fidelity 0.9241 --k 6 --format csv",
        "phase_lemma_check C5",
        "verify --graph P4 --format json",
    ]
    *csv_steps, json_step = steps
    for label, code, json_loaded in csv_steps:
        assert code == "0", label
        assert json_loaded == "False", f"json loaded by {label}"
    # a JSON report loads it, so the check can fail
    assert json_step == ["verify --graph P4 --format json", "0", "True"]


# Prints every module loaded once the import line has run.
MODULES_SCRIPT = "import sys\n{}\nprint(*sys.modules, sep='\\n')"


def test_cli_import_loads_no_resource_machinery():
    # importlib.resources brings inspect, zipfile and tempfile along on
    # Python 3.12 and later; a site hook may load it at start-up, so only
    # what the import adds to a bare interpreter counts
    bare = set(_run_fresh(MODULES_SCRIPT.format("pass")).split())
    added = set(_run_fresh(MODULES_SCRIPT.format("import pqw.cli")).split()) - bare
    assert "pqw.cli" in added
    assert not added & {"importlib.resources", "inspect", "zipfile", "tempfile"}
