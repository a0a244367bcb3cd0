"""Package surface: the names pqw exports, its version, and which modules
each entry point loads."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dense
import pqw
from pqw import cli, graphs, noise, protocol, verify
from pqw.cli import EXIT_BUDGET, main

ROOT = Path(__file__).resolve().parents[1]

# every name pqw exports, by the module that defines it
EXPORTS = {
    "graphs": (
        "CatalogError", "Graph", "ResourceError", "TABLE_ORDER", "catalog_lookup",
        "catalog_names", "parse_edge_list",
    ),
    "noise": (
        "NoiseReport", "bhattacharyya_fidelity", "extract_p_eff", "f_star_dep",
        "f_star_pd", "noise_sweep",
    ),
    "protocol": (
        "c4_correction", "correction_forms", "l4_correction", "tree_correction",
        "universal_correction",
    ),
    "verify": (
        "LcReport", "VerificationReport", "lc_check", "phase_lemma_check",
        "verify_all_outcomes",
    ),
}
# each submodule after every submodule it imports, so that reading
# pqw.<name> in this order is always the first import of that module
SUBMODULES = (
    "graphs", "protocol", "verify", "noise", "cli",
)

# Runs in a fresh interpreter that has imported nothing of pqw but the
# package.  For each [attribute, module] pair of argv[1], in order, prints
# the attribute, whether pqw.<module> was loaded before the attribute was
# read, whether it is the module's own object (the module itself when
# the two names are equal), and whether numpy is loaded.
EXPORT_SCRIPT = r"""
import json
import sys

import pqw

for attribute, module in json.loads(sys.argv[1]):
    loaded_before = f"pqw.{module}" in sys.modules
    value = getattr(pqw, attribute)
    defining = sys.modules[f"pqw.{module}"]
    expected = defining if attribute == module else getattr(defining, attribute)
    print(json.dumps([attribute, loaded_before, value is expected, "numpy" in sys.modules]))
print(json.dumps(sorted(dir(pqw))))
"""


def _fresh_exports(pairs) -> tuple[list, list]:
    *rows, names = map(json.loads, _run_fresh(EXPORT_SCRIPT, json.dumps(pairs)).splitlines())
    assert [row[0] for row in rows] == [attribute for attribute, _ in pairs]
    return rows, names


def test_exports_resolve_to_their_defining_module():
    # fresh interpreters, because this one imported most submodules at
    # the top of this file and would hide a broken lazy export
    rows, names = _fresh_exports([(module, module) for module in SUBMODULES])
    for module, loaded_before, identical, _ in rows:
        assert not loaded_before, f"pqw.{module} loaded before it was read"
        assert identical, module
    exported = [(name, module) for module, names in EXPORTS.items() for name in names]
    rows, names = _fresh_exports(exported)
    for name, _, identical, numpy_loaded in rows:
        assert identical, name
        assert not numpy_loaded, f"numpy loaded by {name}"
    public = {name for name in names if not name.startswith("_")}
    assert {name for name, _ in exported} | set(SUBMODULES) == public
    # the oracle in tests/dense.py raises the package's ResourceError
    assert dense.ResourceError is pqw.ResourceError


def test_unknown_attribute_still_raises():
    # the dense oracle, the Pauli objects and the T1 arithmetic live in
    # tests/, not here; noise_sweep is the one noise call, and it takes a
    # point as a channel kind and a strength
    for name in (
        "no_such_name", "statevector", "StateVector", "kraus_ops", "stabilizer",
        "PauliString", "conjugate_circuit", "run_protocol_tableau", "correction_plan",
        "plans_equivalent", "stabilizer_generators", "noisy_protocol_fidelity",
        "parse_channel", "t1_damping_estimate", "NoiseChannel",
    ):
        with pytest.raises(AttributeError, match=name):
            getattr(pqw, name)


def test_resource_error_is_one_class(tmp_path, capsys):
    assert dense.ResourceError is graphs.ResourceError
    assert noise.ResourceError is graphs.ResourceError
    assert cli.ResourceError is graphs.ResourceError
    # 10 edges make 4^10 outcome records, past verify's ceiling, which
    # raises before the walk runs
    path11 = tmp_path / "path11.txt"
    path11.write_text("".join(f"v{i} v{i + 1}\n" for i in range(10)))
    assert main(["verify", "--graph", f"@{path11}"]) == EXIT_BUDGET
    assert "4^10 outcome records" in capsys.readouterr().err
    # 13 vertices exceed the conditional noise sum's vertex budget
    path13 = tmp_path / "path13.txt"
    path13.write_text("".join(f"v{i} v{i + 1}\n" for i in range(12)))
    argv = ["noise", "--graph", f"@{path13}", "--channel", "ad", "--p", "0.1"]
    assert main([*argv, "--metric", "conditional"]) == EXIT_BUDGET
    assert "13 vertices" in capsys.readouterr().err


def _identifiers(tree: ast.AST):
    """Every name a module's code defines, binds, imports or reads, module
    paths of imports split at their dots; strings are not names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            yield node.asname
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def _is_minus_one(node: ast.AST) -> bool:
    try:
        return ast.literal_eval(node) == -1
    except ValueError:  # not a literal
        return False


def _sign_spellings(tree: ast.AST, module: str):
    """module.function for each place where a module binds the name
    phase or compares a value with the literal -1."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [node for node in ast.walk(tree) if isinstance(node, kinds)]
    for node in ast.walk(tree):
        binds = (
            isinstance(node, ast.Name) and node.id == "phase" and isinstance(node.ctx, ast.Store)
        ) or (isinstance(node, ast.arg) and node.arg == "phase")
        compares = isinstance(node, ast.Compare) and any(
            map(_is_minus_one, (node.left, *node.comparators))
        )
        if binds or compares:
            # ast.walk reaches a function before the functions inside it
            inside = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            yield ".".join((module, *inside[-1:]))


def _imports(tree: ast.AST):
    """The top-level package of every absolute import in tree, lazy ones
    inside functions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies.  This reads every import
    # statement, lazy ones inside functions included, where the blocked-
    # numpy run below sees only the imports that its steps execute.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
    imported = {}
    # the engine owns no Pauli object: no module is named stabilizer, and
    # none defines or imports PauliString or conjugate_circuit, which
    # live in tests/pauli.py
    pauli_names = {"stabilizer", "PauliString", "conjugate_circuit"}
    pauli_objects = {}
    # one number type: no module uses complex, cmath, conjugate, real or
    # imag as a name, attribute or import, or writes an imaginary literal;
    # the complex Kraus operators live in tests/dense.py
    complex_names = {"complex", "cmath", "conjugate", "real", "imag"}
    complex_uses = {}
    # one sign type: a sign is a GF(2) bit, so no module keeps a mod-4
    # phase under that name or tests a sign against -1; PauliString's
    # phase lives in tests/pauli.py
    sign_spellings = set()
    for path in sorted((ROOT / "src" / "pqw").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        identifiers = set(_identifiers(tree))
        found = pauli_names & ({path.stem} | identifiers)
        if found:
            pauli_objects[path.name] = sorted(found)
        found = complex_names & identifiers
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, complex):
                found.add("imaginary literal")
        if found:
            complex_uses[path.name] = sorted(found)
        sign_spellings.update(_sign_spellings(tree, path.stem))
        for name in _imports(tree):
            imported.setdefault(name, path.name)
    # pqw.__getattr__ imports importlib inside the function
    assert imported["importlib"] == "__init__.py"
    outside = {
        name: module for name, module in imported.items()
        if name != "pqw" and name not in sys.stdlib_module_names
    }
    assert outside == {}
    assert pauli_objects == {}
    assert complex_uses == {}
    assert sign_spellings == set()


def test_the_tests_import_only_the_test_extra():
    # each package a test module imports is the standard library, pqw, a
    # module of tests/ or a name in the test extra, and each name there is
    # imported; the extra is read with a regex, as 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*)\]$", text, re.MULTILINE)
    declared = set(re.findall(r'"([A-Za-z0-9_]+)', extra.group(1)))
    modules = sorted((ROOT / "tests").glob("*.py"))
    imported = {name for path in modules for name in _imports(ast.parse(path.read_text("utf-8")))}
    known = set(sys.stdlib_module_names) | {"pqw"} | {path.stem for path in modules}
    assert imported - known == declared


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
from dense import run_protocol

report("run_protocol P4", 0 if run_protocol(catalog_lookup("P4"), 0)[0] > 0 else 1)
"""


def _fresh(argv: list[str], check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter run with argv, importing pqw from src and the
    dense oracle from tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=check,
    )


def _run_fresh(script: str, *args: str) -> str:
    """stdout of script, given args, in a fresh interpreter."""
    return _fresh(["-c", script, *args]).stdout


@pytest.mark.parametrize("module", ("pqw", "pqw.cli"))
@pytest.mark.parametrize(
    "argv",
    (["--version"], ["verify", "--graph", "P3", "--format", "csv"], ["verify"]),
    ids=("version", "verify", "usage"),
)
def test_python_m_pqw_runs_the_cli(argv, module, capsys):
    code = main(argv)
    expected = capsys.readouterr()
    result = _fresh(["-m", module, *argv], check=False)
    assert (result.returncode, result.stdout, result.stderr) == (
        code, expected.out, expected.err
    )
    assert result.stdout or result.stderr


def test_symbolic_entry_points_do_not_import_numpy():
    steps = [json.loads(line) for line in _run_fresh(GUARD_SCRIPT).splitlines()]
    assert len(steps) == 23
    *symbolic, oracle = steps
    for label, code, numpy_loaded, dataclasses_loaded in symbolic:
        assert code == 0, label
        assert not numpy_loaded, f"numpy loaded by {label}"
        assert not dataclasses_loaded, f"dataclasses loaded by {label}"
    # the dense protocol reference in tests/dense.py loads both, so the
    # check can fail
    assert oracle == ["run_protocol P4", 0, True, True]


# Runs in a fresh interpreter in which numpy cannot be imported.  Each
# step prints its label and exit code, tab-separated: one import of each
# module in the package, then the commands; the last step imports the
# dense oracle, which must fail on numpy, so the check can fail.
NO_NUMPY_SCRIPT = r"""
import contextlib
import importlib
import io
import pkgutil
import sys

sys.modules["numpy"] = None  # every import of numpy now raises ImportError

import pqw

for module in sorted(info.name for info in pkgutil.iter_modules(pqw.__path__)):
    importlib.import_module(f"pqw.{module}")
    print(f"import pqw.{module}", 0, sep="\t")

from pqw.cli import main

for argv in (
    ["verify", "--graph", "all", "--format", "csv"],
    ["verify", "--graph", "C4", "--correction", "c4", "--format", "json"],
    ["noise", "--graph", "C4", "--channel", "ad", "--p", "0:0.2:0.1", "--metric", "conditional"],
    ["noise", "--channel", "dep", "--p", "0.1", "--insertion", "pre_measure", "--format", "json"],
    ["noise", "--compare", "fig4", "--p", "0.2"],
    ["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AC|BD", "--cut", "AB|CD"],
    ["lc", "--a", "C5", "--b", "P5", "--cut", "AC|BDE", "--format", "csv"],
    ["counts", "--fidelity", "0.9241", "--k", "6"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(" ".join(argv), code, sep="\t")
try:
    import dense
except ImportError as error:
    print("import dense", "ImportError", error.name, sep="\t")
"""


def test_every_command_runs_without_numpy():
    steps = [line.split("\t") for line in _run_fresh(NO_NUMPY_SCRIPT).splitlines()]
    imports = [f"import pqw.{module}" for module in sorted(("__main__", *SUBMODULES))]
    assert [label for label, *_ in steps[: len(imports)]] == imports
    assert len(steps) == len(imports) + 9
    *steps, oracle = steps
    for label, code in steps:
        assert code == "0", label
    assert oracle == ["import dense", "ImportError", "numpy"]


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
run(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AC|BD", "--format", "csv"])
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
        "lc --a L4 --b GHZ4 --cut AC|BD --format csv",
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


def test_cli_import_loads_no_engine_typing_or_pathlib():
    # -S skips the site hook, which may load typing and pathlib itself, so
    # this is the start-up of a bare venv: the CLI loads only the module
    # that owns graph names, and none of the three
    def loaded(line):
        return set(_fresh(["-S", "-c", MODULES_SCRIPT.format(line)]).stdout.split())

    bare, after = loaded("pass"), loaded("import pqw.cli")
    assert not bare & {"typing", "pathlib", "__future__"}
    assert {name for name in after - bare if name.split(".")[0] == "pqw"} == {
        "pqw", "pqw.cli", "pqw.graphs",
    }
    assert not after & {"typing", "pathlib", "__future__"}


# Runs in a fresh interpreter.  Each step prints its label, exit code and
# the watched modules it finds loaded that the bare interpreter had not,
# tab-separated; the steps share the interpreter, as in GUARD_SCRIPT.
STARTUP_GUARD_SCRIPT = r"""
import contextlib
import io
import sys

WATCHED = (
    "argparse", "gettext", "locale", "pqw.noise", "pqw.verify", "pqw.protocol",
    "fractions", "decimal",
)
bare = {name for name in WATCHED if name in sys.modules}


def report(label, code):
    print(label, code, *[n for n in WATCHED if n in sys.modules and n not in bare], sep="\t")


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report(" ".join(argv), code)


import pqw.cli
from pqw.cli import main

report("import pqw.cli", 0)
run(["--help"])
run(["--version"])
run(["verify"])
run(["verify", "--graph", "all", "--format", "csv"])
from pqw.graphs import catalog_lookup
from pqw.verify import phase_lemma_check

report("phase_lemma_check", 0 if all(phase_lemma_check(catalog_lookup(g)) for g in ("C5", "diamond")) else 1)
run(["noise", "--channel", "dep", "--p", "0:0.2:0.1", "--format", "csv"])
run(["noise", "--graph", "C4", "--channel", "ad", "--p", "0.1", "--metric", "conditional", "--format", "csv"])
run(["noise", "--compare", "fig4", "--p", "0.2", "--format", "csv"])
run(["counts", "--fidelity", "0.9241", "--k", "6", "--format", "csv"])
run(["lc", "--a", "L4", "--b", "GHZ4", "--cut", "AB|CD", "--format", "csv"])
"""


def test_commands_load_no_argparse_and_only_their_engine():
    # argparse brings gettext and, through it, locale; the CLI parses its
    # own arguments, help, version and a usage error load no engine,
    # verify loads the symbolic engine, and only noise and counts need
    # pqw.noise.  Exact noise values are ints, so neither metric loads
    # fractions or decimal.  A step lists every watched module loaded so far.
    engine = ["pqw.verify", "pqw.protocol"]
    steps = [line.split("\t") for line in _run_fresh(STARTUP_GUARD_SCRIPT).splitlines()]
    assert steps == [
        ["import pqw.cli", "0"],
        ["--help", "0"],
        ["--version", "0"],
        ["verify", "2"],
        ["verify --graph all --format csv", "0", *engine],
        ["phase_lemma_check", "0", *engine],
        ["noise --channel dep --p 0:0.2:0.1 --format csv", "0", "pqw.noise", *engine],
        [
            "noise --graph C4 --channel ad --p 0.1 --metric conditional --format csv",
            "0",
            "pqw.noise",
            *engine,
        ],
        ["noise --compare fig4 --p 0.2 --format csv", "0", "pqw.noise", *engine],
        ["counts --fidelity 0.9241 --k 6 --format csv", "0", "pqw.noise", *engine],
        ["lc --a L4 --b GHZ4 --cut AB|CD --format csv", "0", "pqw.noise", *engine],
    ]


# Runs the command given as its arguments in a fresh interpreter and
# prints its exit code and then the pqw modules loaded once it has run.
ONE_COMMAND_SCRIPT = r"""
import contextlib
import io
import sys

from pqw.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.split(".")[0] == "pqw"))
"""


@pytest.mark.parametrize(
    "argv",
    (
        ["counts", "--fidelity", "0.9241", "--k", "6"],
        ["noise", "--compare", "fig4", "--p", "0.2"],
    ),
    ids=("counts", "compare"),
)
def test_closed_forms_load_no_engine(argv):
    # counts and noise --compare run only closed forms and count
    # arithmetic: pqw.noise imports the engine inside noise_sweep alone,
    # so neither pqw.protocol nor pqw.verify is loaded
    loaded = _run_fresh(ONE_COMMAND_SCRIPT, *argv).split()
    assert loaded == ["0", "pqw", "pqw.cli", "pqw.graphs", "pqw.noise"]


@pytest.mark.parametrize("insertion", ("post_prep", "pre_measure"))
@pytest.mark.parametrize(
    "metric,engine",
    [("conditional", ["pqw.protocol"]), ("strict", ["pqw.protocol", "pqw.verify"])],
    ids=("conditional", "strict"),
)
def test_noise_loads_only_the_engine_its_metric_runs(metric, engine, insertion):
    # conditional reads the walked generators or sign forms off
    # pqw.protocol; only strict's noiseless fraction needs pqw.verify
    argv = ["noise", "--graph", "C4", "--channel", "ad", "--p", "0.1"]
    loaded = _run_fresh(ONE_COMMAND_SCRIPT, *argv, "--metric", metric, "--insertion", insertion)
    assert loaded.split() == ["0", "pqw", "pqw.cli", "pqw.graphs", "pqw.noise", *engine]


def test_only_the_dense_oracle_keeps_a_cache():
    # the engines keep nothing between calls; the one cache holds the
    # dense oracle's walked register, which is read-only
    def cached(module):
        return [name for name, value in vars(module).items() if hasattr(value, "cache_info")]

    for module in (graphs, protocol, verify, noise, cli):
        assert cached(module) == [], module.__name__
    assert cached(dense) == ["_premeasurement"]
