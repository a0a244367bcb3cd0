"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import re
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPECS = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NOMINAL = json.loads((run.HERE / "reference" / "nominal.json").read_text())


def flip_one_digit(data: bytes) -> bytes:
    index = re.search(rb"\d", data.split(b"\n", 1)[1]).start() + data.index(b"\n") + 1
    flipped = b"1" if data[index:index + 1] != b"1" else b"2"
    return data[:index] + flipped + data[index + 1:]


def test_flipped_digit_fails_the_job():
    reference = (run.HERE / "reference" / "noise-dep.out").read_bytes()
    wrong = flip_one_digit(reference)
    assert run.first_difference(reference, reference) is None
    assert run.first_difference(reference, wrong).startswith("line 2:")

    run.OUT.mkdir(exist_ok=True)
    envs = {"current": run.job_env(run.ROOT / "src")}
    sample = run.run_job(
        "noise-dep", "current", False, 1, envs, {"noise-dep": wrong}, 120
    )
    assert sample.error is not None and sample.error.startswith("line 2:")
    _, report = run.summarize([(sample, sample)], ["noise-dep"], 0, SPECS, NOMINAL)
    assert "noise-dep.fail_ratio = 2/2" in report


def test_metric_names():
    names = [w["name"] for w in SPECS["workloads"]]
    names += [m["name"] for m in SPECS["end_to_end"] + SPECS["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_traced_run_reports_every_per_layer_metric():
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--seed", "5", "--seconds", "0",
         "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPECS["per_layer"]}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], (int, float)), name
