"""pqw benchmark: time to an exact, verified answer, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every job is a fresh interpreter that
runs one workload (``bench/job.py``); jobs run one at a time from this
process, a closed loop with one client.  Each job's stdout must equal the
reference in ``bench/reference/`` byte for byte.

Jobs run in adjacent pairs.  With ``--trace 0`` each job of the checkout's
``src/`` is paired with the same job of the frozen reference copy of pqw
(``bench/reference/pqw-f8a1d8a.zip``), and each timed metric is reported at
the reference's nominal speed: the checkout's time, divided by its partner's
time, times the partner's nominal time from ``bench/reference/nominal.json``.
The host's speed drifts by tens of percent over minutes; the partner job
sees the same drift, so the ratio cancels it.  With ``--trace 1`` each
untraced job of every workload is paired with a traced one
(``bench/tracer.py``), and the per-layer metrics named in ``BENCHMARK.json``
are reported as ``<workload>.<module>.<function>.<stat>``.

A run is a series of rounds of pairs.  The seed shuffles the order of the
pairs within each round and of the two jobs within each pair.  The first
round always completes; after it, no pair starts once ``--seconds`` have
passed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zipfile
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
from job import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE_ZIP = HERE / "reference" / "pqw-f8a1d8a.zip"
SETUP = "setup"
# A run ends within --seconds plus this many seconds, whatever the jobs do:
# a job still running then is killed and counts as failed.
GRACE_S = 120.0
# Samples beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class Sample:
    kind: str  # a workload name, or SETUP for an import probe
    code: str  # "current" (the checkout's src/) or "reference"
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mib: float
    error: str | None
    spans: Path | None


def first_difference(got: bytes, want: bytes) -> str | None:
    """None when the outputs are equal, else where they first differ."""
    if got == want:
        return None
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    for number, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w:
            return f"line {number}: expected {w!r}, got {g!r}"
    number = min(len(got_lines), len(want_lines)) + 1
    return f"line {number}: expected {len(want_lines)} lines, got {len(got_lines)}"


def job_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # BLAS threads would contend with the job itself on a small machine;
    # pinned, the spread between runs is far smaller.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    # users run pqw with cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], stdout: Path, env: dict[str, str], timeout: float):
    """Run argv to completion with stdout to a file.

    Returns (exit code, wall seconds from spawn to exit, rusage).  The
    child is killed once ``timeout`` seconds have passed, or when this
    process is interrupted.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_job(kind, code, traced, job_id, envs, references, timeout) -> Sample:
    stdout = OUT / f"job-{job_id}.out"
    spans = None
    if kind == SETUP:
        argv = [sys.executable, "-c", "import pqw.cli"]
        want = b""
    else:
        argv = [sys.executable, str(HERE / "job.py"), kind]
        if traced:
            spans = OUT / f"spans-{job_id}.json"
            argv += ["--trace", str(spans), str(job_id)]
        want = references[kind]
    status, wall, usage = spawn(argv, stdout, envs[code], timeout)
    if status != 0:
        err = stdout.with_suffix(".err").read_bytes().strip().splitlines()
        error = f"exit code {status}" + (f": {err[-1].decode(errors='replace')}" if err else "")
    else:
        error = first_difference(stdout.read_bytes(), want)
    return Sample(
        kind, code, traced, wall, usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024, error, spans,
    )


def measure(round_pairs, seconds, deadline, seed, envs, references):
    """Run rounds of pairs until ``seconds`` have passed; returns the
    completed pairs, each in the order listed in ``round_pairs``."""
    rng = random.Random(seed)
    start = time.perf_counter()
    pairs: list[tuple[Sample, Sample]] = []
    while True:
        jobs = round_pairs[:]
        rng.shuffle(jobs)
        for pair in jobs:
            now = time.perf_counter()
            if len(pairs) >= len(round_pairs) and now - start >= seconds or now >= deadline:
                return pairs
            order = [0, 1]
            rng.shuffle(order)
            done = {}
            for i in order:
                job_id = 2 * len(pairs) + len(done) + 1
                timeout = max(deadline - time.perf_counter(), 0.0)
                done[i] = run_job(*pair[i], job_id, envs, references, timeout)
            pairs.append((done[0], done[1]))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at
    least TAIL_BEYOND samples beyond it, once there are enough samples for
    that to be p90 or above.  Below that the run reports its maximum
    (percentile 100), so that the metric means the same on every run."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n >= 10 * TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(pairs, workload, nominal) -> dict[str, tuple[float, str, str]]:
    """Each metric as (value, unit, how it was taken).  Times are at nominal
    speed: each checkout job's time over its reference partner's, times
    the reference's nominal time."""
    mine = [(a, b) for a, b in pairs if a.kind == workload]
    n = len(mine)
    wall = [a.wall_s / b.wall_s * nominal["wall_s"] for a, b in mine]
    cpu = [a.cpu_s / b.cpu_s * nominal["cpu_s"] for a, b in mine]
    value, pct, _ = tail(wall)
    raw = statistics.median(a.wall_s for a, _ in mine)
    ref = statistics.median(b.wall_s for _, b in mine)
    return {
        "wall_s": (statistics.median(wall), "s",
                   f"median of {n}; raw median {raw:.4g} s, reference {ref:.4g} s"),
        "wall_tail_s": (value, "s", f"p{pct:.0f} of {n}"),
        "cpu_s": (statistics.median(cpu), "s", f"median of {n}"),
        "peak_rss_mb": (statistics.median(a.rss_mib for a, _ in mine), "MiB",
                        f"median of {n}"),
    }


def per_layer(pairs, workload) -> dict[str, float]:
    """Median over the workload's traced jobs of each per-layer figure."""
    mine = [(a, b) for a, b in pairs if a.kind == workload]
    per_job = []
    for _, traced in mine:
        if traced.error is None:
            spans, computed = tracer.load(str(traced.spans))
            figures = tracer.derive(spans)
            figures.update({f"{name}.bytes": n for name, n in computed.items()})
            per_job.append(figures)
    keys = sorted({k for figures in per_job for k in figures})
    layers = {k: statistics.median(f.get(k, 0) for f in per_job) for k in keys}
    layers["trace_overhead_s"] = statistics.median(b.wall_s - a.wall_s for a, b in mine)
    return layers


def summarize(pairs, workloads, trace, specs, nominal) -> tuple[dict, list[str]]:
    """Metrics as name -> {value, unit}, and the human-readable report."""
    units = {m["name"]: m["unit"] for m in specs["end_to_end"] + specs["per_layer"]}
    metrics: dict[str, dict] = {}
    report: list[str] = []
    for w in workloads:
        if trace:
            figures = per_layer(pairs, w)
            report += [f"{w}.{k} = {v:.6g}" for k, v in sorted(figures.items())]
            for m in specs["per_layer"]:
                if m["name"].startswith(w + "."):
                    value = figures.get(m["name"][len(w) + 1:], 0)
                    metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        else:
            prefix = f"{w}." if len(workloads) > 1 else ""
            for k, (v, unit, how) in end_to_end(pairs, w, nominal[w]).items():
                if k in units:
                    metrics[prefix + k] = {"value": v, "unit": unit}
                report.append(f"{w}.{k} = {v:.6g} {unit} ({how})")
        jobs = [s for pair in pairs for s in pair if s.kind == w]
        bad = [s for s in jobs if s.error is not None]
        report.append(f"{w}.fail_ratio = {len(bad)}/{len(jobs)}")
        report += [f"{w} ({s.code}): job failed: {s.error}" for s in bad]
    probes = [(a, b) for a, b in pairs if a.kind == SETUP]
    if probes:
        value = statistics.median(a.wall_s / b.wall_s * nominal["setup_s"] for a, b in probes)
        raw = statistics.median(a.wall_s for a, _ in probes)
        metrics["setup_s"] = {"value": value, "unit": units["setup_s"]}
        report.append(f"setup_s = {value:.6g} s (median of {len(probes)}; raw median {raw:.4g} s)")
        report += [f"setup probe failed: {s.error}" for p in probes for s in p if s.error]
    return metrics, report


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_record(args, env) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "PYTHONHASHSEED": env["PYTHONHASHSEED"],
        "loadavg_start": loadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pqw" / "cli.py").is_file():
        print(f"bench: no pqw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # turn a termination request into an exception, so the running job is
    # killed and reaped before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    nominal = json.loads((HERE / "reference" / "nominal.json").read_text())
    if args.seconds is None:
        args.seconds = float(specs["run_seconds"])
    references = {w: (HERE / "reference" / f"{w}.out").read_bytes() for w in WORKLOADS}
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    with zipfile.ZipFile(REFERENCE_ZIP) as archive:
        archive.extractall(OUT / "reference")
    envs = {
        "current": job_env(ROOT / "src"),
        "reference": job_env(OUT / "reference" / "src"),
    }

    record = run_record(args, envs["current"])
    if args.trace:
        workloads = list(WORKLOADS)
        round_pairs = [((w, "current", False), (w, "current", True)) for w in workloads]
    else:
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        round_pairs = [((k, "current", False), (k, "reference", False))
                       for k in [SETUP, *workloads]]
    deadline = time.perf_counter() + args.seconds + GRACE_S
    # untimed: compile the bytecode of both copies and warm the file cache
    warm_up = [run_job(SETUP, code, False, f"warm-{code}", envs, references, GRACE_S / 2)
               for code in envs]
    pairs = measure(round_pairs, args.seconds, deadline, args.seed, envs, references)
    record["loadavg_end"] = loadavg()
    metrics, report = summarize(pairs, workloads, args.trace, specs, nominal)
    samples = [s for pair in pairs for s in pair]
    for s in warm_up:
        if s.error is not None:
            samples.append(s)
            report.append(f"warm-up probe ({s.code}) failed: {s.error}")
    failed = sum(s.error is not None for s in samples)

    (OUT / "record.json").write_text(json.dumps(
        {"record": record, "jobs": [{**vars(s), "spans": str(s.spans)} for s in samples]},
        indent=1,
    ))
    print("# record " + json.dumps(record))
    for line in report:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
