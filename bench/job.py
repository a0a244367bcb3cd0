"""One benchmark job: a fresh interpreter that runs one workload and exits.

    PYTHONPATH=src python3 bench/job.py WORKLOAD [--trace SPANS_FILE JOB_ID]

The CLI workloads call ``pqw.cli.main`` with the argument list a user
would type after ``pqw``; ``tableau-signs`` calls the exported
``pqw.verify.phase_lemma_check``, because no CLI command reaches the
tableau.  stdout carries only the program's own output, so it can be
compared byte for byte with the reference under ``bench/reference/``.

With ``--trace`` the public functions listed in ``tracer.TRACED`` are
wrapped before the workload runs and the recorded spans are written to
SPANS_FILE when it ends.  Without it, nothing from the benchmark is
imported beyond this file.
"""

import sys

# Every CLI job runs with --jobs 1: one client, one thread, as the
# closed-loop benchmark measures it.
WORKLOADS = {
    "verify-catalog": (
        "verify", "--graph", "all", "--correction", "universal",
        "--format", "csv", "--jobs", "1",
    ),
    "noise-dep": (
        "noise", "--graph", "P4", "--channel", "dep", "--p", "0.1:0.3:0.1",
        "--metric", "conditional", "--format", "csv", "--jobs", "1",
    ),
    "noise-ad": (
        "noise", "--graph", "C4", "--channel", "ad", "--p", "0:0.5:0.05",
        "--metric", "conditional", "--format", "csv", "--jobs", "1",
    ),
    "tableau-signs": None,
}

# At most 4096 outcomes each, so phase_lemma_check enumerates every one.
TABLEAU_GRAPHS = ("C5", "diamond")


def run_workload(name: str) -> int:
    argv = WORKLOADS[name]
    if argv is not None:
        from pqw.cli import main

        return main(list(argv))
    from pqw.graphs import catalog_lookup
    from pqw.verify import phase_lemma_check

    results = [phase_lemma_check(catalog_lookup(g)) for g in TABLEAU_GRAPHS]
    print(all(results))
    return 0 if all(results) else 1


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 4) or argv[0] not in WORKLOADS or (
        len(argv) == 4 and argv[1] != "--trace"
    ):
        print(
            f"usage: job.py {{{','.join(WORKLOADS)}}} [--trace SPANS_FILE JOB_ID]",
            file=sys.stderr,
        )
        return 2
    if len(argv) == 1:
        return run_workload(argv[0])
    import tracer

    spans = tracer.install()
    try:
        code = run_workload(argv[0])
    finally:
        sys.stdout.flush()
        spans.dump(argv[2], int(argv[3]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
