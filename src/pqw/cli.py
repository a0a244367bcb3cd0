"""Command-line front end: verification reports, noise curves, rank
comparisons, and hardware-count post-processing.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 usage error (bad arguments, unknown graph, inapplicable correction,
malformed input files), 3 resource budget exceeded.

Output is deterministic: JSON with sorted keys for structured reports,
CSV with a header row and 12 significant digits for plot-ready curves.
Every command runs in one thread; --jobs is still accepted, must be a
positive integer, and is otherwise ignored, so that existing scripts
keep running.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .graphs import (
    CatalogError,
    Graph,
    ResourceError,
    TABLE_ORDER,
    catalog_lookup,
    ghz_state,
    graph_state,
    parse_edge_list,
)
from .noise import (
    bhattacharyya_fidelity,
    extract_p_eff,
    f_star_dep,
    parse_channel,
)
from .protocol import CORRECTION_KINDS
from .verify import (
    VerificationReport,
    lc_check,
    noise_sweep,
    verify_all_outcomes,
)

if TYPE_CHECKING:
    from .statevector import Bipartition, StateVector

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# the three transmitted-qubit counts of the standard comparison plot:
# one Bell pair, a four-party GHZ from one central source, and the
# four-vertex path protocol with six resource qubits
COMPARE_CURVES = (("Bell", 1), ("GHZ4", 2), ("L4", 6))

# the most points a --p range may hold; checked before the grid is built
MAX_P_POINTS = 100_000


class UsageError(ValueError):
    """Inconsistent or malformed command configuration."""


class RunConfig(NamedTuple):
    """One fully resolved command invocation; config_from_args, its only
    constructor, refuses inconsistent flags."""

    command: str
    graph: str | None = None
    correction: str = "universal"
    channel: str | None = None
    p_grid: tuple[float, ...] | None = None
    compare: str | None = None
    insertion: str = "post_prep"
    metric: str = "strict"
    fmt: str = "json"
    out: str | None = None
    cuts: tuple[str, ...] = ()
    state_a: str | None = None
    state_b: str | None = None
    counts_path: str | None = None
    ideal_path: str | None = None
    k: int | None = None
    fidelity: float | None = None
    unsquared: bool = False


def _parse_p_grid(spec: str) -> tuple[float, ...]:
    """Either a single value or an inclusive start:stop:step range."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"bad p spec {spec!r}; expected P or START:STOP:STEP")
    values = tuple(float(x) for x in parts)
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"p values must be finite, got {spec!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise UsageError(f"p step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"p range is empty: {spec!r}")
    # the loop below keeps start + i * step while it is <= stop + 1e-9
    span = (stop - start + 1e-9) / step
    if not span < MAX_P_POINTS:
        points = f"{span + 1:.0f}" if span < 1e15 else f"about {span:.3g}"
        raise UsageError(
            f"p range {spec!r} has {points} points; the limit is {MAX_P_POINTS}"
        )
    grid = []
    i = 0
    while True:
        x = start + i * step
        if x > stop + 1e-9:
            break
        grid.append(round(x, 12))
        i += 1
    return tuple(grid)


def _resolve_graph(spec: str) -> tuple[str, Graph]:
    if spec.startswith("@"):
        path = Path(spec[1:])
        return path.stem, parse_edge_list(path.read_text(encoding="utf-8"))
    return spec, catalog_lookup(spec)


def _resolve_state(spec: str) -> tuple[StateVector, tuple[str, ...]]:
    """A state selector: L4 and GHZ4 name the two states of the rank
    comparison, any catalog name or @edge-list names a graph state."""
    if spec == "L4":
        graph = catalog_lookup("P4")
        return graph_state(graph), graph.vertices
    if spec == "GHZ4":
        return ghz_state(4), ("A", "B", "C", "D")
    _, graph = _resolve_graph(spec)
    return graph_state(graph), graph.vertices


def _parse_cut(spec: str, labels: tuple[str, ...]) -> Bipartition:
    """AC|BD puts vertices A,C on one side and B,D on the other; comma
    separation supports multi-character labels."""
    from .statevector import Bipartition

    halves = spec.split("|")
    if len(halves) != 2:
        raise UsageError(f"bad cut {spec!r}; expected SIDE|SIDE")

    def side(text: str) -> frozenset[int]:
        names = text.split(",") if "," in text else list(text)
        out = set()
        for nm in names:
            if nm not in labels:
                raise UsageError(f"cut label {nm!r} not among vertices {labels}")
            out.add(labels.index(nm))
        return frozenset(out)

    a, b = side(halves[0]), side(halves[1])
    if a | b != frozenset(range(len(labels))) or a & b:
        raise UsageError(f"cut {spec!r} must split the vertices into two disjoint sides")
    return Bipartition(a, b)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv_field(text: str) -> str:
    """A field as RFC 4180 writes it: quoted, with its quotes doubled,
    when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_field, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(obj) -> str:
    import json  # here, so that no CSV run loads it

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# -- commands ----------------------------------------------------------------


def _report_dict(report: VerificationReport) -> dict:
    probability = 1.0 / report.outcome_count
    return {
        "graph": report.graph_name,
        "correction": report.correction_kind,
        "outcome_count": report.outcome_count,
        "min_fidelity": report.min_fidelity,
        "max_fidelity": report.max_fidelity,
        # kept so the bytes stay: every probability is exactly 1/outcome_count
        "max_probability_deviation": 0.0,
        "passed": report.passed,
        "records": [
            {"index": i, "probability": probability, "fidelity": f}
            for i, f in enumerate(report.fidelities())
        ],
    }


def _verify_csv(reports: list[VerificationReport]) -> str:
    """The verify CSV, one line per outcome.  Lines of one report differ
    only in their index and fidelity, so each run of equal fidelities is
    one join over the index texts, which every report slices from one
    list, and no text is built per outcome."""
    index_text = list(map(str, range(max(r.outcome_count for r in reports))))
    parts = ["graph,outcome_index,probability,fidelity\n"]
    for report in reports:
        name = _csv_field(report.graph_name) + ","
        probability = _fmt(1.0 / report.outcome_count)
        for start, stop, fidelity in report.fidelity_runs():
            tail = f",{probability},{_fmt(fidelity)}\n"
            parts += (name, (tail + name).join(index_text[start:stop]), tail)
    return "".join(parts)


def cmd_verify(config: RunConfig) -> int:
    if config.graph == "all":
        names = TABLE_ORDER
    else:
        names = (config.graph,)
    reports = []
    for spec in names:
        name, graph = _resolve_graph(spec)
        reports.append(verify_all_outcomes(graph, config.correction, name=name))
    if config.fmt == "json":
        if len(reports) == 1:
            payload = _report_dict(reports[0])
        else:
            payload = {
                "all_passed": all(r.passed for r in reports),
                "reports": [_report_dict(r) for r in reports],
            }
        _emit(_render_json(payload), config.out)
    else:
        _emit(_verify_csv(reports), config.out)
    # the first counterexample of each failing report, off the payload
    for rep in reports:
        index = rep.first_failure()
        if index is not None:
            print(
                f"pqw: {rep.graph_name}: outcome {index} has fidelity 0",
                file=sys.stderr,
            )
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def cmd_noise(config: RunConfig) -> int:
    if config.compare is not None:
        if config.compare != "fig4":
            raise UsageError(f"unknown comparison {config.compare!r}")
        rows = []
        payload = []
        for p in config.p_grid:
            for name, k in COMPARE_CURVES:
                f = f_star_dep(p, k)
                rows.append((name, str(k), _fmt(p), _fmt(f)))
                payload.append({"name": name, "k": k, "p": p, "F": f})
        if config.fmt == "json":
            _emit(_render_json(payload), config.out)
        else:
            _emit(_render_csv(("name", "k", "p", "F"), rows), config.out)
        return EXIT_PASS

    name, graph = _resolve_graph(config.graph)
    report = noise_sweep(
        graph,
        config.channel,
        config.p_grid,
        correction_kind=config.correction,
        insertion=config.insertion,
        metric=config.metric,
    )
    if config.fmt == "json":
        payload = {
            "graph": name,
            "channel": parse_channel(config.channel, 0.0).kind,
            "correction": config.correction,
            "insertion": config.insertion,
            "metric": config.metric,
            "k": report.k,
            "p_grid": list(report.p_grid),
            "fidelities": list(report.fidelities),
            "analytic": None if report.analytic is None else list(report.analytic),
        }
        _emit(_render_json(payload), config.out)
    else:
        rows = []
        for i, p in enumerate(report.p_grid):
            analytic = "" if report.analytic is None else _fmt(report.analytic[i])
            rows.append((_fmt(p), _fmt(report.fidelities[i]), analytic))
        _emit(_render_csv(("p", "F_exact", "F_analytic"), rows), config.out)
    return EXIT_PASS


def cmd_lc(config: RunConfig) -> int:
    state_a, labels = _resolve_state(config.state_a)
    state_b, _ = _resolve_state(config.state_b)
    cuts = [_parse_cut(spec, labels) for spec in config.cuts]
    report = lc_check(state_a, state_b, cuts)
    if config.fmt == "json":
        payload = {
            "a": config.state_a,
            "b": config.state_b,
            "cuts": [
                {"cut": spec, "rank_a": rec.rank_a, "rank_b": rec.rank_b}
                for spec, rec in zip(config.cuts, report.records)
            ],
            "inequivalent": report.inequivalent,
        }
        _emit(_render_json(payload), config.out)
    else:
        rows = [
            (spec, str(rec.rank_a), str(rec.rank_b))
            for spec, rec in zip(config.cuts, report.records)
        ]
        _emit(_render_csv(("cut", "rank_a", "rank_b"), rows), config.out)
    return EXIT_PASS


def _load_json_map(path: str, value_type) -> dict:
    import json

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    out = {}
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise UsageError(f"{path}: value for {key!r} is not a number")
        if not abs(value) <= sys.float_info.max:
            raise UsageError(f"{path}: value for {key!r} is not a finite number")
        if value_type is int and isinstance(value, float) and not value.is_integer():
            raise UsageError(f"{path}: value for {key!r} is not a whole number")
        out[str(key)] = value_type(value)
    return out


def cmd_counts(config: RunConfig) -> int:
    if config.fidelity is not None:
        fidelity = config.fidelity
    else:
        counts = _load_json_map(config.counts_path, int)
        ideal = _load_json_map(config.ideal_path, float)
        fidelity = bhattacharyya_fidelity(counts, ideal, squared=not config.unsquared)
    p_eff = extract_p_eff(fidelity, config.k)
    if config.fmt == "json":
        payload = {"fidelity": fidelity, "k": config.k, "p_eff": p_eff}
        _emit(_render_json(payload), config.out)
    else:
        _emit(
            _render_csv(
                ("fidelity", "k", "p_eff"),
                [(_fmt(fidelity), str(config.k), _fmt(p_eff))],
            ),
            config.out,
        )
    return EXIT_PASS


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqw",
        description="Exact verification and noise analysis of the "
        "phase-walk graph-state distribution protocol.",
    )
    parser.add_argument("--version", action="version", version=f"pqw {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p: argparse.ArgumentParser, default_fmt: str) -> None:
        p.add_argument("--format", choices=("json", "csv"), default=default_fmt)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="ignored: every command runs in one thread; kept so that "
            "existing scripts still run",
        )

    p_verify = sub.add_parser(
        "verify", help="enumerate every outcome and check the corrected state"
    )
    p_verify.add_argument(
        "--graph",
        required=True,
        help="catalog name, @edge-list-file, or 'all' for the full catalog",
    )
    p_verify.add_argument("--correction", choices=CORRECTION_KINDS, default="universal")
    common(p_verify, "json")

    p_noise = sub.add_parser("noise", help="exact noisy fidelity curves")
    # each option but --p is None when not given, so that --compare can
    # refuse it; config_from_args fills in the defaults
    p_noise.add_argument(
        "--graph", default=None, help="catalog name or @edge-list-file (default P4)"
    )
    p_noise.add_argument("--channel", choices=("dep", "pd", "ad"), default=None)
    p_noise.add_argument("--correction", choices=CORRECTION_KINDS, default=None)
    p_noise.add_argument("--p", required=True, help="value or START:STOP:STEP")
    p_noise.add_argument("--insertion", choices=("post_prep", "pre_measure"), default=None)
    p_noise.add_argument("--metric", choices=("strict", "conditional"), default=None)
    p_noise.add_argument(
        "--compare",
        choices=("fig4",),
        default=None,
        help="closed-form comparison curves instead of one graph",
    )
    common(p_noise, "csv")

    p_lc = sub.add_parser("lc", help="Schmidt ranks across cuts for two states")
    p_lc.add_argument("--a", required=True, help="L4, GHZ4, catalog name, or @file")
    p_lc.add_argument("--b", required=True, help="same selectors as --a")
    p_lc.add_argument(
        "--cut",
        action="append",
        required=True,
        help="vertex split like AC|BD; repeatable",
    )
    common(p_lc, "json")

    p_counts = sub.add_parser("counts", help="fidelity and effective p from counts")
    p_counts.add_argument("--counts", default=None, help="JSON file bitstring->count")
    p_counts.add_argument("--ideal", default=None, help="JSON file bitstring->probability")
    p_counts.add_argument("--fidelity", type=float, default=None, help="direct mode")
    p_counts.add_argument("--k", type=int, required=True, help="resource-qubit count")
    p_counts.add_argument(
        "--unsquared", action="store_true", help="report the unsquared overlap"
    )
    common(p_counts, "json")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {args.jobs}")
    common = {"command": args.cmd, "fmt": args.format, "out": args.out}
    if args.cmd == "verify":
        return RunConfig(graph=args.graph, correction=args.correction, **common)
    if args.cmd == "noise":
        # the options only a --channel run reads, each None unless given;
        # RunConfig's defaults fill in the rest
        given = {
            name: getattr(args, name)
            for name in ("channel", "graph", "correction", "insertion", "metric")
            if getattr(args, name) is not None
        }
        if args.compare is None:
            if args.channel is None:
                raise UsageError("noise needs --channel (or --compare)")
            given.setdefault("graph", "P4")
        elif given:
            raise UsageError(f"--compare and --{next(iter(given))} are mutually exclusive")
        return RunConfig(
            p_grid=_parse_p_grid(args.p), compare=args.compare, **given, **common
        )
    if args.cmd == "lc":
        return RunConfig(
            state_a=args.a, state_b=args.b, cuts=tuple(args.cut), **common
        )
    # counts; argparse already requires --k here, as it requires --p above
    file_mode = args.counts is not None or args.ideal is not None
    if file_mode and args.fidelity is not None:
        raise UsageError("--fidelity excludes --counts/--ideal")
    if file_mode and (args.counts is None or args.ideal is None):
        raise UsageError("file mode needs both --counts and --ideal")
    if not file_mode and args.fidelity is None:
        raise UsageError("counts needs either --counts/--ideal or --fidelity")
    return RunConfig(
        counts_path=args.counts,
        ideal_path=args.ideal,
        fidelity=args.fidelity,
        k=args.k,
        unsquared=args.unsquared,
        **common,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:  # argparse already printed the message
        code = exit_request.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        config = config_from_args(args)
        if args.cmd == "verify":
            return cmd_verify(config)
        if args.cmd == "noise":
            return cmd_noise(config)
        if args.cmd == "lc":
            return cmd_lc(config)
        return cmd_counts(config)
    except ResourceError as err:
        print(f"pqw: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (UsageError, CatalogError, ValueError, OSError) as err:
        # CatalogError carries a quoted message; unwrap the KeyError repr
        message = err.args[0] if isinstance(err, CatalogError) else err
        print(f"pqw: {message}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
