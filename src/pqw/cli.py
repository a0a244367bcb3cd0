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
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .graphs import (
    CatalogError,
    Graph,
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
from .statevector import Bipartition, ResourceError, StateVector
from .verify import VerificationReport, lc_check, noise_sweep, verify_all_outcomes

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# the three transmitted-qubit counts of the standard comparison plot:
# one Bell pair, a four-party GHZ from one central source, and the
# four-vertex path protocol with six resource qubits
COMPARE_CURVES = (("Bell", 1), ("GHZ4", 2), ("L4", 6))


class UsageError(ValueError):
    """Inconsistent or malformed command configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved command invocation."""

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

    def __post_init__(self):
        if self.command == "noise":
            if self.compare is None and self.channel is None:
                raise UsageError("noise needs --channel (or --compare)")
            if self.compare is not None and self.channel is not None:
                raise UsageError("--compare and --channel are mutually exclusive")
            if self.p_grid is None:
                raise UsageError("noise needs --p")
        if self.command == "counts":
            file_mode = self.counts_path is not None or self.ideal_path is not None
            if file_mode and self.fidelity is not None:
                raise UsageError("--fidelity excludes --counts/--ideal")
            if file_mode and (self.counts_path is None or self.ideal_path is None):
                raise UsageError("file mode needs both --counts and --ideal")
            if not file_mode and self.fidelity is None:
                raise UsageError("counts needs either --counts/--ideal or --fidelity")
            if self.k is None:
                raise UsageError("counts needs --k")


def _parse_p_grid(spec: str) -> tuple[float, ...]:
    """Either a single value or an inclusive start:stop:step range."""
    parts = spec.split(":")
    if len(parts) == 1:
        return (float(spec),)
    if len(parts) != 3:
        raise UsageError(f"bad p spec {spec!r}; expected P or START:STOP:STEP")
    start, stop, step = (float(x) for x in parts)
    if step <= 0:
        raise UsageError(f"p step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"p range is empty: {spec!r}")
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


def _render_csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# -- commands ----------------------------------------------------------------


def _report_dict(report: VerificationReport) -> dict:
    return {
        "graph": report.graph_name,
        "correction": report.correction_kind,
        "outcome_count": report.outcome_count,
        "min_fidelity": report.min_fidelity,
        "max_fidelity": report.max_fidelity,
        "max_probability_deviation": report.max_probability_deviation,
        "passed": report.passed,
        "records": [
            {"index": r.index, "probability": r.probability, "fidelity": r.fidelity}
            for r in report.records
        ],
    }


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
        rows = [
            (rep.graph_name, str(r.index), _fmt(r.probability), _fmt(r.fidelity))
            for rep in reports
            for r in rep.records
        ]
        _emit(
            _render_csv(("graph", "outcome_index", "probability", "fidelity"), rows),
            config.out,
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
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    out = {}
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise UsageError(f"{path}: value for {key!r} is not a number")
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
    p_noise.add_argument("--graph", default="P4", help="catalog name or @edge-list-file")
    p_noise.add_argument("--channel", choices=("dep", "pd", "ad"), default=None)
    p_noise.add_argument("--correction", choices=CORRECTION_KINDS, default="universal")
    p_noise.add_argument("--p", required=True, help="value or START:STOP:STEP")
    p_noise.add_argument(
        "--insertion", choices=("post_prep", "pre_measure"), default="post_prep"
    )
    p_noise.add_argument("--metric", choices=("strict", "conditional"), default="strict")
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
        return RunConfig(
            graph=args.graph,
            channel=args.channel,
            correction=args.correction,
            p_grid=_parse_p_grid(args.p),
            compare=args.compare,
            insertion=args.insertion,
            metric=args.metric,
            **common,
        )
    if args.cmd == "lc":
        return RunConfig(
            state_a=args.a, state_b=args.b, cuts=tuple(args.cut), **common
        )
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
