"""Command-line front end: verification reports, noise curves, rank
comparisons, and hardware-count post-processing.

Exit codes: 0 success (and verification pass), 1 verification failure,
2 usage error (bad arguments, unknown graph, inapplicable correction,
malformed input files), 3 resource budget exceeded, 141 a closed pipe.

Output is deterministic: JSON with sorted keys for structured reports,
CSV with a header row and 12 significant digits for plot-ready curves.
Every command hands _write, the one function that picks the format and
the destination, one lazy generator of text pieces per format, so no
command holds its whole output.
Every command runs in one thread; --jobs is still accepted, must be a
positive integer, and is otherwise ignored, so that existing scripts
keep running.

The command line is parsed from one table, COMMANDS, which maps each
option to the RunConfig field it fills, with its type, choices, default
and help; parse_args reads it for parsing, defaults and --help alike,
with no argparse.  An option may be abbreviated to a unique prefix and
written as --flag value or --flag=value, and a later use of it wins.
Importing this module loads pqw.graphs and no engine, so help, version
and usage errors load none; a command imports the engine it runs when it
runs: verify and lc pqw.verify, noise and counts pqw.noise, which loads
pqw.verify and pqw.protocol only when a sweep runs, so counts and
noise --compare load neither.  Files are read and written with open,
and a path is quoted in a message as given; a file whose text does not
decode or parse is refused with its path in front of the error.
"""

import contextlib
import itertools
import math
import os
import sys
from collections import namedtuple

from . import __version__
from .graphs import (
    CHANNEL_ALIASES,
    CORRECTION_KINDS,
    INSERTION_POINTS,
    METRICS,
    CatalogError,
    Graph,
    ResourceError,
    TABLE_ORDER,
    _index_of,
    catalog_lookup,
    parse_edge_list,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended

# the three transmitted-qubit counts of the standard comparison plot:
# one Bell pair, a four-party GHZ from one central source, and the
# four-vertex path protocol with six resource qubits
COMPARE_CURVES = (("Bell", 1), ("GHZ4", 2), ("L4", 6))

# the most points a --p range may hold; checked before the grid is built
MAX_P_POINTS = 100_000

# the most outcome records verify lists for one graph (4^9: any graph of
# at most nine edges; checked before the walk runs), and holds at a time
MAX_VERIFY_RECORDS = 4**9
PIECE = 4096


class UsageError(ValueError):
    """Inconsistent or malformed command configuration."""


# One fully resolved command invocation; parse_args, its only
# constructor, refuses inconsistent flags.  Every field after command has
# the default given here.
_RUN_DEFAULTS = dict(
    graph=None, correction=CORRECTION_KINDS[0], channel=None, p_grid=None, compare=None,
    insertion=INSERTION_POINTS[0], metric=METRICS[0], fmt="json", out=None, cuts=(), state_a=None,
    state_b=None, counts_path=None, ideal_path=None, k=None, fidelity=None, unsquared=False,
)
RunConfig = namedtuple("RunConfig", ("command", *_RUN_DEFAULTS), defaults=_RUN_DEFAULTS.values())


def _parse_p_grid(spec: str) -> tuple[float, ...]:
    """Either a single value or an inclusive start:stop:step range."""
    try:
        values = tuple(float(x) + 0.0 for x in spec.split(":"))  # + 0.0 turns -0 into 0
    except ValueError:  # a field that is not a number
        values = ()
    if len(values) not in (1, 3):
        raise UsageError(f"bad p spec {spec!r}; expected P or START:STOP:STEP")
    if not all(math.isfinite(x) for x in values):
        raise UsageError(f"p values must be finite, got {spec!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise UsageError(f"p step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"p range is empty: {spec!r}")
    # keep start + i * step while it is <= stop + slack, a float-error
    # allowance below a step, rounded to decimals that merge no two points
    slack = min(1e-9, step / 1000)
    decimals = max(12, 3 - math.floor(math.log10(step)))
    span = (stop - start + slack) / step
    if not span < MAX_P_POINTS:
        points = f"{span + 1:.0f}" if span < 1e15 else f"about {span:.3g}"
        raise UsageError(
            f"p range {spec!r} has {points} points; the limit is {MAX_P_POINTS}"
        )
    grid: dict[float, None] = {}  # an ordered set: x repeats while it does not move
    # bounded by the count above: a step below the float spacing at start
    # would never move x past stop
    for i in range(int(span) + 2):
        x = start + i * step
        if x > stop + slack:
            break
        grid[round(x, decimals)] = None
    return tuple(grid)


def _read(path: str, parse):
    """parse applied to the text of the file at path; a ValueError that
    decoding or parse raises is refused with the path in front."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            return parse(f.read())
        except ValueError as err:
            raise UsageError(f"{path}: {err}") from None


def _resolve_graph(spec: str) -> tuple[str, Graph]:
    """A selector's name and graph: a catalog name names itself, and an
    @file its stem, the file name up to its last dot unless that dot
    leads or ends the name."""
    if spec.startswith("@"):
        path = spec[1:]
        name = os.path.basename(path)
        dot = name.rfind(".")
        stem = name[:dot] if 0 < dot < len(name) - 1 else name
        return stem, _read(path, parse_edge_list)
    return spec, catalog_lookup(spec)


def _parse_cut(spec: str, labels: tuple[str, ...]) -> frozenset[int]:
    """The vertex indices of side A.  AC|BD puts vertices A,C on one side
    and B,D on the other; comma separation supports multi-character
    labels, and a side that is one label names that vertex."""
    halves = spec.split("|")
    if len(halves) != 2:
        raise UsageError(f"bad cut {spec!r}; expected SIDE|SIDE")
    index = _index_of(labels)

    def side(text: str) -> frozenset[int]:
        if text in index:
            names = [text]
        else:
            names = text.split(",") if "," in text else list(text)
        out = set()
        for nm in names:
            if nm not in index:
                raise UsageError(f"cut label {nm!r} not among the {len(labels)} vertices of --a")
            out.add(index[nm])
        return frozenset(out)

    a, b = side(halves[0]), side(halves[1])
    if a | b != frozenset(range(len(labels))) or a & b or not (a and b):
        raise UsageError(f"cut {spec!r} must split the vertices into two disjoint non-empty sides")
    return a


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _csv_field(text: str) -> str:
    """A field as RFC 4180 writes it: quoted, with its quotes doubled,
    when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(header: tuple[str, ...], rows):
    lines = itertools.chain((header,), rows)
    while batch := tuple(itertools.islice(lines, PIECE)):
        yield "\n".join([",".join(map(_csv_field, row)) for row in batch]) + "\n"


def _render_json(obj):
    import json  # here, so that no CSV run loads it

    chunks = itertools.chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj), ("\n",))
    while piece := "".join(itertools.islice(chunks, PIECE)):
        yield piece


def _write(config: RunConfig, json_pieces, csv_pieces) -> int:
    """The one writer of every command: the pieces of the generator that
    --format names, as they come, to stdout or --out.  The other never
    runs, so a JSON run formats no CSV field and a CSV run loads no json.
    A piece joins up to PIECE records, lines or JSON chunks, so even an
    unbuffered stdout takes few writes."""
    stdout = contextlib.nullcontext(sys.stdout)  # which the with leaves open
    with stdout if config.out is None else open(config.out, "w", encoding="utf-8") as f:
        f.writelines(json_pieces if config.fmt == "json" else csv_pieces)
        f.flush()  # so that a closed pipe raises here, not at exit
    return EXIT_PASS


# -- commands ----------------------------------------------------------------


def _outcome_text(reports: list, pieces: list[str], entry, sep=""):
    """pieces[0], then each report's outcomes, one entry each with sep
    between, followed by the next piece.  Entries of one run of equal
    fidelity differ only in their index: entry(report) maps a fidelity to
    the (head, tail) about the index text, and a run is joined in pieces cut
    at multiples of PIECE, over the first PIECE index texts or converted ones."""
    index_text = list(map(str, range(min(PIECE, max(r.outcome_count for r in reports)))))
    yield pieces[0]
    for report, piece in zip(reports, pieces[1:]):
        around, lead = entry(report), ""
        for start, stop, fidelity in report.fidelity_runs():
            head, tail = around(fidelity)
            while start < stop:
                cut = min(stop, start - start % PIECE + PIECE)
                texts = index_text[start:cut] if cut <= PIECE else map(str, range(start, cut))
                yield lead + head + (tail + sep + head).join(texts) + tail
                lead, start = sep, cut
        yield piece


def _verify_csv(reports: list):
    """The verify CSV, one line per outcome, from VerificationReports."""

    def entry(r):
        name, probability = _csv_field(r.graph_name) + ",", _fmt(1.0 / r.outcome_count)
        return lambda f: (name, f",{probability},{_fmt(f)}\n")

    header = "graph,outcome_index,probability,fidelity\n"
    return _outcome_text(reports, [header] + [""] * len(reports), entry)


def _verify_json(reports: list):
    """The verify JSON as _render_json writes it, one record per outcome.
    The payload is rendered with each report's records as one null on a
    line of its own, which no other field can write, and the records,
    joined piece by piece, replace it; json writes a float as its repr."""
    fields = [
        dict(graph=r.graph_name, correction=r.correction_kind, outcome_count=r.outcome_count,
             min_fidelity=r.min_fidelity, max_fidelity=r.max_fidelity, passed=r.passed,
             # kept so the bytes stay: every probability is exactly 1/outcome_count
             max_probability_deviation=0.0, records=[None])
        for r in reports
    ]
    single = len(reports) == 1
    pad = " " * (4 if single else 8)  # a record's indent

    def entry(r):
        tail = f',\n{pad}  "probability": {1.0 / r.outcome_count!r}\n{pad}}}'
        return lambda f: (f'\n{pad}{{\n{pad}  "fidelity": {f!r},\n{pad}  "index": ', tail)

    payload = {"all_passed": all(r.passed for r in reports), "reports": fields}
    text = "".join(_render_json(fields[0] if single else payload))
    yield from _outcome_text(reports, text.split(f"\n{pad}null"), entry, ",")


def cmd_verify(config: RunConfig) -> int:
    from .verify import verify_all_outcomes

    reports = []
    for spec in TABLE_ORDER if config.graph == "all" else (config.graph,):
        name, graph = _resolve_graph(spec)
        if graph.outcome_count() > MAX_VERIFY_RECORDS:
            raise ResourceError(
                f"{name}: 4^{graph.n_edges} outcome records exceed the ceiling of "
                f"{MAX_VERIFY_RECORDS:,}"
            )
        try:
            reports.append(verify_all_outcomes(graph, config.correction, name=name))
        except ValueError as err:  # a correction kind that does not apply
            raise UsageError(f"{name}: {err}") from None
    _write(config, _verify_json(reports), _verify_csv(reports))
    for rep in reports:  # the first counterexample of each failing report
        index = rep.first_failure()
        if index is not None:
            print(f"pqw: {rep.graph_name}: outcome {index} has fidelity 0", file=sys.stderr)
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def cmd_noise(config: RunConfig) -> int:
    from .noise import f_star_dep, noise_sweep

    if config.compare is not None:
        curves = [
            {"name": name, "k": k, "p": p, "F": f_star_dep(p, k)}
            for p in config.p_grid
            for name, k in COMPARE_CURVES
        ]
        rows = ((c["name"], str(c["k"]), _fmt(c["p"]), _fmt(c["F"])) for c in curves)
        return _write(config, _render_json(curves), _render_csv(("name", "k", "p", "F"), rows))

    name, graph = _resolve_graph(config.graph)
    report = noise_sweep(
        graph,
        config.channel,
        config.p_grid,
        correction_kind=config.correction,
        insertion=config.insertion,
        metric=config.metric,
    )
    payload = {
        "graph": name,
        "channel": CHANNEL_ALIASES[config.channel],
        "correction": config.correction,
        "insertion": config.insertion,
        "metric": config.metric,
        "k": report.k,
        "p_grid": list(report.p_grid),
        "fidelities": list(report.fidelities),
        "analytic": None if report.analytic is None else list(report.analytic),
    }
    analytic = payload["analytic"] or [None] * len(report.p_grid)
    rows = (
        (_fmt(p), _fmt(f), "" if a is None else _fmt(a))
        for p, f, a in zip(payload["p_grid"], payload["fidelities"], analytic)
    )
    return _write(config, _render_json(payload), _render_csv(("p", "F_exact", "F_analytic"), rows))


def cmd_lc(config: RunConfig) -> int:
    from .verify import lc_check

    name_a, graph_a = _resolve_graph(config.state_a)
    name_b, graph_b = _resolve_graph(config.state_b)
    cuts = [_parse_cut(spec, graph_a.vertices) for spec in config.cuts]
    # lc_check names both counts when they differ; else a cut, given by
    # --a's labels, must split --b by the same labels, not the same indices
    if graph_b.n_vertices == graph_a.n_vertices:
        labels_b = set(graph_b.vertices)
        for v in graph_a.vertices:
            if v not in labels_b:
                raise UsageError(f"--b has no vertex {v!r} of --a")
        graph_b = Graph(graph_a.vertices, graph_b.edges)
    report = lc_check(graph_a, graph_b, cuts)
    payload = {
        "a": name_a,
        "b": name_b,
        "cuts": [
            {"cut": spec, "rank_a": rec.rank_a, "rank_b": rec.rank_b}
            for spec, rec in zip(config.cuts, report.records)
        ],
        "inequivalent": report.inequivalent,
    }
    rows = ((c["cut"], str(c["rank_a"]), str(c["rank_b"])) for c in payload["cuts"])
    return _write(config, _render_json(payload), _render_csv(("cut", "rank_a", "rank_b"), rows))


def _load_json_map(path: str, value_type) -> dict:
    import json

    data = _read(path, json.loads)
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
    from .noise import bhattacharyya_fidelity, extract_p_eff

    if config.fidelity is not None:
        fidelity = config.fidelity
    else:
        counts = _load_json_map(config.counts_path, int)
        ideal = _load_json_map(config.ideal_path, float)
        fidelity = bhattacharyya_fidelity(counts, ideal, squared=not config.unsquared)
    payload = {"fidelity": fidelity, "k": config.k, "p_eff": extract_p_eff(fidelity, config.k)}
    rows = ((_fmt(r["fidelity"]), str(r["k"]), _fmt(r["p_eff"])) for r in (payload,))
    return _write(config, _render_json(payload), _render_csv(("fidelity", "k", "p_eff"), rows))


# -- argument parsing --------------------------------------------------------


# One option of a command: the RunConfig field its value fills, what
# --help prints for it, the type its text converts to (None for a switch,
# which takes no text), the texts it accepts, its default, whether it is
# required, and whether each use appends to a tuple.
Option = namedtuple(
    "Option", "field help type choices default required repeat",
    defaults=("", str, (), None, False, False),
)


def _common(fmt: str) -> dict[str, Option]:
    return {
        "--format": Option("fmt", choices=("json", "csv"), default=fmt),
        "--out": Option("out", "output file (default stdout)"),
        # not a RunConfig field: parse_args checks it and drops it
        "--jobs": Option("jobs", "ignored: every command runs in one thread", type=int),
    }


# command -> (summary, options).  A default is filled in after the
# checks, which see only the options given.
COMMANDS = {
    "verify": ("enumerate every outcome and check the corrected state", {
        "--graph": Option("graph", "catalog name, @edge-list-file, or 'all'", required=True),
        "--correction": Option("correction", choices=CORRECTION_KINDS, default=CORRECTION_KINDS[0]),
        **_common("json"),
    }),
    "noise": ("exact noisy fidelity curves", {
        "--graph": Option("graph", "catalog name or @edge-list-file (default P4)"),
        "--channel": Option("channel", choices=tuple(CHANNEL_ALIASES)),
        "--correction": Option("correction", choices=CORRECTION_KINDS, default=CORRECTION_KINDS[0]),
        "--p": Option("p_grid", "value or START:STOP:STEP", required=True),
        "--insertion": Option("insertion", choices=INSERTION_POINTS, default=INSERTION_POINTS[0]),
        "--metric": Option("metric", choices=METRICS, default=METRICS[0]),
        "--compare": Option("compare", "closed-form curves, not one graph", choices=("fig4",)),
        **_common("csv"),
    }),
    "lc": ("Schmidt ranks across cuts for two states", {
        "--a": Option("state_a", "L4, GHZ4, catalog name, or @file", required=True),
        "--b": Option("state_b", "same selectors as --a", required=True),
        "--cut": Option("cuts", "vertex split like AC|BD; repeatable", required=True, repeat=True),
        **_common("json"),
    }),
    "counts": ("fidelity and effective p from counts", {
        "--counts": Option("counts_path", "JSON file bitstring->count"),
        "--ideal": Option("ideal_path", "JSON file bitstring->probability"),
        "--fidelity": Option("fidelity", "direct mode", type=float),
        "--k": Option("k", "resource-qubit count", type=int, required=True),
        "--unsquared": Option("unsquared", "file mode: the unsquared overlap", type=None),
        **_common("json"),
    }),
}
HELP_FLAGS = ("-h", "--help")


def _help(command: str | None) -> str:
    if command is None:
        usage = "[--version] {" + ",".join(COMMANDS) + "} ..."
        summary = (
            "Exact verification and noise analysis of the phase-walk graph-state "
            "distribution protocol."
        )
        entries = [(name, text) for name, (text, _) in COMMANDS.items()]
        entries.append(("--version", "print the version and exit"))
    else:
        usage = command + " [options]"
        summary, options = COMMANDS[command]
        entries = []
        for flag, opt in options.items():
            if opt.choices:
                flag += " {" + ",".join(opt.choices) + "}"
            elif opt.type is not None:
                flag += " " + flag[2:].upper()
            text = opt.help + (" (required)" if opt.required else "")
            if opt.default is not None:
                text += f" (default {opt.default})"
            entries.append((flag, text.strip()))
    entries.insert(0, ("-h, --help", "show this help and exit"))
    lines = [f"usage: pqw {usage}", "", summary, ""]
    lines += [f"  {name}\n      {text}" if text else f"  {name}" for name, text in entries]
    return "\n".join(lines) + "\n"


def _is_value(token: str) -> bool:
    """Whether token can be an option's value: "-" and negative numbers
    can, any other token that starts with "-" is an option."""
    return not token.startswith("-") or token == "-" or token[1] in "0123456789."


def _match(flag: str, names) -> str:
    """The one name that flag spells, in full or as a unique prefix of at
    least one letter after "--"."""
    if flag in names:
        return flag
    found = [name for name in names if name.startswith(flag)] if len(flag) > 2 else []
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {flag} could match {', '.join(found)}")
    if not found:
        raise UsageError(f"unrecognized arguments: {flag}")
    return found[0]


def parse_args(argv: list[str]) -> RunConfig | str:
    """The RunConfig that argv asks for, or the help or version text it
    asks for; any other argv raises UsageError."""
    if not argv:
        raise UsageError(f"a command is required: {', '.join(COMMANDS)}")
    command = argv[0]
    if not _is_value(command):
        if _match(command, (*HELP_FLAGS, "--version")) == "--version":
            return f"pqw {__version__}\n"
        return _help(None)
    if command not in COMMANDS:
        raise UsageError(f"invalid command {command!r}; choose from {', '.join(COMMANDS)}")
    options = COMMANDS[command][1]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if _is_value(token):
            raise UsageError(f"unrecognized arguments: {token}")
        flag, equals, text = token.partition("=")
        flag = _match(flag, (*options, *HELP_FLAGS))
        if flag in HELP_FLAGS:
            return _help(command)
        opt = options[flag]
        if opt.type is None:
            if equals:
                raise UsageError(f"argument {flag}: takes no value, got {text!r}")
            given[opt.field] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None or not _is_value(text):
                raise UsageError(f"argument {flag}: expected one argument")
        try:
            value = opt.type(text)
            if opt.choices and value not in opt.choices:
                raise ValueError(text)
        except ValueError:
            expected = f"one of {', '.join(opt.choices)}" if opt.choices else opt.type.__name__
            message = f"argument {flag}: invalid value {text!r}; expected {expected}"
            raise UsageError(message) from None
        given[opt.field] = given.get(opt.field, ()) + (value,) if opt.repeat else value
    missing = [f for f, opt in options.items() if opt.required and opt.field not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")

    jobs = given.pop("jobs", None)
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    if command == "noise":
        if "compare" not in given:
            if "channel" not in given:
                raise UsageError("noise needs --channel (or --compare)")
            given.setdefault("graph", "P4")
        else:
            # the options only a --channel run reads, in the order named
            for field in ("channel", "graph", "correction", "insertion", "metric"):
                if field in given:
                    raise UsageError(f"--compare and --{field} are mutually exclusive")
        given["p_grid"] = _parse_p_grid(given["p_grid"])
    elif command == "counts":
        file_mode = "counts_path" in given or "ideal_path" in given
        if file_mode and "fidelity" in given:
            raise UsageError("--fidelity excludes --counts/--ideal")
        if file_mode and not ("counts_path" in given and "ideal_path" in given):
            raise UsageError("file mode needs both --counts and --ideal")
        if not file_mode and "fidelity" not in given:
            raise UsageError("counts needs either --counts/--ideal or --fidelity")
        if not file_mode and "unsquared" in given:
            raise UsageError("--unsquared applies only to --counts/--ideal")
    defaults = {opt.field: opt.default for opt in options.values() if opt.default is not None}
    return RunConfig(command, **{**defaults, **given})


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else list(argv))
        if isinstance(config, str):  # the help or version text
            sys.stdout.write(config)
            return EXIT_PASS
        run = {"verify": cmd_verify, "noise": cmd_noise, "lc": cmd_lc, "counts": cmd_counts}
        return run[config.command](config)
    except ResourceError as err:
        print(f"pqw: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # the reader has gone; stdout goes to os.devnull, so exit flushes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (UsageError, CatalogError, ValueError, OSError) as err:
        # CatalogError carries a quoted message; unwrap the KeyError repr
        message = err.args[0] if isinstance(err, CatalogError) else err
        print(f"pqw: {message}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
