"""Outside-in tracer: spans around calls into pqw's public functions.

Nothing under ``src/`` knows about it.  ``install`` replaces each
function named in ``TRACED`` with a timing wrapper at every ``pqw``
module namespace that binds it: modules import by name, so
``pqw.verify.run_protocol`` is wrapped as well as
``pqw.protocol.run_protocol``.  Calls a module makes to its own helpers
that are not listed stay inside the caller's span.

A span is (name, start, end, parent, job): start and end in
``perf_counter_ns`` units, parent the index of the enclosing span in the
same thread (-1 for a root).  Spans stay in memory and are written once,
when the job ends.  ``derive`` turns the spans of one job into per-layer
figures; self time is a span's duration minus the duration of its
children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

# module -> public functions whose calls become spans.  These are the
# layer boundaries the benchmark reports; graphs' functions are listed so
# that its module roll-up is measured too.
TRACED = {
    "cli": ("main",),
    "verify": ("verify_all_outcomes", "phase_lemma_check", "noise_sweep"),
    "noise": ("noisy_protocol_fidelity",),
    "protocol": (
        "build_layout",
        "run_protocol",
        "run_protocol_tableau",
        "correction_plan",
        "apply_correction",
    ),
    "statevector": ("apply_gate", "fidelity"),
    "stabilizer": ("conjugate", "measure_z", "extract_sign"),
    "graphs": ("catalog_lookup", "graph_state", "stabilizer_generators"),
}

# Bytes computed, not measured: a gate reads the input amplitudes and
# writes an output array of the same size.
BYTES_OF = {"statevector.apply_gate": lambda args: 2 * args[0].amplitudes.nbytes}


class Spans:
    """In-memory span store for one job process."""

    def __init__(self):
        self.names: list[str] = []
        self.records: list[tuple[int, int, int, int] | None] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        records = self.records
        local = self._local
        clock = time.perf_counter_ns
        size_of = BYTES_OF.get(name)
        byte_counts = self.bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if size_of is not None:
                byte_counts[name] += size_of(args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records[index] = (name_id, start, end, parent)

        return traced

    def dump(self, path: str, job: int) -> None:
        columns = list(zip(*self.records)) if self.records else [(), (), (), ()]
        with open(path, "w") as fh:
            json.dump(
                {
                    "job": job,
                    "names": self.names,
                    "name": columns[0],
                    "start": columns[1],
                    "end": columns[2],
                    "parent": columns[3],
                    "bytes": dict(self.bytes),
                },
                fh,
            )


def install() -> Spans:
    """Import pqw and wrap every function in TRACED wherever pqw binds it.

    A listed module or function the package no longer defines is skipped;
    its figures then read zero.
    """
    spans = Spans()
    originals = {}
    for module, names in TRACED.items():
        try:
            mod = importlib.import_module(f"pqw.{module}")
        except ModuleNotFoundError:
            continue
        for fname in names:
            fn = getattr(mod, fname, None)
            if callable(fn):
                originals[id(fn)] = (fn, spans.wrap(f"{module}.{fname}", fn))
    for modname, mod in list(sys.modules.items()):
        if modname != "pqw" and not modname.startswith("pqw."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return spans


def load(path: str) -> tuple[list[tuple[str, int, int, int, int]], dict[str, int]]:
    """Spans of one job file as (name, start_ns, end_ns, parent, job),
    and its computed byte counts."""
    with open(path) as fh:
        raw = json.load(fh)
    names = raw["names"]
    return [
        (names[n], s, e, p, raw["job"])
        for n, s, e, p in zip(raw["name"], raw["start"], raw["end"], raw["parent"])
    ], raw["bytes"]


def derive(spans) -> dict[str, float]:
    """Per-layer figures of one job: ``<module>.<fn>.calls``,
    ``<module>.<fn>.self_s`` and the roll-up ``<module>.self_s``."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = defaultdict(int)
    for (name, start, end, _, _), children in zip(spans, child_ns):
        self_s = (end - start - children) / 1e9
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
    return dict(out)
