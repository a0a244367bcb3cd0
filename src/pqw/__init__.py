"""Exact desk-scale simulation and verification of a phase-quantum-walk
graph-state distribution protocol.

The package builds the protocol circuit for any connected target graph,
enumerates every measurement outcome, applies a correction formula, and
checks the delivered state against the target: fidelities, outcome
statistics, sign bookkeeping, noise curves, and Schmidt-rank
separations, all computed exactly.  An outcome is its big-endian index
in [0, 4^|E|), a correction plan is its per-vertex (x, z) outcome-bit
forms, and the sign of a stabilizer K_v is one int, the GF(2) sign form
sigma_v << 1 | odd_v over the outcome bits (pqw.protocol defines it);
the package keeps no object per Pauli string.

Every exported name, and every submodule, loads on first access, so
``import pqw.cli`` loads only pqw.graphs, and a command loads the engine
it runs when it runs; no module imports typing or pathlib.  Every command
runs on one symbolic engine, the circuit run backwards in the Heisenberg
picture (pqw.protocol), and the package imports nothing outside the
standard library.
"""

__version__ = "0.1.0"

# every exported name, by the submodule that defines it
_EXPORTS = {
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
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULE_OF.update((module, module) for module in ("cli", *_EXPORTS))


def __getattr__(name: str):
    # PEP 562: runs only for names not yet bound here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # not "from . import": that asks this hook for the name again
    loaded = importlib.import_module(f".{module}", __name__)
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
