"""Exact desk-scale simulation and verification of a phase-quantum-walk
graph-state distribution protocol.

The package builds the protocol circuit for any connected target graph,
enumerates every measurement outcome, applies a correction formula, and
checks the delivered state against the target: fidelities, outcome
statistics, sign bookkeeping, noise curves, and Schmidt-rank
separations, all computed exactly.

The dense simulator's names (StateVector, apply_gate, ...) load
pqw.statevector, and with it numpy, on first access; the symbolic
engines and the noise sum never import either.
"""

__version__ = "0.1.0"

from .graphs import (
    CatalogError,
    Graph,
    ResourceError,
    TABLE_ORDER,
    catalog_lookup,
    catalog_names,
    ghz_state,
    graph_state,
    parse_edge_list,
    stabilizer_generators,
)
from .noise import (
    NoiseChannel,
    NoiseReport,
    bhattacharyya_fidelity,
    extract_p_eff,
    f_star_dep,
    f_star_pd,
    kraus_ops,
    noisy_protocol_fidelity,
    parse_channel,
    t1_damping_estimate,
)
from .protocol import (
    CorrectionPlan,
    Layout,
    Outcome,
    all_outcomes,
    apply_correction,
    build_layout,
    byproduct_step,
    c4_correction,
    corrected_fidelity,
    correction_forms,
    correction_plan,
    l4_correction,
    plans_equivalent,
    run_protocol,
    run_protocol_tableau,
    tree_correction,
    universal_correction,
)
from .stabilizer import (
    PauliString,
    Tableau,
    ZeroProbabilityBranch,
    check_stabilizes,
    conjugate,
    conjugate_circuit,
    extract_sign,
    extract_sign_forms,
    measure_z,
    zero_state_tableau,
)
from .verify import (
    LcReport,
    VerificationReport,
    lc_check,
    noise_sweep,
    phase_lemma_check,
    verify_all_outcomes,
)

_STATEVECTOR_EXPORTS = (
    "Bipartition",
    "StateVector",
    "ZeroProbabilityError",
    "apply_gate",
    "fidelity",
    "from_amplitudes",
    "measure_project",
    "new_plus",
    "new_zero",
    "schmidt_rank",
)


def __getattr__(name: str):
    # PEP 562: runs only for names not yet bound here
    if name == "statevector" or name in _STATEVECTOR_EXPORTS:
        import importlib

        # not "from . import": that asks this hook for the name again
        statevector = importlib.import_module(".statevector", __name__)
        value = statevector if name == "statevector" else getattr(statevector, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_STATEVECTOR_EXPORTS) | {"statevector"})
