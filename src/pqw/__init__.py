"""Exact desk-scale simulation and verification of a phase-quantum-walk
graph-state distribution protocol.

The package builds the protocol circuit for any connected target graph,
enumerates every measurement outcome, applies a correction formula, and
checks the delivered state against the target: fidelities, outcome
statistics, sign bookkeeping, noise curves, and Schmidt-rank
separations, all computed exactly.
"""

from .graphs import (
    CatalogError,
    Graph,
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
    extract_sign,
    measure_z,
    zero_state_tableau,
)
from .statevector import (
    Bipartition,
    ResourceError,
    StateVector,
    ZeroProbabilityError,
    apply_gate,
    fidelity,
    from_amplitudes,
    measure_project,
    new_plus,
    new_zero,
    schmidt_rank,
)
from .verify import (
    LcReport,
    VerificationReport,
    lc_check,
    noise_sweep,
    phase_lemma_check,
    verify_all_outcomes,
)

__version__ = "0.1.0"
