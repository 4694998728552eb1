"""Objectivity diagnostics for finite-dimensional system-environment states."""

from .core import (
    DensityMatrix,
    ProjectiveMeasurement,
    PureState,
    SubsystemLayout,
    dephase_subsystem,
    eig_hermitian,
    load_state,
    partial_trace,
    save_state,
    tensor,
    validate_density_matrix,
    validate_factor,
    validate_pure_state,
)
from .measures import (
    AccessibleInfoBounds,
    MeasureValue,
    PointerEnsemble,
    accessible_information_bounds,
    branch_decomposition,
    conditional_mutual_information,
    discord,
    entropy_bits,
    fidelity,
    holevo_quantity,
    mutual_information,
    pointer_basis,
    pointer_ensemble,
    trace_distance,
    von_neumann_entropy,
)
from .objectivity import (
    IndependenceVerdict,
    ObjectivityReport,
    RedundancyReport,
    SbsVerdict,
    SqdVerdict,
    TheoremWitness,
    analyze,
    broadcast_distance_bound,
    check_strong_darwinism,
    check_strong_independence,
    detect_broadcast_structure,
    objectivity_deficit,
    redundancy,
    verify_equivalence,
)
from .optimize import DEFAULT_OPT, OptimizerConfig
from .zoo import (
    SbsSpec,
    make_broadcast_state,
    make_cq_state,
    make_correlated_branches,
    make_entangled_branches,
    make_ghz_reduced,
    make_haar_pure,
    make_horodecki,
    make_random_broadcast_state,
    make_random_density,
    std_layout,
)

__version__ = "0.1.0"
