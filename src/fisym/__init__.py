"""Measurement designs, Fisher-information bounds, and qubit tomography
simulation for single-copy and collective two-copy schemes."""

from .matcore import (
    antisym_projector,
    kron,
    mat_power,
    partial_trace,
    swap_operator,
    sym_projector,
)
from .states import (
    AffineMixed,
    BlochQubit,
    DensityMatrix,
    Parametrization,
    PureCanonical,
    PureState,
    density_from_bloch,
    fidelity,
    gell_mann_basis,
    qfi_matrix,
    qubit_fidelity,
    sld,
    tangent_ops,
)
from .designs import (
    DesignCertificate,
    GsicReport,
    OperatorSet,
    WeightedStateSet,
    clifford_group_qubit,
    g2design_from_unitary_design,
    generalized_2design_check,
    generalized_sic_check,
    mub,
    mub_state_set,
    projective_2design_check,
    sic_d3,
    sic_qubit,
)
from .povm import (
    CoherenceReport,
    Povm,
    PovmReport,
    TightCoherentReport,
    classify_coherent,
    collective_sic_qubit,
    companion_povm,
    great_circle_qubit,
    marginal_Q,
    minimal_tight_coherent_d3,
    tight_coherent_check,
    tight_coherent_from_designs,
    twocopy_design_povm,
    validate_povm,
)
from .fisher import (
    FisherReport,
    GmVerdict,
    SymmetryReport,
    fisher_fd_oracle,
    fisher_matrix,
    fisher_report,
    fisher_symmetry_check,
    gm_bound,
    gm_check,
    gm_value,
    optimal_fisher,
    outcome_probs,
    wmse_bound,
)
from .tomosim import (
    SimConfig,
    SimResult,
    SweepConfig,
    asymptotic_metrics,
    run_simulation,
    scheme_povm,
    sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"
