"""Entanglement and optical-nonclassicality measures for multimode bosonic states.

Two state representations are supported: Gaussian states given by quadrature
mean and covariance, and truncated Fock-space states.  On top of the
measures (entanglement entropy, logarithmic negativity, total noise per
mode, quadrature coherence scale) the package evaluates the inequalities
tying them together, solves the equal-entropy photon split they involve,
and ships sweep and audit drivers plus a command line front end.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCheck,
    NAStarSolution,
    classical_checks,
    coherence_scale_checks,
    entanglement_check,
    g,
    g_prime,
    gaussian_pure_bound,
    log_negativity_qcs_bound,
    log_negativity_qcs_refined,
    mtn_floor_from_entanglement,
    na_star_asymptotic,
    qcs_implication_report,
    solve_na_star,
    split_bound_asymptotic,
    theorem_split_bound,
    theorem_symmetric_bound,
)
from .errors import (
    AsymmetricInputError,
    AuditViolationError,
    CovarianceOverflowError,
    CutoffOverflowError,
    MixedStateError,
    NonPositiveDefiniteError,
    SchemaError,
    TruncationError,
    UnphysicalStateError,
)
from .experiments import (
    AuditReport,
    beam_splitter_fock,
    beam_splitter_sweep,
    bound_profile_sweep,
    counterexample_demo,
    load_nastar_envelope,
    random_audit,
    split_accuracy_sweep,
)
from .fock import (
    FockDensityOperator,
    FockPureState,
    apply_beam_splitter_fock,
    beam_splitter_block,
    entanglement_entropy,
    entanglement_measures_pure,
    fock_from_dict,
    fock_to_dict,
    load_fock,
    make_counterexample_states,
    make_fock_coherent,
    make_fock_number,
    make_fock_squeezed,
    make_fock_thermal,
    make_fock_tmsv,
    mtn_pure,
    number_preserving_permutation,
    number_preserving_phases,
    qcs2_fock,
    saturating_family,
    save_fock,
    schmidt_coefficients,
    squeezed_cutoff,
    thermal_cutoff,
    tmsv_cutoff,
    total_noise,
)
from .gaussian import (
    GaussianState,
    MeasureReport,
    apply_beam_splitter,
    entanglement_entropy_gaussian,
    gaussian_from_dict,
    gaussian_measures,
    gaussian_to_dict,
    load_gaussian,
    log_negativity_gaussian,
    make_squeezed,
    make_thermal,
    make_tmsv,
    make_vacuum,
    purity,
    qcs2_gaussian,
    random_classical_state,
    random_gaussian_state,
    random_symplectic,
    save_gaussian,
    tensor,
)
from .symplectic import (
    Bipartition,
    check_physicality,
    default_bipartition,
    omega,
    partial_transpose,
    symplectic_eigenvalues,
    validate_covariance,
)
