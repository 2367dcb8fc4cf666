"""Quantum states as probability densities on complex projective space,
with deterministic Monte Carlo estimators for their entropies and
classical-like mutual information."""

__version__ = "0.1.0"

from .errors import (
    BadParameter,
    BaseMismatch,
    DimensionMismatch,
    EigenDecompositionFailure,
    InvalidFrame,
    MarginalZeroAnomaly,
    NonFiniteSample,
    NotHermitian,
    NotPositive,
    ProjmiError,
    ReconstructionOutOfTolerance,
    TraceNotOne,
    UnknownFamily,
    UsageError,
    ValidationError,
    ZeroVector,
)
from .infomeasures import (
    JointDensity,
    MIReport,
    classical_like_mi_gaussian,
    classical_like_mi_projective,
    differential_entropy_mu,
    entropy_decomposition_mi,
    joint_density_eval,
    marginal_density,
    maxent_mi_closed_form,
    mi_estimates,
    mi_report,
    pure_state_entropy_gaussian,
    pure_state_entropy_gaussian_constant,
)
from .montecarlo import (
    MCEstimate,
    SamplerConfig,
    gaussian_expectation,
    gaussian_pair_expectation,
    gaussian_sample,
    integrate_mu,
    integrate_nu,
    integrate_product_nu,
    pair_rows,
    reconstruct_density_matrix,
)
from .projective import (
    Frame,
    LiouvilleDensity,
    ObservableFunction,
    ProjectivePoint,
    TangentVector,
    complex_structure,
    frame_sum,
    fs_distance,
    fs_metric,
    liouville_density,
    observable_function,
    project,
    random_frame,
    schrodinger_flow,
    segre,
    symplectic_form,
)
from .states import (
    BipartiteDims,
    DensityMatrix,
    HermitianOperator,
    SeparableMixture,
    assemble,
    basis_pure,
    haar_unitary,
    make_state,
    maximally_entangled,
    mixed_random,
    partial_trace,
    pure_random,
    random_mixture,
    substream,
    tensor,
    validate_density,
    vn_mutual_information,
    von_neumann_entropy,
)
from .structure import is_product, ppt_check, restricted_density

__all__ = [name for name in dir() if not name.startswith("_")]
