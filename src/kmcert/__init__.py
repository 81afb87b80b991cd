"""Relaxed fixed-point iterations of non-expansive operators, inexact and
non-stationary, with splitting-method front ends and run certification
against pointwise, ergodic and local linear convergence bounds."""

from .bounds import (
    BoundConstants,
    SubRegularityModel,
    Violation,
    empirical_constants,
    ergodic_bound,
    fit_tail_rate,
    gd_theoretical_rate,
    local_zeta,
    local_zeta_averaged,
    pointwise_bound,
    trace_displacement_bounds,
    verify_series,
    verify_trace,
)
from .errors import (
    DivergenceError,
    KmcertError,
    NumericalError,
    ParameterError,
    StructuralError,
    UnavailableError,
)
from .km import (
    ErrorSchedule,
    FixedPointSet,
    GammaSchedule,
    IterationTrace,
    RelaxationSchedule,
    StopRule,
    displacements,
    ergodic_residual,
    run_km,
    run_km_nonstationary,
)
from .operators import (
    OperatorSpec,
    QuadraticFn,
    check_averaged,
    check_firmly_nonexpansive,
    combine,
    compose2,
    gradient_step,
    identity_operator,
    moreau_envelope_gradient,
    project_box,
    project_subspace,
    prox_l1,
    relax,
    residual,
    scaled_residual,
    vector_operator,
    zero_operator,
)
from .spaces import (
    ProductPoint,
    ProductSpace,
    lift,
    project_diagonal,
    reflect_diagonal,
    weighted_inner,
    weighted_norm,
)
from .splitting import (
    BoxBlock,
    CocoerciveMap,
    DrsSpec,
    GfbSpec,
    L1Block,
    LinearBlock,
    PdsDualTerm,
    PdsSpec,
    SubspaceBlock,
    ZeroBlock,
    build_drs,
    build_gfb,
    build_gfb_nonstationary,
    build_pds,
    drs_certificate,
    drs_certificate_series,
    gfb_certificate,
    gfb_certificate_series,
    gfb_ergodic_certificate,
    matrix_norm,
    pds_candidate,
    pds_certificate_series,
)

__version__ = "0.1.0"
