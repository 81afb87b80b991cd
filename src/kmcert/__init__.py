"""Relaxed fixed-point iterations of non-expansive operators, inexact and
non-stationary, with splitting-method front ends and run certification
against pointwise, ergodic and local linear convergence bounds."""

from .bounds import (
    BoundConstants,
    EmpiricalConstants,
    SubRegularityModel,
    Violation,
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
    DrsCertificates,
    DrsSpec,
    GfbCertificates,
    GfbErgodicCertificates,
    GfbSpec,
    L1Block,
    LinearBlock,
    PdsCertificates,
    PdsDualTerm,
    PdsSpec,
    SubspaceBlock,
    ZeroBlock,
    build_drs,
    build_gfb,
    build_gfb_nonstationary,
    build_pds,
    drs_certificate,
    gfb_certificate,
    matrix_norm,
)

__version__ = "0.1.0"
