"""Relaxed fixed-point iterations of non-expansive operators, inexact and
non-stationary, with splitting-method front ends and run certification
against pointwise, ergodic and local linear convergence bounds."""

from .bounds import (
    BoundConstants,
    EmpiricalConstants,
    Violation,
    ergodic_bound,
    fit_tail_rate,
    gd_theoretical_rate,
    local_zeta,
    local_zeta_averaged,
    pointwise_bound,
    verify_series,
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
)
from .operators import (
    CocoerciveMap,
    OperatorSpec,
    gradient_step,
    moreau_envelope_gradient,
    prox_l1,
    zero_operator,
)
from .spaces import ProductSpace
from .splitting import (
    BoxBlock,
    DrsBuilt,
    DrsCertificates,
    DrsSpec,
    GfbBuilt,
    GfbCertificates,
    GfbSpec,
    L1Block,
    LinearBlock,
    PdsBuilt,
    PdsCertificates,
    PdsDualTerm,
    PdsSpec,
    SubspaceBlock,
    ZeroBlock,
)

__version__ = "0.1.0"
