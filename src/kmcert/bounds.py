"""Complexity bounds, local linear-rate models and trace certification.

Constants are computed as running suprema / partial sums over the executed
horizon and labeled empirical; for any recorded index the resulting bound is
at least as strict as the one with whole-sequence constants, which is the
conservative direction for certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ParameterError, UnavailableError
from .km import FixedPointSet, IterationTrace

DEFAULT_SLACK = 1e-10


@dataclass(frozen=True)
class BoundConstants:
    """Everything the pointwise / ergodic bounds need.

    ``tau_*`` are inf/sup of ``lam (c - lam)`` where ``c`` is 1 for a plain
    non-expansive target and ``1/alpha`` for a certified averaged one.
    ``nu1 = 2 sup ||relaxed step - z*|| + sup lam ||eps||`` and
    ``nu2 = 2 sup ||e_k - e_{k+1}||``;
    ``C1 = nu1 sum lam ||eps|| + nu2 tau_max sum (k+1) ||eps||`` and
    ``C2 = sum lam ||eps||``.
    """

    d0: float
    tau_min: float
    tau_max: float
    nu1: float
    nu2: float
    C1: float
    C2: float
    source: str = "empirical"

    def __post_init__(self):
        vals = (self.d0, self.nu1, self.nu2, self.C1, self.C2)
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise ParameterError("constants must be finite and non-negative")
        if not (np.isfinite(self.tau_min) and np.isfinite(self.tau_max)):
            raise ParameterError("tau_min and tau_max must be finite")
        if self.tau_min > self.tau_max + 1e-15:
            raise ParameterError("tau_min must not exceed tau_max")


@dataclass(frozen=True)
class SubRegularityModel:
    """Local linear model: a residual-to-distance modulus ``kappa`` valid on a
    neighborhood of the fixed-point set.  Rates on distances are reported as
    ``sqrt(zeta)``."""

    kappa: float
    radius: float = np.inf

    def __post_init__(self):
        if self.kappa <= 0:
            raise ParameterError("modulus must be positive")


@dataclass(frozen=True)
class Violation:
    k: int
    kind: str   # pointwise | ergodic | local | constants
    margin: float


def empirical_constants(trace: IterationTrace, fix_reference: FixedPointSet,
                        ) -> BoundConstants:
    """Constants measured over the executed horizon of a retained trace."""
    if trace.z_vecs is None or trace.e_vecs is None:
        raise UnavailableError("empirical constants need retained iterate/residual vectors")
    if fix_reference is None:
        raise UnavailableError("no fixed-point reference available")
    space = trace.space
    z0 = trace.z_vecs[0]
    z_star = fix_reference.nearest(z0)
    d0 = space.norm(z0 - z_star)

    c = 1.0 if trace.alpha is None else 1.0 / trace.alpha
    tau = trace.lam * (c - trace.lam)
    tau_min = float(tau.min())
    tau_max = float(tau.max())

    sup_relaxed = 0.0
    for k in range(trace.n_steps):
        relaxed = trace.z_vecs[k] - trace.e_vecs[k] * trace.lam[k]
        sup_relaxed = max(sup_relaxed, space.norm(relaxed - z_star))
    lam_eps = trace.lam * trace.eps_norm
    nu1 = 2.0 * sup_relaxed + (float(lam_eps.max()) if lam_eps.size else 0.0)

    nu2 = 0.0
    for k in range(trace.n_steps - 1):
        nu2 = max(nu2, space.norm(trace.e_vecs[k] - trace.e_vecs[k + 1]))
    nu2 *= 2.0

    S1 = float(lam_eps.sum())
    ks = np.arange(1, trace.n_steps + 1, dtype=float)
    S2 = float((ks * trace.eps_norm).sum())
    C1 = nu1 * S1 + nu2 * tau_max * S2
    C2 = S1
    return BoundConstants(d0, tau_min, tau_max, nu1, nu2, C1, C2, "empirical")


def pointwise_bound(k: int, constants: BoundConstants) -> float:
    """Residual bound ``sqrt((d0^2 + C1) / (tau_min (k+1)))``."""
    if constants.tau_min <= 0:
        raise ParameterError("pointwise bound needs tau_min > 0")
    return float(np.sqrt((constants.d0 ** 2 + constants.C1)
                         / (constants.tau_min * (k + 1.0))))


def ergodic_bound(k: int, constants: BoundConstants, lam_sum: float) -> float:
    """Averaged-residual bound ``2 (d0 + C2) / Lambda_k``."""
    if lam_sum <= 0:
        raise ParameterError("cumulative relaxation must be positive")
    return 2.0 * (constants.d0 + constants.C2) / lam_sum


def displacement_bounds(k: int, d0: float, tau_min: float, lam_min: float):
    """Exact-run step-size bounds: pointwise ``d0 / sqrt(tau_min (k+1))`` and
    averaged ``2 d0 / (k+1)``."""
    if tau_min <= 0 or lam_min <= 0:
        raise ParameterError("need tau_min > 0 and lam_min > 0")
    pw = d0 / np.sqrt(tau_min * (k + 1.0))
    erg = 2.0 * d0 / (k + 1.0)
    return float(pw), float(erg)


def trace_displacement_bounds(trace: IterationTrace, constants: BoundConstants):
    """Per-step displacement bound arrays for an exact trace; inexact traces
    are rejected since the displacement bounds assume no injected error."""
    if not trace.is_exact:
        raise ParameterError("displacement bounds only apply to exact runs")
    if constants.tau_min <= 0:
        raise ParameterError("need tau_min > 0")
    ks = np.arange(trace.n_steps, dtype=float)
    pw = constants.d0 / np.sqrt(constants.tau_min * (ks + 1.0))
    erg = 2.0 * constants.d0 / (ks + 1.0)
    return pw, erg


def local_zeta(tau_k: float, kappa: float) -> float:
    """Squared-distance contraction factor of the local linear model:
    ``1 - tau/kappa^2`` when that ratio lies in (0, 1], else
    ``kappa^2 / (kappa^2 + tau)``; always in [0, 1) for ``tau > 0``."""
    if kappa <= 0:
        raise ParameterError("modulus must be positive")
    if tau_k < 0:
        raise ParameterError("tau must be non-negative")
    ratio = tau_k / kappa ** 2
    if 0.0 < ratio <= 1.0:
        return 1.0 - ratio
    return kappa ** 2 / (kappa ** 2 + tau_k)


def local_zeta_averaged(lam: float, alpha: float, kappa: float) -> float:
    """Averaged-operator substitution: evaluate the model at
    ``tau = lam alpha (1 - lam alpha)`` with modulus ``kappa alpha``."""
    if not (0.0 < lam < 1.0 / alpha):
        raise ParameterError("relaxation outside (0, 1/alpha)")
    la = lam * alpha
    return local_zeta(la * (1.0 - la), kappa * alpha)


def gd_theoretical_rate(gamma: float, delta_m: float, delta_M: float) -> float:
    """Distance-rate ``sqrt(1 - t (2 - t) / cnd^2)`` of a gradient step with
    curvature bounds ``delta_m <= delta_M``, ``t = gamma delta_M`` and
    ``cnd = delta_M / delta_m``."""
    if not (0.0 < delta_m <= delta_M):
        raise ParameterError("need 0 < delta_m <= delta_M")
    if not (0.0 < gamma < 2.0 / delta_M):
        raise ParameterError("step size outside (0, 2/delta_M)")
    t = gamma * delta_M
    cnd = delta_M / delta_m
    zeta = 1.0 - t * (2.0 - t) / cnd ** 2
    return float(np.sqrt(max(zeta, 0.0)))


def fit_tail_rate(values, tail_fraction: float = 0.3) -> float:
    """Least-squares geometric factor of the tail of a positive sequence:
    ``exp(slope)`` of ``log values`` over the trailing window."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 20:
        raise UnavailableError("need a sequence of at least 20 values")
    if not (0.0 < tail_fraction <= 1.0):
        raise ParameterError("tail fraction must lie in (0, 1]")
    m = max(int(np.ceil(arr.size * tail_fraction)), 2)
    tail = arr[-m:]
    if tail.min() <= 1e-14:
        raise UnavailableError("tail has underflowed below 1e-14; shorten the run")
    ks = np.arange(tail.size, dtype=float)
    slope = np.polyfit(ks, np.log(tail), 1)[0]
    return float(np.exp(slope))


def verify_trace(trace: IterationTrace, constants: BoundConstants,
                 model: Optional[SubRegularityModel] = None,
                 slack: float = DEFAULT_SLACK) -> List[Violation]:
    """Scan a trace against the pointwise and ergodic bounds (and, for exact
    runs with a local model, the squared-distance recursion).  Also checks the
    internal consistency ``C1 >= nu1 * sum lam ||eps||`` of the presented
    constants so corrupted constants are detectable.  Empty list = certified.
    """
    out: List[Violation] = []

    S1 = float((trace.lam * trace.eps_norm).sum())
    floor = constants.nu1 * S1
    if constants.C1 < floor - 1e-12 * max(1.0, floor):
        out.append(Violation(-1, "constants", floor - constants.C1))

    for k in range(trace.n_steps):
        pw = pointwise_bound(k, constants)
        gap = trace.res_norm[k] - (pw + slack)
        if gap > 0:
            out.append(Violation(k, "pointwise", float(gap)))
        eb = ergodic_bound(k, constants, float(trace.lam_cumsum[k]))
        gap = trace.erg_norm[k] - (eb + slack)
        if gap > 0:
            out.append(Violation(k, "ergodic", float(gap)))

    if model is not None and trace.is_exact and trace.dist is not None:
        c = 1.0 if trace.alpha is None else 1.0 / trace.alpha
        for k in range(trace.n_steps):
            lam = float(trace.lam[k])
            if trace.alpha is None:
                zeta = local_zeta(lam * (c - lam), model.kappa)
            else:
                zeta = local_zeta_averaged(lam, trace.alpha, model.kappa)
            gap = trace.dist[k + 1] ** 2 - (zeta * trace.dist[k] ** 2 + slack)
            if gap > 0:
                out.append(Violation(k, "local", float(gap)))
    return out


def local_model_envelope(trace: IterationTrace, model: SubRegularityModel,
                         d0: float) -> np.ndarray:
    """Cumulative local-model distance envelope ``d0 * sqrt(prod zeta_j)``
    aligned with the trace rows (entry k bounds the distance at iterate k)."""
    out = np.empty(trace.n_steps)
    acc = 1.0
    c = 1.0 if trace.alpha is None else 1.0 / trace.alpha
    for k in range(trace.n_steps):
        out[k] = d0 * np.sqrt(acc)
        lam = float(trace.lam[k])
        if trace.alpha is None:
            zeta = local_zeta(lam * (c - lam), model.kappa)
        else:
            zeta = local_zeta_averaged(lam, trace.alpha, model.kappa)
        acc *= zeta
    return out
