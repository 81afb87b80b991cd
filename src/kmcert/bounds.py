"""Complexity bounds, local linear-rate models and trace certification.

Constants are computed as running suprema / partial sums over the executed
horizon and labeled empirical; for any recorded index the resulting bound is
at least as strict as the one with whole-sequence constants, which is the
conservative direction for certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from .errors import ParameterError, UnavailableError
from .km import IterationTrace, Steps
from .spaces import ProductSpace

_SLACK = 1e-10
MEMBERSHIP_TOL = 1e-8       # largest certificate membership residual that passes
_TAIL_FRACTION = 0.3
CHECKS = ("constants", "pointwise", "ergodic", "certificate", "local", "membership")


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


class Violation(NamedTuple):
    k: int        # -1 for the constants, membership and report checks
    kind: str     # one of CHECKS, or report
    margin: float


class Certification(list):
    """A run's record (see :func:`certify`): the list of the violations
    found, with ``checks``, each of :data:`CHECKS` mapped to None when it
    ran or to the reason it was skipped, and the bound ``columns``."""

    def __init__(self, violations, checks: dict, columns: dict):
        super().__init__(violations)
        self.checks, self.columns = checks, columns

    @property
    def verdict(self) -> str:
        return "fail" if self else "pass"

    @property
    def reported(self) -> list:
        """The violations a report lists; ``certificates`` sums up the rest."""
        return [v for v in self if v.kind not in ("certificate", "membership")]

    @property
    def certificates_ok(self) -> bool:
        return not any(v.kind in ("certificate", "membership") for v in self)


class EmpiricalConstants:
    """Bound constants measured over the executed horizon, accumulated
    through the engine's ``observe`` hook a chunk of steps at a time.

    ``z_star`` is the fixed-point reference nearest the start, fixed before
    the run.  Norms are the space's or, with ``base_norm``, the plain
    direct-sum norm (the error norms are then measured here too).
    :meth:`constants` finishes the sums from the trace's scalar columns.
    """

    def __init__(self, z_star: np.ndarray, space: ProductSpace,
                 base_norm: bool = False):
        self._z_star = z_star
        self._measure = space.base_norm if base_norm else space.norm
        self._space = space
        self._base = base_norm
        self._eps_norm = [] if base_norm else None
        self._d0 = 0.0
        self._sup_relaxed = 0.0     # sup ||z_k - lam_k e_k - z*||
        self._sup_de = 0.0          # sup ||e_k - e_{k+1}||
        self._e_last = np.empty((0, space.size))   # the last residual seen, as a stack

    def observe(self, steps: Steps) -> None:
        if not len(self._e_last):
            self._d0 = self._measure(steps.z[0] - self._z_star)
        # the jumps e_{k+1} - e_k, from the previous chunk's last residual on
        jumps = np.diff(steps.e, axis=0, prepend=self._e_last)
        if len(jumps):
            self._sup_de = max(self._sup_de,
                               float(self._space.norms(jumps, self._base).max()))
        self._e_last = steps.e[-1:]
        relaxed = steps.z[:-1] - steps.e * steps.lam[:, None] - self._z_star
        self._sup_relaxed = max(self._sup_relaxed,
                                float(self._space.norms(relaxed, self._base).max()))
        if self._eps_norm is not None:
            self._eps_norm.append(self._space.norms(steps.eps, self._base))

    def constants(self, trace: IterationTrace) -> BoundConstants:
        eps_norm = trace.eps_norm if self._eps_norm is None else np.concatenate(self._eps_norm)
        c = 1.0 if trace.alpha is None else 1.0 / trace.alpha
        tau = trace.lam * (c - trace.lam)
        tau_max = float(tau.max())
        lam_eps = trace.lam * eps_norm
        nu1 = 2.0 * self._sup_relaxed + (float(lam_eps.max()) if lam_eps.size else 0.0)
        nu2 = 2.0 * self._sup_de
        S1 = float(lam_eps.sum())
        ks = np.arange(1, trace.n_steps + 1, dtype=float)
        S2 = float((ks * eps_norm).sum())
        C1 = nu1 * S1 + nu2 * tau_max * S2
        return BoundConstants(self._d0, float(tau.min()), tau_max, nu1, nu2, C1, S1,
                              "empirical")


def pointwise_bound(k, constants: BoundConstants):
    """Residual bound ``sqrt((d0^2 + C1) / (tau_min (k+1)))`` at step ``k``,
    an index or an array of indices."""
    if constants.tau_min <= 0:
        raise ParameterError("pointwise bound needs tau_min > 0")
    return np.sqrt((constants.d0 ** 2 + constants.C1)
                   / (constants.tau_min * (np.asarray(k) + 1.0)))


def ergodic_bound(k, constants: BoundConstants, lam_sum):
    """Averaged-residual bound ``2 (d0 + C2) / Lambda_k``, where ``lam_sum``
    is ``Lambda_k`` (a number or an array aligned with ``k``)."""
    if np.any(np.asarray(lam_sum) <= 0):
        raise ParameterError("cumulative relaxation must be positive")
    return 2.0 * (constants.d0 + constants.C2) / lam_sum


def local_zeta(tau_k: float, kappa: float) -> float:
    """Squared-distance contraction factor of the local linear model:
    ``1 - tau/kappa^2`` when that ratio lies in (0, 1], else
    ``kappa^2 / (kappa^2 + tau)``; in [0, 1] for ``tau > 0``, and 1 for a
    modulus whose square would overflow (both forms round to 1 there)."""
    if kappa <= 0:
        raise ParameterError("modulus must be positive")
    if tau_k < 0:
        raise ParameterError("tau must be non-negative")
    if kappa > 1e150:       # near sqrt(float max); both forms round to 1 past ~1e9
        return 1.0
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


def local_zeta_series(lam, alpha: Optional[float], kappa: float) -> np.ndarray:
    """``zeta_k`` of the local linear model at each relaxation ``lam_k``: the
    plain model at ``tau = lam (1 - lam)`` when no averagedness constant is
    certified, else the averaged substitution; taken once per distinct
    relaxation value."""
    values, at = np.unique(lam, return_inverse=True)
    zeta = ([local_zeta(lk * (1.0 - lk), kappa) for lk in values.tolist()] if alpha is None
            else [local_zeta_averaged(lk, alpha, kappa) for lk in values.tolist()])
    return np.array(zeta, dtype=float)[at]


def gd_theoretical_rate(gamma: float, delta_m: float, delta_M: float) -> float:
    """Distance-rate ``sqrt(1 - t (2 - t) / cnd^2)`` of a gradient step with
    curvature bounds ``delta_m <= delta_M``, ``t = gamma delta_M`` and
    ``cnd = delta_M / delta_m``: the root of ``local_zeta(t (2 - t), cnd)``."""
    if not (0.0 < delta_m <= delta_M):
        raise ParameterError("need 0 < delta_m <= delta_M")
    if not (0.0 < gamma < 2.0 / delta_M):
        raise ParameterError("step size outside (0, 2/delta_M)")
    t = gamma * delta_M
    return float(np.sqrt(local_zeta(t * (2.0 - t), delta_M / delta_m)))


def fit_tail_rate(values) -> float:
    """Least-squares geometric factor of the tail of a positive sequence:
    ``exp(slope)`` of ``log values`` over its trailing ``_TAIL_FRACTION``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 20:
        raise UnavailableError("need a sequence of at least 20 values")
    m = max(int(np.ceil(arr.size * _TAIL_FRACTION)), 2)
    tail = arr[-m:]
    if tail.min() <= 1e-14:
        raise UnavailableError("tail has underflowed below 1e-14; shorten the run")
    ks = np.arange(tail.size, dtype=float)
    slope = np.polyfit(ks, np.log(tail), 1)[0]
    return float(np.exp(slope))


def trace_series(trace: IterationTrace) -> dict:
    """The per-step columns of a trace under their CSV names, as the CSV
    holds them: ``dist_fix`` keeps the first ``n_steps`` distances."""
    return {"lambda": trace.lam, "err_norm": trace.eps_norm,
            "res_norm": trace.res_norm, "erg_res_norm": trace.erg_norm,
            "disp_norm": trace.disp_norm,
            "dist_fix": None if trace.dist is None else trace.dist[: trace.n_steps]}


def verify_series(cols: dict, constants: BoundConstants,
                  alpha: Optional[float] = None, kappa: Optional[float] = None):
    """Check per-step columns against the bounds; returns ``(violations,
    bound columns)``.  Empty violations = certified.

    ``cols`` maps CSV column names to arrays: ``lambda``, ``err_norm``,
    ``res_norm`` and ``erg_res_norm`` are required; ``cert_value`` with
    ``cert_bound`` and ``dist_fix`` are checked when present.  The checks are
    the internal consistency ``C1 >= nu1 * sum lam ||eps||`` of the
    constants, the pointwise and ergodic bounds and the certificate at every
    step, and, for an exact run with a modulus ``kappa``, the squared-distance
    recursion ``dist_{k+1}^2 <= zeta_k dist_k^2`` on every transition that
    ``dist_fix`` holds.  The bound columns are ``pw_bound``, ``erg_bound``
    and, when the local model was checked, its envelope
    ``local_model = dist_0 sqrt(prod_{j<k} zeta_j)``.
    """
    lam, err = cols["lambda"], cols["err_norm"]
    out: List[Violation] = []

    floor = constants.nu1 * float((lam * err).sum())
    if constants.C1 < floor - 1e-12 * max(1.0, floor):
        out.append(Violation(-1, "constants", floor - constants.C1))

    ks = np.arange(lam.size)
    pw = pointwise_bound(ks, constants)
    eb = ergodic_bound(ks, constants, np.cumsum(lam))
    gaps = [("pointwise", cols["res_norm"] - (pw + _SLACK)),
            ("ergodic", cols["erg_res_norm"] - (eb + _SLACK))]
    if cols.get("cert_value") is not None:
        gaps.append(("certificate", cols["cert_value"] - (cols["cert_bound"] + _SLACK)))
    for k in np.flatnonzero(np.any([g > 0 for _, g in gaps], axis=0)):
        out.extend(Violation(int(k), kind, float(g[k])) for kind, g in gaps if g[k] > 0)
    bounds = {"pw_bound": pw, "erg_bound": eb}

    dist = cols.get("dist_fix")
    if kappa is not None and dist is not None and not err.any():
        zeta = local_zeta_series(lam, alpha, kappa)
        gap = dist[1:] ** 2 - (zeta[: dist.size - 1] * dist[:-1] ** 2 + _SLACK)
        out.extend(Violation(int(k), "local", float(gap[k]))
                   for k in np.flatnonzero(gap > 0))
        bounds["local_model"] = dist[0] * np.sqrt(
            np.cumprod(np.concatenate(([1.0], zeta)))[: lam.size])
    return out, bounds


def certify(series: dict, constants: Optional[BoundConstants], alpha: Optional[float] = None,
            kappa: Optional[float] = None, membership_max: Optional[float] = None,
            certified: bool = False) -> Certification:
    """The one decision of what a run checked and whether it passed:
    ``series`` (CSV column names to arrays, None or absent when blank) by
    one :func:`verify_series` call, and the certificate's largest membership
    residual, if it has one, against :data:`MEMBERSHIP_TOL`.  A run with a
    certificate (``certified``) fills both ``cert_*`` columns, one without
    neither; one with a modulus fills ``dist_fix``.  Without constants (a
    scheduled problem) every check is skipped."""
    if constants is None:
        why = "scheduled problem: no certified constants (ROADMAP item 1)"
        return Certification([], dict.fromkeys(CHECKS, why), {})
    for name in ("cert_value", "cert_bound"):
        if (series.get(name) is None) == certified:
            raise ParameterError(f"column {name!r} is {'blank' if certified else 'filled'}: "
                                 "'cert_value' and 'cert_bound' are filled together, "
                                 "for a run with a certificate")
    if kappa is not None and series.get("dist_fix") is None:
        raise ParameterError("column 'dist_fix' is blank, but the run has a modulus")
    violations, columns = verify_series(series, constants, alpha, kappa)
    checks = dict.fromkeys(CHECKS)
    if not certified:
        checks["certificate"] = checks["membership"] = "no certificate"
    elif membership_max is None:
        checks["membership"] = "no membership residual"
    elif not membership_max <= MEMBERSHIP_TOL:
        violations.append(Violation(-1, "membership", membership_max - MEMBERSHIP_TOL))
    if "local_model" not in columns:
        checks["local"] = "no modulus" if kappa is None else "inexact run"
    return Certification(violations, checks, columns)
