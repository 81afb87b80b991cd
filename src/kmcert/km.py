"""Inexact and non-stationary relaxed fixed-point engine with trace recording.

One step is ``z+ = z + lam * (T z + eps - z)``.  The recorded residual is
``e = z - T z``; by rearranging the step, ``e = (z - z+) / lam + eps``, and
the engine cross-checks both forms against each other every iteration so an
implementation drift in either path is caught immediately.

A non-stationary iteration, whose operator depends on a per-step parameter,
is an inexact one: its channel model measures the residual against the
declared *limit* operator ``T`` and reports ``eps = (T_k z - T z) + eps_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DivergenceError,
    NumericalError,
    ParameterError,
    StructuralError,
)
from .operators import OperatorSpec
from .spaces import ProductSpace

_IDENTITY_TOL = 1e-12
# an iterate norm past this is reported as divergence
_DIVERGENCE_NORM = 1e12
# custom schedule values may leave their declared interval by this much, the
# rounding of an in-range expression; it matches the 1e-12 the admissibility
# check grants the relaxation supremum
_RANGE_TOL = 1e-12


def _in_range(value: float, lo: float, hi: float) -> bool:
    slack = _RANGE_TOL * max(1.0, abs(lo), abs(hi))
    return lo - slack <= value <= hi + slack


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxationSchedule:
    """Relaxation sequence with declared infimum / supremum."""

    kind: str
    lam_min: float
    lam_max: float
    _fn: Optional[Callable[[int], float]] = None
    _value: float = 0.0

    @staticmethod
    def constant(lam: float) -> "RelaxationSchedule":
        lam = float(lam)
        if not lam > 0:
            raise ParameterError(f"relaxation must be positive, got {lam}")
        return RelaxationSchedule("constant", lam, lam, None, lam)

    @staticmethod
    def from_function(fn, lam_min: float, lam_max: float) -> "RelaxationSchedule":
        if not (0.0 < lam_min <= lam_max):
            raise ParameterError("need 0 < inf lam <= sup lam")
        return RelaxationSchedule("sequence", float(lam_min), float(lam_max), fn)

    def value(self, k: int) -> float:
        if self.kind == "constant":
            return self._value
        lam = float(self._fn(k))
        if not _in_range(lam, self.lam_min, self.lam_max):
            raise ParameterError(
                f"relaxation {lam} at step {k} outside the declared "
                f"[{self.lam_min}, {self.lam_max}]"
            )
        return lam


@dataclass(frozen=True)
class ErrorSchedule:
    """Error-magnitude law ``c / (k+1)^p``, zero when ``c = 0``; directions
    come from the run's seeded generator."""

    c: float
    p: float

    @staticmethod
    def power(c: float, p: float) -> "ErrorSchedule":
        if not (c >= 0 and p >= 0):
            raise ParameterError(f"power law needs c >= 0 and p >= 0, got c={c}, p={p}")
        return ErrorSchedule(float(c), float(p))

    def magnitude(self, k: int) -> float:
        """The magnitude at step ``k``; one whose square overflows, so that no
        error of it has a finite norm, raises ``NumericalError``."""
        try:
            mag = self.c / (k + 1.0) ** self.p
        except OverflowError:   # (k+1)^p past the float range: via logs, for c > 0
            return self.c and math.exp(math.log(self.c) - self.p * math.log(k + 1.0))
        if mag * mag == math.inf:
            raise NumericalError(
                f"non-finite error norm at step {k}: the error magnitude {mag:.3e} "
                f"squares past the float range")
        return mag


@dataclass(frozen=True)
class GammaSchedule:
    """Per-step operator parameter with a declared limit and symbolic
    summability classification of ``|gamma_k - gamma|``.

    Built-in schedules move monotonically from ``start`` to ``limit``; a
    custom schedule declares its range ``[start, hi]`` and every value is
    checked against it.
    """

    kind: str
    limit: float
    start: float
    ratio: float = 1.1
    abs_summable: Optional[bool] = None   # sum |gamma_k - gamma| finite
    k_summable: Optional[bool] = None     # sum (k+1) |gamma_k - gamma| finite
    _fn: Optional[Callable[[int], float]] = None
    hi: Optional[float] = None                # upper end of a custom range

    @staticmethod
    def constant(gamma: float) -> "GammaSchedule":
        g = float(gamma)
        return GammaSchedule("constant", g, g, abs_summable=True, k_summable=True)

    @staticmethod
    def geometric(limit: float, start: float, ratio: float = 1.1) -> "GammaSchedule":
        if ratio <= 1.0:
            raise ParameterError("geometric ratio must exceed 1")
        return GammaSchedule("geometric", float(limit), float(start), float(ratio),
                             abs_summable=True, k_summable=True)

    @staticmethod
    def inverse_square(limit: float, start: float) -> "GammaSchedule":
        return GammaSchedule("inverse-square", float(limit), float(start),
                             abs_summable=True, k_summable=False)

    @staticmethod
    def harmonic(limit: float, start: float) -> "GammaSchedule":
        return GammaSchedule("harmonic", float(limit), float(start),
                             abs_summable=False, k_summable=False)

    @staticmethod
    def from_function(fn, limit: float, lo: float, hi: float) -> "GammaSchedule":
        limit, lo, hi = float(limit), float(lo), float(hi)
        if not (lo <= limit <= hi):
            raise ParameterError(f"need lo <= limit <= hi, got [{lo}, {hi}] and {limit}")
        return GammaSchedule("custom", limit, lo, _fn=fn, hi=hi)

    @property
    def interval(self):
        """Declared range ``(lo, hi)`` of the values."""
        if self.kind == "custom":
            return self.start, self.hi
        return min(self.start, self.limit), max(self.start, self.limit)

    def value(self, k: int) -> float:
        gap = self.start - self.limit
        if self.kind == "constant":
            return self.limit
        if self.kind == "geometric":
            # negative power underflows to zero instead of overflowing
            return self.limit + gap * self.ratio ** (-k)
        if self.kind == "inverse-square":
            return self.limit + gap / max(k, 1) ** 2
        if self.kind == "harmonic":
            return self.limit + gap / max(k, 1)
        g = float(self._fn(k))
        if not _in_range(g, self.start, self.hi):
            raise ParameterError(
                f"parameter {g} at step {k} outside the declared [{self.start}, {self.hi}]"
            )
        return g

    @property
    def summability_note(self) -> str:
        if self.abs_summable is None:
            return "summability unknown (custom schedule)"
        if not self.abs_summable:
            return "not summable; convergence not guaranteed"
        if not self.k_summable:
            return "summable; complexity-grade summability not met"
        return "summable"


@dataclass(frozen=True)
class StopRule:
    """Run limits.  ``residual_tol = 0`` disables the residual stop so a run
    always covers its full horizon."""

    max_iters: int = 100_000
    residual_tol: float = 1e-10


# ---------------------------------------------------------------------------
# fixed-point set descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointSet:
    """The fixed-point set through its nearest-point map: an analytic
    projector, or the constant map of a single point (analytic, or the end
    of a reference run)."""

    nearest: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def from_point(z_star: np.ndarray) -> "FixedPointSet":
        return FixedPointSet(lambda z: z_star)

    def distance(self, z: np.ndarray, space: ProductSpace) -> float:
        return space.norm(z - self.nearest(z))


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

@dataclass
class IterationTrace:
    """Per-iteration record of a run; immutable after completion."""

    space: ProductSpace
    alpha: Optional[float]
    stop_reason: str
    lam: np.ndarray
    eps_norm: np.ndarray
    res_norm: np.ndarray
    erg_norm: np.ndarray
    disp_norm: np.ndarray
    z0: np.ndarray
    z_final: np.ndarray
    dist: Optional[np.ndarray] = None          # length n_steps + 1

    @property
    def n_steps(self) -> int:
        return int(self.lam.size)

    @property
    def final_residual(self) -> float:
        return float(self.res_norm[-1]) if self.res_norm.size else float("nan")


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def _validate_admissible(relaxation: RelaxationSchedule, alpha) -> None:
    cap = 1.0 if alpha is None else 1.0 / alpha
    if relaxation.lam_max > cap + 1e-12:
        raise ParameterError(
            f"relaxation supremum {relaxation.lam_max} exceeds admissible cap {cap} "
            f"for the certified averagedness class"
        )


def _plain_evaluator(T: OperatorSpec, errors: Optional[ErrorSchedule]):
    space = T.space

    def evalstep(k, z, rng):
        exact = T(z)
        mag = errors.magnitude(k) if errors is not None else 0.0
        if mag != 0.0:
            eps = space.unit_vector(rng) * mag
            return exact, exact + eps, eps, None
        return exact, exact, None, None

    return evalstep


def _check_output(k, exact, tilde) -> None:
    if not np.isfinite(tilde).all() or (tilde is not exact and not np.isfinite(exact).all()):
        raise NumericalError(f"non-finite operator output at step {k}")


def _iterate(operator: OperatorSpec, evalstep, z0: np.ndarray,
             relaxation: RelaxationSchedule, stop: StopRule,
             fix: Optional[FixedPointSet], observe: Optional[Callable],
             seed: int) -> IterationTrace:
    space = operator.space
    if np.shape(z0) != (space.size,) or not np.isfinite(z0).all():
        raise StructuralError(
            f"the start point must be a finite array of shape ({space.size},) in the "
            f"operator's space; got shape {np.shape(z0)}"
        )
    _validate_admissible(relaxation, operator.alpha)

    rng = np.random.default_rng(seed)
    lam_l, epsn_l, res_l, erg_l, disp_l, dist_l = [], [], [], [], [], []
    norm = space.norm
    eager = space.metric is not None   # M @ a warns on a non-finite a (0 * inf): scan first

    z = z0
    S = np.zeros(space.size)
    lam_total = 0.0
    stop_reason = "max_iters"

    for k in range(stop.max_iters):
        lam = relaxation.value(k)
        if fix is not None:
            dist_l.append(fix.distance(z, space))

        exact, tilde, eps_vec, extras = evalstep(k, z, rng)
        if eager:
            _check_output(k, exact, tilde)

        e = z - exact
        res = norm(e)
        epsn = norm(eps_vec) if eps_vec is not None else 0.0
        zn = z + (tilde - z) * lam
        step = z - zn
        disp = norm(step)
        # a non-finite exact output shows in res, a non-finite tilde in disp;
        # the sum of the norms is finite unless one of them is, or it overflows
        if not math.isfinite(res + disp + epsn):
            _check_output(k, exact, tilde)
            if not math.isfinite(epsn):     # the outputs are finite, the error is not
                raise NumericalError(f"non-finite error norm at step {k}")

        # cross-check the residual against its update-rule form; the test is
        # drift > tol * max(1, ||eps||, ||z||), with ||z|| only evaluated
        # when needed
        back = step * (1.0 / lam)
        e_rec = back + eps_vec if eps_vec is not None else back
        drift = norm(e - e_rec)
        if (drift > _IDENTITY_TOL and drift > _IDENTITY_TOL * epsn
                and drift > _IDENTITY_TOL * norm(z)):
            raise NumericalError(
                f"residual identity violated at step {k}: drift {drift:.3e}"
            )
        if observe is not None:
            observe(k, z, zn, e, eps_vec, lam, extras)

        S += e * lam            # S is the engine's own buffer, never shared
        lam_total += lam

        lam_l.append(lam)
        epsn_l.append(epsn)
        res_l.append(res)
        erg_l.append(norm(S) / lam_total)
        disp_l.append(disp)

        z = zn
        if norm(zn) > _DIVERGENCE_NORM:
            raise DivergenceError(
                f"iterate norm exceeded {_DIVERGENCE_NORM:.1e} at step {k}"
            )
        if stop.residual_tol > 0.0 and res <= stop.residual_tol:
            stop_reason = "residual_tol"
            break

    if fix is not None:
        dist_l.append(fix.distance(z, space))

    return IterationTrace(
        space=space,
        alpha=operator.alpha,
        stop_reason=stop_reason,
        lam=np.asarray(lam_l),
        eps_norm=np.asarray(epsn_l),
        res_norm=np.asarray(res_l),
        erg_norm=np.asarray(erg_l),
        disp_norm=np.asarray(disp_l),
        z0=z0,
        z_final=z,
        dist=np.asarray(dist_l) if fix is not None else None,
    )


def run_km(T: OperatorSpec, z0: np.ndarray, relaxation: RelaxationSchedule,
           errors: Optional[ErrorSchedule] = None, stop: Optional[StopRule] = None,
           *, channel=None, fix: Optional[FixedPointSet] = None,
           observe: Optional[Callable] = None, seed: int = 0) -> IterationTrace:
    """Run the relaxed iteration of a single operator.

    ``errors`` injects synthetic error vectors (seeded direction, scheduled
    magnitude).  ``channel`` instead delegates each evaluation to a channel
    model from the splitting builders, which perturbs the evaluation
    internally and reports the induced error; the two are mutually exclusive.
    The relaxation must be admissible for the operator and for every
    averagedness constant in the channel's ``alphas`` (the per-step
    operators of a non-stationary channel).

    ``observe(k, z, z_next, e, eps, lam, extras)`` is called once per step,
    after the residual-identity check, with the iterate ``z_k``, its
    successor, the residual ``e_k = z_k - T z_k``, the injected error (None
    for an exact step), the relaxation and the evaluation's extras (for a
    channel model, a dict with its channel vectors under ``"channel"``;
    else None).  Constants and certificates are accumulated through it; a
    hook may keep the arrays it is given (nothing writes into them in place),
    and the certification hooks keep a step's vectors for at most one chunk
    of ``bounds.CHUNK`` steps, so memory stays bounded whatever the horizon.
    """
    if stop is None:
        stop = StopRule()
    if channel is not None:
        if errors is not None:
            raise ParameterError("pass either synthetic errors or a channel model")
        operator = channel.operator
        evalstep = channel.evaluate
        for alpha in channel.alphas:
            _validate_admissible(relaxation, alpha)
    else:
        operator = T
        evalstep = _plain_evaluator(T, errors)
    return _iterate(operator, evalstep, z0, relaxation, stop, fix, observe, seed)

