"""Analytic test-problem generators with known fixed-point sets, moduli and
rates.  Every generator is deterministic under a fixed seed."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bounds import EmpiricalConstants, fit_tail_rate, gd_theoretical_rate
from .errors import ParameterError, UnavailableError
from .km import (
    Channel,
    ErrorSchedule,
    FixedPointSet,
    GammaSchedule,
    IterationTrace,
    StopRule,
    _validate_admissible,
    run_km,
)
from .operators import CocoerciveMap, OperatorSpec, gradient_step, zero_operator
from .spaces import ProductSpace
from .splitting import (
    BoxBlock,
    DrsBuilt,
    DrsCertificates,
    GfbBuilt,
    GfbCertificates,
    GfbScheduleChannel,
    L1Block,
    LinearBlock,
    PdsBuilt,
    PdsCertificates,
    PdsDualTerm,
    SplittingChannel,
    SubspaceBlock,
    ZeroBlock,
)

CERT_HORIZON = 1000
# a reference run stops at this residual, or after this many cert_horizons
_REFERENCE_TOL = 1e-13
_REFERENCE_FACTOR = 10
# each splitting kind's certificate of (built, z_star)
_SPLITTINGS = {
    "gfb": lambda built, z_star: GfbCertificates(built),
    "drs": lambda built, z_star: DrsCertificates(built),
    "pds": PdsCertificates,
}


@dataclass(frozen=True)
class ProblemInstance:
    """Operator assembly plus what the certification harness needs: a
    fixed-point description, analytic constants when available, and the
    recommended start / schedules.  A problem with a step-size ``schedule``
    is non-stationary: ``operator`` is its limit and its runs go through the
    schedule's channel model.  Frozen, since runs share an instance and the
    fixed-point reference it holds (see :meth:`fix_reference`); a variant is
    made with ``dataclasses.replace`` and solves its own reference."""

    name: str
    kind: str                       # km | gfb | drs | pds
    operator: OperatorSpec
    z0: np.ndarray
    lam: float                      # the relaxation of every step
    fix: Optional[FixedPointSet] = None
    kappa: Optional[float] = None
    theoretical_rate: Optional[float] = None
    rate_basis: Optional[str] = None        # residual | dist_sq
    rate_horizon: int = 60
    cert_horizon: int = CERT_HORIZON
    built: object = None
    constants: dict = field(default_factory=dict)
    schedule: Optional[GammaSchedule] = None
    _reference: Optional[FixedPointSet] = field(init=False, default=None, repr=False,
                                                compare=False)

    # -- run helpers --------------------------------------------------------

    def run(self, c: float = 0.0, p: float = 3.0, max_iters: Optional[int] = None,
            tol: float = 0.0, observe=None, seed: int = 0) -> IterationTrace:
        """A run with the error law ``c / (k+1)^p`` (exact for ``c = 0``)
        through :meth:`make_channel`, whose steps reach ``observe``."""
        stop = StopRule(max_iters=max_iters or self.cert_horizon, residual_tol=tol)
        return run_km(self.make_channel(c, p), self.z0, self.lam, stop,
                      fix=self.fix, observe=observe, seed=seed)

    def certified_run(self, c: float = 0.0, p: float = 3.0,
                      max_iters: Optional[int] = None, tol: float = 0.0,
                      seed: int = 0):
        """One run, exact when ``c = 0`` and inexact with the error law
        ``c / (k+1)^p`` otherwise, certified in the same pass: the fixed-point
        reference is computed first, then the empirical constants and the
        certificate of the problem's kind accumulate through the engine's
        step hook.  Returns ``(trace, constants, certificate series or
        None)``.  The pointwise bound needs ``tau_min > 0``, so a relaxation
        at or past the admissible cap is rejected before any step."""
        cap = _validate_admissible(self.lam, self.operator.alpha)
        if not self.lam < cap:
            raise ParameterError(
                f"relaxation {self.lam} must lie below the admissible cap {cap} of a "
                f"certified run (tau_min > 0)")
        z_star = self.fix_reference().nearest(self.z0)
        constants = EmpiricalConstants(z_star, self.operator.space)
        cert = (_SPLITTINGS[self.kind](self.built, z_star)
                if self.kind in _SPLITTINGS else None)

        def observe(steps):
            constants.observe(steps)
            if cert is not None:
                cert.observe(steps)

        trace = self.run(c, p, max_iters, tol, observe=observe, seed=seed)
        bc = constants.constants(trace)
        return trace, bc, None if cert is None else cert.series(trace, bc)

    def make_channel(self, c: float, p: float) -> Channel:
        """The channel of the problem's runs with the error law ``c /
        (k+1)^p``: its schedule's, its splitting's, or else the bare one."""
        law = ErrorSchedule.power(c, p)
        if self.schedule is not None:
            return GfbScheduleChannel(self.built, self.schedule, law)
        if self.kind == "km":
            return Channel(self.operator, law)
        return SplittingChannel(self.built, law)

    def observed_rate(self, trace: IterationTrace) -> float:
        if self.rate_basis == "residual":
            return fit_tail_rate(trace.res_norm)
        if self.rate_basis == "dist_sq":
            if trace.dist is None:
                raise UnavailableError("distance column missing")
            return fit_tail_rate(trace.dist ** 2)
        raise UnavailableError("no rate convention declared for this problem")

    def fix_reference(self) -> FixedPointSet:
        """The analytic fixed-point set, or else the end point of a
        :func:`reference_solution` run, solved on the first call and kept on
        the instance."""
        if self.fix is not None:
            return self.fix
        if self._reference is None:
            object.__setattr__(self, "_reference", reference_solution(self))
        return self._reference


def _rate_horizon(rate: float, start: float, target: float, less: int = 0) -> int:
    """The steps for ``start * rate^k`` to reach ``target``, minus ``less``,
    within [20, 200]; 20 for a rate outside (0, 1)."""
    steps = int(np.log(target / start) / np.log(rate)) - less if 0.0 < rate < 1.0 else 20
    return int(np.clip(steps, 20, 200))


def _check_fixed_point(operator: OperatorSpec, z_star: np.ndarray) -> None:
    res = operator.space.norm(z_star - operator(z_star))
    if not res <= 1e-10:
        raise ParameterError(f"claimed fixed point has residual {res:.3e}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def make_zero_map(d: int = 4, seed: int = 7) -> ProblemInstance:
    """Constant-zero operator, certified non-expansive only; the baseline
    sanity problem with fixed point at the origin."""
    if d > 200:
        raise ParameterError("desk scale only: d <= 200")
    space = ProductSpace.single(d)
    rng = np.random.default_rng(seed)
    z0 = space.vector(rng.standard_normal(d))
    op = zero_operator(space)
    fix = FixedPointSet.from_point(space.zeros())
    _check_fixed_point(op, space.zeros())
    return ProblemInstance(
        name="zero-map", kind="km", operator=op, z0=z0,
        lam=0.5, fix=fix, kappa=1.0,
        rate_horizon=40,
    )


def make_quadratic_gd(delta_m: float, delta_M: float, d: int, gamma: float,
                      ) -> ProblemInstance:
    """Gradient descent on a diagonal quadratic whose spectrum spans
    ``[delta_m, delta_M]`` with the extremes attained.  The fixed point is the
    origin, the residual-to-distance modulus is ``1/(gamma delta_m)`` and the
    starting point is a fixed non-axis-aligned seeded vector so the slow
    eigendirection is excited."""
    if d > 200:
        raise ParameterError("desk scale only: d <= 200")
    if not (0.0 < delta_m <= delta_M) or d < 2:
        raise ParameterError("need 0 < delta_m <= delta_M and d >= 2")
    if not (0.0 < gamma < 2.0 / delta_M):
        raise ParameterError("step size outside (0, 2/delta_M)")
    diag = np.linspace(delta_m, delta_M, d)
    op = gradient_step(np.diag(diag), np.zeros(d), gamma)
    space = op.space

    rng = np.random.default_rng(12345)
    z0_vec = 100.0 * (1.0 + 0.25 * rng.standard_normal(d))
    z0 = space.vector(z0_vec)
    fix = FixedPointSet.from_point(space.zeros())
    _check_fixed_point(op, space.zeros())

    spectral = float(np.max(np.abs(1.0 - gamma * diag)))
    res0 = float(np.linalg.norm((gamma * diag) * z0_vec))   # gamma * diag <= 2: no overflow

    return ProblemInstance(
        name=f"gd(gamma={gamma:g})", kind="km", operator=op, z0=z0,
        lam=1.0, fix=fix,
        kappa=1.0 / (gamma * delta_m),
        theoretical_rate=gd_theoretical_rate(gamma, delta_m, delta_M),
        rate_basis="residual", rate_horizon=_rate_horizon(spectral, res0, 1e-12),
        constants={"delta_m": delta_m, "delta_M": delta_M, "gamma": gamma,
                   "spectral_rate": spectral},
    )


def make_two_subspaces(theta: float, d: int, lam: float = 1.0) -> ProblemInstance:
    """Douglas-Rachford for the intersection of two lines at angle theta,
    embedded in dimension d.  The fixed-point set is the orthogonal
    complement of the plane the lines span; the residual-to-distance modulus
    is ``1/sin(theta)`` and the squared-distance contraction per step is
    exactly ``1 - (2 - lam) lam sin^2(theta)``."""
    if d > 200:
        raise ParameterError("desk scale only: d <= 200")
    if not (0.0 < theta <= np.pi / 2.0) or d < 2:
        raise ParameterError("need theta in (0, pi/2] and d >= 2")
    if theta < np.finfo(float).tiny:
        raise ParameterError(f"theta {theta:g} is subnormal: the modulus 1/sin(theta) overflows")
    e1 = np.zeros(d); e1[0] = 1.0
    v = np.zeros(d); v[0], v[1] = np.cos(theta), np.sin(theta)
    built = DrsBuilt(SubspaceBlock(e1), SubspaceBlock(v), gamma=1.0, dim=d)
    space = built.space

    def proj_fix(z: np.ndarray) -> np.ndarray:    # a point or a stack of points
        out = z.copy()
        out[..., :2] = 0.0
        return out

    fix = FixedPointSet(proj_fix)
    rng = np.random.default_rng(99)
    z0_vec = 10.0 * rng.standard_normal(d)
    if np.hypot(z0_vec[0], z0_vec[1]) < 1.0:
        z0_vec[0] += 2.0
    z0 = space.vector(z0_vec)
    _check_fixed_point(built.operator, proj_fix(z0))

    zeta = 1.0 - (2.0 - lam) * lam * np.sin(theta) ** 2
    horizon = _rate_horizon(float(np.sqrt(zeta)), float(np.hypot(z0_vec[0], z0_vec[1])),
                            1e-7, less=2)

    return ProblemInstance(
        name=f"two-subspaces(theta={theta:.4g},lam={lam:g})", kind="drs",
        operator=built.operator, z0=z0,
        lam=float(lam), fix=fix,
        kappa=1.0 / np.sin(theta), theoretical_rate=float(zeta),
        rate_basis="dist_sq", rate_horizon=horizon, built=built,
        constants={"theta": theta, "lam": lam},
    )


def make_lasso(m: int, n: int, mu: float = 0.0, seed: int = 1) -> ProblemInstance:
    """Single-block product-space splitting (plain forward-backward) for an
    l1-penalized least-squares instance with a planted sparse solution and a
    seeded, column-normalized design; l1 weight ``mu``, or for ``mu = 0``
    a fifth of ``max |A^T y|``."""
    if m > 200 or n > 200 or m < 1 or n < 1:
        raise ParameterError("desk scale only: m, n <= 200")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    support = rng.choice(n, size=max(1, n // 8), replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.choice([-1.0, 1.0], size=support.size) * (
        1.0 + rng.uniform(size=support.size)
    )
    y = A @ x_true
    Q = A.T @ A
    q = A.T @ y
    smooth = CocoerciveMap.quadratic(Q, q)
    if mu == 0:
        mu = 0.2 * float(np.max(np.abs(q)))
    gamma = smooth.beta
    built = GfbBuilt(blocks=[L1Block(mu)], weights=np.array([1.0]), gamma=gamma,
                     dim=n, smooth=smooth)
    z0 = built.space.point((np.zeros(n),))
    return ProblemInstance(
        name="lasso", kind="gfb", operator=built.operator, z0=z0,
        lam=1.0, built=built,
        constants={"A": A, "y": y, "mu": mu, "support": np.sort(support),
                   "beta": smooth.beta},
    )


def make_gfb_multiblock(n_blocks: int, d: int, seed: int = 2,
                        gamma: float = 1.0) -> ProblemInstance:
    """Multi-block product-space instance mixing l1, box-indicator and affine
    monotone blocks around a smoothed-l1 forcing term (modulus 1), at step
    size ``gamma``.  The strongly monotone affine block makes the consensus
    solution unique."""
    if n_blocks not in (2, 3, 4) or d > 100:
        raise ParameterError("n_blocks in {2,3,4} and d <= 100")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, d))
    M = 0.5 * np.eye(d) + 0.5 * (R - R.T)
    c0 = 0.5 * rng.standard_normal(d)
    linear = LinearBlock(M, c0)
    blocks = {
        2: [L1Block(0.1), linear],
        3: [L1Block(0.1), BoxBlock(-0.8, 0.8), linear],
        4: [L1Block(0.1), BoxBlock(-0.8, 0.8), linear, ZeroBlock()],
    }[n_blocks]
    weights = np.full(n_blocks, 1.0 / n_blocks)
    built = GfbBuilt(blocks=blocks, weights=weights, gamma=gamma, dim=d,
                     smooth=CocoerciveMap.envelope_l1(0.3))
    z0 = built.space.point(tuple(rng.standard_normal(d) for _ in range(n_blocks)))
    return ProblemInstance(
        name=f"multiblock(n={n_blocks})", kind="gfb", operator=built.operator,
        z0=z0, lam=1.0, built=built,
        constants={"gamma": gamma, "beta": 1.0},
    )


def make_pds_small(seed: int = 3) -> ProblemInstance:
    """Primal-dual instance with one dual block: box-constrained quadratic
    plus an l1 composite through a dense coupling with orthonormalized rows.
    Step sizes are scaled from the preconditioner formula so the averagedness
    condition holds with margin; the box is wide enough to be inactive, so a
    plain forward-backward run on the composite objective provides an
    independent primal reference."""
    dH, dG = 30, 20
    rng = np.random.default_rng(seed)
    G0 = rng.standard_normal((dH, dH))
    Q = G0.T @ G0
    Q /= np.linalg.eigvalsh(Q)[-1]
    x_target = 0.3 * rng.standard_normal(dH)
    q = Q @ x_target
    smooth = CocoerciveMap.quadratic(Q, q)

    L0 = rng.standard_normal((dG, dH))
    Qm, _ = np.linalg.qr(L0.T)
    L = 1.5 * Qm[:, :dG].T
    mu_l1 = 0.3

    L_norm = 1.5
    s = 0.8 / (L_norm + 1.0 / (2.0 * smooth.beta))
    built = PdsBuilt(
        primal_block=BoxBlock(-10.0, 10.0), tau=s, dim_primal=dH,
        duals=[PdsDualTerm(block=L1Block(mu_l1), L=L, sigma=s, omega=1.0)],
        smooth=smooth,
    )
    z0 = built.space.zeros()
    return ProblemInstance(
        name="pds-small", kind="pds", operator=built.operator, z0=z0,
        lam=1.0, built=built,
        constants={"Q": Q, "q": q, "L": L, "mu": mu_l1, "eta": built.eta,
                   "delta": built.delta, "beta": built.beta},
    )


def make_multiblock_nonstationary(kind: str, d: int = 10, n_blocks: int = 3,
                                  seed: int = 2) -> ProblemInstance:
    """Per-step-parameter variant of the multi-block instance: the step size
    follows a schedule of the given kind that decays from 95% of the
    admissible limit ``2 beta`` toward the limit operator's ``1.5 beta``."""
    beta = 1.0      # modulus of the multi-block instance's smooth part
    gamma0, hi = 1.5 * beta, 1.9 * beta
    schedules = {
        "geometric": GammaSchedule.geometric(gamma0, hi),
        "inverse-square": GammaSchedule.inverse_square(gamma0, hi),
        "harmonic": GammaSchedule.harmonic(gamma0, hi),
        "constant": GammaSchedule.constant(gamma0),
    }
    if kind not in schedules:
        raise ParameterError(f"unknown schedule kind {kind!r}")
    base = make_gfb_multiblock(n_blocks, d, seed=seed, gamma=gamma0)
    return replace(base, name=f"multiblock-ns({kind})", schedule=schedules[kind],
                   cert_horizon=10_000)


def reference_solution(problem: ProblemInstance) -> FixedPointSet:
    """Fixed-point reference from a longer, tighter exact run; certified by
    re-evaluating the residual at the returned point."""
    stop = StopRule(max_iters=_REFERENCE_FACTOR * problem.cert_horizon,
                    residual_tol=_REFERENCE_TOL)
    trace = run_km(Channel(problem.operator), problem.z0, problem.lam, stop, seed=0)
    zf = np.array(trace.z_final)    # a copy: a run of no steps ends at z0 itself
    res = problem.operator.space.norm(zf - problem.operator(zf))
    if not res <= _REFERENCE_TOL * 10.0:
        raise UnavailableError(
            f"reference run not converged: residual {res:.3e} > {_REFERENCE_TOL * 10.0:.1e}"
        )
    zf.flags.writeable = False      # shared by every run of the problem
    return FixedPointSet.from_point(zf)
