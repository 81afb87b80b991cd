"""Analytic test-problem generators with known fixed-point sets, moduli and
rates.  Every generator is deterministic under a fixed seed."""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bounds import EmpiricalConstants, fit_tail_rate, gd_theoretical_rate
from .errors import ParameterError, UnavailableError
from .km import (
    ErrorSchedule,
    FixedPointSet,
    GammaSchedule,
    IterationTrace,
    RelaxationSchedule,
    StopRule,
    run_km,
)
from .operators import CocoerciveMap, OperatorSpec, gradient_step, zero_operator
from .spaces import ProductSpace
from .splitting import (
    BoxBlock,
    DrsBuilt,
    DrsCertificates,
    DrsSpec,
    GfbBuilt,
    GfbCertificates,
    GfbScheduleChannel,
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

CERT_HORIZON = 1000
# fixed-point references solved in this process, least recently used first
# (see ProblemInstance.fix_reference); a start point and a fixed point each
_REFERENCE_CACHE_SIZE = 8
_REFERENCES: dict = {}


@dataclass
class ProblemInstance:
    """Operator assembly plus what the certification harness needs: a
    fixed-point description, analytic constants when available, and the
    recommended start / schedules.  A problem with a step-size ``schedule``
    is non-stationary: ``operator`` is its limit and its runs go through the
    schedule's channel model.  ``origin`` keys the fixed-point reference
    (see :meth:`fix_reference`): the generator that built the instance and
    its arguments, or a token of its own for an instance built any other
    way (``dataclasses.replace`` included) or given a new operator or
    relaxation."""

    name: str
    kind: str                       # km | gfb | drs | pds
    operator: OperatorSpec
    z0: np.ndarray
    relaxation: RelaxationSchedule
    fix: Optional[FixedPointSet] = None
    kappa: Optional[float] = None
    theoretical_rate: Optional[float] = None
    rate_basis: Optional[str] = None        # residual | dist_sq
    rate_horizon: int = 60
    cert_horizon: int = CERT_HORIZON
    built: object = None
    constants: dict = field(default_factory=dict)
    schedule: Optional[GammaSchedule] = None
    origin: object = field(init=False, default_factory=object, repr=False)

    def __setattr__(self, name, value):
        # a new operator or relaxation is no longer what the generator built
        if name in ("operator", "relaxation") and "origin" in self.__dict__:
            super().__setattr__("origin", object())
        super().__setattr__(name, value)

    # -- run helpers --------------------------------------------------------

    def exact_run(self, max_iters: Optional[int] = None, tol: float = 0.0,
                  observe=None, seed: int = 0) -> IterationTrace:
        return self.inexact_run(0.0, 3.0, max_iters, tol, observe=observe, seed=seed)

    def inexact_run(self, c: float = 0.1, p: float = 3.0,
                    max_iters: Optional[int] = None, tol: float = 0.0,
                    observe=None, seed: int = 0) -> IterationTrace:
        """A run with the error law ``c / (k+1)^p``, exact when ``c = 0``.  A
        splitting problem runs through its channel model either way, so each
        step's evaluation internals reach ``observe`` in ``extras["parts"]``;
        an exact channel draws no error and gives the plain run's trace."""
        stop = StopRule(max_iters=max_iters or self.cert_horizon, residual_tol=tol)
        if self.kind == "km":
            source = {"errors": ErrorSchedule.power(c, p)}
        else:
            source = {"channel": self.make_channel(c, p)}
        return run_km(self.operator, self.z0, self.relaxation, stop=stop,
                      fix=self.fix, observe=observe, seed=seed, **source)

    def certified_run(self, c: float = 0.0, p: float = 3.0,
                      max_iters: Optional[int] = None, tol: float = 0.0,
                      seed: int = 0):
        """One run, exact when ``c = 0`` and inexact with the error law
        ``c / (k+1)^p`` otherwise, certified in the same pass: the fixed-point
        reference is computed first, then the empirical constants and the
        certificate of the problem's kind accumulate through the engine's
        step hook.  Returns ``(trace, constants, certificate series or
        None)``."""
        z_star = self.fix_reference().nearest(self.z0)
        constants = EmpiricalConstants(z_star, self.operator.space)
        if self.kind == "gfb":
            cert = GfbCertificates(self.built)
        elif self.kind == "drs":
            cert = DrsCertificates(self.built)
        elif self.kind == "pds":
            cert = PdsCertificates(self.built, z_star)
        else:
            cert = None
        hooks = [constants] if cert is None else [constants, cert]

        def observe(*step):
            for hook in hooks:
                hook.observe(*step)

        trace = self.inexact_run(c, p, max_iters, tol, observe=observe, seed=seed)
        bc = constants.constants(trace)
        return trace, bc, None if cert is None else cert.series(trace, bc)

    def make_channel(self, c: float, p: float):
        if self.schedule is not None:
            return GfbScheduleChannel(self.built, self.schedule, ErrorSchedule.power(c, p))
        if self.kind in ("gfb", "drs"):
            half = ErrorSchedule.power(c / 2.0, p)
            return self.built.channel(half, half)
        if self.kind == "pds":
            quarter = ErrorSchedule.power(c / 4.0, p)
            return self.built.channel([quarter] * 4)
        raise ParameterError(f"no channel model for kind {self.kind!r}")

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
        :func:`reference_solution` run, solved once per process: it is kept
        under the key of everything that fixes the operator, the start and
        the reference stop rule (``origin``, the bytes of ``z0`` and
        ``cert_horizon``)."""
        if self.fix is not None:
            return self.fix
        key = (self.origin, self.z0.tobytes(), self.cert_horizon)
        ref = _REFERENCES.pop(key, None)
        if ref is None:
            ref = reference_solution(self)
        _REFERENCES[key] = ref
        if len(_REFERENCES) > _REFERENCE_CACHE_SIZE:
            del _REFERENCES[next(iter(_REFERENCES))]
        return ref


def _generator(make):
    """Set the ``origin`` of each instance ``make`` returns: its name and
    its arguments with the defaults filled in, floats by their exact bits
    (so ``0.0`` and ``-0.0`` differ).  For the generators whose fixed point
    is not analytic, so that their instances share one reference."""
    signature = inspect.signature(make)

    @functools.wraps(make)
    def generate(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        problem = make(*args, **kwargs)
        problem.origin = (make.__name__, *(
            (name, v.hex() if isinstance(v, float) else v)
            for name, v in bound.arguments.items()))
        return problem
    return generate


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
    space = ProductSpace.single(d)
    rng = np.random.default_rng(seed)
    z0 = space.vector(rng.standard_normal(d))
    op = zero_operator(space)
    fix = FixedPointSet.from_point(space.zeros())
    _check_fixed_point(op, space.zeros())
    return ProblemInstance(
        name="zero-map", kind="km", operator=op, z0=z0,
        relaxation=RelaxationSchedule.constant(0.5), fix=fix, kappa=1.0,
        rate_horizon=40,
    )


def make_quadratic_gd(delta_m: float, delta_M: float, d: int, gamma: float,
                      ) -> ProblemInstance:
    """Gradient descent on a diagonal quadratic whose spectrum spans
    ``[delta_m, delta_M]`` with the extremes attained.  The fixed point is the
    origin, the residual-to-distance modulus is ``1/(gamma delta_m)`` and the
    starting point is a fixed non-axis-aligned seeded vector so the slow
    eigendirection is excited."""
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
    if 0.0 < spectral < 1.0:
        horizon = int(np.log(1e-12 / res0) / np.log(spectral))
    else:
        horizon = 20
    horizon = int(np.clip(horizon, 20, 200))

    return ProblemInstance(
        name=f"gd(gamma={gamma:g})", kind="km", operator=op, z0=z0,
        relaxation=RelaxationSchedule.constant(1.0), fix=fix,
        kappa=1.0 / (gamma * delta_m),
        theoretical_rate=gd_theoretical_rate(gamma, delta_m, delta_M),
        rate_basis="residual", rate_horizon=horizon,
        constants={"delta_m": delta_m, "delta_M": delta_M, "gamma": gamma,
                   "spectral_rate": spectral},
    )


def make_two_subspaces(theta: float, d: int, lam: float = 1.0) -> ProblemInstance:
    """Douglas-Rachford for the intersection of two lines at angle theta,
    embedded in dimension d.  The fixed-point set is the orthogonal
    complement of the plane the lines span; the residual-to-distance modulus
    is ``1/sin(theta)`` and the squared-distance contraction per step is
    exactly ``1 - (2 - lam) lam sin^2(theta)``."""
    if not (0.0 < theta <= np.pi / 2.0) or d < 2:
        raise ParameterError("need theta in (0, pi/2] and d >= 2")
    e1 = np.zeros(d); e1[0] = 1.0
    v = np.zeros(d); v[0], v[1] = np.cos(theta), np.sin(theta)
    spec = DrsSpec(SubspaceBlock(e1), SubspaceBlock(v), gamma=1.0, dim=d)
    built = DrsBuilt(spec)
    space = built.space

    def proj_fix(z: np.ndarray) -> np.ndarray:
        out = z.copy()
        out[:2] = 0.0
        return out

    fix = FixedPointSet(proj_fix)
    rng = np.random.default_rng(99)
    z0_vec = 10.0 * rng.standard_normal(d)
    if np.hypot(z0_vec[0], z0_vec[1]) < 1.0:
        z0_vec[0] += 2.0
    z0 = space.vector(z0_vec)
    _check_fixed_point(built.operator, proj_fix(z0))

    zeta = 1.0 - (2.0 - lam) * lam * np.sin(theta) ** 2
    d_plane = float(np.hypot(z0_vec[0], z0_vec[1]))
    step_factor = float(np.sqrt(zeta))
    if 0.0 < step_factor < 1.0:
        horizon = int(np.log(1e-7 / d_plane) / np.log(step_factor)) - 2
    else:
        horizon = 20
    horizon = int(np.clip(horizon, 20, 200))

    return ProblemInstance(
        name=f"two-subspaces(theta={theta:.4g},lam={lam:g})", kind="drs",
        operator=built.operator, z0=z0,
        relaxation=RelaxationSchedule.constant(lam), fix=fix,
        kappa=1.0 / np.sin(theta), theoretical_rate=float(zeta),
        rate_basis="dist_sq", rate_horizon=horizon, built=built,
        constants={"theta": theta, "lam": lam},
    )


@_generator
def make_lasso(m: int, n: int, mu: Optional[float] = None, seed: int = 1,
               ) -> ProblemInstance:
    """Single-block product-space splitting (plain forward-backward) for an
    l1-penalized least-squares instance with a planted sparse solution and a
    seeded, column-normalized design."""
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
    if mu is None:
        mu = 0.2 * float(np.max(np.abs(q)))
    gamma = smooth.beta
    spec = GfbSpec(blocks=[L1Block(mu)], weights=np.array([1.0]), gamma=gamma,
                   dim=n, smooth=smooth)
    built = GfbBuilt(spec)
    z0 = built.space.point((np.zeros(n),))
    return ProblemInstance(
        name="lasso", kind="gfb", operator=built.operator, z0=z0,
        relaxation=RelaxationSchedule.constant(1.0), built=built,
        constants={"A": A, "y": y, "mu": mu, "support": np.sort(support),
                   "beta": smooth.beta},
    )


@_generator
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
    spec = GfbSpec(blocks=blocks, weights=weights, gamma=gamma, dim=d,
                   smooth=CocoerciveMap.envelope_l1(0.3))
    built = GfbBuilt(spec)
    z0 = built.space.point(tuple(rng.standard_normal(d) for _ in range(n_blocks)))
    return ProblemInstance(
        name=f"multiblock(n={n_blocks})", kind="gfb", operator=built.operator,
        z0=z0, relaxation=RelaxationSchedule.constant(1.0), built=built,
        constants={"gamma": gamma, "beta": 1.0},
    )


@_generator
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
    spec = PdsSpec(
        primal_block=BoxBlock(-10.0, 10.0), tau=s, dim_primal=dH,
        duals=[PdsDualTerm(block=L1Block(mu_l1), L=L, sigma=s, omega=1.0)],
        smooth=smooth,
    )
    built = PdsBuilt(spec)
    z0 = built.space.zeros()
    return ProblemInstance(
        name="pds-small", kind="pds", operator=built.operator, z0=z0,
        relaxation=RelaxationSchedule.constant(1.0), built=built,
        constants={"Q": Q, "q": q, "L": L, "mu": mu_l1, "eta": built.eta,
                   "delta": built.delta, "beta": built.beta},
    )


@_generator
def make_multiblock_nonstationary(kind: str, d: int = 10, n_blocks: int = 3,
                                  seed: int = 2) -> ProblemInstance:
    """Per-step-parameter variant of the multi-block instance: the step size
    follows a schedule of the given kind that decays from 95% of the
    admissible limit ``2 beta`` toward the limit operator's ``1.5 beta``."""
    beta = 1.0      # modulus of the multi-block instance's smooth part
    gamma0, hi = 1.5 * beta, 1.9 * beta
    schedules = {
        "geometric": GammaSchedule.geometric(gamma0, hi, ratio=1.1),
        "inverse-square": GammaSchedule.inverse_square(gamma0, hi),
        "harmonic": GammaSchedule.harmonic(gamma0, hi),
        "constant": GammaSchedule.constant(gamma0),
    }
    if kind not in schedules:
        raise ParameterError(f"unknown schedule kind {kind!r}")
    base = make_gfb_multiblock(n_blocks, d, seed=seed, gamma=gamma0)
    return replace(base, name=f"multiblock-ns({kind})", schedule=schedules[kind],
                   cert_horizon=10_000)


def reference_solution(problem: ProblemInstance, tol: float = 1e-13,
                       factor: int = 10) -> FixedPointSet:
    """Fixed-point reference from a longer, tighter exact run; certified by
    re-evaluating the residual at the returned point."""
    stop = StopRule(max_iters=factor * problem.cert_horizon, residual_tol=tol)
    trace = run_km(problem.operator, problem.z0, problem.relaxation, stop=stop, seed=0)
    zf = np.array(trace.z_final)    # a copy: a run of no steps ends at z0 itself
    res = problem.operator.space.norm(zf - problem.operator(zf))
    if not res <= tol * 10.0:
        raise UnavailableError(
            f"reference run not converged: residual {res:.3e} > {tol * 10.0:.1e}"
        )
    zf.flags.writeable = False      # shared by every run of the problem
    return FixedPointSet.from_point(zf)
