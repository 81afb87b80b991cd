"""Operator abstraction with averagedness certificates and a prox/resolvent toolbox.

An operator carries an averagedness certificate ``alpha`` established *by
construction*: the algebra below (relaxation, pairwise composition, convex
combination) propagates the certificate through closed-form constants.  The
sampling checks at the bottom of the module are falsification tests, not the
source of truth; sampling cannot prove averagedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, StructuralError
from .spaces import ProductPoint, ProductSpace


class OperatorSpec:
    """An evaluable map on a product space with an averagedness certificate.

    ``alpha`` is a number in (0, 1] claiming the map splits as
    ``alpha * R + (1 - alpha) * Id`` with ``R`` non-expansive; ``alpha=0.5``
    marks firm non-expansiveness.  ``alpha=None`` claims plain
    non-expansiveness only.  Evaluation is pure; specs may be shared across
    concurrent runs.
    """

    __slots__ = ("fn", "alpha", "label", "space")

    def __init__(self, fn, alpha, label: str, space: ProductSpace):
        if alpha is not None:
            alpha = float(alpha)
            if not (0.0 < alpha <= 1.0):
                raise ParameterError(f"averagedness constant must lie in (0, 1], got {alpha}")
        self.fn = fn
        self.alpha = alpha
        self.label = label
        self.space = space

    def __call__(self, z: ProductPoint) -> ProductPoint:
        return self.fn(z)

    @property
    def alpha_or_one(self) -> float:
        """Effective constant for relaxation ranges: 1 when only non-expansive."""
        return 1.0 if self.alpha is None else self.alpha

    def __repr__(self):
        return f"OperatorSpec({self.label!r}, alpha={self.alpha})"


def identity_operator(space: ProductSpace) -> OperatorSpec:
    return OperatorSpec(lambda z: z, None, "id", space)


def zero_operator(space: ProductSpace, alpha=None) -> OperatorSpec:
    zero = space.zeros()
    return OperatorSpec(lambda z: zero, alpha, "zero", space)


def vector_operator(space: ProductSpace, fn, alpha, label: str) -> OperatorSpec:
    """Wrap a plain vector map into a single-block operator.

    Each output is checked for its shape only; finiteness is checked where
    the output is used, once per step by the engine.
    """
    if space.n != 1:
        raise StructuralError("vector_operator needs a single-block space")
    shape = space.dims

    def apply(z: ProductPoint) -> ProductPoint:
        out = np.asarray(fn(z.data), dtype=float)
        if out.ndim == 0:
            out = out.reshape(1)
        if out.shape != shape:
            raise StructuralError(f"{label}: expected output shape {shape}, got {out.shape}")
        return space._wrap(out)

    return OperatorSpec(apply, alpha, label, space)


# ---------------------------------------------------------------------------
# operator algebra with certificate propagation
# ---------------------------------------------------------------------------

def relax(T: OperatorSpec, lam: float) -> OperatorSpec:
    """Relaxed map ``Id + lam (T - Id)``, certified ``lam * alpha``-averaged.

    Admissible range is ``0 < lam < 1/alpha`` (with alpha = 1 when T only
    claims non-expansiveness).
    """
    lam = float(lam)
    cap = 1.0 / T.alpha_or_one
    if not (0.0 < lam < cap):
        raise ParameterError(f"relaxation {lam} outside (0, {cap})")
    alpha_new = lam * T.alpha_or_one

    def fn(z):
        return z + (T(z) - z) * lam

    return OperatorSpec(fn, alpha_new, f"relax({T.label},{lam:g})", T.space)


def composition_alpha(a1: float, a2: float) -> float:
    """The sharp two-factor constant ``(a1 + a2 - 2 a1 a2) / (1 - a1 a2)``
    of a composition of an ``a1``- and an ``a2``-averaged map."""
    return (a1 + a2 - 2.0 * a1 * a2) / (1.0 - a1 * a2)


def compose2(T1: OperatorSpec, T2: OperatorSpec) -> OperatorSpec:
    """Composition ``T1 o T2``, certified with :func:`composition_alpha` for
    constants a1, a2 in (0, 1)."""
    for T in (T1, T2):
        if T.alpha is None or not (0.0 < T.alpha < 1.0):
            raise ParameterError("compose2 needs both constants strictly inside (0, 1)")
    if T1.space is not T2.space and T1.space.dims != T2.space.dims:
        raise StructuralError("composition needs operators on the same space")
    alpha = composition_alpha(T1.alpha, T2.alpha)
    return OperatorSpec(
        lambda z: T1(T2(z)), alpha, f"({T1.label} o {T2.label})", T1.space
    )


def combine(ops, weights) -> OperatorSpec:
    """Pointwise convex combination; certified with ``max_i alpha_i``."""
    ops = list(ops)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(ops),) or np.any(weights <= 0):
        raise ParameterError("need one positive weight per operator")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ParameterError("combination weights must sum to 1")
    if any(T.alpha is None for T in ops):
        raise ParameterError("combine needs certified averaged operators")
    alpha = max(T.alpha for T in ops)
    space = ops[0].space

    def fn(z):
        acc = ops[0](z) * weights[0]
        for w, T in zip(weights[1:], ops[1:]):
            acc = acc + T(z) * w
        return acc

    return OperatorSpec(fn, alpha, "combine", space)


def residual(T: OperatorSpec) -> OperatorSpec:
    """Residual map ``Id - T`` (no averagedness claimed)."""
    return OperatorSpec(lambda z: z - T(z), None, f"res({T.label})", T.space)


def scaled_residual(T: OperatorSpec) -> OperatorSpec:
    """``(1 / (2 alpha)) (Id - T)``, firmly non-expansive by construction."""
    s = 1.0 / (2.0 * T.alpha_or_one)
    return OperatorSpec(
        lambda z: (z - T(z)) * s, 0.5, f"scaled_res({T.label})", T.space
    )


# ---------------------------------------------------------------------------
# prox / projection / resolvent toolbox (vector level)
# ---------------------------------------------------------------------------

def prox_l1(x, mu: float) -> np.ndarray:
    """Componentwise soft threshold ``sign(x) max(|x| - mu, 0)``."""
    if mu <= 0:
        raise ParameterError("threshold must be positive")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - mu, 0.0)


def project_box(x, lo, hi) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    if not np.all(lo <= hi):
        raise ParameterError("box bounds must satisfy lo <= hi componentwise")
    return np.clip(x, lo, hi)


def project_subspace(x, U) -> np.ndarray:
    """Euclidean projection onto the column span of an orthonormal basis U."""
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U[:, None]
    gram = U.T @ U
    if not np.max(np.abs(gram - np.eye(U.shape[1]))) <= 1e-10:
        raise ParameterError("basis columns are not orthonormal")
    x = np.asarray(x, dtype=float)
    return U @ (U.T @ x)


def moreau_envelope_gradient(x, mu: float) -> np.ndarray:
    """Gradient of the unit-index smoothing of ``mu * l1``: ``x - soft(x, mu)``.

    Firmly non-expansive, hence 1-cocoercive; a convenient smooth forcing
    term for splitting tests.
    """
    x = np.asarray(x, dtype=float)
    return x - prox_l1(x, mu)


@dataclass(frozen=True)
class QuadraticFn:
    """Quadratic ``f(x) = 0.5 <x, H x> - <b, x>`` with symmetric PSD ``H``."""

    H: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or b.shape != (H.shape[0],):
            raise StructuralError("H must be square and b of matching length")
        if np.max(np.abs(H - H.T)) > 1e-12:
            raise StructuralError("H must be symmetric")
        eigs = np.linalg.eigvalsh(H)
        if eigs[0] < -1e-12:
            raise StructuralError("H must be positive semi-definite")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_eig_min", float(max(eigs[0], 0.0)))
        object.__setattr__(self, "_eig_max", float(eigs[-1]))

    @property
    def delta_min(self) -> float:
        return self._eig_min

    @property
    def delta_max(self) -> float:
        return self._eig_max

    @property
    def beta(self) -> float:
        """Cocoercivity modulus of the gradient: 1 / largest eigenvalue."""
        if self._eig_max <= 0:
            raise ParameterError("zero quadratic has no finite Lipschitz modulus")
        return 1.0 / self._eig_max

    def grad(self, x) -> np.ndarray:
        return self.H @ np.asarray(x, dtype=float) - self.b


def gradient_step(f: QuadraticFn, gamma: float, space: ProductSpace = None) -> OperatorSpec:
    """Explicit step ``x -> x - gamma grad f(x)``, certified ``gamma/(2 beta)``-averaged
    for ``gamma in (0, 2 beta)``."""
    gamma = float(gamma)
    beta = f.beta
    if not (0.0 < gamma < 2.0 * beta):
        raise ParameterError(f"step size {gamma} outside (0, {2.0 * beta})")
    if space is None:
        space = ProductSpace.single(f.b.size)
    elif space.dims != (f.b.size,):
        raise StructuralError(f"gradient step on R^{f.b.size} needs a single block of that size")
    alpha = gamma / (2.0 * beta)

    def step(z: ProductPoint) -> ProductPoint:
        x = z.data
        return space._wrap(x - gamma * f.grad(x))

    return OperatorSpec(step, alpha, f"grad_step({gamma:g})", space)


# ---------------------------------------------------------------------------
# sampling checks (seeded, deterministic)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingReport:
    max_violation: float
    passed: bool
    samples: int
    radius: float
    seed: int


def _sample_pair(T: OperatorSpec, rng, radius: float):
    x = T.space.sample_ball(rng, radius)
    y = T.space.sample_ball(rng, radius)
    Tx, Ty = T(x), T(y)
    if not (Tx.is_finite() and Ty.is_finite()):
        raise NumericalError(f"non-finite output of {T.label} at a sampled point")
    return x, y, Tx, Ty


def check_firmly_nonexpansive(
    T: OperatorSpec, samples: int = 1000, radius: float = 10.0, seed: int = 0,
    tol: float = 1e-10,
) -> SamplingReport:
    """Sample pairs in a ball and measure the worst slack of
    ``||Tx - Ty||^2 <= <Tx - Ty, x - y>``."""
    if samples < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.default_rng(seed)
    space = T.space
    worst = 0.0
    for _ in range(samples):
        x, y, Tx, Ty = _sample_pair(T, rng, radius)
        dT = Tx - Ty
        lhs = space.inner(dT, dT)
        rhs = space.inner(dT, x - y)
        worst = max(worst, lhs - rhs)
    return SamplingReport(worst, worst <= tol, samples, radius, seed)


def check_averaged(
    T: OperatorSpec, alpha: float, samples: int = 1000, radius: float = 10.0,
    seed: int = 0, tol: float = 1e-10,
) -> SamplingReport:
    """Sample pairs and measure relative expansiveness of
    ``R = (T - (1 - alpha) Id) / alpha``."""
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ParameterError("alpha must lie in (0, 1]")
    if samples < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.default_rng(seed)
    space = T.space
    one_minus = 1.0 - alpha
    worst = 0.0
    for _ in range(samples):
        x, y, Tx, Ty = _sample_pair(T, rng, radius)
        Rx = (Tx - x * one_minus) * (1.0 / alpha)
        Ry = (Ty - y * one_minus) * (1.0 / alpha)
        gap = space.norm(Rx - Ry) - space.norm(x - y)
        denom = max(space.norm(x - y), 1e-15)
        worst = max(worst, gap / denom)
    return SamplingReport(worst, worst <= tol, samples, radius, seed)
