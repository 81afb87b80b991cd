"""Operator abstraction with averagedness certificates and a prox toolbox.

An operator carries an averagedness certificate ``alpha`` established *by
construction*: a gradient step from its step size and cocoercivity modulus,
a composition from the sharp two-factor constant of its factors.  Sampling
can falsify a certificate but cannot prove one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError
from .spaces import ProductSpace


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

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return self.fn(z)

    def __repr__(self):
        return f"OperatorSpec({self.label!r}, alpha={self.alpha})"


def zero_operator(space: ProductSpace) -> OperatorSpec:
    """The constant zero map, certified non-expansive only."""
    zero = space.zeros()
    return OperatorSpec(lambda z: zero, None, "zero", space)


def composition_alpha(a1: float, a2: float) -> float:
    """The sharp two-factor constant ``(a1 + a2 - 2 a1 a2) / (1 - a1 a2)``
    of a composition of an ``a1``- and an ``a2``-averaged map."""
    return (a1 + a2 - 2.0 * a1 * a2) / (1.0 - a1 * a2)


# ---------------------------------------------------------------------------
# prox toolbox (vector level)
# ---------------------------------------------------------------------------

def prox_l1(x, mu: float) -> np.ndarray:
    """Componentwise soft threshold ``sign(x) max(|x| - mu, 0)``."""
    if mu <= 0:
        raise ParameterError("threshold must be positive")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - mu, 0.0)


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
        object.__setattr__(self, "_eig_max", float(eigs[-1]))

    @property
    def beta(self) -> float:
        """Cocoercivity modulus of the gradient: 1 / largest eigenvalue."""
        if self._eig_max <= 0:
            raise ParameterError("zero quadratic has no finite Lipschitz modulus")
        return 1.0 / self._eig_max

    def grad(self, x) -> np.ndarray:
        return self.H @ np.asarray(x, dtype=float) - self.b


def gradient_step(f: QuadraticFn, gamma: float) -> OperatorSpec:
    """Explicit step ``x -> x - gamma grad f(x)``, certified ``gamma/(2 beta)``-averaged
    for ``gamma in (0, 2 beta)``."""
    gamma = float(gamma)
    beta = f.beta
    if not (0.0 < gamma < 2.0 * beta):
        raise ParameterError(f"step size {gamma} outside (0, {2.0 * beta})")
    alpha = gamma / (2.0 * beta)

    def step(z: np.ndarray) -> np.ndarray:
        return z - gamma * f.grad(z)

    return OperatorSpec(step, alpha, f"grad_step({gamma:g})", ProductSpace.single(f.b.size))
