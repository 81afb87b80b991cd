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
from .spaces import ProductSpace, apply_rows


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
class CocoerciveMap:
    """Single-valued cocoercive map with its modulus."""

    fn: callable
    beta: float
    label: str

    @staticmethod
    def quadratic(Q, q) -> "CocoerciveMap":
        """The gradient ``x -> Q x - q`` of ``0.5 <x, Q x> - <q, x>``, with
        ``Q`` symmetric, PSD and non-zero; its modulus is ``1 / lambda_max``.
        It takes a point or a stack of points (row by row)."""
        Q = np.asarray(Q, dtype=float)
        q = np.asarray(q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or q.shape != (Q.shape[0],):
            raise StructuralError("Q must be square and q of matching length")
        if np.max(np.abs(Q - Q.T)) > 1e-12:
            raise StructuralError("Q must be symmetric")
        eigs = np.linalg.eigvalsh(Q)
        if eigs[0] < -1e-12 or eigs[-1] <= 0:
            raise ParameterError("Q must be PSD and non-zero")
        return CocoerciveMap(lambda x: apply_rows(Q, x) - q, 1.0 / float(eigs[-1]), "quadratic")

    @staticmethod
    def envelope_l1(mu: float) -> "CocoerciveMap":
        return CocoerciveMap(lambda x: moreau_envelope_gradient(x, mu), 1.0,
                             f"env_l1({mu:g})")


def gradient_step(Q, q, gamma: float) -> OperatorSpec:
    """Explicit step ``x -> x - gamma (Q x - q)`` on the space of ``q``,
    certified ``gamma/(2 beta)``-averaged for ``gamma in (0, 2 beta)``, with
    ``beta`` the modulus of :meth:`CocoerciveMap.quadratic`."""
    grad, gamma = CocoerciveMap.quadratic(Q, q), float(gamma)
    if not (0.0 < gamma < 2.0 * grad.beta):
        raise ParameterError(f"step size {gamma} outside (0, {2.0 * grad.beta})")
    fn = grad.fn
    return OperatorSpec(lambda z: z - gamma * fn(z), gamma / (2.0 * grad.beta),
                        f"grad_step({gamma:g})", ProductSpace.single(np.size(q)))
