"""Weighted product Hilbert-space primitives.

A point is a tuple of dense real blocks together with positive per-block
weights.  The inner product is ``<x, y> = sum_i w_i <x_i, y_i>`` and the
induced weighted norm is the only norm used on these points.  A space may
additionally install a metric operator ``M`` (self-adjoint, positive in the
weighted inner product); then ``<x, y>_M = <x, M y>`` replaces the plain
inner product wherever the space is asked for one.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

WEIGHT_SUM_TOL = 1e-12


def _as_block(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError("blocks must be non-empty 1-D real vectors")
    if not np.isfinite(arr).all():
        raise StructuralError("non-finite entries in point data")
    return arr


class ProductPoint:
    """Element of a weighted product of real coordinate spaces.

    Treated as immutable: arithmetic returns new points and never mutates
    the operands, so points can be shared freely across concurrent runs.
    """

    __slots__ = ("blocks", "weights")

    def __init__(self, blocks, weights):
        blocks = tuple(_as_block(b) for b in blocks)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size != len(blocks) or weights.size < 1:
            raise StructuralError("need one positive weight per block")
        if not (np.all(weights > 0) and np.all(np.isfinite(weights))):
            raise StructuralError("weights must be positive and finite")
        self.blocks = blocks
        self.weights = weights

    @classmethod
    def _raw(cls, blocks, weights):
        # internal fast path: trusted inputs, no validation
        obj = object.__new__(cls)
        obj.blocks = blocks
        obj.weights = weights
        return obj

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def dims(self):
        return tuple(b.size for b in self.blocks)

    def block(self, i: int) -> np.ndarray:
        return self.blocks[i]

    def __add__(self, other):
        _require_compatible(self, other)
        return ProductPoint._raw(
            tuple(a + b for a, b in zip(self.blocks, other.blocks)), self.weights
        )

    def __sub__(self, other):
        _require_compatible(self, other)
        return ProductPoint._raw(
            tuple(a - b for a, b in zip(self.blocks, other.blocks)), self.weights
        )

    def __mul__(self, scalar):
        s = float(scalar)
        return ProductPoint._raw(tuple(b * s for b in self.blocks), self.weights)

    __rmul__ = __mul__

    def __neg__(self):
        return ProductPoint._raw(tuple(-b for b in self.blocks), self.weights)

    def is_finite(self) -> bool:
        return all(np.isfinite(b).all() for b in self.blocks)

    def __repr__(self):
        return f"ProductPoint(n={self.n}, dims={self.dims})"


def _require_compatible(x: ProductPoint, y: ProductPoint) -> None:
    if x.weights is y.weights:
        return
    if x.dims != y.dims or not np.array_equal(x.weights, y.weights):
        raise StructuralError(
            f"incompatible points: dims {x.dims} / {y.dims}, weights differ"
        )


def weighted_inner(x: ProductPoint, y: ProductPoint) -> float:
    """Weighted inner product ``sum_i w_i <x_i, y_i>``."""
    _require_compatible(x, y)
    acc = 0.0
    for w, a, b in zip(x.weights, x.blocks, y.blocks):
        acc += w * float(np.dot(a, b))
    return acc


def weighted_norm(x: ProductPoint) -> float:
    return float(np.sqrt(max(weighted_inner(x, x), 0.0)))


def _require_diagonal_layout(z: ProductPoint) -> None:
    d = z.blocks[0].size
    if any(b.size != d for b in z.blocks):
        raise StructuralError("diagonal-subspace operations require equal block dimensions")
    if abs(float(np.sum(z.weights)) - 1.0) > WEIGHT_SUM_TOL:
        raise StructuralError("diagonal-subspace operations require weights summing to 1")


def project_diagonal(z: ProductPoint) -> ProductPoint:
    """Project onto the diagonal subspace: every block becomes ``sum_i w_i z_i``.

    Orthogonal (idempotent, self-adjoint) in the weighted inner product,
    which requires the weights to sum to one.
    """
    _require_diagonal_layout(z)
    mean = z.weights[0] * z.blocks[0]
    for w, b in zip(z.weights[1:], z.blocks[1:]):
        mean = mean + w * b
    return ProductPoint._raw(tuple(mean.copy() for _ in z.blocks), z.weights)


def reflect_diagonal(z: ProductPoint) -> ProductPoint:
    """Reflection about the diagonal subspace, ``2 P z - z``; an involution."""
    p = project_diagonal(z)
    return ProductPoint._raw(
        tuple(2.0 * a - b for a, b in zip(p.blocks, z.blocks)), z.weights
    )


def lift(x, n: int, weights) -> ProductPoint:
    """Copy a single vector into every block: the canonical isometry onto
    the diagonal subspace (an isometry whenever the weights sum to one)."""
    if n < 1:
        raise StructuralError("need at least one block")
    arr = _as_block(x)
    return ProductPoint(tuple(arr.copy() for _ in range(n)), weights)


class ProductSpace:
    """Shape (block dimensions), weights and metric of a product space."""

    __slots__ = ("dims", "weights", "metric_op", "_dim_total")

    def __init__(self, dims, weights, metric_op=None):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise StructuralError("block dimensions must be positive")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(dims),) or not np.all(weights > 0):
            raise StructuralError("need one positive weight per block")
        if not np.isfinite(weights).all():
            raise StructuralError("weights must be positive and finite")
        self.dims = dims
        self.weights = weights
        self.metric_op = metric_op
        self._dim_total = sum(dims)

    @classmethod
    def single(cls, d: int) -> "ProductSpace":
        return cls((d,), (1.0,))

    @property
    def n(self) -> int:
        return len(self.dims)

    def point(self, blocks) -> ProductPoint:
        """Validated point from user data: 1-D, finite, matching the layout."""
        blocks = tuple(_as_block(b) for b in blocks)
        dims = tuple(b.size for b in blocks)
        if dims != self.dims:
            raise StructuralError(f"expected dims {self.dims}, got {dims}")
        return self._wrap(blocks)

    def vector(self, x) -> ProductPoint:
        if self.n != 1:
            raise StructuralError("vector() is only defined on single-block spaces")
        return self.point((x,))

    def _wrap(self, blocks: tuple) -> ProductPoint:
        # internal fast path for blocks computed from points of this space
        # (operator and channel outputs): no validation, and the space's own
        # weight array, so every compatibility check is an identity test
        return ProductPoint._raw(blocks, self.weights)

    def zeros(self) -> ProductPoint:
        return self._wrap(tuple(np.zeros(d) for d in self.dims))

    def lift_vector(self, x) -> ProductPoint:
        arr = _as_block(x)
        if any(d != arr.size for d in self.dims):
            raise StructuralError("lifted vector does not match the space layout")
        return self._wrap(tuple(arr.copy() for _ in self.dims))

    def compatible(self, z: ProductPoint) -> bool:
        return z.dims == self.dims and (
            z.weights is self.weights or np.array_equal(z.weights, self.weights)
        )

    # -- metric-aware inner product and norm ------------------------------

    def base_norm(self, x: ProductPoint) -> float:
        return weighted_norm(x)

    def inner(self, x: ProductPoint, y: ProductPoint) -> float:
        if self.metric_op is None:
            return weighted_inner(x, y)
        return weighted_inner(x, self.metric_op(y))

    def norm(self, x: ProductPoint) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    # -- sampling ----------------------------------------------------------

    def gaussian(self, rng: np.random.Generator) -> ProductPoint:
        return self._wrap(tuple(rng.standard_normal(d) for d in self.dims))

    def unit_vector(self, rng: np.random.Generator) -> ProductPoint:
        """Random direction of norm one (in the space's norm)."""
        while True:
            g = self.gaussian(rng)
            nrm = self.norm(g)
            if nrm > 1e-12:
                return g * (1.0 / nrm)

    def sample_ball(self, rng: np.random.Generator, radius: float) -> ProductPoint:
        """Draw uniformly from the ball of the given radius."""
        u = rng.uniform()
        r = radius * u ** (1.0 / self._dim_total)
        return self.unit_vector(rng) * r
