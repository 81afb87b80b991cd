"""Weighted product Hilbert-space primitives.

A point of ``R^{d_1} x ... x R^{d_n}`` is one contiguous float64 vector
``data`` with fixed block offsets; ``blocks`` are views into it, built on
each access, and ``+``, ``-``, scalar ``*`` and negation are one numpy call.
Nothing writes in place into an array a point may share (its data, a block
view, an operator output wrapped as a point), so a point stays valid after
the step that made it.  The inner product ``<x, y> = sum_i w_i <x_i, y_i>``
is summed block by block in block order, never as one reordered reduction
over ``data``, so every norm is bit-identical to the per-block formula.  A
space may install a metric operator ``M`` (self-adjoint, positive in the
weighted inner product), given as a map from a point's flat data to flat
data; ``<x, y>_M = <x, M y>`` then replaces the plain inner product wherever
the space is asked for one.  A space also draws the seeded Gaussian points
and unit directions that the engine's error injection and the PDS
equivalence check use.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import StructuralError


def _as_block(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise StructuralError("blocks must be non-empty 1-D real vectors")
    if not np.isfinite(arr).all():
        raise StructuralError("non-finite entries in point data")
    return arr


def _layout(dims: tuple) -> tuple:
    return tuple(slice(e - d, e) for d, e in zip(dims, itertools.accumulate(dims)))


def _block_inner(weights, slices, a: np.ndarray, b: np.ndarray) -> float:
    # the summation-order contract: one dot per block, added in block order
    acc = 0.0
    for w, s in zip(weights, slices):
        acc += w * float(a[s].dot(b[s]))
    return acc


def _weighted_sum(weights, rows: np.ndarray) -> np.ndarray:
    """``w_0 rows[0] + w_1 rows[1] + ...``, accumulated in row order, for
    rows of one ``(n, d)`` block stack; unchecked."""
    acc = weights[0] * rows[0]
    for w, r in zip(weights[1:], rows[1:]):
        acc += w * r
    return acc


class ProductPoint:
    """Element of a weighted product of real coordinate spaces, stored as
    one flat vector (see the module docstring for the layout contract)."""

    __slots__ = ("data", "weights", "_slices")

    def __init__(self, blocks, weights):
        blocks = tuple(_as_block(b) for b in blocks)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size != len(blocks) or weights.size < 1:
            raise StructuralError("need one positive weight per block")
        if not (np.all(weights > 0) and np.all(np.isfinite(weights))):
            raise StructuralError("weights must be positive and finite")
        self.data = np.concatenate(blocks)
        self.weights = weights
        self._slices = _layout(tuple(b.size for b in blocks))

    @classmethod
    def _raw(cls, data, weights, slices):
        # internal fast path: trusted flat data and layout, no validation
        obj = object.__new__(cls)
        obj.data = data
        obj.weights = weights
        obj._slices = slices
        return obj

    @property
    def blocks(self) -> tuple:
        return tuple(self.data[s] for s in self._slices)

    @property
    def n(self) -> int:
        return len(self._slices)

    @property
    def dims(self):
        return tuple(s.stop - s.start for s in self._slices)

    def _new(self, data):
        return ProductPoint._raw(data, self.weights, self._slices)

    def __add__(self, other):
        _require_compatible(self, other)
        return self._new(self.data + other.data)

    def __sub__(self, other):
        _require_compatible(self, other)
        return self._new(self.data - other.data)

    def __mul__(self, scalar):
        return self._new(self.data * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._new(-self.data)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def __repr__(self):
        return f"ProductPoint(n={self.n}, dims={self.dims})"


def _require_compatible(x: ProductPoint, y: ProductPoint) -> None:
    if x.weights is y.weights and x._slices is y._slices:
        return
    if x.dims != y.dims or not np.array_equal(x.weights, y.weights):
        raise StructuralError(
            f"incompatible points: dims {x.dims} / {y.dims}, weights differ"
        )


def weighted_inner(x: ProductPoint, y: ProductPoint) -> float:
    """Weighted inner product ``sum_i w_i <x_i, y_i>``."""
    _require_compatible(x, y)
    return _block_inner(x.weights, x._slices, x.data, y.data)


class ProductSpace:
    """Shape (block dimensions), weights and metric of a product space; the
    underscored norms take the flat ``data`` of this space's points."""

    __slots__ = ("dims", "weights", "metric_op", "_slices", "_w", "_dim_total")

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
        self._slices = _layout(dims)
        self._w = tuple(float(w) for w in weights)
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
        return self._wrap(np.concatenate(blocks))

    def vector(self, x) -> ProductPoint:
        if self.n != 1:
            raise StructuralError("vector() is only defined on single-block spaces")
        return self.point((x,))

    def _wrap(self, data: np.ndarray) -> ProductPoint:
        # internal fast path for flat data computed from points of this space
        # (operator and channel outputs): no validation, and the space's own
        # weights and layout, so every compatibility check is an identity test
        return ProductPoint._raw(data, self.weights, self._slices)

    def zeros(self) -> ProductPoint:
        return self._wrap(np.zeros(self._dim_total))

    def compatible(self, z: ProductPoint) -> bool:
        return (z._slices is self._slices or z.dims == self.dims) and (
            z.weights is self.weights or np.array_equal(z.weights, self.weights)
        )

    # -- metric-aware inner product and norm ------------------------------

    def _base_norm(self, a: np.ndarray) -> float:
        return math.sqrt(max(_block_inner(self._w, self._slices, a, a), 0.0))

    def _norm(self, a: np.ndarray) -> float:
        b = a if self.metric_op is None else self.metric_op(a)
        return math.sqrt(max(_block_inner(self._w, self._slices, a, b), 0.0))

    def base_norm(self, x: ProductPoint) -> float:
        return self._base_norm(x.data)

    def inner(self, x: ProductPoint, y: ProductPoint) -> float:
        m = self.metric_op
        return weighted_inner(x, y if m is None else self._wrap(m(y.data)))

    def norm(self, x: ProductPoint) -> float:
        return self._norm(x.data)

    # -- sampling ----------------------------------------------------------

    def gaussian(self, rng: np.random.Generator) -> ProductPoint:
        # one draw of the whole vector is the per-block draws in block order
        return self._wrap(rng.standard_normal(self._dim_total))

    def unit_vector(self, rng: np.random.Generator) -> ProductPoint:
        """Random direction of norm one (in the space's norm)."""
        while True:
            g = rng.standard_normal(self._dim_total)
            nrm = self._norm(g)
            if nrm > 1e-12:
                return self._wrap(g * (1.0 / nrm))
