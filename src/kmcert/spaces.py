"""Weighted product Hilbert-space primitives.

A point of ``R^{d_1} x ... x R^{d_n}`` is a plain float64 array of length
``space.size``, the blocks concatenated in block order; ``space.blocks(a)``
returns views of its blocks.  Nothing writes in place into an array a point
may share (an iterate, a block view, an operator output), so a point stays
valid after the step that made it.  The inner product ``<x, y> = sum_i w_i
<x_i, y_i>`` adds one dot per block in block order, never one reordered
reduction over the whole array, so every norm is bit-identical to the
per-block formula; one block takes a single dot, equal blocks the rows of
one ``np.vecdot`` (each equals its ``x.dot(y)``), other layouts a dot per
block slice.  A space may install a metric ``M``, a dense matrix of
shape ``(size, size)`` (self-adjoint, positive in the weighted inner
product); ``||x||_M^2 = <x, M x>`` then replaces the plain norm wherever the
space is asked for one.  The certification hooks take the norms of a
``(C, size)`` stack of points at once (:meth:`ProductSpace.norms`), in the
same order: one ``np.vecdot`` per block slice over the rows, added in block
order, and ``np.matmul(M, X[..., None])`` for the metric, each row of which
equals ``M @ x`` (``X @ M.T`` and ``einsum`` do not).  A space also draws
the seeded unit directions that the engine's error injection uses.
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


def _inner_kernel(weights, dims, slices):
    """The layout's ``inner(a, b)``, in the summation order of ``_block_inner``."""
    if len(dims) == 1:
        w0 = weights[0]
        return lambda a, b: w0 * float(a.dot(b))
    if len(set(dims)) > 1:
        return lambda a, b: _block_inner(weights, slices, a, b)
    shape = (len(dims), dims[0])

    def inner(a, b):
        acc = 0.0
        for w, v in zip(weights, np.vecdot(a.reshape(shape), b.reshape(shape)).tolist()):
            acc += w * v
        return acc
    return inner


def _rows_inner(weights, slices, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The inner products of the rows of two ``(C, size)`` stacks, each equal
    to the layout's ``inner`` of that row pair."""
    if len(slices) == 1:
        return weights[0] * np.vecdot(A, B)
    acc = np.zeros(A.shape[0])
    for w, s in zip(weights, slices):
        acc += w * np.vecdot(A[:, s], B[:, s])
    return acc


def apply_rows(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A @ x`` for each row ``x`` of the stack ``X`` (or for ``X`` itself),
    bit for bit: numpy applies a matrix to a vector as the stack's
    matrix-vector products do, not as ``X @ A.T`` does."""
    return np.matmul(A, X[..., None])[..., 0]


def _weighted_sum(weights, rows: np.ndarray) -> np.ndarray:
    """``w_0 rows[0] + w_1 rows[1] + ...``, accumulated in row order, for
    rows of one ``(n, d)`` block stack; unchecked."""
    acc = weights[0] * rows[0]
    for w, r in zip(weights[1:], rows[1:]):
        acc += w * r
    return acc


class ProductSpace:
    """Shape (block dimensions), weights and metric of a product space; its
    points are arrays of length ``size`` (see the module docstring)."""

    __slots__ = ("dims", "weights", "metric", "size", "_slices", "_w", "_inner")

    def __init__(self, dims, weights, metric=None):
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
        self.metric = metric
        self.size = sum(dims)
        self._slices = _layout(dims)
        self._w = tuple(float(w) for w in weights)
        self._inner = _inner_kernel(self._w, dims, self._slices)

    @classmethod
    def single(cls, d: int) -> "ProductSpace":
        return cls((d,), (1.0,))

    @property
    def n(self) -> int:
        return len(self.dims)

    def point(self, blocks) -> np.ndarray:
        """Validated point from user data: 1-D, finite, matching the layout."""
        blocks = tuple(_as_block(b) for b in blocks)
        dims = tuple(b.size for b in blocks)
        if dims != self.dims:
            raise StructuralError(f"expected dims {self.dims}, got {dims}")
        return np.concatenate(blocks)

    def vector(self, x) -> np.ndarray:
        if self.n != 1:
            raise StructuralError("vector() is only defined on single-block spaces")
        return self.point((x,))

    def blocks(self, a: np.ndarray) -> tuple:
        """Views of the blocks of point ``a``, in block order."""
        return tuple(a[s] for s in self._slices)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.size)

    # -- norms -------------------------------------------------------------

    # ``0.0 if acc < 0.0 else acc`` is ``max(acc, 0.0)`` (NaN and -0.0 too)
    def base_norm(self, a: np.ndarray) -> float:
        """The weighted direct-sum norm, ignoring the metric."""
        acc = self._inner(a, a)
        return math.sqrt(0.0 if acc < 0.0 else acc)

    def norm(self, a: np.ndarray) -> float:
        """The space's norm: the metric norm when a metric is installed."""
        acc = self._inner(a, a if self.metric is None else self.metric @ a)
        return math.sqrt(0.0 if acc < 0.0 else acc)

    def norms(self, A: np.ndarray, base: bool = False) -> np.ndarray:
        """The norms of the rows of a ``(C, size)`` stack, each equal to
        :meth:`norm` of its row (:meth:`base_norm` with ``base``)."""
        B = A if base or self.metric is None else apply_rows(self.metric, A)
        acc = _rows_inner(self._w, self._slices, A, B)
        return np.sqrt(np.where(acc < 0.0, 0.0, acc))

    # -- sampling ----------------------------------------------------------

    def unit_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Random direction of norm one (in the space's norm)."""
        while True:
            g = rng.standard_normal(self.size)
            nrm = self.norm(g)
            if nrm > 1e-12:
                return g * (1.0 / nrm)
