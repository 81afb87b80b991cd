"""Splitting-method assembly: product-space forward-backward (GFB),
Douglas-Rachford (DRS) and a primal-dual scheme, each built as a certified
averaged fixed-point operator with termination certificates.

Each built splitting has one evaluation, ``evaluate(z, errs=None) -> (T z,
parts)``, of a point or a ``(C, size)`` stack of points, row for row the
same bits.  ``errs`` is a channel's row (or rows) of stage errors, and
``evaluate`` applies them itself; the splitting names its error ``stages``
and their ``segments``.  ``parts``, the step's internals, are what the
certificates read (None for PDS).  :class:`SplittingChannel` is the channel
of any of them: an exact step is ``evaluate(z)``, and an inexact one
``evaluate(z, errs)`` with its exact output left to the chunk, which the
engine finishes with one stacked ``evaluate`` (the channel's
:attr:`~kmcert.km.Channel.evaluate_rows`).  A scheduled GFB step at
``gamma_k != gamma`` leaves it too.  Where a certificate reads the parts
(``observed_parts``, GFB and DRS), an observed run stacks every step; a PDS
run stacks only the steps left to it.  A channel's stage errors reach the
hooks as the chunk's window of the error stream, ``Steps.errors``; the
parts are those of the exact evaluation, and the inexact DRS certificate
takes its perturbed shadow points again from the exact ones
(:meth:`DrsBuilt.reflect`, one stacked resolvent per chunk).  The
certificates take the engine's chunks of steps (:class:`~kmcert.km.Steps`);
a block's membership residual takes ``(C, d)`` stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .bounds import BoundConstants, EmpiricalConstants, pointwise_bound
from .errors import NumericalError, ParameterError, StructuralError
from .km import CHUNK, Channel, ErrorSchedule, GammaSchedule, IterationTrace, Steps
from .operators import CocoerciveMap, OperatorSpec, _soft, composition_alpha
from .spaces import ProductSpace, _layout, _weighted_sum, apply_rows

# bytes of d x d inverses a scheduled GFB run sets up in one stack: per
# matrix, a stack of d=10 inverses costs about 40% of a single inversion, and
# stacks past about 256 KB cost more again (d=60: 32 of them, 900 KB, cost
# 20% more than single inversions)
_WINDOW_BYTES = 128 * 1024


def _inverse(A: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear block matrix not invertible ({exc})") from None


# ---------------------------------------------------------------------------
# maximal monotone building blocks (resolvents + recognized memberships)
# ---------------------------------------------------------------------------

class MonotoneBlock:
    """A maximal monotone operator given through its resolvent family
    ``v -> (Id + c A)^{-1} v``, which takes a vector or a ``(C, d)`` stack
    of them (row for row the same bits).  Recognized block types can
    additionally verify ``g in A(u)`` exactly; others report membership as
    structural only (guaranteed by construction, not re-verified).
    ``member_residual`` takes ``(C, d)`` stacks of pairs ``(u, g)`` and
    returns the largest residual among them."""

    kind = "abstract"

    def resolvent(self, v: np.ndarray, c: float) -> np.ndarray:
        raise NotImplementedError

    def prepare(self, cs) -> None:
        """Announce ``cs``, the parameters of the coming resolvents; a block
        that can set them up together does (none by default)."""

    def member_residual(self, u: np.ndarray, g: np.ndarray) -> Optional[float]:
        return None  # structural only


class L1Block(MonotoneBlock):
    """Scaled-l1 subdifferential; resolvent is the soft threshold."""

    kind = "l1"

    def __init__(self, mu: float):
        if not mu > 0:
            raise ParameterError("l1 weight must be positive")
        self.mu = float(mu)

    def resolvent(self, v, c):
        # the weight was checked once, in __init__
        return _soft(v, c * self.mu)

    def member_residual(self, u, g):
        res = np.where(u != 0.0, np.abs(g - self.mu * np.sign(u)),
                       np.maximum(np.abs(g) - self.mu, 0.0))
        return float(res.max()) if res.size else 0.0


class BoxBlock(MonotoneBlock):
    """Normal cone of a box; resolvent is the clip projection."""

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not (np.all(lo <= hi) and np.all(lo < np.inf) and np.all(hi > -np.inf)):
            raise ParameterError("box bounds must satisfy lo <= hi, lo < inf and hi > -inf")
        self.lo, self.hi = lo, hi
        self._btol = 1e-12 * (1.0 + float(np.max(hi - lo, initial=0.0)))

    def resolvent(self, v, c):
        # bounds were checked once, in __init__; the method is np.clip
        # without its wrapper (np.minimum(np.maximum(...)) signs zeros otherwise)
        return v.clip(self.lo, self.hi)

    def member_residual(self, u, g):
        lo, hi = self.lo, self.hi
        outside = np.maximum(lo - u, 0.0) + np.maximum(u - hi, 0.0)
        at_lo = u <= lo + self._btol
        at_hi = u >= hi - self._btol
        res = np.where(at_lo & at_hi, 0.0,                 # degenerate face
                       np.where(at_hi, np.maximum(-g, 0.0),     # upper: g >= 0
                                np.where(at_lo, np.maximum(g, 0.0),  # lower: g <= 0
                                         np.abs(g))))      # interior: g = 0
        return float(np.maximum(res, outside).max())


class SubspaceBlock(MonotoneBlock):
    """Normal cone of a linear subspace given by an orthonormal basis;
    resolvent is the orthogonal projection."""

    kind = "subspace"

    def __init__(self, U):
        U = np.asarray(U, dtype=float)
        if U.ndim == 1:
            U = U[:, None]
        if not np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) <= 1e-10:
            raise ParameterError("basis columns are not orthonormal")
        self.U = U

    def resolvent(self, v, c):
        # orthonormality was checked once, in __init__; a stack goes row by
        # row through apply_rows, whose rows are the vector's bits
        return apply_rows(self.U, apply_rows(self.U.T, v))

    def member_residual(self, u, g):
        def project(X):
            return apply_rows(self.U, apply_rows(self.U.T, X))
        feas = _l2_rows(u - project(u)).max()
        perp = _l2_rows(project(g)).max()
        return float(max(feas, perp))


class LinearBlock(MonotoneBlock):
    """Affine monotone map ``u -> M u - c0`` (symmetric part PSD); resolvent
    applies the inverse of ``I + c M`` to ``v + c * c0``, both kept in one
    store keyed by ``c``.  :meth:`prepare` makes the store exactly the
    announced values: those it holds stay, and the others are inverted in
    one stacked ``np.linalg.inv``, the same LAPACK call on each matrix.  A
    resolvent at a value the store lacks inverts its own matrix, which
    becomes the store's one entry.  A stack that cannot be inverted leaves
    only the kept entries; each resolvent then raises at its own value."""

    kind = "linear"

    def __init__(self, M, c0=None):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.isfinite(M).all():
            raise StructuralError("M must be a finite square matrix")
        d = M.shape[0]
        c0 = np.zeros(d) if c0 is None else np.asarray(c0, dtype=float)
        if c0.shape != (d,) or not np.isfinite(c0).all():
            raise StructuralError(f"c0 must be a finite vector of shape ({d},)")
        if np.linalg.eigvalsh(0.5 * (M + M.T))[0] < -1e-12:
            raise ParameterError("M is not monotone")
        self.M, self.c0 = M, c0
        self._eye = np.eye(d)
        self._inverses = {}

    def prepare(self, cs):
        cs = dict.fromkeys(cs)
        self._inverses = {c: e for c, e in self._inverses.items() if c in cs}
        fresh = [c for c in cs if c not in self._inverses]
        if fresh:
            # each c * M is the same product in the stack as alone
            try:
                inverses = _inverse(self._eye + np.multiply.outer(fresh, self.M))
            except NumericalError:
                return      # each resolvent inverts its own matrix, and raises there
            # each row of the outer product is the scalar product c * c0
            self._inverses.update(zip(fresh, zip(inverses, np.multiply.outer(fresh, self.c0))))

    def resolvent(self, v, c):
        # a stack goes row by row through apply_rows, whose rows are the
        # vector's bits; a non-finite v gives a non-finite output, which the
        # engine's finiteness check reports as a numerical failure
        entry = self._inverses.get(c)
        if entry is None:
            entry = _inverse(self._eye + c * self.M), c * self.c0
            self._inverses = {c: entry}
        inv, shift = entry
        return apply_rows(inv, v + shift)

    def member_residual(self, u, g):
        return float(_l2_rows(g - (apply_rows(self.M, u) - self.c0)).max())


class ZeroBlock(MonotoneBlock):
    kind = "zero"

    def resolvent(self, v, c):
        return np.asarray(v, dtype=float)

    def member_residual(self, u, g):
        return float(_l2_rows(g).max())


def _smooth_at(smooth: Optional[CocoerciveMap], x: np.ndarray) -> np.ndarray:
    """The smooth part at ``x``; zero when there is none."""
    return smooth.fn(x) if smooth is not None else np.zeros_like(x)


# ---------------------------------------------------------------------------
# generalized forward-backward on the weighted product space
# ---------------------------------------------------------------------------

class GfbBuilt:
    """The product-space splitting of ``blocks``, assembled as an operator
    with its one evaluation.

    The smooth part may be None (pure reflection scheme); the step size must
    satisfy ``0 < gamma < 2 beta`` whenever a smooth part is present.
    ``T z = z + u - x`` blockwise, with the consensus ``x = sum_i w_i z_i``
    and the resolvent outputs ``u_i`` at ``2 x - z_i - gamma B x``.
    :meth:`evaluate` computes on a point's ``(n, d)`` block stack, or a
    ``(C, n, d)`` stack of them; only the per-block resolvents loop over the
    blocks.  Its channel's errors come in two stages, in ``n + 1``
    segments: ``b``, then one ``a_i`` per block.
    """

    stages = 2
    observed_parts = True

    def __init__(self, blocks: List[MonotoneBlock], weights, gamma: float, dim: int,
                 smooth: Optional[CocoerciveMap] = None):
        weights = np.asarray(weights, dtype=float)
        n = len(blocks)
        if n < 1 or weights.shape != (n,) or np.any(weights <= 0):
            raise ParameterError("need one positive weight per block")
        if not abs(float(weights.sum()) - 1.0) <= 1e-12:
            raise ParameterError("block weights must sum to 1")
        if not 0 < gamma < np.inf:
            raise ParameterError(f"step size must be positive and finite, got {gamma}")
        if smooth is not None and not gamma < 2.0 * smooth.beta:
            raise ParameterError(f"step size {gamma} outside (0, {2.0 * smooth.beta})")
        self.blocks, self.weights, self.gamma, self.dim, self.smooth = (
            blocks, weights, gamma, dim, smooth)
        self.n = n
        self.space = ProductSpace((dim,) * n, weights)
        self.segments = (dim,) * (n + 1)
        self._w = tuple(float(wi) for wi in weights)
        self._W = weights[:, None]
        self._params = tuple(gamma / wi for wi in self._w)
        self.operator = OperatorSpec(lambda z: self.evaluate(z)[0],
                                     self.alpha_at(gamma), "gfb", self.space)

    def alpha_at(self, gamma: float) -> float:
        """Averagedness of the splitting at step size ``gamma``: the
        reflected-resolvent half is firmly non-expansive and the forward step
        ``gamma/(2 beta)``-averaged; ``T`` is their composition."""
        if self.smooth is None:
            return 0.5
        return composition_alpha(0.5, gamma / (2.0 * self.smooth.beta))

    def _rows(self, z: np.ndarray) -> np.ndarray:
        return z.reshape(z.shape[:-1] + (self.n, self.dim))

    def evaluate(self, z: np.ndarray, errs: Optional[np.ndarray] = None,
                 gamma: Optional[float] = None):
        """``(T z, parts)`` of a point or a ``(C, size)`` stack, at the step
        size ``gamma`` (the splitting's own by default), with its internals
        ``parts = (x, gx, args, u)``: the consensus, the smooth part at it,
        the per-block resolvent arguments and their outputs.  ``errs``, the
        channel's row (or rows) of stage errors, adds a pre-resolvent error
        ``b`` (shared across blocks, lifted onto the diagonal) to the
        arguments and then per-block post-resolvent errors ``a``, an ``(n,
        d)`` block, to the output."""
        if gamma is None:
            gamma, params = self.gamma, self._params
        else:
            params = [gamma / wi for wi in self._w]
        Z = self._rows(z)
        x = _weighted_sum(self._W, Z)
        gx = _smooth_at(self.smooth, x)
        args = 2.0 * x - Z - gamma * gx
        if errs is not None:
            args = args + errs[..., None, :self.dim]
        u = np.empty_like(args)
        for i, (blk, c) in enumerate(zip(self.blocks, params)):
            u[..., i, :] = blk.resolvent(args[..., i, :], c)
        out = Z + u - x
        if errs is not None:
            out = out + self._rows(errs[..., self.dim:])
        return out.reshape(z.shape), (x[..., 0, :], gx[..., 0, :], args, u)


class SplittingChannel(Channel):
    """The channel of the splitting ``built``: the law ``c / (k+1)^p`` split
    evenly over its ``stages``, each drawing ``(c / stages) / (k+1)^p`` in
    Euclidean unit directions, one per segment of ``built.segments``.  A
    step's stage errors are applied by the splitting's own ``evaluate``,
    and the exact output of an inexact step is left to the chunk."""

    def __init__(self, built, law: ErrorSchedule):
        super().__init__(built.operator, law)
        self.built = built
        self.stage_law = ErrorSchedule.power(law.c / built.stages, law.p)
        self.segments = built.segments
        self._slices = _layout(self.segments)
        self.evaluate_rows, self.observed_parts = built.evaluate, built.observed_parts

    def _segment_norms(self, G: np.ndarray) -> np.ndarray:
        return np.column_stack([_l2_rows(G[:, s]) for s in self._slices])

    def _unit_rows(self, G: np.ndarray, N: np.ndarray) -> np.ndarray:
        return G / np.repeat(N, self.segments, axis=1)   # each segment is g / ||g||

    def evaluate(self, k, z, errors):
        errs = errors(k)
        if errs is None:
            exact = self.built.evaluate(z)[0]
            return exact, exact, None
        return None, self.built.evaluate(z, errs=errs)[0], None


class GfbScheduleChannel(Channel):
    """The non-stationary iteration as a channel model of the splitting
    ``built`` at the schedule's limit: step ``k`` applies the splitting at
    ``gamma_k`` plus an error of the law's magnitude drawn as the bare
    channel draws it, while the residual refers to the limit operator, so
    the reported error is ``(T_k z - T z) + eps_k``.  The range of the
    schedule's values, its :attr:`~GammaSchedule.interval`, must lie in
    ``(0, 2 beta)``; ``alphas`` are the averagedness constants at its ends,
    which the engine checks the relaxation against.  The limit operator's
    output at a step with ``gamma_k != gamma`` is left to the chunk.

    The schedule is read a window of steps ahead, each value once, and the
    window's block parameters ``gamma_j / w_i`` are announced to the blocks
    (:meth:`MonotoneBlock.prepare`) with the limit's ``gamma / w_i``, so a
    linear block inverts the window in one stack and keeps the limit's
    inverse for the whole run.  The window holds ``_WINDOW_BYTES`` of ``d x
    d`` inverses, at most ``CHUNK`` steps."""

    def __init__(self, built: GfbBuilt, schedule: GammaSchedule, law: ErrorSchedule):
        beta = built.smooth.beta if built.smooth is not None else np.inf
        lo, hi = schedule.interval
        if not (0.0 < lo and hi < 2.0 * beta):
            raise ParameterError(
                f"schedule range [{lo}, {hi}] leaves the admissible interval "
                f"(0, {2.0 * beta})"
            )
        if schedule.limit != built.gamma:
            raise ParameterError(f"schedule limit {schedule.limit} differs from the "
                                 f"splitting's step size {built.gamma}")
        super().__init__(built.operator, law)
        self.built, self.schedule = built, schedule
        # every value lies in the schedule's interval by construction, and the
        # averagedness grows with the step size, so its ends bound every step
        # up to the rounding of alpha_at (not monotone to the last bit), which
        # the 1e-12 slack of the relaxation check absorbs
        self.alphas = tuple(built.alpha_at(g) for g in sorted(set(schedule.interval)))
        self.evaluate_rows = built.evaluate
        self._width = max(1, min(CHUNK, _WINDOW_BYTES // (8 * built.dim ** 2)))
        self._k0, self._gammas = 0, []

    observed_parts = True

    def _read(self, k: int) -> None:
        gammas = [self.schedule.value(j) for j in range(k, k + self._width)]
        self._k0, self._gammas = k, gammas
        for blk, w in zip(self.built.blocks, self.built._w):
            blk.prepare([g / w for g in gammas] + [self.built.gamma / w])

    def evaluate(self, k, z, errors):
        built = self.built
        i = k - self._k0
        if not 0 <= i < len(self._gammas):
            self._read(k)
            i = 0
        gamma = self._gammas[i]
        if gamma == built.gamma:
            native = exact = built.evaluate(z)[0]
        else:
            native, exact = built.evaluate(z, gamma=gamma)[0], None
        eps = errors(k)
        tilde = native if eps is None else native + eps
        return exact, tilde, None if exact is None or tilde is exact else tilde - exact


def _l2_rows(X: np.ndarray) -> np.ndarray:
    """The Euclidean norm ``sqrt(x . x)`` of each row ``x`` of a ``(C, d)``
    stack, bit for bit (a row of ``np.vecdot`` is that row's ``x.dot(x)``)."""
    return np.sqrt(np.vecdot(X, X))


@dataclass
class CertificateSeries:
    values: np.ndarray
    bounds: np.ndarray
    membership_max: Optional[float]
    structural_only: tuple = ()
    surrogate: bool = False


class _CertificateStream:
    """Certificate values computed a chunk of steps at a time from the
    engine's ``observe`` hook, with the largest membership residual seen.
    ``series(trace, constants)`` adds the bound column after the run."""

    def __init__(self, built):
        self.built = built
        self._values = []
        self._membership = None

    def _record(self, values: np.ndarray, membership: Optional[float] = None) -> None:
        self._values.append(values)
        if membership is not None:
            self._membership = (membership if self._membership is None
                                else max(self._membership, membership))


class GfbCertificates(_CertificateStream):
    """The optimality certificate at every step, against ``(1/gamma) *
    pointwise bound``.  At an iterate ``z`` it is an explicit element ``g =
    (x - ubar)/gamma - B x`` of the summed block operators at the resolvent
    outputs ``u_i`` (``ubar = sum_i w_i u_i``), with each block's membership
    residual (recognized types); the value is the stationarity criterion
    ``||g + B ubar||``.  It reads the stacked ``parts = (x, B x, args, u)``
    of ``built.evaluate`` that the engine hands over in ``Steps.parts``."""

    structural_only: tuple = ()

    def observe(self, steps: Steps) -> None:
        built = self.built
        x, gx, args, u = steps.parts
        ubar = _weighted_sum(built._W, u)[:, 0]
        g = (x - ubar) / built.gamma - gx
        criterion = _l2_rows(g + _smooth_at(built.smooth, ubar))

        vecs = (built.weights[:, None] / built.gamma) * (args - u)
        residuals, structural = [], []
        for i, blk in enumerate(built.blocks):
            r = blk.member_residual(u[:, i], vecs[:, i])
            if r is None:
                structural.append(blk.kind)
            else:
                residuals.append(r)
        self._record(criterion, max(residuals) if residuals else None)
        self.structural_only = tuple(structural)

    def series(self, trace: IterationTrace, constants: BoundConstants) -> CertificateSeries:
        values = np.concatenate(self._values)
        bounds = pointwise_bound(np.arange(trace.n_steps), constants) / self.built.gamma
        return CertificateSeries(values, bounds, self._membership, self.structural_only)


# ---------------------------------------------------------------------------
# Douglas-Rachford
# ---------------------------------------------------------------------------

class DrsBuilt:
    """The reflected-resolvent average of two resolvents at a common
    positive parameter on a single block, firmly non-expansive by
    construction.  Its channel's errors come in two stages: the
    relaxation-stage error ``eps1``, then the shadow-point error ``eps2``."""

    stages = 2
    observed_parts = True

    def __init__(self, block1: MonotoneBlock, block2: MonotoneBlock, gamma: float,
                 dim: int):
        if not 0 < gamma < np.inf:
            raise ParameterError(f"step size must be positive and finite, got {gamma}")
        self.block1, self.block2, self.gamma, self.dim = block1, block2, gamma, dim
        self.space = ProductSpace.single(dim)
        self.segments = (dim, dim)
        self.j1 = lambda v: self.block1.resolvent(v, gamma)
        self.j2 = lambda v: self.block2.resolvent(v, gamma)
        self.operator = OperatorSpec(lambda z: self.evaluate(z)[0], 0.5, "drs",
                                     self.space)

    def evaluate(self, z: np.ndarray, errs: Optional[np.ndarray] = None):
        """``(T z, parts)``: the reflected-resolvent average of a point or a
        ``(C, size)`` stack of points, row for row the same bits, split at
        its shadow point ``j2(z)`` (:meth:`reflect`)."""
        return self.reflect(z, self.j2(z), errs)

    def reflect(self, z: np.ndarray, x: np.ndarray, errs: Optional[np.ndarray] = None):
        """``(T z, parts)`` from the shadow point ``x = j2(z)`` on, with the
        internals ``parts = (x, w, u)``: the shadow point, the reflection ``w
        = 2 x - z`` and ``u = j1(w)``.  ``errs``, the channel's row (or rows)
        of stage errors ``(eps1, eps2)``, moves the shadow point to ``x +
        eps2``, so the reflection to ``w + 2 eps2``, and adds ``eps1`` to the
        averaged update."""
        w = 2.0 * x - z
        if errs is not None:
            e1, e2 = errs[..., :self.dim], errs[..., self.dim:]
            x, w = x + e2, w + 2.0 * e2
        u = self.j1(w)
        out = 0.5 * (2.0 * u - w + z)
        return (out if errs is None else out + e1), (x, w, u)


class DrsCertificates(_CertificateStream):
    """The DRS certificate at every step, from the chunk's stacked parts and
    stage errors.  Step ``k`` goes from ``z`` to ``z_next`` with ``x =
    j2(z)`` exact, ``u`` and ``v = j2(z_next)``; its certificate is an
    explicit element ``g`` of the summed operators at ``(u, v)``, its norm,
    the bound ``((1 + lam)/gamma) * pointwise bound + c_k`` as scale and
    offset (``c_k = (1/gamma)((2 + lam)||eps2|| + ||eps1||)``, 0 for an
    exact step), and the larger membership residual of the two blocks (None
    when neither is recognized).  An inexact chunk certifies its steps'
    perturbed shadow points ``x + eps2`` and ``u = j1(w + 2 eps2)``, as the
    channel perturbed them: :meth:`DrsBuilt.reflect` at the exact shadow
    points and the chunk's stage errors, one stacked resolvent.  ``v`` is
    the next step's shadow point; for a chunk's last step it is ``j2`` of
    the chunk's last iterate, one resolvent per chunk."""

    def __init__(self, built: DrsBuilt):
        super().__init__(built)
        self._scale = []
        self._offset = []

    def observe(self, steps: Steps) -> None:
        built = self.built
        z, lam, (x, _, u), errs = steps.z, steps.lam, steps.parts, steps.errors
        v = np.concatenate((x[1:], built.j2(z[-1])[None]))
        norm1 = norm2 = np.zeros(len(lam))
        if errs is not None:
            _, (x, _, u) = built.reflect(z[:-1], x, errs)
            norm1, norm2 = _l2_rows(errs[:, :built.dim]), _l2_rows(errs[:, built.dim:])
        r1 = 2.0 * x - z[:-1] - u
        r2 = z[1:] - v
        residuals = [r for r in (
            built.block1.member_residual(u, r1 / built.gamma),
            built.block2.member_residual(v, r2 / built.gamma),
        ) if r is not None]
        self._record(_l2_rows((r1 + r2) / built.gamma),
                     max(residuals) if residuals else None)
        self._scale.append((1.0 + lam) / built.gamma)
        self._offset.append((1.0 / built.gamma) * ((2.0 + lam) * norm2 + norm1))

    def series(self, trace: IterationTrace, constants: BoundConstants) -> CertificateSeries:
        values = np.concatenate(self._values)
        pw = pointwise_bound(np.arange(trace.n_steps), constants)
        bounds = np.concatenate(self._scale) * pw + np.concatenate(self._offset)
        return CertificateSeries(values, bounds, self._membership)


# ---------------------------------------------------------------------------
# primal-dual splitting on the direct sum H (+) G
# ---------------------------------------------------------------------------

@dataclass
class PdsDualTerm:
    """One dual coordinate: monotone block, linear coupling, shift, weight,
    dual step and optional single-valued strongly-monotone inverse part."""

    block: MonotoneBlock
    L: np.ndarray
    sigma: float
    omega: float
    r: Optional[np.ndarray] = None
    d_inv: Optional[CocoerciveMap] = None

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float)
        if self.L.ndim != 2 or not np.isfinite(self.L).all():
            raise StructuralError("coupling must be a finite matrix")
        if not (0 < self.sigma < np.inf and self.omega > 0):
            raise ParameterError(f"dual step and weight must be positive and the step finite, "
                                 f"got sigma = {self.sigma}, omega = {self.omega}")
        rows = self.L.shape[0]
        self.r = np.zeros(rows) if self.r is None else np.asarray(self.r, dtype=float)
        if self.r.shape != (rows,) or not np.isfinite(self.r).all():
            raise StructuralError(f"shift r must be a finite vector of shape ({rows},)")


class PdsBuilt:
    """Assembled primal-dual fixed-point operator on the direct sum space.

    The space's metric is the strongly positive self-adjoint preconditioner
    of the scheme, so the operator is genuinely averaged in the space norm
    and the generic complexity bounds apply to the recorded quantities
    verbatim; the plain direct-sum norm stays available for the surrogate
    termination criterion, which carries the stated ``2 delta / eta`` factor.
    Inadmissible step sizes raise a parameter error that gives the computed
    preconditioner constants.  Its channel's errors come in four stages (see
    :meth:`evaluate`), one segment per primal or dual block each.
    """

    stages = 4
    observed_parts = False

    def __init__(self, primal_block: MonotoneBlock, tau: float, dim_primal: int,
                 duals: List[PdsDualTerm], smooth: Optional[CocoerciveMap] = None):
        if not 0 < tau < np.inf:
            raise ParameterError(f"primal step must be positive and finite, got {tau}")
        if not duals:
            raise ParameterError("need at least one dual term")
        if not abs(sum(t.omega for t in duals) - 1.0) <= 1e-12:
            raise ParameterError("dual weights must sum to 1")
        for t in duals:
            if t.L.shape[1] != dim_primal:
                raise StructuralError("coupling matrix does not match primal dimension")
        self.primal_block, self.tau, self.dim_primal, self.duals, self.smooth = (
            primal_block, tau, dim_primal, duals, smooth)
        dims = (dim_primal,) + tuple(t.L.shape[0] for t in duals)
        weights = np.array([1.0] + [t.omega for t in duals])

        self.L_norms = [float(np.linalg.norm(t.L, 2)) for t in duals]
        inv_steps = [1.0 / tau] + [1.0 / t.sigma for t in duals]
        radicand = tau * sum(
            t.sigma * t.omega * ln ** 2 for t, ln in zip(duals, self.L_norms)
        )
        if radicand >= 1.0:
            raise ParameterError(
                f"step sizes too large: tau * sum sigma_i w_i ||L_i||^2 = {radicand:.6g} >= 1"
            )
        self.eta = min(inv_steps) * (1.0 - np.sqrt(radicand))
        self.delta = max(inv_steps)
        moduli = []
        if smooth is not None:
            moduli.append(smooth.beta)
        for t in duals:
            if t.d_inv is not None:
                moduli.append(t.d_inv.beta)
        self.beta = min(moduli) if moduli else np.inf

        if np.isinf(self.beta):
            self.alpha = 0.5
        else:
            if 2.0 * self.eta * self.beta <= 1.0:
                raise ParameterError(
                    f"preconditioner too weak: 2 eta beta = "
                    f"{2.0 * self.eta * self.beta:.6g} <= 1 "
                    f"(eta={self.eta:.6g}, beta={self.beta:.6g}, tau={tau}, "
                    f"sigmas={[t.sigma for t in duals]})"
                )
            hb = self.eta * self.beta
            self.alpha = 2.0 * hb / (4.0 * hb - 1.0)

        # the preconditioner [[I/tau, -omega_i L_i^T], [-L_i, I/sigma_i]]
        s0, *sv = _layout(dims)
        M = np.zeros((sum(dims),) * 2)
        M[s0, s0] = np.eye(dim_primal) / tau
        for t, s in zip(duals, sv):
            M[s0, s] = -t.omega * t.L.T
            M[s, s0] = -t.L
            M[s, s] = np.eye(t.L.shape[0]) / t.sigma
        self.space = ProductSpace(dims, weights, metric=M)
        self.segments = (dim_primal,) + dims + dims[1:]
        self._stage_slices = _layout(self.segments)

        self.operator = OperatorSpec(lambda z: self.evaluate(z)[0], self.alpha, "pds",
                                     self.space)

    # -- evaluation ----------------------------------------------------------

    def _dual_resolvent(self, term: PdsDualTerm, w: np.ndarray) -> np.ndarray:
        # resolvent of the inverse operator via the inversion identity
        s = term.sigma
        return w - s * term.block.resolvent(w / s, 1.0 / s)

    def evaluate(self, z: np.ndarray, errs: Optional[np.ndarray] = None):
        """``(T z, None)``: the fixed-point operator via the block recursion,
        primal resolvent, reflection, dual resolvents; of a point or a ``(C,
        size)`` stack of points, row for row the same bits.  ``errs``, the
        channel's row (or rows) of stage errors, in draw order: the
        forward-term error ``e1``, the post-primal-resolvent error ``e2``,
        then the dual forward-term errors ``e3`` and the post-dual-resolvent
        errors ``e4``, one per dual term each."""
        x, *vs = (z[..., s] for s in self.space._slices)
        if errs is not None:
            e1, e2, *duals = (errs[..., s] for s in self._stage_slices)
            e3, e4 = duals[:len(self.duals)], duals[len(self.duals):]
        s = np.zeros_like(x)
        for t, v in zip(self.duals, vs):
            s = s + t.omega * apply_rows(t.L.T, v)
        fwd = s + _smooth_at(self.smooth, x)
        if errs is not None:
            fwd = fwd + e1
        p = self.primal_block.resolvent(x - self.tau * fwd, self.tau)
        if errs is not None:
            p = p + e2
        y = 2.0 * p - x
        q = []
        for i, (t, v) in enumerate(zip(self.duals, vs)):
            inner = apply_rows(t.L, y) - t.r
            if t.d_inv is not None:
                inner = inner - t.d_inv.fn(v)
            if errs is not None:
                inner = inner - e3[i]
            qi = self._dual_resolvent(t, v + t.sigma * inner)
            if errs is not None:
                qi = qi + e4[i]
            q.append(qi)
        return np.concatenate((p, *q), axis=-1), None


class PdsCertificates(_CertificateStream):
    """Surrogate termination criterion: the plain direct-sum residual norm
    against ``(2 delta / eta) sqrt((d0^2 + C1)/(tau_min (k+1)))`` with the
    constants measured in the plain norm about ``fix_point``; the run's own
    constants are not used.  Flagged surrogate: the certified quantity is
    the residual itself, not an explicit element of the operator sum."""

    def __init__(self, built: PdsBuilt, fix_point: np.ndarray):
        super().__init__(built)
        self._constants = EmpiricalConstants(fix_point, built.space, base_norm=True)

    def observe(self, steps: Steps) -> None:
        self._constants.observe(steps)
        self._record(self.built.space.norms(steps.e, base=True))

    def series(self, trace: IterationTrace, constants: BoundConstants) -> CertificateSeries:
        values = np.concatenate(self._values)
        factor = 2.0 * self.built.delta / self.built.eta
        bounds = factor * pointwise_bound(np.arange(trace.n_steps),
                                          self._constants.constants(trace))
        return CertificateSeries(values, bounds, None, surrogate=True)
