"""Splitting-method assembly: product-space forward-backward (GFB),
Douglas-Rachford (DRS) and a primal-dual scheme, each built as a certified
averaged fixed-point operator with termination certificates.

One evaluation per step feeds the iterate and its certificate: the GFB and
DRS ``evaluate`` methods return ``T z`` with the step's internals, the
channel models pass these on in ``extras["parts"]``, and the certificates
read them there.  They are the internals of the exact evaluation, so
injected channel errors perturb only the iterate path; the exception is the
inexact DRS certificate's first resolvent output, taken at the perturbed
shadow point it certifies.  The certificates reduce a chunk of steps at a
time (:class:`~kmcert.bounds.StepChunks`): they stack the chunk's parts to
``(C, ...)`` arrays, and a block's membership residual takes such stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .bounds import (BoundConstants, EmpiricalConstants, StepChunks, pointwise_bound,
                     stack_present)
from .errors import NumericalError, ParameterError, StructuralError
from .km import ErrorSchedule, GammaSchedule, IterationTrace
from .operators import CocoerciveMap, OperatorSpec, composition_alpha, prox_l1
from .spaces import ProductSpace, _layout, _weighted_sum, apply_rows


def _lu_factor(A: np.ndarray):
    # LAPACK getrf as scipy.linalg.lu_factor calls it, minus the wrapper's
    # checks: the same bits (pinned by a test)
    lu, piv, info = dgetrf(A)
    if info != 0:
        raise NumericalError(f"LU factorization failed (LAPACK getrf info {info})")
    return lu, piv


def _lu_solve(factors, b: np.ndarray) -> np.ndarray:
    # a non-finite b gives a non-finite solution, which the engine's
    # finiteness check reports as a numerical failure
    x, info = dgetrs(*factors, b)
    if info != 0:
        raise NumericalError(f"LU solve failed (LAPACK getrs info {info})")
    return x


# ---------------------------------------------------------------------------
# maximal monotone building blocks (resolvents + recognized memberships)
# ---------------------------------------------------------------------------

class MonotoneBlock:
    """A maximal monotone operator given through its resolvent family
    ``v -> (Id + c A)^{-1} v``.  Recognized block types can additionally
    verify ``g in A(u)`` exactly; others report membership as structural
    only (guaranteed by construction, not re-verified).  ``member_residual``
    takes ``(C, d)`` stacks of pairs ``(u, g)`` and returns the largest
    residual among them."""

    kind = "abstract"

    def resolvent(self, v: np.ndarray, c: float) -> np.ndarray:
        raise NotImplementedError

    def member_residual(self, u: np.ndarray, g: np.ndarray) -> Optional[float]:
        return None  # structural only


class L1Block(MonotoneBlock):
    """Scaled-l1 subdifferential; resolvent is the soft threshold."""

    kind = "l1"

    def __init__(self, mu: float):
        if mu <= 0:
            raise ParameterError("l1 weight must be positive")
        self.mu = float(mu)

    def resolvent(self, v, c):
        return prox_l1(v, c * self.mu)

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
        if not np.all(lo <= hi):
            raise ParameterError("box bounds must satisfy lo <= hi")
        self.lo, self.hi = lo, hi
        self._btol = 1e-12 * (1.0 + float(np.max(hi - lo, initial=0.0)))

    def resolvent(self, v, c):
        # bounds were checked once, in __init__
        return np.clip(v, self.lo, self.hi)

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
        # orthonormality was checked once, in __init__
        return self.U @ (self.U.T @ v)

    def member_residual(self, u, g):
        def project(X):
            return apply_rows(self.U, apply_rows(self.U.T, X))
        feas = _l2_rows(u - project(u)).max()
        perp = _l2_rows(project(g)).max()
        return float(max(feas, perp))


class LinearBlock(MonotoneBlock):
    """Affine monotone map ``u -> M u - c0`` (symmetric part PSD); resolvent
    solves a dense factorization, cached for the two most recently used
    parameter values (a non-stationary run alternates between the current
    and the limit parameter)."""

    kind = "linear"

    def __init__(self, M, c0=None):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise StructuralError("M must be square")
        if np.linalg.eigvalsh(0.5 * (M + M.T))[0] < -1e-12:
            raise ParameterError("M is not monotone")
        self.M = M
        self.c0 = np.zeros(M.shape[0]) if c0 is None else np.asarray(c0, dtype=float)
        self._eye = np.eye(M.shape[0])
        self._lu = {}

    def resolvent(self, v, c):
        lu = self._lu.pop(c, None)
        if lu is None:
            lu = _lu_factor(self._eye + c * self.M)
            if len(self._lu) == 2:      # evict the least recently used
                del self._lu[next(iter(self._lu))]
        self._lu[c] = lu
        return _lu_solve(lu, np.asarray(v, dtype=float) + c * self.c0)

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

@dataclass
class GfbSpec:
    """Blocks, smooth part and parameters of the product-space splitting.

    The smooth part may be None (pure reflection scheme); the step size must
    satisfy ``0 < gamma < 2 beta`` whenever a smooth part is present.
    """

    blocks: List[MonotoneBlock]
    weights: np.ndarray
    gamma: float
    dim: int
    smooth: Optional[CocoerciveMap] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        n = len(self.blocks)
        if n < 1 or self.weights.shape != (n,) or np.any(self.weights <= 0):
            raise ParameterError("need one positive weight per block")
        if not abs(float(self.weights.sum()) - 1.0) <= 1e-12:
            raise ParameterError("block weights must sum to 1")
        if not self.gamma > 0:
            raise ParameterError("step size must be positive")
        if self.smooth is not None and not self.gamma < 2.0 * self.smooth.beta:
            raise ParameterError(
                f"step size {self.gamma} outside (0, {2.0 * self.smooth.beta})"
            )

    def alpha_at(self, gamma: float) -> float:
        """Averagedness of the splitting at step size ``gamma``: the
        reflected-resolvent half is firmly non-expansive and the forward step
        ``gamma/(2 beta)``-averaged; ``T`` is their composition."""
        if self.smooth is None:
            return 0.5
        return composition_alpha(0.5, gamma / (2.0 * self.smooth.beta))

    @property
    def n(self) -> int:
        return len(self.blocks)


class GfbBuilt:
    """Assembled operator, its one evaluation and the channel factory.

    ``T z = z + u - x`` blockwise, with the consensus ``x = sum_i w_i z_i``
    and the resolvent outputs ``u_i`` at ``2 x - z_i - gamma B x``.
    :meth:`evaluate` and the channel model compute on a point's ``(n, d)``
    block stack; only the per-block resolvents loop over the blocks.
    """

    def __init__(self, spec: GfbSpec):
        self.spec = spec
        self.space = ProductSpace((spec.dim,) * spec.n, spec.weights)
        self._w = tuple(float(wi) for wi in spec.weights)
        self._params = tuple(spec.gamma / wi for wi in self._w)
        self.operator = OperatorSpec(lambda z: self.evaluate(z)[0],
                                     spec.alpha_at(spec.gamma), "gfb", self.space)

    def _rows(self, z: np.ndarray) -> np.ndarray:
        return z.reshape(self.spec.n, self.spec.dim)

    def resolve_all(self, args: np.ndarray, params: Optional[tuple] = None) -> np.ndarray:
        out = np.empty_like(args)
        for i, (blk, c) in enumerate(zip(self.spec.blocks, params or self._params)):
            out[i] = blk.resolvent(args[i], c)
        return out

    @property
    def alpha(self) -> float:
        return self.operator.alpha

    def evaluate(self, z: np.ndarray, gamma: Optional[float] = None):
        """``(T z, parts)``: the exact evaluation and its internals
        ``parts = (x, gx, args, u)``, the consensus, the smooth part at it,
        the per-block resolvent arguments and their outputs.  With
        ``gamma``, the same splitting at that step size (per-block
        parameters ``gamma / w_i``)."""
        params = None
        if gamma is None:
            gamma = self.spec.gamma
        else:
            params = tuple(gamma / wi for wi in self._w)
        Z = self._rows(z)
        x = _weighted_sum(self._w, Z)
        gx = _smooth_at(self.spec.smooth, x)
        args = 2.0 * x - Z - gamma * gx
        u = self.resolve_all(args, params)
        return (Z + u - x).ravel(), (x, gx, args, u)

    def channel(self, pre_law: ErrorSchedule, post_law: ErrorSchedule
                ) -> "GfbChannelModel":
        return GfbChannelModel(self, pre_law, post_law)


class _ChannelModel:
    """An assembled splitting with its error-magnitude laws; ``evaluate(k,
    z, rng)`` returns ``(T z, perturbed T z, their difference or None,
    extras)``.  ``alphas`` lists averagedness constants of per-step
    operators other than ``operator``, for the engine's relaxation check."""

    alphas: tuple = ()

    def __init__(self, built, *laws: ErrorSchedule):
        self.built = built
        self.laws = laws

    @property
    def operator(self) -> OperatorSpec:
        return self.built.operator


class GfbChannelModel(_ChannelModel):
    """Injects a pre-resolvent error (shared across blocks, lifted onto the
    diagonal) and per-block post-resolvent errors, reporting the induced
    iteration error."""

    def evaluate(self, k, z, rng):
        built = self.built
        exact, parts = built.evaluate(z)
        x, _, args, _ = parts

        dim = built.spec.dim
        pre_law, post_law = self.laws
        mag_b = pre_law.magnitude(k)
        b_vec = _unit(rng, dim) * mag_b if mag_b != 0.0 else None
        mag_a = post_law.magnitude(k)
        a_vecs = [_unit(rng, dim) * mag_a if mag_a != 0.0 else None
                  for _ in range(built.spec.n)]
        extras = {"channel": {"b": b_vec, "a": a_vecs}, "parts": parts}

        if b_vec is None and mag_a == 0.0:
            return exact, exact, None, extras

        out = built._rows(z) + built.resolve_all(
            args + b_vec if b_vec is not None else args) - x
        if mag_a != 0.0:
            out += np.stack(a_vecs)
        tilde = out.ravel()
        return exact, tilde, tilde - exact, extras


class GfbScheduleChannel(_ChannelModel):
    """The non-stationary iteration as a channel model of the splitting
    ``built`` at the schedule's limit: step ``k`` applies the splitting at
    ``gamma_k`` plus an injected error of magnitude ``law(k)``, while the
    residual refers to the limit operator, so the reported error is
    ``(T_k z - T z) + eps_k``.  The schedule's declared range must lie in
    ``(0, 2 beta)``; ``alphas`` are the averagedness constants at its ends,
    which the engine checks the relaxation against."""

    def __init__(self, built: GfbBuilt, schedule: GammaSchedule, law: ErrorSchedule):
        spec = built.spec
        beta = spec.smooth.beta if spec.smooth is not None else np.inf
        lo, hi = schedule.interval
        if not (0.0 < lo and hi < 2.0 * beta):
            raise ParameterError(
                f"schedule range [{lo}, {hi}] leaves the admissible interval "
                f"(0, {2.0 * beta})"
            )
        if schedule.limit != spec.gamma:
            raise ParameterError(f"schedule limit {schedule.limit} differs from the "
                                 f"splitting's step size {spec.gamma}")
        super().__init__(built, law)
        self.schedule = schedule
        # every value lies in the declared range (built-in schedules by
        # construction, custom ones are checked at each step), and the
        # averagedness grows with the step size, so its ends bound every step
        self.alphas = tuple(spec.alpha_at(g) for g in sorted(set(schedule.interval)))

    def evaluate(self, k, z, rng):
        built = self.built
        gamma = self.schedule.value(k)
        exact, parts = built.evaluate(z)
        native = exact if gamma == built.spec.gamma else built.evaluate(z, gamma)[0]
        mag = self.laws[0].magnitude(k)
        tilde = native + built.space.unit_vector(rng) * mag if mag != 0.0 else native
        return exact, tilde, None if tilde is exact else tilde - exact, {"parts": parts}


def _l2(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D vector, computed as
    ``np.linalg.norm`` computes it (``sqrt(x . x)``), without its overhead."""
    return math.sqrt(x.dot(x))


def _l2_rows(X: np.ndarray) -> np.ndarray:
    """:func:`_l2` of each row of a ``(C, d)`` stack, bit for bit (a row of
    ``np.vecdot`` is that row's ``x.dot(x)``)."""
    return np.sqrt(np.vecdot(X, X))


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        g = rng.standard_normal(dim)
        n = _l2(g)
        if n > 1e-12:
            return g / n


@dataclass
class CertificateSeries:
    values: np.ndarray
    bounds: np.ndarray
    membership_max: Optional[float]
    structural_only: tuple = ()
    surrogate: bool = False


def _parts(extras) -> tuple:
    if not extras or "parts" not in extras:
        raise StructuralError("a certificate needs extras['parts']: run "
                              "through the splitting's channel model")
    return extras["parts"]


class _CertificateStream(StepChunks):
    """Certificate values reduced a chunk of steps at a time from the
    engine's ``observe`` hook, with the largest membership residual seen.
    ``series(trace, constants)`` adds the bound column after the run."""

    def __init__(self, built):
        super().__init__()
        self.built = built
        self._values = []
        self._membership = None

    def _record(self, values: np.ndarray, membership: Optional[float] = None) -> None:
        self._values.append(values)
        if membership is not None:
            self._membership = (membership if self._membership is None
                                else max(self._membership, membership))

    def _collected(self) -> np.ndarray:
        """The values of every step, once the last chunk is reduced."""
        self._drain()
        return np.concatenate(self._values)


class GfbCertificates(_CertificateStream):
    """The optimality certificate at every step, against ``(1/gamma) *
    pointwise bound``.  At an iterate ``z`` it is an explicit element ``g =
    (x - ubar)/gamma - B x`` of the summed block operators at the resolvent
    outputs ``u_i`` (``ubar = sum_i w_i u_i``), with each block's membership
    residual (recognized types); the value is the stationarity criterion
    ``||g + B ubar||``.  It reads ``parts = (x, B x, args, u)`` of
    ``built.evaluate(z)``."""

    structural_only: tuple = ()

    def _reduce(self, steps: list, last: bool) -> list:
        built = self.built
        spec = built.spec
        x, gx, args, u = (np.stack(a) for a in zip(*(_parts(s[5]) for s in steps)))
        ubar = _weighted_sum(built._w, u.swapaxes(0, 1))
        g = (x - ubar) / spec.gamma - gx
        criterion = _l2_rows(g + _smooth_at(spec.smooth, ubar))

        vecs = (spec.weights[:, None] / spec.gamma) * (args - u)
        residuals, structural = [], []
        for i, blk in enumerate(spec.blocks):
            r = blk.member_residual(u[:, i], vecs[:, i])
            if r is None:
                structural.append(blk.kind)
            else:
                residuals.append(r)
        self._record(criterion, max(residuals) if residuals else None)
        self.structural_only = tuple(structural)
        return []

    def series(self, trace: IterationTrace, constants: BoundConstants) -> CertificateSeries:
        values = self._collected()
        bounds = pointwise_bound(np.arange(trace.n_steps), constants) / self.built.spec.gamma
        return CertificateSeries(values, bounds, self._membership, self.structural_only)


# ---------------------------------------------------------------------------
# Douglas-Rachford
# ---------------------------------------------------------------------------

@dataclass
class DrsSpec:
    """Two resolvents at a common positive parameter on a single block."""

    block1: MonotoneBlock
    block2: MonotoneBlock
    gamma: float
    dim: int

    def __post_init__(self):
        if self.gamma <= 0:
            raise ParameterError("step size must be positive")


class DrsBuilt:
    """The reflected-resolvent average, firmly non-expansive by construction."""

    def __init__(self, spec: DrsSpec):
        self.spec = spec
        self.space = ProductSpace.single(spec.dim)
        g = spec.gamma
        self.j1 = lambda v: spec.block1.resolvent(v, g)
        self.j2 = lambda v: spec.block2.resolvent(v, g)
        self.operator = OperatorSpec(lambda z: self.evaluate(z)[0], 0.5, "drs",
                                     self.space)

    def evaluate(self, z: np.ndarray):
        """``(T z, parts)``: the reflected-resolvent average and its internals
        ``parts = (x, w, u)``, the shadow point ``x = j2(z)``, the reflection
        ``w = 2 x - z`` and ``u = j1(w)``."""
        x = self.j2(z)
        w = 2.0 * x - z
        u = self.j1(w)
        return 0.5 * (2.0 * u - w + z), (x, w, u)

    def channel(self, law1: ErrorSchedule, law2: ErrorSchedule) -> "DrsChannelModel":
        return DrsChannelModel(self, law1, law2)


class DrsChannelModel(_ChannelModel):
    """Relaxation-stage error (added to the averaged update) and shadow-point
    error (perturbing the second resolvent output)."""

    def evaluate(self, k, z, rng):
        # parts: the exact x = j2(z), with w and u = j1(w) at the perturbed
        # reflection w + 2 e2 when a shadow-point error e2 was injected
        built = self.built
        exact, parts = built.evaluate(z)
        x, w, _ = parts

        dim = built.spec.dim
        m1, m2 = (law.magnitude(k) for law in self.laws)
        e1 = _unit(rng, dim) * m1 if m1 != 0.0 else None
        e2 = _unit(rng, dim) * m2 if m2 != 0.0 else None
        if e1 is None and e2 is None:
            return exact, exact, None, {"channel": {"eps1": None, "eps2": None},
                                        "parts": parts}
        if e2 is not None:
            w = w + 2.0 * e2
            parts = (x, w, built.j1(w))
        tilde = 0.5 * (2.0 * parts[2] - w + z)
        if e1 is not None:
            tilde = tilde + e1
        return exact, tilde, tilde - exact, {"channel": {"eps1": e1, "eps2": e2},
                                             "parts": parts}


class DrsCertificates(_CertificateStream):
    """The DRS certificate at every step, from the step's evaluation parts
    and channel errors.  Step ``k`` goes from ``z`` to ``z_next`` with ``x =
    j2(z)`` exact, ``u`` and ``v = j2(z_next)``; its certificate is an
    explicit element ``g`` of the summed operators at ``(u, v)``, its norm,
    the bound ``((1 + lam)/gamma) * pointwise bound + c_k`` as scale and
    offset (``c_k = (1/gamma)((2 + lam)||eps2|| + ||eps1||)``, 0 for an
    exact step), and the larger membership residual of the two blocks (None
    when neither is recognized).  ``v`` is the next step's shadow point, so
    a chunk's last step waits for the next chunk; :meth:`series` evaluates
    ``j2`` once, for the run's last step."""

    def __init__(self, built: DrsBuilt):
        super().__init__(built)
        self._scale = []
        self._offset = []

    def _reduce(self, steps: list, last: bool) -> list:
        built = self.built
        spec = built.spec
        z, z_next, _, _, lam, extras = zip(*steps)
        shadow, _, u = (np.stack(a) for a in zip(*(_parts(x) for x in extras)))
        n = len(steps) if last else len(steps) - 1
        v = shadow[1:]
        if last:
            v = np.concatenate((v, built.j2(z_next[-1])[None]))
        channels = [extras[i].get("channel") or {} for i in range(n)]
        rows1, e1 = stack_present([c.get("eps1") for c in channels])
        rows2, e2 = stack_present([c.get("eps2") for c in channels])
        lam = np.array(lam[:n])
        u = u[:n]

        x = shadow[:n].copy()
        if rows2:
            x[rows2] += e2
        r1 = 2.0 * x - np.stack(z[:n]) - u
        r2 = np.stack(z_next[:n]) - v
        norm1, norm2 = np.zeros(n), np.zeros(n)
        if rows1:
            norm1[rows1] = _l2_rows(e1)
        if rows2:
            norm2[rows2] = _l2_rows(e2)
        residuals = [r for r in (
            spec.block1.member_residual(u, r1 / spec.gamma),
            spec.block2.member_residual(v, r2 / spec.gamma),
        ) if r is not None]
        self._record(_l2_rows((r1 + r2) / spec.gamma),
                     max(residuals) if residuals else None)
        self._scale.append((1.0 + lam) / spec.gamma)
        self._offset.append((1.0 / spec.gamma) * ((2.0 + lam) * norm2 + norm1))
        return steps[n:]

    def series(self, trace: IterationTrace, constants: BoundConstants) -> CertificateSeries:
        values = self._collected()
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
        if self.L.ndim != 2:
            raise StructuralError("coupling must be a matrix")
        if self.sigma <= 0 or self.omega <= 0:
            raise ParameterError("dual step and weight must be positive")
        if self.r is None:
            self.r = np.zeros(self.L.shape[0])
        else:
            self.r = np.asarray(self.r, dtype=float)


@dataclass
class PdsSpec:
    primal_block: MonotoneBlock
    tau: float
    dim_primal: int
    duals: List[PdsDualTerm]
    smooth: Optional[CocoerciveMap] = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ParameterError("primal step must be positive")
        if not self.duals:
            raise ParameterError("need at least one dual term")
        wsum = sum(t.omega for t in self.duals)
        if abs(wsum - 1.0) > 1e-12:
            raise ParameterError("dual weights must sum to 1")


class PdsBuilt:
    """Assembled primal-dual fixed-point operator on the direct sum space.

    The space's metric is the strongly positive self-adjoint preconditioner
    of the scheme, so the operator is genuinely averaged in the space norm
    and the generic complexity bounds apply to the recorded quantities
    verbatim; the plain direct-sum norm stays available for the surrogate
    termination criterion, which carries the stated ``2 delta / eta`` factor.
    Inadmissible step sizes raise a parameter error that gives the computed
    preconditioner constants.
    """

    def __init__(self, spec: PdsSpec):
        self.spec = spec
        dims = (spec.dim_primal,) + tuple(t.L.shape[0] for t in spec.duals)
        weights = np.array([1.0] + [t.omega for t in spec.duals])
        for t in spec.duals:
            if t.L.shape[1] != spec.dim_primal:
                raise StructuralError("coupling matrix does not match primal dimension")

        self.L_norms = [float(np.linalg.norm(t.L, 2)) for t in spec.duals]
        inv_steps = [1.0 / spec.tau] + [1.0 / t.sigma for t in spec.duals]
        radicand = spec.tau * sum(
            t.sigma * t.omega * ln ** 2 for t, ln in zip(spec.duals, self.L_norms)
        )
        if radicand >= 1.0:
            raise ParameterError(
                f"step sizes too large: tau * sum sigma_i w_i ||L_i||^2 = {radicand:.6g} >= 1"
            )
        self.eta = min(inv_steps) * (1.0 - np.sqrt(radicand))
        self.delta = max(inv_steps)
        moduli = []
        if spec.smooth is not None:
            moduli.append(spec.smooth.beta)
        for t in spec.duals:
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
                    f"(eta={self.eta:.6g}, beta={self.beta:.6g}, tau={spec.tau}, "
                    f"sigmas={[t.sigma for t in spec.duals]})"
                )
            hb = self.eta * self.beta
            self.alpha = 2.0 * hb / (4.0 * hb - 1.0)

        # the preconditioner [[I/tau, -omega_i L_i^T], [-L_i, I/sigma_i]]
        s0, *sv = _layout(dims)
        M = np.zeros((sum(dims),) * 2)
        M[s0, s0] = np.eye(spec.dim_primal) / spec.tau
        for t, s in zip(spec.duals, sv):
            M[s0, s] = -t.omega * t.L.T
            M[s, s0] = -t.L
            M[s, s] = np.eye(t.L.shape[0]) / t.sigma
        self.space = ProductSpace(dims, weights, metric=M)

        self.operator = OperatorSpec(self.block_step, self.alpha, "pds", self.space)

    # -- evaluation ----------------------------------------------------------

    def _dual_resolvent(self, term: PdsDualTerm, w: np.ndarray) -> np.ndarray:
        # resolvent of the inverse operator via the inversion identity
        s = term.sigma
        return w - s * term.block.resolvent(w / s, 1.0 / s)

    def block_step(self, z: np.ndarray, errs=None) -> np.ndarray:
        """One exact evaluation of the fixed-point operator via the block
        recursion: primal resolvent, reflection, dual resolvents."""
        spec = self.spec
        x, *vs = self.space.blocks(z)
        e1, e2, e3, e4 = errs if errs is not None else (None, None, None, None)
        s = np.zeros_like(x)
        for t, v in zip(spec.duals, vs):
            s = s + t.omega * (t.L.T @ v)
        fwd = s + _smooth_at(spec.smooth, x)
        if e1 is not None:
            fwd = fwd + e1
        p = spec.primal_block.resolvent(x - spec.tau * fwd, spec.tau)
        if e2 is not None:
            p = p + e2
        y = 2.0 * p - x
        q = []
        for i, (t, v) in enumerate(zip(spec.duals, vs)):
            inner = t.L @ y - t.r
            if t.d_inv is not None:
                inner = inner - t.d_inv.fn(v)
            if e3 is not None and e3[i] is not None:
                inner = inner - e3[i]
            qi = self._dual_resolvent(t, v + t.sigma * inner)
            if e4 is not None and e4[i] is not None:
                qi = qi + e4[i]
            q.append(qi)
        return np.concatenate((p, *q))

    def channel(self, laws) -> "PdsChannelModel":
        return PdsChannelModel(self, laws)


class PdsChannelModel(_ChannelModel):
    """Four error channels: forward-term, post-primal-resolvent, dual
    forward-term and post-dual-resolvent (the latter two per dual block)."""

    def __init__(self, built: PdsBuilt, laws):
        if len(laws) != 4:
            raise ParameterError("need exactly four channel laws")
        super().__init__(built, *laws)

    def evaluate(self, k, z, rng):
        built = self.built
        spec = built.spec
        exact = built.block_step(z)
        dH = spec.dim_primal
        l1, l2, l3, l4 = (law.magnitude(k) for law in self.laws)
        e1 = _unit(rng, dH) * l1 if l1 != 0.0 else None
        e2 = _unit(rng, dH) * l2 if l2 != 0.0 else None
        e3 = [(_unit(rng, t.L.shape[0]) * l3 if l3 != 0.0 else None)
              for t in spec.duals]
        e4 = [(_unit(rng, t.L.shape[0]) * l4 if l4 != 0.0 else None)
              for t in spec.duals]
        if e1 is None and e2 is None and all(v is None for v in e3 + e4):
            return exact, exact, None, {"channel": {}}
        tilde = built.block_step(z, errs=(e1, e2, e3, e4))
        eps = tilde - exact
        extras = {"channel": {"eps1": e1, "eps2": e2, "eps3": e3, "eps4": e4}}
        return exact, tilde, eps, extras


class PdsCertificates(_CertificateStream):
    """Surrogate termination criterion: the plain direct-sum residual norm
    against ``(2 delta / eta) sqrt((d0^2 + C1)/(tau_min (k+1)))`` with the
    constants measured in the plain norm about ``fix_point``; the run's own
    constants are not used.  Flagged surrogate: the certified quantity is
    the residual itself, not an explicit element of the operator sum."""

    def __init__(self, built: PdsBuilt, fix_point: np.ndarray):
        super().__init__(built)
        self._constants = EmpiricalConstants(fix_point, built.space, base_norm=True)

    def _reduce(self, steps: list, last: bool) -> list:
        self._constants._reduce(steps, last)
        self._record(self.built.space.norms(np.stack([s[2] for s in steps]), base=True))
        return []

    def series(self, trace: IterationTrace, constants: BoundConstants) -> CertificateSeries:
        values = self._collected()
        factor = 2.0 * self.built.delta / self.built.eta
        bounds = factor * pointwise_bound(np.arange(trace.n_steps),
                                          self._constants.constants(trace))
        return CertificateSeries(values, bounds, None, surrogate=True)
