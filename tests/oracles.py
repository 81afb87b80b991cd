"""Test oracles that kmcert itself does not use: a plain-vector operator
wrapper, the checked soft threshold and smoothed-l1 gradient (kmcert's
blocks check their weights once and apply an unchecked kernel), the inner
product of a product space and its per-block norm, the cell-by-cell CSV
row formatter, seeded sampling checks of
averagedness, the diagonal-subspace projector and reflector of a weighted
product space, an error stage drawn a draw at a time (kmcert draws a chunk
of steps at once), the GFB step of one point with its consensus added a
block at a time, the per-step forms of the block membership residuals
and of the GFB certificate (kmcert computes both on stacks of steps), the
primal-dual operator in its preconditioned resolvent form with its
preconditioner applied block by block, an independent forward-backward
reference for the primal-dual instance, and the relaxed iteration with all
of its bookkeeping done step by step.

The sampling checks are falsification tests, not the source of truth:
sampling cannot prove averagedness.
"""

import math
from dataclasses import dataclass

import numpy as np

from kmcert.errors import (
    DivergenceError,
    NumericalError,
    ParameterError,
    StructuralError,
    UnavailableError,
)
from kmcert.km import (
    _DIVERGENCE_NORM,
    _IDENTITY_TOL,
    CHUNK,
    IterationTrace,
    Steps,
    StopRule,
    _check_output,
    _validate_admissible,
)
from kmcert.operators import OperatorSpec
from kmcert.spaces import ProductSpace, _block_inner
from kmcert.splitting import _smooth_at

WEIGHT_SUM_TOL = 1e-12


def vector_operator(space: ProductSpace, fn, alpha, label: str) -> OperatorSpec:
    """Wrap a plain vector map into a single-block operator.

    Each output is checked for its shape only; finiteness is checked where
    the output is used, once per step by the engine.
    """
    if space.n != 1:
        raise StructuralError("vector_operator needs a single-block space")
    shape = space.dims

    def apply(z: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(z), dtype=float)
        if out.ndim == 0:
            out = out.reshape(1)
        if out.shape != shape:
            raise StructuralError(f"{label}: expected output shape {shape}, got {out.shape}")
        return out

    return OperatorSpec(apply, alpha, label, space)


def prox_l1(x, mu: float) -> np.ndarray:
    """Componentwise soft threshold ``sign(x) max(|x| - mu, 0)``, the prox of
    ``mu * l1``, for a threshold ``mu > 0``."""
    if not mu > 0:
        raise ParameterError("threshold must be positive")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - mu, 0.0)


def moreau_envelope_gradient(x, mu: float) -> np.ndarray:
    """Gradient ``x - soft(x, mu)`` of the unit-index smoothing of
    ``mu * l1``: firmly non-expansive, hence 1-cocoercive."""
    x = np.asarray(x, dtype=float)
    return x - prox_l1(x, mu)


def weighted_sum(weights, rows) -> np.ndarray:
    """``w_0 rows[0] + w_1 rows[1] + ...``, one product and one addition
    per row, added in row order (kmcert sums a stack with one
    ``np.add.accumulate``)."""
    acc = weights[0] * rows[0]
    for w, r in zip(weights[1:], rows[1:]):
        acc += w * r
    return acc


def metric_inner(space: ProductSpace, a: np.ndarray, b: np.ndarray) -> float:
    """The space's inner product ``<a, M b>``, or the weighted ``<a, b>``
    without a metric, summed in block order."""
    m = space.metric
    return _block_inner(space._w, space._slices, a, b if m is None else m @ b)


def block_norm(space: ProductSpace, a: np.ndarray, metric: bool = True) -> float:
    """``sqrt(max(<a, M a>, 0))`` with one dot per block slice, added in
    block order; ``metric=False`` ignores the space's metric."""
    m = space.metric if metric else None
    return math.sqrt(max(_block_inner(space._w, space._slices, a, a if m is None else m @ a), 0.0))


# ---------------------------------------------------------------------------
# CSV rows, cell by cell
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(float(x), ".17g")


def trace_rows(trace, columns: dict) -> list:
    """The data rows of a CSV trace, formatted one cell at a time; the byte
    oracle of ``emit_trace_csv``."""
    names = ("gamma", "dist_fix", "pw_bound", "erg_bound", "local_model",
             "cert_value", "cert_bound")
    opt = {name: columns.get(name) for name in names}
    if "dist_fix" not in columns:           # the trace's distances, one per row
        opt["dist_fix"] = trace.dist
    rows = []
    for k in range(trace.n_steps):
        cell = {name: _fmt(col[k]) if col is not None else "" for name, col in opt.items()}
        rows.append(",".join([
            str(k), _fmt(trace.lam[k]), cell["gamma"], _fmt(trace.eps_norm[k]),
            _fmt(trace.res_norm[k]), _fmt(trace.erg_norm[k]), _fmt(trace.disp_norm[k]),
            cell["dist_fix"], cell["pw_bound"], cell["erg_bound"], cell["local_model"],
            cell["cert_value"], cell["cert_bound"],
        ]))
    return rows


# ---------------------------------------------------------------------------
# sampling checks (seeded, deterministic)
# ---------------------------------------------------------------------------

def sample_ball(space: ProductSpace, rng: np.random.Generator, radius: float) -> np.ndarray:
    """Draw uniformly from the ball of the given radius in the space's norm."""
    u = rng.uniform()
    return per_draw_stage(rng, space.size, radius * u ** (1.0 / sum(space.dims)), space)


@dataclass(frozen=True)
class SamplingReport:
    max_violation: float
    passed: bool
    samples: int
    radius: float
    seed: int


def _sample_pair(T: OperatorSpec, rng, radius: float):
    x = sample_ball(T.space, rng, radius)
    y = sample_ball(T.space, rng, radius)
    Tx, Ty = T(x), T(y)
    if not (np.isfinite(Tx).all() and np.isfinite(Ty).all()):
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
        lhs = metric_inner(space, dT, dT)
        rhs = metric_inner(space, dT, x - y)
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


# ---------------------------------------------------------------------------
# the diagonal subspace of a weighted product space
# ---------------------------------------------------------------------------

def _require_diagonal_layout(space: ProductSpace) -> None:
    if len(set(space.dims)) != 1:
        raise StructuralError("diagonal-subspace operations require equal block dimensions")
    if abs(float(np.sum(space.weights)) - 1.0) > WEIGHT_SUM_TOL:
        raise StructuralError("diagonal-subspace operations require weights summing to 1")


def project_diagonal(space: ProductSpace, z: np.ndarray) -> np.ndarray:
    """Project onto the diagonal subspace: every block becomes ``sum_i w_i z_i``.

    Orthogonal (idempotent, self-adjoint) in the weighted inner product,
    which requires the weights to sum to one.
    """
    _require_diagonal_layout(space)
    mean = weighted_sum(tuple(space.weights), z.reshape(space.n, -1))
    return np.tile(mean, space.n)


def reflect_diagonal(space: ProductSpace, z: np.ndarray) -> np.ndarray:
    """Reflection about the diagonal subspace, ``2 P z - z``; an involution."""
    return 2.0 * project_diagonal(space, z) - z


def _l2(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x))


# ---------------------------------------------------------------------------
# error draws, one stage at a time
# ---------------------------------------------------------------------------

def per_draw_stage(rng, size: int, mag: float, space=None) -> np.ndarray:
    """One error stage as a channel drew it with a ``standard_normal`` call
    of its own: ``mag`` times the first draw of ``size`` values whose norm
    exceeds 1e-12, a smaller one discarded and drawn again from the next
    values.  In the norm of ``space`` as ``g * (1.0 / n) * mag`` (the bare
    and schedule channels), or without one in the Euclidean norm as ``g / n
    * mag`` (a splitting's stages)."""
    while True:
        g = rng.standard_normal(size)
        n = _l2(g) if space is None else space.norm(g)
        if n > 1e-12:
            return g / n * mag if space is None else g * (1.0 / n) * mag


# ---------------------------------------------------------------------------
# the GFB step, one point at a time
# ---------------------------------------------------------------------------

def gfb_arguments(built, z: np.ndarray, gamma: float):
    """``(Z, x, B x, args)`` of the GFB splitting ``built`` at one point
    ``z``: its block rows, their consensus :func:`weighted_sum`, the smooth
    part there and the resolvent arguments ``2 x - z_i - gamma B x``."""
    Z = z.reshape(built.n, built.dim)
    x = weighted_sum(built._w, Z)
    gx = _smooth_at(built.smooth, x)
    return Z, x, gx, 2.0 * x - Z - gamma * gx


def gfb_resolve(built, args: np.ndarray, params) -> np.ndarray:
    """Block ``i``'s resolvent at ``params[i]`` of row ``i`` of ``args``, the
    l1 block's as the sign form :func:`prox_l1`."""
    u = np.empty_like(args)
    for i, (blk, c) in enumerate(zip(built.blocks, params)):
        u[i] = prox_l1(args[i], c * blk.mu) if blk.kind == "l1" else blk.resolvent(args[i], c)
    return u


def gfb_step(built, z: np.ndarray, errs=None, gamma=None):
    """``(T z, (x, B x, args, u))`` of the GFB splitting ``built`` at one
    point ``z``, at the step size ``gamma`` (the splitting's own by
    default), with the resolvents at ``gamma / w_i``.  The stage errors
    ``errs = (b, a_1 .. a_n)`` perturb it as the paper's inexact GFB does:
    ``b`` is added to every block's resolvent argument, and ``a_i`` to
    block ``i``'s output."""
    gamma = built.gamma if gamma is None else gamma
    Z, x, gx, args = gfb_arguments(built, z, gamma)
    if errs is not None:
        b, *a = np.split(errs, built.n + 1)
        args = np.stack([arg + b for arg in args])
    u = gfb_resolve(built, args, [gamma / w for w in built._w])
    out = Z + u - x
    if errs is not None:
        out = np.stack([row + ai for row, ai in zip(out, a)])
    return out.ravel(), (x, gx, args, u)


def drs_step(built, z: np.ndarray, errs=None) -> np.ndarray:
    """``T z`` of the DRS splitting ``built`` at one point ``z``: the average
    of ``z`` and the reflected resolvents.  The stage errors ``errs =
    (eps1, eps2)`` perturb it as the paper's inexact DRS does: the shadow
    point ``j2(z)`` is ``j2(z) + eps2``, and ``eps1`` is added to the
    averaged update."""
    e1, e2 = np.split(errs, 2) if errs is not None else (0.0, 0.0)
    x = built.block2.resolvent(z, built.gamma) + e2
    w = 2.0 * x - z
    u = built.block1.resolvent(w, built.gamma)
    return 0.5 * (z + (2.0 * u - w)) + e1


# ---------------------------------------------------------------------------
# certificates, one step at a time
# ---------------------------------------------------------------------------

def member_residual(block, u: np.ndarray, g: np.ndarray):
    """The residual of ``g in A(u)`` for one pair of vectors, by the block's
    kind; None for a kind that is not recognized."""
    kind = block.kind
    if kind == "l1":
        res = np.where(u != 0.0, np.abs(g - block.mu * np.sign(u)),
                       np.maximum(np.abs(g) - block.mu, 0.0))
        return float(res.max())
    if kind == "box":
        lo, hi = block.lo, block.hi
        outside = np.maximum(lo - u, 0.0) + np.maximum(u - hi, 0.0)
        at_lo = u <= lo + block._btol
        at_hi = u >= hi - block._btol
        res = np.where(at_lo & at_hi, 0.0,
                       np.where(at_hi, np.maximum(-g, 0.0),
                                np.where(at_lo, np.maximum(g, 0.0), np.abs(g))))
        return float(np.maximum(res, outside).max())
    if kind == "subspace":
        U = block.U
        return float(max(_l2(u - U @ (U.T @ u)), _l2(U @ (U.T @ g))))
    if kind == "linear":
        return float(np.linalg.norm(g - (block.M @ u - block.c0)))
    if kind == "zero":
        return float(np.linalg.norm(g))
    return None


@dataclass(frozen=True)
class GfbCertStep:
    g: np.ndarray
    criterion: float
    membership: object       # the largest block residual, None if none is recognized
    structural_only: tuple


def gfb_certificate(built, parts) -> GfbCertStep:
    """The GFB certificate of one step from ``parts = (x, B x, args, u)`` of
    ``built.evaluate(z)``: ``g = (x - ubar)/gamma - B x``, the criterion
    ``||g + B ubar||`` and the block membership residuals."""
    x, gx, args, u = parts
    ubar = weighted_sum(built._w, u)
    g = (x - ubar) / built.gamma - gx
    crit = _l2(g + _smooth_at(built.smooth, ubar))
    vecs = (built.weights[:, None] / built.gamma) * (args - u)
    residuals, structural = [], []
    for blk, ui, vec in zip(built.blocks, u, vecs):
        r = member_residual(blk, ui, vec)
        if r is None:
            structural.append(blk.kind)
        else:
            residuals.append(r)
    return GfbCertStep(g, crit, max(residuals) if residuals else None, tuple(structural))


# ---------------------------------------------------------------------------
# primal-dual reference
# ---------------------------------------------------------------------------

def pds_metric_blocks(built, a: np.ndarray) -> np.ndarray:
    """The preconditioner ``M`` applied block by block: ``x / tau - sum_i
    omega_i L_i^T v_i`` on the primal block, ``v_i / sigma_i - L_i x`` on
    dual block ``i``."""
    x, *vs = built.space.blocks(a)
    out_x = x / built.tau
    for t, v in zip(built.duals, vs):
        out_x = out_x - t.omega * (t.L.T @ v)
    return np.concatenate([out_x] + [v / t.sigma - t.L @ x for t, v in zip(built.duals, vs)])


def pds_abstract_step(built, z: np.ndarray) -> np.ndarray:
    """The primal-dual operator in its preconditioned resolvent form: solve
    ``M u = B z`` for the single-valued forward terms ``B``, then apply the
    coupled resolvent at ``z - u``.  The reference for ``PdsBuilt.evaluate``, which
    folds the solve into its block recursion."""
    space = built.space
    x, *vs = space.blocks(z)
    maps = [built.smooth] + [t.d_inv for t in built.duals]
    forward = [f.fn(v) if f is not None else np.zeros_like(v) for f, v in zip(maps, (x, *vs))]
    wx, *wv = space.blocks(z - np.linalg.solve(space.metric, np.concatenate(forward)))
    sw = np.zeros_like(wx)
    for t, w in zip(built.duals, wv):
        sw = sw + t.omega * (t.L.T @ w)
    p = built.primal_block.resolvent(wx - built.tau * sw, built.tau)
    y = 2.0 * p - wx
    q = [built._dual_resolvent(t, w + t.sigma * (t.L @ y - t.r)) for t, w in zip(built.duals, wv)]
    return np.concatenate((p, *q))


def pds_fbs_reference(problem, tol: float = 1e-13, max_iters: int = 100_000) -> np.ndarray:
    """Forward-backward run on the composite objective behind the primal-dual
    instance of ``make_pds_small`` (valid because the coupling has
    orthonormalized rows, giving the composite prox in closed form, and the
    box stays inactive)."""
    Q = problem.constants["Q"]
    q = problem.constants["q"]
    L = problem.constants["L"]
    mu = problem.constants["mu"]
    nu = float(np.linalg.eigvalsh(L @ L.T)[-1])
    gamma = 1.0 / float(np.linalg.eigvalsh(Q)[-1])
    x = np.zeros(Q.shape[0])
    for _ in range(max_iters):
        w = x - gamma * (Q @ x - q)
        Lw = L @ w
        x_new = w + (1.0 / nu) * (L.T @ (prox_l1(Lw, gamma * nu * mu) - Lw))
        if np.linalg.norm(x_new - x) <= tol:
            x = x_new
            break
        x = x_new
    if np.max(np.abs(x)) >= 10.0:
        raise UnavailableError("box constraint active; composite reference invalid")
    return x


# ---------------------------------------------------------------------------
# the engine, one step at a time
# ---------------------------------------------------------------------------

def per_step_run(channel, z0: np.ndarray, lam: float,
                 stop: StopRule, fix, observe, errors) -> IterationTrace:
    """``kmcert.km._iterate`` as it ran before it took its bookkeeping a
    chunk at a time: every norm and check at every step, and a step's exact
    output left to the chunk, and in an observed run of a channel whose
    parts a hook reads every step's parts, from ``channel.evaluate_rows`` of
    that step's point alone (a stack of one row).  A hand-over stacks the
    steps' errors, a zero row for an exact step, and their rows of the error
    stream as each step read it, ``errors(k)``, a zero row for None (None
    for an exact law).  Its trace columns, hand-overs to ``observe`` and
    failures (exception, step and message) are what the chunked engine must
    reproduce."""
    operator, evaluate_rows = channel.operator, channel.evaluate_rows
    space = operator.space
    if np.shape(z0) != (space.size,) or not np.isfinite(z0).all():
        raise StructuralError(
            f"the start point must be a finite array of shape ({space.size},) in the "
            f"operator's space; got shape {np.shape(z0)}"
        )
    _validate_admissible(lam, operator.alpha)

    lam_l, epsn_l, res_l, erg_l, disp_l, dist_l = [], [], [], [], [], []
    norm = space.norm
    eager = space.metric is not None   # M @ a warns on a non-finite a (0 * inf): scan first

    # every step's parts from its own evaluation, where a hook reads them
    stacked = observe is not None and channel.observed_parts
    if observe is not None:
        # the chunk's iterates and (e, lam, eps, error-stream row, parts)
        zs, rows = [z0], []
        zero, zero_row = np.zeros(space.size), np.zeros(sum(channel.segments))

        def hand_over():
            e_, lam_, eps_, errs_, parts_ = zip(*rows)
            parts = tuple(map(np.concatenate, zip(*parts_))) if stacked else None
            stage = None if not channel.stage_law.c else np.stack(
                [zero_row if r is None else r for r in errs_])
            observe(Steps(np.stack(zs), np.stack(e_), np.array(lam_),
                          np.stack([zero if v is None else v for v in eps_]), stage, parts))
            del zs[:-1], rows[:]

    z = z0
    S = np.zeros(space.size)
    lam_total = 0.0
    stop_reason = "max_iters"

    for k in range(stop.max_iters):
        if fix is not None:
            dist_l.append(space.norm(z - fix.nearest(z)))

        exact, tilde, eps_vec = channel.evaluate(k, z, errors)
        parts = None
        if exact is None or stacked:
            out, parts = evaluate_rows(z[None])
            if exact is None:       # left to the chunk: finished at its step
                exact = out[0]
                eps_vec = tilde - exact
        if eager:
            _check_output(k, exact, tilde)

        e = z - exact
        zn = z + (tilde - z) * lam
        step = z - zn
        with np.errstate(invalid="ignore"):     # a non-finite step fails below
            res = norm(e)
            epsn = norm(eps_vec) if eps_vec is not None else 0.0
            disp = norm(step)
        # a non-finite exact output shows in res, a non-finite tilde in disp;
        # the sum of the norms is finite unless one of them is, or it overflows
        if not math.isfinite(res + disp + epsn):
            _check_output(k, exact, tilde)
            if not math.isfinite(epsn):     # the outputs are finite, the error is not
                raise NumericalError(f"non-finite error norm at step {k}")

        # cross-check the residual against its update-rule form; the test is
        # drift > tol * max(1, ||eps||, ||z|| / min(lam, 1)), with ||z|| only
        # evaluated when needed
        back = step * (1.0 / lam)
        e_rec = back + eps_vec if eps_vec is not None else back
        drift = norm(e - e_rec)
        if (drift > _IDENTITY_TOL and drift > _IDENTITY_TOL * epsn
                and drift > _IDENTITY_TOL * norm(z) / min(lam, 1.0)):
            raise NumericalError(
                f"residual identity violated at step {k}: drift {drift:.3e}"
            )
        if observe is not None:
            zs.append(zn)
            rows.append((e, lam, eps_vec, errors(k), parts))
            if len(rows) == CHUNK:
                hand_over()

        S += e * lam            # S is the engine's own buffer, never shared
        lam_total += lam

        lam_l.append(lam)
        epsn_l.append(epsn)
        res_l.append(res)
        erg_l.append(norm(S) / lam_total)
        disp_l.append(disp)

        z = zn
        if norm(zn) > _DIVERGENCE_NORM:
            raise DivergenceError(
                f"iterate norm exceeded {_DIVERGENCE_NORM:.1e} at step {k}"
            )
        if stop.residual_tol > 0.0 and res <= stop.residual_tol:
            stop_reason = "residual_tol"
            break

    if fix is not None:
        dist_l.append(space.norm(z - fix.nearest(z)))
    if observe is not None and rows:
        hand_over()

    return IterationTrace(
        space=space,
        alpha=operator.alpha,
        stop_reason=stop_reason,
        lam=np.asarray(lam_l),
        eps_norm=np.asarray(epsn_l),
        res_norm=np.asarray(res_l),
        erg_norm=np.asarray(erg_l),
        disp_norm=np.asarray(disp_l),
        z0=z0,
        z_final=z,
        dist=np.asarray(dist_l) if fix is not None else None,
    )
