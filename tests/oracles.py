"""Test oracles that kmcert itself does not use: a plain-vector operator
wrapper, the inner product of a product space and its per-block norm, the
cell-by-cell CSV row formatter, seeded sampling checks of
averagedness, the diagonal-subspace projector and reflector of a weighted
product space, the per-step forms of the block membership residuals and of
the GFB certificate (kmcert computes both on stacks of steps), the
primal-dual operator in its preconditioned resolvent form with its
preconditioner applied block by block, and an independent forward-backward
reference for the primal-dual instance.

The sampling checks are falsification tests, not the source of truth:
sampling cannot prove averagedness.
"""

import math
from dataclasses import dataclass

import numpy as np

from kmcert.errors import NumericalError, ParameterError, StructuralError, UnavailableError
from kmcert.operators import OperatorSpec, prox_l1
from kmcert.spaces import ProductSpace, _block_inner, _weighted_sum
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
    r = radius * u ** (1.0 / sum(space.dims))
    return space.unit_vector(rng) * r


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
    mean = _weighted_sum(tuple(space.weights), z.reshape(space.n, -1))
    return np.tile(mean, space.n)


def reflect_diagonal(space: ProductSpace, z: np.ndarray) -> np.ndarray:
    """Reflection about the diagonal subspace, ``2 P z - z``; an involution."""
    return 2.0 * project_diagonal(space, z) - z


# ---------------------------------------------------------------------------
# certificates, one step at a time
# ---------------------------------------------------------------------------

def _l2(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x))


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
    spec = built.spec
    x, gx, args, u = parts
    ubar = _weighted_sum(built._w, u)
    g = (x - ubar) / spec.gamma - gx
    crit = _l2(g + _smooth_at(spec.smooth, ubar))
    vecs = (spec.weights[:, None] / spec.gamma) * (args - u)
    residuals, structural = [], []
    for blk, ui, vec in zip(spec.blocks, u, vecs):
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
    spec = built.spec
    x, *vs = built.space.blocks(a)
    out_x = x / spec.tau
    for t, v in zip(spec.duals, vs):
        out_x = out_x - t.omega * (t.L.T @ v)
    return np.concatenate([out_x] + [v / t.sigma - t.L @ x for t, v in zip(spec.duals, vs)])


def pds_abstract_step(built, z: np.ndarray) -> np.ndarray:
    """The primal-dual operator in its preconditioned resolvent form: solve
    ``M u = B z`` for the single-valued forward terms ``B``, then apply the
    coupled resolvent at ``z - u``.  The reference for ``block_step``, which
    folds the solve into its block recursion."""
    spec = built.spec
    space = built.space
    x, *vs = space.blocks(z)
    maps = [spec.smooth] + [t.d_inv for t in spec.duals]
    forward = [f.fn(v) if f is not None else np.zeros_like(v) for f, v in zip(maps, (x, *vs))]
    wx, *wv = space.blocks(z - np.linalg.solve(space.metric, np.concatenate(forward)))
    sw = np.zeros_like(wx)
    for t, w in zip(spec.duals, wv):
        sw = sw + t.omega * (t.L.T @ w)
    p = spec.primal_block.resolvent(wx - spec.tau * sw, spec.tau)
    y = 2.0 * p - wx
    q = [built._dual_resolvent(t, w + t.sigma * (t.L @ y - t.r)) for t, w in zip(spec.duals, wv)]
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
