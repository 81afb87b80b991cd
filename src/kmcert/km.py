"""Inexact and non-stationary relaxed fixed-point engine with trace recording.

One step is ``z+ = z + lam * (T z + eps - z)``, with one relaxation ``lam``
for the whole run.  The recorded residual is ``e = z - T z``; by
rearranging the step, ``e = (z - z+) / lam + eps``, and the engine
cross-checks both forms for every step.  Its loop keeps what the
next evaluation needs: the evaluation, the update and the norm of ``z+``
(the divergence guard).  The checks, the trace columns and the ergodic sums
are taken over stacks of ``CHUNK`` steps, which ``observe`` then receives.

Each evaluation comes from a :class:`Channel`, the operator ``T`` with an
error law; a splitting's channel splits the law over its stages, and
its :meth:`~Channel.draws` stream draws ``CHUNK`` steps of errors at once,
which the run's :class:`ErrorStream` scales a chunk's window at a time.  A
non-stationary iteration is an inexact one: its channel measures the
residual against the declared *limit* operator ``T`` and reports ``eps =
(T_k z - T z) + eps_k``.  Where the next iterate does not need ``T z`` (an
inexact GFB, DRS or PDS step, a scheduled step at ``gamma_k != gamma``), the
channel leaves it to the chunk: the engine finishes those rows with one
stacked evaluation and one stacked subtraction when it takes the chunk's
bookkeeping, and at once when the residual stop needs ``||z - T z||``.  On
a metric space (PDS) those rows are scanned for finiteness before any
metric norm touches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DivergenceError,
    NumericalError,
    ParameterError,
    StructuralError,
)
from .operators import OperatorSpec
from .spaces import ProductSpace

_IDENTITY_TOL = 1e-12
# an iterate norm past this is reported as divergence
_DIVERGENCE_NORM = 1e12
# steps the engine buffers before it takes their bookkeeping and hands them over
CHUNK = 256
# |gamma_k - gamma| of a geometric schedule is |gamma_0 - gamma| / 1.1^k
_GEOMETRIC_RATIO = 1.1


def _stack(points) -> np.ndarray:
    """``np.stack`` of a sequence of points, at a quarter of its cost."""
    return np.concatenate(points).reshape(len(points), -1)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorSchedule:
    """Error-magnitude law ``c / (k+1)^p``, zero when ``c = 0``; directions
    come from the run's :meth:`Channel.errors`."""

    c: float
    p: float

    @staticmethod
    def power(c: float, p: float) -> "ErrorSchedule":
        if not (c >= 0 and p >= 0):
            raise ParameterError(f"power law needs c >= 0 and p >= 0, got c={c}, p={p}")
        return ErrorSchedule(float(c), float(p))

    def magnitude(self, k: int) -> float:
        """The magnitude at step ``k``; one whose square overflows, so that no
        error of it has a finite norm, raises ``NumericalError``."""
        try:
            mag = self.c / (k + 1.0) ** self.p
        except OverflowError:   # (k+1)^p past the float range: via logs, for c > 0
            return self.c and math.exp(math.log(self.c) - self.p * math.log(k + 1.0))
        if mag * mag == math.inf:
            raise NumericalError(
                f"non-finite error norm at step {k}: the error magnitude {mag:.3e} "
                f"squares past the float range")
        return mag


@dataclass(frozen=True)
class GammaSchedule:
    """Per-step operator parameter with a declared limit and symbolic
    summability classification of ``|gamma_k - gamma|``.  The values move
    monotonically from ``value(0)``, which is ``start`` up to the rounding
    of ``limit + (start - limit)``, to ``limit``, so every one lies in
    :attr:`interval` by construction."""

    kind: str
    limit: float
    start: float
    abs_summable: bool      # sum |gamma_k - gamma| finite
    k_summable: bool        # sum (k+1) |gamma_k - gamma| finite

    @staticmethod
    def constant(gamma: float) -> "GammaSchedule":
        g = float(gamma)
        return GammaSchedule("constant", g, g, abs_summable=True, k_summable=True)

    @staticmethod
    def geometric(limit: float, start: float) -> "GammaSchedule":
        return GammaSchedule("geometric", float(limit), float(start),
                             abs_summable=True, k_summable=True)

    @staticmethod
    def inverse_square(limit: float, start: float) -> "GammaSchedule":
        return GammaSchedule("inverse-square", float(limit), float(start),
                             abs_summable=True, k_summable=False)

    @staticmethod
    def harmonic(limit: float, start: float) -> "GammaSchedule":
        return GammaSchedule("harmonic", float(limit), float(start),
                             abs_summable=False, k_summable=False)

    @property
    def interval(self):
        """The range ``(lo, hi)`` of the values, from ``value(0)`` to ``limit``:
        each is ``limit`` plus a rounded fraction of ``start - limit``, and
        rounding is monotonic, so none lies past ``value(0)``."""
        first = self.value(0)
        return min(first, self.limit), max(first, self.limit)

    def value(self, k: int) -> float:
        if self.kind == "constant":
            return self.limit
        gap = self.start - self.limit
        if self.kind == "geometric":
            # negative power underflows to zero instead of overflowing
            return self.limit + gap * _GEOMETRIC_RATIO ** (-k)
        if self.kind == "inverse-square":
            return self.limit + gap / max(k, 1) ** 2
        return self.limit + gap / max(k, 1)     # harmonic

    @property
    def summability_note(self) -> str:
        if not self.abs_summable:
            return "not summable; convergence not guaranteed"
        if not self.k_summable:
            return "summable; complexity-grade summability not met"
        return "summable"


@dataclass(frozen=True)
class StopRule:
    """Run limits.  ``residual_tol = 0`` disables the residual stop so a run
    always covers its full horizon."""

    max_iters: int = 100_000
    residual_tol: float = 1e-10


# ---------------------------------------------------------------------------
# fixed-point set descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointSet:
    """The fixed-point set through its nearest-point map: an analytic
    projector, or the constant map of a single ``point`` (analytic, or the
    end of a reference run).  ``nearest`` takes a point or a ``(C, size)``
    stack of points, row for row the point's bits."""

    nearest: Callable[[np.ndarray], np.ndarray]
    point: Optional[np.ndarray] = field(default=None, compare=False)

    @staticmethod
    def from_point(z_star: np.ndarray) -> "FixedPointSet":
        return FixedPointSet(lambda z: z_star, z_star)

    def distances(self, Z: np.ndarray, space: ProductSpace) -> np.ndarray:
        """The distances of the rows of a ``(C, size)`` stack to the set."""
        return space.norms(Z - (self.point if self.point is not None else self.nearest(Z)))


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

@dataclass
class IterationTrace:
    """Per-iteration record of a run; immutable after completion."""

    space: ProductSpace
    alpha: Optional[float]
    stop_reason: str
    lam: np.ndarray
    eps_norm: np.ndarray
    res_norm: np.ndarray
    erg_norm: np.ndarray
    disp_norm: np.ndarray
    z0: np.ndarray
    z_final: np.ndarray
    dist: Optional[np.ndarray] = None          # length n_steps + 1

    @property
    def n_steps(self) -> int:
        return int(self.lam.size)

    @property
    def final_residual(self) -> float:
        return float(self.res_norm[-1]) if self.res_norm.size else float("nan")


class Steps(NamedTuple):
    """Consecutive steps ``k .. k+C-1`` of a run as stacks: ``z`` the
    iterates ``z_k .. z_{k+C}`` (``C+1`` rows, the successors are
    ``z[1:]``), ``e`` the residuals ``e_k = z_k - T z_k``, ``lam`` the
    relaxations, ``eps`` the errors (a zero row for an exact step), and
    ``errors`` the steps' ``(C, S)`` window of the error stream, the stage
    errors (a zero row for magnitude 0; None for an exact law).  ``parts``
    are the internals of the stacked exact evaluation, ``(C, ...)`` arrays,
    where a hook reads them (:attr:`~Channel.observed_parts`; else None)."""

    z: np.ndarray
    e: np.ndarray
    lam: np.ndarray
    eps: np.ndarray
    errors: Optional[np.ndarray]
    parts: Optional[tuple]


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

def _validate_admissible(lam: float, alpha) -> float:
    """Reject a relaxation outside ``(0, cap]``, up to 1e-12, and return the
    admissible cap ``1/alpha`` (1 for a non-expansive operator)."""
    cap = 1.0 if alpha is None else 1.0 / alpha
    if not 0.0 < lam <= cap + 1e-12:
        raise ParameterError(
            f"relaxation {lam} must be positive and at most the admissible cap {cap} "
            f"of the certified averagedness class"
        )
    return cap


class Channel:
    """The bare channel: operator ``T`` and error law ``law``.  ``evaluate(k,
    z, errors)`` returns ``(T z, T z + eps, eps)``, ``eps`` of magnitude
    ``law(k)`` in a uniformly drawn direction of unit space norm, or ``(T z,
    T z, None)`` when that is 0.  A step's errors are ``errors(k)`` of the
    run's :meth:`errors` stream, a row of ``segments`` from :meth:`draws`
    times ``stage_law(k)``; magnitude 0 takes none.  ``alphas`` lists the
    averagedness of per-step operators other than ``operator``, which the
    engine checks the relaxation against.

    A channel with ``evaluate_rows``, the stacked exact evaluation ``Z ->
    (T Z, parts)`` of a ``(C, size)`` stack of points, row for row equal to
    ``T z``, may leave a step's exact output to the chunk: ``evaluate`` then
    returns ``(None, tilde, None)``, and the engine fills in ``T z`` and
    ``eps = tilde - T z``.  The bare channel never does.  A splitting's
    channel does so for an inexact step, and the scheduled GFB channel for
    a step at ``gamma_k != gamma``; their ``evaluate_rows`` is the
    splitting's own ``evaluate``.  Where a hook reads the stacked parts
    (``observed_parts``, the GFB and DRS channels), an observed run stacks
    every row of its chunk for ``Steps.parts``; any other channel stacks
    only the rows it left, so that no step is evaluated twice."""

    alphas: tuple = ()
    evaluate_rows = None
    observed_parts = False

    def __init__(self, operator: OperatorSpec, law: ErrorSchedule = ErrorSchedule(0.0, 3.0)):
        self.operator = operator
        self.stage_law = law
        self.segments = (operator.space.size,)

    def draws(self, rng: np.random.Generator):
        """A run's unit error directions, one row of ``segments`` per step,
        in the order of one ``rng.standard_normal`` call per segment and
        step, drawn ``CHUNK`` steps at once by one ``(CHUNK, sum(segments))``
        call (numpy fills an array value by value), and yielded as one
        array of ``CHUNK`` unit rows.  A segment of norm at most 1e-12 is
        discarded and its stage draws again from the values after it."""
        sizes, flat = self.segments, np.empty(0)    # flat: the values no step has taken
        width = sum(sizes)
        while True:
            if flat.size < CHUNK * width:
                flat = np.append(flat, rng.standard_normal((CHUNK, width)))
            G = flat[:CHUNK * width].reshape(CHUNK, width)
            N = self._segment_norms(G)
            small = np.flatnonzero(~(N > 1e-12))
            if small.size:      # the first small segment goes
                r, s = divmod(int(small[0]), len(sizes))
                start = r * width + sum(sizes[:s])
                flat = np.delete(flat, np.s_[start:start + sizes[s]])
            else:
                yield self._unit_rows(G, N)
                flat = flat[G.size:]

    def errors(self, rng: np.random.Generator) -> "ErrorStream":
        """The run's error stream: :meth:`draws` of ``rng`` at ``stage_law``."""
        return ErrorStream(self.stage_law, self.draws(rng), sum(self.segments))

    def _segment_norms(self, G: np.ndarray) -> np.ndarray:
        return self.operator.space.norms(G)[:, None]

    def _unit_rows(self, G: np.ndarray, N: np.ndarray) -> np.ndarray:
        return G * (1.0 / N)    # each row is g * (1.0 / ||g||)

    def evaluate(self, k, z, errors):
        exact, eps = self.operator(z), errors(k)
        return exact, exact if eps is None else exact + eps, eps


class ErrorStream:
    """A run's errors: ``errors(k)`` is step ``k``'s errors, its segments in
    one row, or None for magnitude 0; every step reads its own, in order,
    so windows start at multiples of ``CHUNK``; a read out of that order
    raises ``StructuralError``.  The law is read ``CHUNK`` steps ahead,
    each magnitude once and in step order, and the window's non-zero
    magnitudes scale the next unit rows of ``draws`` in one product, row
    ``r`` times the ``r``-th of them (each row is ``unit_row *
    magnitude``), a zero row for magnitude 0, which takes no unit row (an
    exact law never draws).  Reading stops before the first magnitude that
    raises, which its own step raises in turn, after every earlier step."""

    def __init__(self, law: ErrorSchedule, draws, width: int):
        self._law, self._draws = law, draws
        self._units = np.empty((0, width))      # unit rows no step has taken
        self._k0, self._rows, self._stack = 0, [], None

    def window(self, k: int, n: int) -> Optional[np.ndarray]:
        """The read rows of steps ``k .. k+n-1`` of one window; None if exact."""
        return None if self._stack is None else self._stack[k - self._k0:k - self._k0 + n]

    def __call__(self, k: int) -> Optional[np.ndarray]:
        i = k - self._k0
        if not 0 <= i < len(self._rows):
            if i != len(self._rows):    # a window starts where the last one ends
                raise StructuralError(
                    f"step {k} reads its errors out of turn: a channel reads its errors "
                    f"at every step, in order, and the next step is {self._k0 + len(self._rows)}")
            self._read(k)
            i = 0
        return self._rows[i]

    def _read(self, k: int) -> None:
        if not self._law.c:     # an exact law: no magnitude to read, no row to take
            self._k0, self._rows = k, [None] * CHUNK
            return
        magnitude = self._law.magnitude
        mags = [magnitude(k)]
        try:
            for j in range(k + 1, k + CHUNK):
                mags.append(magnitude(j))
        except NumericalError:
            pass        # step j raises it, after the steps before it have run
        scale = [m for m in mags if m != 0.0]
        units = self._units
        if len(units) < len(scale):
            units = np.concatenate((units, next(self._draws)))
        self._units = units[len(scale):]
        rows = units[:len(scale)] * np.array(scale)[:, None]
        if len(scale) < len(mags):      # a zero row at magnitude 0
            rows, drawn = np.zeros((len(mags), units.shape[1])), rows
            rows[np.array(mags) != 0.0] = drawn
        self._k0, self._stack = k, rows
        self._rows = [None if m == 0.0 else row for m, row in zip(mags, rows)]


def _check_output(k, exact, tilde) -> None:
    """Raise for a non-finite output of step ``k``; an exact output left to
    the chunk (None) is checked when the chunk finishes it."""
    if not np.isfinite(tilde).all() or (
            exact is not tilde and exact is not None and not np.isfinite(exact).all()):
        raise NumericalError(f"non-finite operator output at step {k}")


def _checked(k0: int, Z: np.ndarray, rows: list, lam: float, evaluate_rows, space,
             every=False):
    """Finish (:func:`_complete`) and check the buffered steps ``k0 ..``
    (iterates ``Z``, rows ``(exact, tilde, eps)``, relaxation ``lam``) over
    their stacks; return the residual and error stacks, the columns and the
    parts.  The earliest failing step raises, its checks in order:
    non-finite output, non-finite error norm, ``e = (z - z+) / lam + eps``.
    On a metric space the loop has scanned every output but the exact ones
    left to the chunk, and those are scanned here before any metric norm,
    for the loop's reason: ``M @ a`` of a non-finite ``a`` meets ``0 *
    inf``, and the norm's clamp at 0 can hide a ``-inf``."""
    X, P, parts = _complete(k0, Z, rows, lam, evaluate_rows, every, space)
    if space.metric is not None and not np.isfinite(X).all():
        r = int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])
        if r:       # the steps before it fail first
            _checked(k0, Z[:r + 1], rows[:r], lam, evaluate_rows, space)
        raise NumericalError(f"non-finite operator output at step {k0 + r}")
    Zk = Z[:-1]
    E, step = Zk - X, Zk - Z[1:]    # a non-finite step fails below
    res, epsn, disp, drift, znorm = map(space.norms, (
        E, P, step, E - (step * (1.0 / lam) + P), Zk))
    # a non-finite exact output shows in res, a non-finite tilde in disp;
    # the sum of the norms is finite unless one of them is, or it overflows
    finite = np.isfinite(res + disp + epsn)
    # tol * max(1, ||eps||, ||z|| / min(lam, 1)): (z - z+) / lam carries the
    # rounding of z+, about u ||z||, times 1 / lam
    drifted = ((drift > _IDENTITY_TOL) & (drift > _IDENTITY_TOL * epsn)
               & (drift > _IDENTITY_TOL * znorm / min(lam, 1.0)))
    for r in np.flatnonzero(~finite | drifted).tolist():
        k = k0 + r
        if not finite[r]:
            _check_output(k, X[r], rows[r][1])
            if not math.isfinite(epsn[r]):      # the outputs are finite, the error is not
                raise NumericalError(f"non-finite error norm at step {k}")
        if drifted[r]:
            raise NumericalError(f"residual identity violated at step {k}: drift {drift[r]:.3e}")
    return E, P, res, epsn, disp, parts


def _complete(k0: int, Z: np.ndarray, rows: list, lam: float, evaluate_rows,
              every: bool, space: ProductSpace) -> tuple:
    """``(X, P, parts)`` of the buffered steps ``k0 ..`` (iterates ``Z``,
    rows as :func:`_checked` takes them): their exact outputs and errors (a
    zero row for an exact step), the outputs left to the chunk taken by one
    stacked ``evaluate_rows`` of those rows, or of ``every`` row, and their
    errors by one stacked ``tilde - T z``; and its parts (None without
    rows).  A stacked evaluation that raises is taken again a row at a
    time, and the first row that raises does so after the checks of the
    rows before it, as at its step."""
    exact, tilde, eps = zip(*rows)
    left = [r for r, x in enumerate(exact) if x is None]
    whole = len(left) == len(rows) or every and evaluate_rows is not None
    todo = range(len(rows)) if whole else left
    out = parts = None
    if todo:
        try:
            out, parts = evaluate_rows(Z[:-1] if whole else Z[left])
        except Exception:
            for r in todo:
                try:
                    evaluate_rows(Z[r:r + 1])
                except Exception:
                    if r:
                        _checked(k0, Z[:r + 1], rows[:r], lam, evaluate_rows, space)
                    raise
            raise
    if len(left) == len(rows):      # every step left its exact output
        return out, _stack(tilde) - out, parts
    X = _stack([t if x is None else x for x, t in zip(exact, tilde)])
    zero = np.zeros(space.size)
    P = _stack([zero if v is None else v for v in eps])
    if left:        # X holds their tilde
        done = out[left] if whole else out
        P[left], X[left] = X[left] - done, done
    return X, P, parts


def _iterate(channel: Channel, z0: np.ndarray, lam: float,
             stop: StopRule, fix: Optional[FixedPointSet], observe: Optional[Callable],
             errors) -> IterationTrace:
    operator, evaluate, evaluate_rows = channel.operator, channel.evaluate, channel.evaluate_rows
    space = operator.space
    if np.shape(z0) != (space.size,) or not np.isfinite(z0).all():
        raise StructuralError(
            f"the start point must be a finite array of shape ({space.size},) in the "
            f"operator's space; got shape {np.shape(z0)}"
        )
    _validate_admissible(lam, operator.alpha)

    norm, tol = space.norm, stop.residual_tol
    cap = _DIVERGENCE_NORM ** 2 / space.dot_scale     # below it, norm(zn) is too
    eager = space.metric is not None   # a metric norm can hide a non-finite a: scan first
    # an observed run takes the parts of every step from the stacked
    # evaluation, where a hook reads them
    every = observe is not None and channel.observed_parts
    zs, rows = [z0], []     # the chunk's iterates and (exact, tilde, eps)
    cols, dists = [[np.empty(0)] for _ in range(5)], []
    k0, S, lam_total = 0, np.zeros(space.size), 0.0

    def flush():
        nonlocal k0, S, lam_total
        Z, chunk = _stack(zs), rows[:]
        del zs[:-1], rows[:]        # a chunk that fails is not checked again
        E, P, res, epsn, disp, parts = _checked(k0, Z, chunk, lam, evaluate_rows, space, every)
        lams = np.full(len(chunk), lam)
        # the running sums S_k = sum lam_j e_j and sum lam_j, bit for bit
        Sk = np.cumsum(np.vstack([S, E * lam]), axis=0)[1:]
        totals = np.cumsum(np.concatenate(([lam_total], lams)))[1:]
        for col, v in zip(cols, (lams, epsn, res, space.norms(Sk) / totals, disp)):
            col.append(v)
        if fix is not None:
            dists.append(fix.distances(Z[:-1], space))
        if observe is not None:
            observe(Steps(Z, E, lams, P, errors.window(k0, len(chunk)), parts if every else None))
        k0, S, lam_total = k0 + len(chunk), Sk[-1], totals[-1]

    z, stop_reason = z0, "max_iters"
    try:
        for k in range(stop.max_iters):
            exact, tilde, eps_vec = evaluate(k, z, errors)
            if exact is None and tol > 0.0:     # the stop needs it now: finish it at once
                exact = evaluate_rows(z[None])[0][0]
                eps_vec = tilde - exact
            if eager:
                _check_output(k, exact, tilde)
            zn = z + (tilde - z) * lam
            zs.append(zn)
            rows.append((exact, tilde, eps_vec))
            # also the finiteness test: no non-finite iterate is evaluated; the
            # norm decides where zn.dot(zn) fails the cap (as NaN and inf do)
            if not zn.dot(zn) <= cap and not norm(zn) <= _DIVERGENCE_NORM:
                raise DivergenceError(
                    f"iterate norm exceeded {_DIVERGENCE_NORM:.1e} at step {k}")
            if tol > 0.0 and norm(z - exact) <= tol:
                z, stop_reason = zn, "residual_tol"
                break
            z = zn
            if len(rows) == CHUNK:
                flush()
        if rows:
            flush()
    except Exception:
        if rows:    # any failure, from a check or not, comes after those of earlier steps
            _checked(k0, _stack(zs), rows, lam, evaluate_rows, space)
        raise

    dist = None if fix is None else np.concatenate([*dists, fix.distances(z[None], space)])
    return IterationTrace(space, operator.alpha, stop_reason, *map(np.concatenate, cols),
                          z0, z, dist)


def run_km(channel: Channel, z0: np.ndarray, lam: float,
           stop: Optional[StopRule] = None, *, fix: Optional[FixedPointSet] = None,
           observe: Optional[Callable] = None, seed: int = 0) -> IterationTrace:
    """Run the relaxed iteration of ``channel.operator``, each step
    evaluated by ``channel`` (a :class:`Channel`, bare or a splitting's
    channel model), which takes its errors from its :meth:`~Channel.errors`
    of ``default_rng(seed)``, relaxed by ``lam`` at every step.  ``lam``
    must lie in ``(0, 1/alpha]`` for the operator and for every averagedness
    constant in the channel's ``alphas`` (the per-step operators of a
    non-stationary channel).

    ``observe(steps)`` receives the run's step vectors as :class:`Steps`
    records of ``CHUNK`` consecutive steps, after all of their checks, and
    once more with the steps left when the run ends (by its horizon or its
    residual tolerance): every step is in exactly one record, and
    consecutive records share their boundary iterate; its stage errors are
    the chunk's window of the error stream.  Constants and certificates are
    accumulated through it.  The exact outputs a channel left to the chunk
    are finished by one stacked :attr:`~Channel.evaluate_rows` before the
    chunk's checks; in an observed run of a channel whose parts a hook reads
    (:attr:`~Channel.observed_parts`) that evaluation takes every step of
    the chunk, and its parts reach ``observe``.  The engine always buffers
    one chunk, ``observe`` or not, and keeps no step vector past it; a hook
    may keep the arrays it is given (nothing writes into them in place).  A
    failing run raises the failure of its earliest failing step, as a check
    at every step would, a deferred exact evaluation that raises or is not
    finite included.
    """
    lam = float(lam)
    for alpha in channel.alphas:
        _validate_admissible(lam, alpha)
    # invalid operations (0 * inf, as where a linear resolvent's inverse meets
    # a non-finite input) make NaNs, which the engine's checks report by step
    with np.errstate(invalid="ignore"):
        return _iterate(channel, z0, lam, stop or StopRule(), fix, observe,
                        channel.errors(np.random.default_rng(seed)))
