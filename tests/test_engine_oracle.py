"""The chunked engine against the per-step oracle ``oracles.per_step_run``.

``run_km`` takes its norms, checks and running sums over stacks of up to
``CHUNK`` steps, and finishes the exact outputs a channel left to the chunk
with one stacked evaluation; the oracle takes each of them at its step, the
exact output and parts from an evaluation of that step's point alone.
Their traces, end points and hand-overs to ``observe`` (the error stacks,
the windows of the error stream and the stacked parts included) must be
equal, bit for bit, on the six certification problems and a harmonic
step-size schedule (bare, GFB, scheduled GFB, DRS and PDS channels), exact,
inexact and with a law that reaches 0 inside the first window, for runs
that end on either side of a chunk boundary or early by the residual
tolerance.  A
failing run must fail as the oracle fails: the same exception and message,
which names the step.  Each failure is injected from a step on, so a check
that reports a later bad row of its chunk than the first one names the
wrong step.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from kmcert import km
from kmcert.errors import DivergenceError, ParameterError
from kmcert.km import CHUNK, Channel, StopRule, run_km
from kmcert.operators import OperatorSpec
from kmcert.problems import (
    make_gfb_multiblock,
    make_lasso,
    make_multiblock_nonstationary,
    make_pds_small,
    make_quadratic_gd,
    make_two_subspaces,
    make_zero_map,
)
from kmcert.spaces import ProductSpace
from oracles import per_step_run

HORIZONS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
ERROR_LAW = (0.1, 3.0)
# subnormal magnitudes from k = 10 and 0 from k = 11 on
REACHES_0 = (0.1, 300.0)


def lasso_with_its_reference():
    problem = make_lasso(40, 60, seed=1)
    return replace(problem, fix=problem.fix_reference())


def harmonic_schedule():
    return make_multiblock_nonstationary("harmonic", d=4)


# the fixed-point set as a point (zero-map, gd and the lasso's reference),
# as a projector (drs) and unknown (multiblock, pds, the schedule); the
# inexact lasso, multiblock, drs and pds steps and every scheduled step
# leave their exact output to the chunk
MAKERS = {
    "zero-map": lambda: make_zero_map(4),
    "gd": lambda: make_quadratic_gd(0.8, 1.0, 2, 0.5),
    "drs": lambda: make_two_subspaces(np.pi / 4, 4),
    "lasso": lasso_with_its_reference,
    "multiblock": lambda: make_gfb_multiblock(3, 20, seed=2),
    "pds": lambda: make_pds_small(seed=3),
    "ns-harmonic": harmonic_schedule,
}


@pytest.fixture(scope="module")
def problems():
    return {label: make() for label, make in MAKERS.items()}


def outcome(monkeypatch, engine, run):
    """``run()`` on ``engine`` in place of the engine's loop: ``(trace,
    observe records)``, or the exception it raised."""
    records = []
    with monkeypatch.context() as patch:
        patch.setattr(km, "_iterate", engine)
        try:
            return run(records.append), records
        except Exception as exc:     # noqa: BLE001 - compared with the oracle's
            return exc, None


def assert_same(a, b):
    """``a == b`` for arrays (shape, dtype and bytes), and element by element
    inside dicts, lists and tuples."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


def assert_same_run(engine, oracle):
    (trace, records), (want, want_records) = engine, oracle
    for name in ("lam", "eps_norm", "res_norm", "erg_norm", "disp_norm", "dist",
                 "z0", "z_final"):
        if getattr(want, name) is None:
            assert getattr(trace, name) is None
        else:
            assert_same(getattr(trace, name), getattr(want, name))
    assert (trace.stop_reason, trace.alpha) == (want.stop_reason, want.alpha)
    assert len(records) == len(want_records)
    for steps, want_steps in zip(records, want_records):
        for name in steps._fields:
            assert_same(getattr(steps, name), getattr(want_steps, name))


@pytest.mark.parametrize("law", [(0.0, 3.0), ERROR_LAW, REACHES_0],
                         ids=["exact", "inexact", "reaches-0"])
@pytest.mark.parametrize("label", sorted(MAKERS))
def test_traces_and_hand_overs_equal_the_per_step_oracle(problems, monkeypatch, label, law):
    problem = problems[label]

    def runner(horizon, tol):
        return lambda observe: problem.run(*law, horizon, tol, observe=observe)

    for horizon in HORIZONS:
        engine = outcome(monkeypatch, km._iterate, runner(horizon, 0.0))
        assert_same_run(engine, outcome(monkeypatch, per_step_run, runner(horizon, 0.0)))
        assert engine[0].n_steps == horizon
    # a residual stop inside the second chunk of the longest run
    tol = float(engine[0].res_norm[CHUNK + 40])
    assert tol > 0.0
    engine = outcome(monkeypatch, km._iterate, runner(HORIZONS[-1], tol))
    assert_same_run(engine, outcome(monkeypatch, per_step_run, runner(HORIZONS[-1], tol)))
    assert engine[0].stop_reason == "residual_tol" and engine[0].n_steps <= CHUNK + 41


class Injected:
    """A problem's inexact evaluation with a failure from step ``at`` on.

    ``exact`` and ``tilde`` make that output non-finite, ``error-norm`` the
    reported error alone; ``drift`` moves the perturbed output off its
    reported error, ``divergence`` moves both far out; ``late-raise`` makes
    the exact output non-finite at ``at`` and the next evaluation raise.
    ``raise`` makes the exact evaluation raise; ``exact-raise`` makes the
    exact output non-finite at ``at`` and its evaluation raise after it.

    Where the channel leaves a step's exact output to the chunk, the exact
    output is made non-finite, or its evaluation raises, in the channel's
    stacked ``evaluate_rows``, on the rows whose points those steps
    evaluated; the kinds that edit the reported error finish such a step at
    once, as the engine would.  On the primal-dual metric space a
    non-finite deferred row must fail without a warning from the metric."""

    KINDS = ("exact", "tilde", "error-norm", "drift", "divergence", "late-raise",
             "raise", "exact-raise")

    def __init__(self, problem, kind, at):
        channel = problem.make_channel(*ERROR_LAW)
        self.evaluate_inner, self.alphas = channel.evaluate, channel.alphas
        self.errors, self.segments, self.stage_law = (channel.errors, channel.segments,
                                                      channel.stage_law)
        self.operator = problem.operator
        self.rows_inner, self.observed_parts = channel.evaluate_rows, channel.observed_parts
        if channel.evaluate_rows is not None:
            self.evaluate_rows = self.rows
        self.kind, self.at = kind, at
        # the first step whose exact output is not finite, or whose exact
        # evaluation raises
        self.poisoned = at if kind in ("exact", "late-raise", "exact-raise") else None
        self.refused = {"raise": at, "exact-raise": at + 1}.get(kind)
        self.step_of = {}       # a point's bytes: the step that evaluated it

    evaluate_rows = None

    def rows(self, Z):
        exact, parts = self.rows_inner(Z)
        steps = [self.step_of[z.tobytes()] for z in Z]
        if self.refused is not None and max(steps) >= self.refused:
            k = next(k for k in steps if k >= self.refused)
            raise ParameterError(f"exact evaluation refused at step {k}")
        if self.poisoned is not None:
            exact = exact.copy()
            exact[[k >= self.poisoned for k in steps], -1] = np.inf
        return exact, parts

    def evaluate(self, k, z, errors):
        exact, tilde, eps = self.evaluate_inner(k, z, errors)
        self.step_of[z.tobytes()] = k
        kind = self.kind
        if k < self.at:
            return exact, tilde, eps
        if kind == "late-raise" and k > self.at:
            raise ParameterError(f"evaluation refused at step {k}")
        if exact is None and kind in ("error-norm", "drift", "divergence"):
            exact = self.rows_inner(z[None])[0][0]
            eps = tilde - exact
        if exact is not None:       # the exact output is this step's own
            if self.refused is not None and k >= self.refused:
                raise ParameterError(f"exact evaluation refused at step {k}")
            if self.poisoned is not None:
                exact = exact.copy()
                exact[-1] = np.inf
        if kind == "tilde":
            tilde = tilde.copy()
            tilde[0] = np.nan
        elif kind == "error-norm":
            eps = eps.copy()
            eps[0] = np.inf
        elif kind == "drift":
            tilde = tilde + 1e-3
        elif kind == "divergence":
            tilde = tilde + 1e13
            eps = tilde - exact
        return exact, tilde, eps


@pytest.mark.parametrize("at", [0, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("kind", Injected.KINDS)
@pytest.mark.parametrize("maker", [make_zero_map, lambda: make_gfb_multiblock(3, 4),
                                   harmonic_schedule, MAKERS["drs"], MAKERS["pds"]],
                         ids=["zero-map", "multiblock", "ns-harmonic", "drs", "pds"])
def test_failures_land_at_their_step_across_chunk_boundaries(monkeypatch, maker, kind, at):
    problem = maker()

    def run(observe):
        return run_km(Injected(problem, kind, at), problem.z0, problem.lam,
                      StopRule(CHUNK + 44, 0.0), fix=problem.fix, observe=observe)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(monkeypatch, km._iterate, run)[0]
        want = outcome(monkeypatch, per_step_run, run)[0]
    assert isinstance(want, Exception) and f"at step {at}" in str(want)
    assert type(got) is type(want) and str(got) == str(want)


# spaces where the space norm and the Euclidean norm of an iterate cross
# 1e12 at different steps: the mass of the start point in the block of
# weight 4 (norm about twice ||z||), a metric that scales the norm by 100,
# and one that scales it by 1/100 (||z|| crosses first)
GUARD_SPACES = {
    "unequal-weights": (ProductSpace((2, 3), (0.5, 4.0)), [0.1, -0.1, 1.0, 1.0, -1.0]),
    "metric-norm-first": (ProductSpace((2, 1), (1.0, 2.0), metric=np.diag([1e4, 1e4, 5e3])),
                          [1.0, -1.0, 1.0]),
    "euclidean-first": (ProductSpace((3,), (1.0,), metric=1e-4 * np.eye(3)),
                        [1.0, 2.0, -1.0]),
}


@pytest.mark.parametrize("scale", [1.0, 1.13, 1.29])
@pytest.mark.parametrize("label", sorted(GUARD_SPACES))
def test_divergence_guard_raises_at_the_oracles_step(monkeypatch, label, scale):
    # the engine tests zn.dot(zn) against a cap before it takes the norm;
    # the oracle takes the norm at every step
    space, start = GUARD_SPACES[label]
    grow = OperatorSpec(lambda z: 1.5 * z, None, "grow", space)

    def run(observe):
        return run_km(Channel(grow), scale * np.array(start), 1.0,
                      StopRule(500, 0.0), observe=observe)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(monkeypatch, km._iterate, run)[0]
        want = outcome(monkeypatch, per_step_run, run)[0]
    assert isinstance(want, DivergenceError)
    assert type(got) is type(want) and str(got) == str(want)
    # the two norms of the first iterate past the guard sit on either side
    k = int(str(want).rsplit(" ", 1)[1])
    z = scale * np.array(start) * 1.5 ** (k + 1)
    assert space.norm(z) > 1e12
    assert (np.linalg.norm(z) > 1e12) == (label == "euclidean-first")
