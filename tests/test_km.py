import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kmcert.errors import DivergenceError, NumericalError, ParameterError, StructuralError
from kmcert.km import (
    CHUNK,
    Channel,
    ErrorSchedule,
    FixedPointSet,
    GammaSchedule,
    StopRule,
    _validate_admissible,
    run_km,
)
from kmcert.operators import OperatorSpec, zero_operator
from kmcert.spaces import ProductSpace
from kmcert.splitting import GfbBuilt, GfbScheduleChannel, SubspaceBlock
from kmcert.problems import (
    make_gfb_multiblock,
    make_multiblock_nonstationary,
    make_two_subspaces,
)
from oracles import metric_inner, vector_operator


SCHEDULES = {
    "constant": lambda limit, start: GammaSchedule.constant(limit),
    "geometric": GammaSchedule.geometric,
    "inverse-square": GammaSchedule.inverse_square,
    "harmonic": GammaSchedule.harmonic,
}


@st.composite
def schedules(draw, kind, lo, hi):
    """A built-in schedule of ``kind`` with its limit in ``[lo, hi]`` and
    its start on either side of the limit."""
    limit = draw(st.floats(lo, hi))
    start = draw(st.floats(lo, limit) | st.floats(limit, hi))
    return SCHEDULES[kind](limit, start)


@functools.cache
def base_gfb():
    return make_gfb_multiblock(2, 6, gamma=1.5)


def one_d_space():
    return ProductSpace.single(1)


def zero_problem(d=1, z0=(1.0,)):
    sp = ProductSpace.single(d)
    return zero_operator(sp), sp.vector(z0), FixedPointSet.from_point(sp.zeros())


class TestRunKmClosedForms:
    def test_zero_map_geometric(self):
        # z_{k+1} = z_k / 2 exactly, so both residual and iterate are 2^-k
        T, z0, fix = zero_problem()
        tr = run_km(Channel(T), z0, 0.5,
                    stop=StopRule(40, 0.0), fix=fix)
        expected = 0.5 ** np.arange(40)
        assert np.max(np.abs(tr.res_norm - expected)) <= 1e-15
        assert np.max(np.abs(tr.dist[:-1] - expected)) <= 1e-15

    def test_zero_map_ergodic_closed_form(self):
        # sum of lam_j e_j telescopes to 1 - 2^-(k+1); Lambda_k = (k+1)/2
        T, z0, _ = zero_problem()
        tr = run_km(Channel(T), z0, 0.5, stop=StopRule(30, 0.0))
        ks = np.arange(30)
        expected = (2.0 - 0.5 ** ks) / (ks + 1.0)
        assert np.max(np.abs(tr.erg_norm - expected)) <= 1e-14

    def test_zero_map_displacement(self, record):
        T, z0, _ = zero_problem()
        tr, rec = record(run_km, Channel(T), z0, 0.5,
                         stop=StopRule(20, 0.0))
        assert np.max(np.abs(tr.disp_norm - 0.5 * tr.res_norm)) <= 1e-15
        # ||z_k - z_{k+1}|| from the recorded iterates, checked against the
        # identity z_k - z_{k+1} = lam (e_k - eps_k)
        sp = T.space
        recomputed = np.empty(tr.n_steps)
        for k in range(tr.n_steps):
            v = rec.z_vecs[k] - rec.z_vecs[k + 1]
            ref = (rec.e_vecs[k] - rec.eps_vecs[k]) * tr.lam[k]
            assert sp.norm(v - ref) <= 1e-12 * max(1.0, sp.norm(rec.z_vecs[k]))
            recomputed[k] = sp.norm(v)
        assert np.max(np.abs(recomputed - tr.disp_norm)) == 0.0

    def test_projector_converges_one_step(self):
        sp = ProductSpace.single(2)
        proj = SubspaceBlock(np.array([1.0, 0.0])).resolvent
        P = vector_operator(sp, lambda x: proj(x, 1.0), 0.5, "proj")
        tr = run_km(Channel(P), sp.vector((0.0, 1.0)), 1.0,
                    stop=StopRule(10, 1e-10))
        assert tr.res_norm[0] == pytest.approx(1.0)
        assert tr.res_norm[1] == 0.0
        assert tr.n_steps == 2

    def test_projector_residual_equals_distance(self):
        sp, proj, fix = subspace_projector()
        rng = np.random.default_rng(0)
        P = vector_operator(sp, proj, 0.5, "proj")
        tr = run_km(Channel(P), sp.vector(rng.standard_normal(3) * 5.0),
                    0.5, stop=StopRule(40, 0.0),
                    fix=fix)
        assert np.max(np.abs(tr.res_norm - tr.dist[:-1])) <= 1e-12


def subspace_projector():
    """``(space, projector, its fixed-point set)`` of a random plane in R^3;
    the projector takes a point or a stack of points."""
    sp = ProductSpace.single(3)
    U, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 2)))
    proj = functools.partial(SubspaceBlock(U).resolvent, c=1.0)
    return sp, proj, FixedPointSet(proj)


def two_subspaces(theta, d):
    """``(space, fixed-point set)`` of the two-subspaces DRS problem."""
    problem = make_two_subspaces(theta, d)
    return problem.operator.space, problem.fix


@pytest.mark.parametrize("make", [lambda: subspace_projector()[::2],
                                  lambda: two_subspaces(np.pi / 4, 4),
                                  lambda: two_subspaces(0.3, 7)],
                         ids=["subspace", "two-subspaces", "two-subspaces-d7"])
def test_distances_of_a_stack_equal_the_per_row_form(make):
    # the engine takes a chunk's distances from one nearest-point map of
    # its stack; each must be the norm of the row minus its own nearest point
    space, fix = make()
    rng = np.random.default_rng(3)
    for rows in (1, 2, 7, CHUNK, CHUNK + 1):
        Z = rng.standard_normal((rows, space.size)) * 10.0 ** rng.integers(-8, 8, (rows, 1))
        near = np.stack([fix.nearest(z) for z in Z])
        assert fix.nearest(Z).tobytes() == near.tobytes()
        want = np.array([space.norm(z - fix.nearest(z)) for z in Z])
        assert fix.distances(Z, space).tobytes() == want.tobytes()


class TestSchedules:
    def test_relaxation_validation(self):
        # a non-expansive operator admits (0, 1], up to 1e-12 past the cap
        T, z0, _ = zero_problem()
        for bad in (0.0, -0.5, float("nan"), float("inf"), 1.0 + 1e-11):
            with pytest.raises(ParameterError, match=re.escape(
                    f"relaxation {bad} must be positive and at most the admissible cap 1.0 ")):
                run_km(Channel(T), z0, bad, StopRule(3, 0.0))
        for good in (1e-3, 0.5, 1.0, 1.0 + 1e-13):
            assert run_km(Channel(T), z0, good, StopRule(3, 0.0)).lam.tolist() == [good] * 3

    def test_error_law_validation(self):
        for c, p in ((-0.1, 3.0), (0.1, -1.0), (float("nan"), 3.0), (0.1, float("nan"))):
            with pytest.raises(ParameterError):
                ErrorSchedule.power(c, p)

    def test_error_law_past_the_float_range(self):
        # (k+1)^p overflows: the magnitude is taken through logarithms
        assert ErrorSchedule.power(0.0, 2000.0).magnitude(5) == 0.0
        tiny = ErrorSchedule.power(1e300, 1100.0).magnitude(1)
        assert tiny == pytest.approx(1e300 / 2.0 ** 550 / 2.0 ** 550, rel=1e-12)
        assert 0.0 < tiny < 1e-31
        assert ErrorSchedule.power(0.1, 2000.0).magnitude(4) == 0.0    # underflows

    def test_admissibility_enforced(self):
        sp = ProductSpace.single(2)
        T = zero_operator(sp)  # non-expansive only: cap 1
        with pytest.raises(ParameterError):
            run_km(Channel(T), sp.vector((1.0, 0.0)), 1.5)

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    @given(data=st.data(), k=st.integers(0, 10 ** 6))
    def test_every_value_lies_in_the_interval(self, kind, data, k):
        # in range by construction: no step checks it
        sched = data.draw(schedules(kind, 1e-8, 1e8))
        lo, hi = sched.interval
        assert all(lo <= sched.value(j) <= hi for j in (0, 1, 2, k))
        assert {lo, hi} == {sched.value(0), sched.limit}

    @staticmethod
    def assert_alphas_admit_every_step(sched, ks):
        # the engine checks the relaxation against the channel's alphas
        # only: the largest relaxation they admit, and a fraction of it, is
        # admitted at every step's own averagedness (alpha_at is monotone up
        # to its rounding, which the check's 1e-12 slack absorbs)
        b = base_gfb().built
        built = GfbBuilt(b.blocks, b.weights, sched.limit, b.dim, b.smooth)
        channel = GfbScheduleChannel(built, sched, ErrorSchedule.power(0.0, 3.0))
        lo, hi = sched.interval
        assert channel.alphas == tuple(built.alpha_at(g) for g in sorted({lo, hi}))
        cap = min(_validate_admissible(1e-3, a) for a in channel.alphas)
        for lam in (cap, 0.5 * cap):
            for a in channel.alphas:
                _validate_admissible(lam, a)
            for j in ks:
                _validate_admissible(lam, built.alpha_at(sched.value(j)))

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    @given(data=st.data(), k=st.integers(0, 10 ** 6))
    def test_channel_alphas_bound_every_step(self, kind, data, k):
        # beta = 1: the schedule's values lie in (0, 2)
        self.assert_alphas_admit_every_step(data.draw(schedules(kind, 1e-3, 1.99)), (0, 1, 2, k))

    def test_channel_alphas_admit_a_step_whose_alpha_rounds_below_them(self):
        # alpha_at is not monotone to the last bit: a start one ulp above the
        # limit gives alphas (0.6709187735198611, 0.670918773519861), and
        # step 0's alpha_at lies below the first
        limit = 1.0190132115288106
        sched = GammaSchedule.harmonic(limit, math.nextafter(limit, 3.0))
        b = base_gfb().built
        built = GfbBuilt(b.blocks, b.weights, limit, b.dim, b.smooth)
        alphas = GfbScheduleChannel(built, sched, ErrorSchedule.power(0.0, 3.0)).alphas
        assert alphas == (0.6709187735198611, 0.670918773519861)
        assert built.alpha_at(sched.value(0)) < alphas[0]
        self.assert_alphas_admit_every_step(sched, (0, 1, 2, 10 ** 6))

    def test_gamma_schedule_values_and_flags(self):
        g = GammaSchedule.geometric(1.5, 1.9)
        assert g.value(0) == pytest.approx(1.9)
        assert g.value(1) == pytest.approx(1.5 + 0.4 / 1.1)
        assert g.abs_summable and g.k_summable
        assert GammaSchedule.geometric(1.5, 1.9).value(100000) == pytest.approx(1.5)
        h = GammaSchedule.harmonic(1.5, 1.9)
        assert h.value(0) == pytest.approx(1.9) and h.value(2) == pytest.approx(1.7)
        assert not h.abs_summable
        q = GammaSchedule.inverse_square(1.5, 1.9)
        assert q.abs_summable and not q.k_summable
        assert "not summable" in h.summability_note


class TestInexactRuns:
    def test_recorded_magnitudes_follow_law(self):
        T, z0, _ = zero_problem(d=4, z0=(1.0, 0.0, 0.0, 0.0))
        tr = run_km(Channel(T, ErrorSchedule.power(0.1, 3.0)), z0,
                    0.5, stop=StopRule(50, 0.0))
        ks = np.arange(50)
        assert np.max(np.abs(tr.eps_norm - 0.1 / (ks + 1.0) ** 3)) <= 1e-15

    def test_update_identity_recomputed(self, record):
        # z_{k+1} - z_k must equal lam (eps_k - e_k) from the recorded vectors
        T, z0, _ = zero_problem(d=3, z0=(1.0, 2.0, -1.0))
        tr, rec = record(run_km, Channel(T, ErrorSchedule.power(0.2, 2.0)), z0,
                         0.7, stop=StopRule(40, 0.0))
        sp = T.space
        for k in range(tr.n_steps):
            step = rec.z_vecs[k + 1] - rec.z_vecs[k]
            ref = (rec.eps_vecs[k] - rec.e_vecs[k]) * tr.lam[k]
            assert sp.norm(step - ref) <= 1e-12

    def test_determinism(self, record):
        T, z0, _ = zero_problem(d=4, z0=(1.0, -1.0, 0.5, 2.0))
        a, ra = record(run_km, Channel(T, ErrorSchedule.power(0.1, 3.0)), z0,
                       0.5, stop=StopRule(60, 0.0), seed=5)
        b, rb = record(run_km, Channel(T, ErrorSchedule.power(0.1, 3.0)), z0,
                       0.5, stop=StopRule(60, 0.0), seed=5)
        assert np.array_equal(a.res_norm, b.res_norm)
        assert np.array_equal(a.erg_norm, b.erg_norm)
        assert np.array_equal(a.eps_norm, b.eps_norm)
        assert all(np.array_equal(x, y) for x, y in zip(ra.z_vecs, rb.z_vecs))

    def test_a_channel_that_skips_its_errors_raises(self):
        # step CHUNK starts the second window but does not read its errors;
        # step CHUNK + 1 would start a window one step late
        class Skipping(Channel):
            def evaluate(self, k, z, errors):
                if k == CHUNK:
                    exact = self.operator(z)
                    return exact, exact, None
                return super().evaluate(k, z, errors)

        T, z0, _ = zero_problem(d=4, z0=(1.0, 0.0, 0.0, 0.0))
        handed = []
        with pytest.raises(StructuralError, match=re.escape(
                f"step {CHUNK + 1} reads its errors out of turn: a channel reads its errors "
                f"at every step, in order, and the next step is {CHUNK}")):
            run_km(Skipping(T, ErrorSchedule.power(0.1, 2.0)), z0, 0.5, StopRule(600, 0.0),
                   observe=handed.append)
        assert [steps.errors.shape for steps in handed] == [(CHUNK, 4)]

    def test_seed_changes_directions(self):
        T, z0, _ = zero_problem(d=4, z0=(1.0, -1.0, 0.5, 2.0))
        a = run_km(Channel(T, ErrorSchedule.power(0.1, 3.0)), z0,
                   0.5, stop=StopRule(30, 0.0), seed=1)
        b = run_km(Channel(T, ErrorSchedule.power(0.1, 3.0)), z0,
                   0.5, stop=StopRule(30, 0.0), seed=2)
        assert not np.array_equal(a.res_norm, b.res_norm)
        # magnitudes still follow the same law (up to unit-vector rounding)
        assert np.max(np.abs(a.eps_norm - b.eps_norm)) <= 1e-15


class TestStepInequalities:
    """Per-step inequalities that every run must satisfy (wider sweeps live in
    the acceptance module)."""

    def residual_difference_slack(self, tr, rec, alpha=None):
        sp = tr.space
        worst = -np.inf
        scale = 2.0 * (alpha if alpha is not None else 1.0)
        for k in range(tr.n_steps - 1):
            de = rec.e_vecs[k] - rec.e_vecs[k + 1]
            lhs = metric_inner(sp, de, de) / (scale * tr.lam[k])
            rhs = metric_inner(sp, rec.e_vecs[k] - rec.eps_vecs[k], de)
            worst = max(worst, lhs - rhs)
        return worst

    def test_residual_difference_inequality_exact(self, record):
        T, z0, _ = zero_problem(d=3, z0=(1.0, 2.0, 3.0))
        tr, rec = record(run_km, Channel(T), z0, 0.5,
                         stop=StopRule(40, 0.0))
        assert self.residual_difference_slack(tr, rec) <= 1e-10

    def test_residual_difference_inequality_inexact(self, record):
        T, z0, _ = zero_problem(d=3, z0=(1.0, 2.0, 3.0))
        tr, rec = record(run_km, Channel(T, ErrorSchedule.power(0.1, 3.0)), z0,
                         0.5, stop=StopRule(100, 0.0))
        assert self.residual_difference_slack(tr, rec) <= 1e-10

    def test_exact_residual_monotone(self):
        T, z0, _ = zero_problem(d=2, z0=(3.0, -4.0))
        tr = run_km(Channel(T), z0, 0.7, stop=StopRule(50, 0.0))
        assert np.all(tr.res_norm[1:] <= tr.res_norm[:-1] + 1e-12)

    def test_distance_decrease_exact(self):
        T, z0, fix = zero_problem(d=2, z0=(3.0, -4.0))
        tr = run_km(Channel(T), z0, 0.5, stop=StopRule(50, 0.0),
                    fix=fix)
        tau = tr.lam * (1.0 - tr.lam)
        lhs = tr.dist[1:] ** 2
        rhs = tr.dist[:-1] ** 2 - tau * tr.res_norm ** 2
        assert np.all(lhs <= rhs + 1e-10)


class TestDivergenceGuard:
    def test_expanding_map_detected(self):
        sp = ProductSpace.single(1)
        bad = vector_operator(sp, lambda x: 3.0 * x, None, "triple")  # false claim
        with pytest.raises(DivergenceError):
            run_km(Channel(bad), sp.vector((1.0,)), 1.0,
                   stop=StopRule(300, 0.0))


class MisreportingChannel(Channel):
    """The zero map with the error law ``c / (k+1)^3``, reporting each step's
    error scaled by ``1 + rel``."""

    def __init__(self, space, c, rel):
        super().__init__(zero_operator(space), ErrorSchedule.power(c, 3.0))
        self.rel = rel

    def evaluate(self, k, z, errors):
        exact, tilde, eps = super().evaluate(k, z, errors)
        return exact, tilde, eps * (1.0 + self.rel)


class TestResidualIdentity:
    """The residual-identity check allows rounding relative to ``max(1,
    ||z|| / min(lam, 1), ||eps||)``, not more (a large error that passes is
    ``test_cli.py::TestLargeErrors``)."""

    @pytest.mark.parametrize("lam", [1e-5, 1e-8, 1e-10])
    def test_small_relaxation_passes_the_check(self, lam):
        # (z - z+) / lam carries the rounding of z+, about u ||z||, times
        # 1 / lam: drifts of 2.0e-11, 3.4e-9 and 4.8e-7 against ||z|| ~ 10
        trace, _, series = make_two_subspaces(0.785, 4, lam=lam).certified_run(max_iters=300)
        assert trace.n_steps == 300 and np.all(series.values <= series.bounds + 1e-10)

    @pytest.mark.parametrize("lam, rel", [(1e-5, 1e-3), (1e-10, 1.0)])
    def test_misreported_error_is_caught_at_a_small_relaxation(self, lam, rel):
        # the allowance grows as 1 / lam (2e-7 and 2e-2 at ||z|| = 2): an
        # error misreported by 1e-4 and 0.1 is still caught
        sp = ProductSpace.single(4)
        with pytest.raises(NumericalError, match="residual identity violated at step 0"):
            run_km(MisreportingChannel(sp, 0.1, rel), sp.vector(np.ones(4)), lam,
                   stop=StopRule(5, 0.0))

    @pytest.mark.parametrize("c", [0.1, 1e5])
    def test_misreported_error_is_caught(self, c):
        sp = ProductSpace.single(4)
        channel = MisreportingChannel(sp, c, 1e-6)
        with pytest.raises(NumericalError, match="residual identity violated at step 0"):
            run_km(channel, sp.vector(np.ones(4)), 0.5,
                   stop=StopRule(5, 0.0))
        channel.rel = 0.0
        assert run_km(channel, sp.vector(np.ones(4)), 0.5,
                      stop=StopRule(5, 0.0)).n_steps == 5

    def test_non_finite_reported_error_is_named(self):
        # finite outputs with a NaN error: the drift is NaN too, and no
        # tolerance check would fail on it
        sp = ProductSpace.single(4)
        channel = MisreportingChannel(sp, 0.1, np.nan)
        with pytest.raises(NumericalError, match="^non-finite error norm at step 0$"):
            run_km(channel, sp.vector(np.ones(4)), 0.5,
                   stop=StopRule(5, 0.0))


class TestErgodicRecompute:
    def test_matches_engine_column(self, record):
        T, z0, _ = zero_problem(d=3, z0=(1.0, -2.0, 0.5))
        tr, rec = record(run_km, Channel(T, ErrorSchedule.power(0.05, 3.0)), z0,
                         0.5, stop=StopRule(60, 0.0))
        # relaxation-weighted running average of the recorded residuals
        S = tr.space.zeros()
        total = 0.0
        recomputed = np.empty(tr.n_steps)
        for k in range(tr.n_steps):
            S = S + rec.e_vecs[k] * tr.lam[k]
            total += tr.lam[k]
            recomputed[k] = tr.space.norm(S) / total
        assert np.max(np.abs(recomputed - tr.erg_norm)) <= 1e-14

    def test_constant_residual_average(self):
        # identity operator with constant injected error: e_k = 0 always
        sp = ProductSpace.single(2)
        T = OperatorSpec(lambda z: z, None, "id", sp)
        tr = run_km(Channel(T, ErrorSchedule.power(1.0, 0.0)), sp.vector((1.0, 1.0)),
                    0.5, stop=StopRule(25, 0.0))
        assert np.max(tr.res_norm) == 0.0
        assert np.max(tr.erg_norm) == 0.0

    def test_alternating_residual_cancellation(self):
        # the sign flip makes residuals alternate, so the running average
        # collapses to 0 after even step counts and 2||z0||/(k+1) otherwise
        sp = ProductSpace.single(2)
        flip = vector_operator(sp, lambda x: -x, None, "flip")
        z0 = sp.vector((3.0, 4.0))
        tr = run_km(Channel(flip), z0, 1.0,
                    stop=StopRule(20, 0.0))
        ks = np.arange(20)
        expected = np.where(ks % 2 == 0, 10.0 / (ks + 1.0), 0.0)
        assert np.max(np.abs(tr.erg_norm - expected)) <= 1e-12


class TestNonstationary:
    def test_constant_schedule_degenerates(self):
        tr_ns = make_multiblock_nonstationary("constant", d=6).run(max_iters=200)
        tr_st = make_gfb_multiblock(3, 6, gamma=1.5).run(max_iters=200)
        assert np.array_equal(tr_ns.res_norm, tr_st.res_norm)
        assert np.array_equal(tr_ns.erg_norm, tr_st.erg_norm)
        assert np.array_equal(tr_ns.disp_norm, tr_st.disp_norm)
        assert np.max(tr_ns.eps_norm) == 0.0

    def test_geometric_perturbations_summable(self):
        tr = make_multiblock_nonstationary("geometric", d=6).run(max_iters=600)
        sums = np.cumsum(tr.eps_norm)
        # the partial-sum tail past step 300 moves by less than 1e-8
        assert sums[-1] - sums[300] <= 1e-8
        assert np.isfinite(sums[-1])

    def test_harmonic_perturbations_still_growing(self):
        tr = make_multiblock_nonstationary("harmonic", d=6).run(max_iters=600)
        sums = np.cumsum(tr.eps_norm)
        assert sums[-1] - sums[-301] > 1e-4

    def test_gamma_column_recorded(self):
        from kmcert.cli import execute_run, resolve_config
        cfg = resolve_config(overrides={
            "problem": "multiblock", "method": "gfb-nonstationary",
            "gamma_schedule": "geometric", "dim": 6, "max_iters": 50})
        trace, _, columns = execute_run(cfg)
        sched = make_multiblock_nonstationary("geometric", d=6).schedule
        assert columns["gamma"].shape == (trace.n_steps,) == (50,)
        assert columns["gamma"][0] == sched.value(0)
        assert columns["gamma"][7] == sched.value(7)

    def test_schedule_range_validated(self):
        base = make_gfb_multiblock(2, 6, gamma=1.5)
        bad = GammaSchedule.geometric(1.5, 2.5)  # exceeds 2 beta = 2
        with pytest.raises(ParameterError, match="admissible interval"):
            GfbScheduleChannel(base.built, bad, ErrorSchedule.power(0.0, 3.0))

    @pytest.mark.parametrize("kind", ["geometric", "harmonic"])
    def test_inexact_error_is_operator_drift_plus_injected_error(self, kind, record):
        # eps_k - (T_{gamma_k} z_k - T z_k) is the injected error, of norm
        # 0.1/(k+1)^3; T_{gamma_k} is assembled anew at each step size
        p = make_multiblock_nonstationary(kind, d=6)
        built, norm = p.built, p.operator.space.norm
        trace, rec = record(p.run, 0.1, 3.0, 40)
        assert trace.n_steps == 40
        for k in range(trace.n_steps):
            z = rec.z_vecs[k]
            T_k = GfbBuilt(built.blocks, built.weights, p.schedule.value(k),
                           built.dim, built.smooth).operator
            injected = norm(rec.eps_vecs[k] - (T_k(z) - p.operator(z)))
            mag = 0.1 / (k + 1.0) ** 3
            assert abs(injected - mag) <= 1e-12 * max(mag, norm(z))

    def test_relaxation_checked_at_the_range_ends(self):
        # alpha = 2 beta / (4 beta - gamma) with beta = 1 caps the relaxation
        # at 1.25 at the limit 1.5 and at 1.05 at the range's upper end 1.9
        lam = 1.2
        stationary = make_gfb_multiblock(3, 6, gamma=1.5)
        assert replace(stationary, lam=lam).run(0.1, 3.0, 5).n_steps == 5
        for kind in ("geometric", "harmonic"):
            p = replace(make_multiblock_nonstationary(kind, d=6), lam=lam)
            with pytest.raises(ParameterError, match="admissible cap 1.05"):
                p.run(0.1, 3.0, 5)
