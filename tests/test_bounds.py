import numpy as np
import pytest
from dataclasses import replace

from kmcert.bounds import (
    BoundConstants,
    EmpiricalConstants,
    ergodic_bound,
    fit_tail_rate,
    gd_theoretical_rate,
    local_zeta,
    local_zeta_averaged,
    pointwise_bound,
    trace_series,
    verify_series,
)
from kmcert.errors import ParameterError, UnavailableError
from kmcert.km import RelaxationSchedule, StopRule, run_km
from kmcert.problems import make_quadratic_gd, make_two_subspaces, make_zero_map


@pytest.fixture(scope="module")
def zero_exact(record):
    p = make_zero_map(d=1, seed=0)
    # overwrite start to the unit point for closed-form constants
    z0 = p.operator.space.vector((1.0,))
    acc = EmpiricalConstants(p.fix.nearest(z0), p.operator.space)
    tr, rec = record(run_km, p.operator, z0, RelaxationSchedule.constant(0.5),
                     stop=StopRule(60, 0.0), fix=p.fix, also=[acc.observe])
    return p, tr, acc.constants(tr), rec


@pytest.fixture(scope="module")
def zero_inexact():
    p = make_zero_map(d=4, seed=7)
    tr, bc, _ = p.certified_run(0.1, 3.0, max_iters=500)
    return p, tr, bc


class TestEmpiricalConstants:
    def test_exact_run_frozen_values(self, zero_exact):
        p, tr, bc, _ = zero_exact
        assert bc.d0 == pytest.approx(1.0)
        assert bc.tau_min == pytest.approx(0.25)
        assert bc.tau_max == pytest.approx(0.25)
        # residuals are 2^-k, so the largest consecutive gap is 1/2
        assert bc.nu2 == pytest.approx(1.0)
        assert bc.C1 == 0.0 and bc.C2 == 0.0
        assert bc.source == "empirical"

    def test_inexact_sums_match_recomputation(self, zero_inexact):
        p, tr, bc = zero_inexact
        # independent recomputation of the constants' ingredients
        S1 = float(np.sum(tr.lam * tr.eps_norm))
        S2 = float(np.sum((np.arange(tr.n_steps) + 1.0) * tr.eps_norm))
        assert bc.C2 == pytest.approx(S1, abs=1e-12)
        assert bc.C1 == pytest.approx(bc.nu1 * S1 + bc.nu2 * bc.tau_max * S2,
                                      abs=1e-12)
        assert bc.C1 >= bc.nu1 * S1


def violations(tr, bc, kappa=None):
    return verify_series(trace_series(tr), bc, tr.alpha, kappa)[0]


class TestPointwiseBound:
    def test_arithmetic(self):
        bc = BoundConstants(1.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0)
        assert pointwise_bound(0, bc) == pytest.approx(2.0)
        assert pointwise_bound(3, bc) == pytest.approx(1.0)

    def test_nonincreasing(self):
        bc = BoundConstants(2.0, 0.2, 0.25, 1.0, 1.0, 0.5, 0.3)
        vals = [pointwise_bound(k, bc) for k in range(50)]
        assert np.all(np.diff(vals) <= 0)

    def test_zero_tau_rejected(self):
        bc = BoundConstants(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            pointwise_bound(0, bc)

    def test_dominates_geometric_run(self, zero_exact):
        p, tr, bc, _ = zero_exact
        for k in range(tr.n_steps):
            assert tr.res_norm[k] <= pointwise_bound(k, bc) + 1e-12
        # closed forms: 2/sqrt(k+1) >= 2^-k
        ks = np.arange(61)
        assert np.all(2.0 / np.sqrt(ks + 1.0) >= 0.5 ** ks)


class TestErgodicBound:
    def test_zero_map_closed_form(self, zero_exact):
        p, tr, bc, _ = zero_exact
        for k in range(tr.n_steps):
            bound = ergodic_bound(k, bc, float(np.sum(tr.lam[: k + 1])))
            assert bound == pytest.approx(4.0 / (k + 1.0))
            assert tr.erg_norm[k] <= bound + 1e-12

    def test_monotone_in_error_budget(self):
        lo = BoundConstants(1.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0)
        hi = BoundConstants(1.0, 0.25, 0.25, 0.0, 0.0, 0.0, 0.7)
        for k in range(10):
            assert ergodic_bound(k, hi, k + 1.0) >= ergodic_bound(k, lo, k + 1.0)


class TestDisplacementBounds:
    def test_zero_map_closed_forms(self, zero_exact):
        # exact runs: ||z_k - z_{k+1}|| <= d0 / sqrt(tau_min (k+1)), and the
        # mean displacement from the start is at most 2 d0 / (k+1)
        p, tr, bc, rec = zero_exact
        ks = np.arange(tr.n_steps, dtype=float)
        pw = bc.d0 / np.sqrt(bc.tau_min * (ks + 1.0))
        erg = 2.0 * bc.d0 / (ks + 1.0)
        for k in range(tr.n_steps):
            assert tr.disp_norm[k] <= pw[k] + 1e-12
            mean_disp = np.linalg.norm(rec.z_vecs[0] - rec.z_vecs[k + 1]) / (k + 1.0)
            assert mean_disp <= erg[k] + 1e-12


class TestLocalZeta:
    def test_first_branch_boundary(self):
        assert local_zeta(4.0, 2.0) == 0.0          # tau = kappa^2

    def test_first_branch_half(self):
        assert local_zeta(2.0, 2.0) == pytest.approx(0.5)

    def test_second_branch(self):
        assert local_zeta(12.0, 2.0) == pytest.approx(0.25)  # tau = 3 kappa^2

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = local_zeta(rng.uniform(1e-6, 10.0), rng.uniform(0.1, 10.0))
            assert 0.0 <= z < 1.0

    @pytest.mark.parametrize("kappa", [1e9, 1e100, 1e150, 1e154, 1e200, 1e300,
                                       np.float64(1e300), np.inf])
    def test_huge_modulus_gives_one(self, kappa):
        # the formula already rounds to 1 past ~1e9; past sqrt(float max) its
        # square overflows (OverflowError on a float, inf/inf on a float64)
        for tau in (0.0, 1e-300, 0.09, 0.25):
            assert local_zeta(tau, kappa) == 1.0
        assert local_zeta_averaged(1.0, 0.5, kappa) == 1.0


class TestLocalZetaAveraged:
    def test_reflection_scheme_unrelaxed(self):
        theta = np.pi / 6
        z = local_zeta_averaged(1.0, 0.5, 1.0 / np.sin(theta))
        assert z == pytest.approx(np.cos(theta) ** 2)

    def test_reflection_scheme_relaxed(self):
        theta = np.pi / 4
        for lam in (0.5, 1.0, 1.5):
            z = local_zeta_averaged(lam, 0.5, 1.0 / np.sin(theta))
            assert z == pytest.approx(1.0 - (2.0 - lam) * lam * np.sin(theta) ** 2)

    def test_gradient_descent_form(self):
        delta_m, delta_M, gamma = 0.8, 1.0, 0.5
        t = gamma * delta_M
        cnd = delta_M / delta_m
        z = local_zeta_averaged(1.0, t / 2.0, 1.0 / (gamma * delta_m))
        assert z == pytest.approx(1.0 - t * (2.0 - t) / cnd ** 2)

    def test_range_checked(self):
        with pytest.raises(ParameterError):
            local_zeta_averaged(2.5, 0.5, 1.0)


class TestGdTheoreticalRate:
    def test_figure_config_half_step(self):
        assert gd_theoretical_rate(0.5, 0.8, 1.0) == pytest.approx(
            np.sqrt(0.52), abs=1e-12)
        assert gd_theoretical_rate(0.5, 0.8, 1.0) == pytest.approx(0.7211, abs=5e-5)

    def test_figure_config_unit_step(self):
        assert gd_theoretical_rate(1.0, 0.8, 1.0) == pytest.approx(0.6)

    def test_perfect_conditioning(self):
        assert gd_theoretical_rate(1.0, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("gamma, delta_m, delta_M", [
        (1.0, 1e-9, 1.0), (1.0, 1e-150, 1.0), (1.0, 1e-160, 1.0),
        (1e-300, 0.8, 1e300), (1e-300, 1e-100, 1e300)])
    def test_huge_condition_number_gives_one(self, gamma, delta_m, delta_M):
        assert gd_theoretical_rate(gamma, delta_m, delta_M) == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            gd_theoretical_rate(3.0, 0.8, 1.0)
        with pytest.raises(ParameterError):
            gd_theoretical_rate(0.5, 1.2, 1.0)


class TestFitTailRate:
    def test_exact_geometric(self):
        vals = 0.5 ** np.arange(40)
        assert fit_tail_rate(vals) == pytest.approx(0.5, abs=1e-9)

    def test_gd_observed_rates(self):
        p = make_quadratic_gd(0.8, 1.0, 2, 0.5)
        assert p.observed_rate(p.exact_run(max_iters=p.rate_horizon)) == pytest.approx(
            0.60, abs=0.01)
        p2 = make_quadratic_gd(0.8, 1.0, 2, 1.0)
        assert p2.observed_rate(p2.exact_run(max_iters=p2.rate_horizon)) == pytest.approx(
            0.20, abs=0.01)

    def test_too_short(self):
        with pytest.raises(UnavailableError):
            fit_tail_rate(0.5 ** np.arange(10))

    def test_underflow_guard(self):
        vals = 0.5 ** np.arange(200)  # tail far below 1e-14
        with pytest.raises(UnavailableError):
            fit_tail_rate(vals)


class TestVerifyTrace:
    def test_exact_run_clean(self, zero_exact):
        p, tr, bc, _ = zero_exact
        assert violations(tr, bc, kappa=p.kappa) == []

    def test_inexact_run_clean(self, zero_inexact):
        p, tr, bc = zero_inexact
        assert violations(tr, bc) == []

    def test_halved_error_budget_detected(self, zero_inexact):
        p, tr, bc = zero_inexact
        bad = replace(bc, C1=bc.C1 / 2.0)
        issues = violations(tr, bad)
        assert issues and any(v.kind == "constants" for v in issues)

    def test_shrunken_distance_detected(self, zero_inexact):
        p, tr, bc = zero_inexact
        bad = replace(bc, d0=bc.d0 / 100.0, C1=0.0, nu1=0.0)
        issues = violations(tr, bad)
        assert any(v.kind == "pointwise" for v in issues)

    def test_local_model_recursion_on_reflection_scheme(self):
        p = make_two_subspaces(np.pi / 4, 4)
        tr, bc, _ = p.certified_run(max_iters=200)
        issues = violations(tr, bc, kappa=p.kappa)
        assert issues == []

    def test_too_small_modulus_detected(self):
        # a modulus below the true one breaks the recursion somewhere
        p = make_two_subspaces(np.pi / 4, 4)
        tr, bc, _ = p.certified_run(max_iters=100)
        issues = violations(tr, bc, kappa=p.kappa / 2.0)
        assert any(v.kind == "local" for v in issues)


class TestResidualDistanceComparison:
    @pytest.mark.parametrize("maker", [
        lambda: make_zero_map(4),
        lambda: make_quadratic_gd(0.8, 1.0, 2, 0.5),
        lambda: make_two_subspaces(np.pi / 4, 4),
    ])
    def test_residual_at_most_twice_distance(self, maker):
        # exact runs: the residual never exceeds twice the distance to the
        # fixed-point set
        p = maker()
        tr = p.exact_run(max_iters=300)
        assert np.all(tr.res_norm <= 2.0 * tr.dist[:-1] + 1e-12)


class TestBoundConstantsValidation:
    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            BoundConstants(-1.0, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_tau_order(self):
        with pytest.raises(ParameterError):
            BoundConstants(1.0, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0)
