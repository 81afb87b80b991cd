import numpy as np
import pytest

from kmcert.errors import ParameterError
from kmcert.problems import (
    make_gfb_multiblock,
    make_lasso,
    make_pds_small,
    make_quadratic_gd,
    make_two_subspaces,
    make_zero_map,
    reference_solution,
)
from kmcert.splitting import gfb_certificate


ANALYTIC = [
    lambda: make_zero_map(4),
    lambda: make_quadratic_gd(0.8, 1.0, 2, 0.5),
    lambda: make_two_subspaces(np.pi / 4, 4),
]


class TestConstruction:
    @pytest.mark.parametrize("maker", ANALYTIC)
    def test_analytic_fixed_point_residual(self, maker):
        p = maker()
        z_star = p.fix.nearest(p.z0)
        res = p.operator.space.norm(z_star - p.operator(z_star))
        assert res <= 1e-10

    def test_gd_parameter_validation(self):
        with pytest.raises(ParameterError):
            make_quadratic_gd(0.8, 1.0, 2, 3.0)
        with pytest.raises(ParameterError):
            make_quadratic_gd(1.2, 1.0, 2, 0.5)
        with pytest.raises(ParameterError):
            make_quadratic_gd(0.8, 1.0, 1, 0.5)

    def test_two_subspaces_validation(self):
        with pytest.raises(ParameterError):
            make_two_subspaces(0.0, 4)
        with pytest.raises(ParameterError):
            make_two_subspaces(2.0, 4)

    def test_determinism_under_seed(self):
        a = make_lasso(20, 30, seed=9)
        b = make_lasso(20, 30, seed=9)
        assert np.array_equal(a.constants["A"], b.constants["A"])
        assert np.array_equal(a.z0, b.z0)
        c = make_lasso(20, 30, seed=10)
        assert not np.array_equal(a.constants["A"], c.constants["A"])

    def test_gd_spectrum_extremes_attained(self):
        p = make_quadratic_gd(0.7, 1.3, 5, 0.5)
        assert p.constants["delta_m"] == 0.7
        assert p.constants["delta_M"] == 1.3
        assert p.kappa == pytest.approx(1.0 / (0.5 * 0.7))


class TestRates:
    @pytest.mark.parametrize("theta", [np.pi / 6, np.pi / 4, np.pi / 3])
    def test_two_subspaces_rate_matches_model(self, theta):
        p = make_two_subspaces(theta, 4)
        observed = p.observed_rate(p.exact_run(max_iters=p.rate_horizon))
        assert observed == pytest.approx(np.cos(theta) ** 2, abs=1e-6)

    def test_two_subspaces_relaxed_rate(self):
        p = make_two_subspaces(np.pi / 4, 4, lam=0.5)
        observed = p.observed_rate(p.exact_run(max_iters=p.rate_horizon))
        expected = 1.0 - 1.5 * 0.5 * np.sin(np.pi / 4) ** 2
        assert observed == pytest.approx(expected, abs=1e-4)

    def test_gd_rate_matches_spectral_oracle(self):
        for gamma in (0.5, 1.0):
            p = make_quadratic_gd(0.8, 1.0, 2, gamma)
            observed = p.observed_rate(p.exact_run(max_iters=p.rate_horizon))
            assert observed == pytest.approx(p.constants["spectral_rate"], abs=1e-2)
            assert observed <= p.theoretical_rate + 1e-10

    def test_gd_higher_dimension(self):
        p = make_quadratic_gd(0.8, 1.0, 5, 0.5)
        observed = p.observed_rate(p.exact_run(max_iters=p.rate_horizon))
        assert observed == pytest.approx(0.6, abs=1e-2)

    def test_gd_perfect_conditioning_one_step(self):
        p = make_quadratic_gd(1.0, 1.0, 2, 1.0)
        tr = p.exact_run(max_iters=5)
        assert tr.res_norm[1] == 0.0
        assert p.theoretical_rate == 0.0


class TestLasso:
    def test_large_penalty_gives_zero_solution(self):
        base = make_lasso(20, 30, seed=3)
        A, y = base.constants["A"], base.constants["y"]
        mu_kill = float(np.max(np.abs(A.T @ y))) * 1.01
        p = make_lasso(20, 30, mu=mu_kill, seed=3)
        tr = p.exact_run(max_iters=2000, tol=1e-13)
        x = tr.z_final          # one block: its own consensus
        assert np.max(np.abs(x)) <= 1e-10
        # certificate at the zero solution stays inside the subgradient box
        step = gfb_certificate(p.built, p.built.evaluate(tr.z_final)[1])
        assert np.all(np.abs(step.g) <= mu_kill + 1e-10)

    def test_planted_support_recovered(self):
        # informational: with a small penalty the converged support contains
        # the planted one
        p = make_lasso(40, 60, seed=1)
        tr = p.exact_run(max_iters=3000, tol=1e-13)
        x = tr.z_final          # one block: its own consensus
        support = set(np.flatnonzero(np.abs(x) > 1e-6))
        assert set(p.constants["support"]).issubset(support)

    def test_scale_guard(self):
        with pytest.raises(ParameterError):
            make_lasso(500, 60)


class TestMultiblock:
    def test_block_counts(self):
        for n in (2, 3, 4):
            p = make_gfb_multiblock(n, 10, seed=2)
            assert p.built.spec.n == n

    def test_invalid_count(self):
        with pytest.raises(ParameterError):
            make_gfb_multiblock(5, 10)

    def test_consensus_inclusion_residual(self):
        p = make_gfb_multiblock(3, 12, seed=2)
        zstar = p.fix_reference().nearest(p.z0)
        step = gfb_certificate(p.built, p.built.evaluate(zstar)[1])
        assert step.criterion <= 1e-8
        assert step.membership <= 1e-8


class TestPdsSmall:
    def test_admissibility_constants(self):
        p = make_pds_small(seed=3)
        assert 2.0 * p.built.eta * p.built.beta > 1.0
        assert p.operator.alpha == pytest.approx(p.built.alpha)

    def test_primal_inside_box(self):
        p = make_pds_small(seed=3)
        tr = p.exact_run(max_iters=5000, tol=1e-12)
        assert np.max(np.abs(p.operator.space.blocks(tr.z_final)[0])) < 10.0


class TestReferenceSolution:
    def test_matches_analytic_point(self):
        p = make_quadratic_gd(0.8, 1.0, 2, 0.5)
        ref = reference_solution(p)
        z_star = ref.nearest(p.z0)
        assert p.operator.space.norm(z_star) <= 1e-9

    def test_two_subspaces_plane_part_vanishes(self):
        p = make_two_subspaces(np.pi / 4, 4)
        ref = reference_solution(p)
        z_star = ref.nearest(p.z0)
        assert np.hypot(z_star[0], z_star[1]) <= 1e-9

    def test_certified_residual(self):
        p = make_lasso(20, 30, seed=3)
        ref = reference_solution(p)
        z_star = ref.nearest(p.z0)
        res = p.operator.space.norm(z_star - p.operator(z_star))
        assert res <= 1e-12
