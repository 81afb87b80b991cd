from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from kmcert import cli, problems
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
from oracles import gfb_certificate


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
        observed = p.observed_rate(p.run(max_iters=p.rate_horizon))
        assert observed == pytest.approx(np.cos(theta) ** 2, abs=1e-6)

    def test_two_subspaces_relaxed_rate(self):
        p = make_two_subspaces(np.pi / 4, 4, lam=0.5)
        observed = p.observed_rate(p.run(max_iters=p.rate_horizon))
        expected = 1.0 - 1.5 * 0.5 * np.sin(np.pi / 4) ** 2
        assert observed == pytest.approx(expected, abs=1e-4)

    def test_gd_rate_matches_spectral_oracle(self):
        for gamma in (0.5, 1.0):
            p = make_quadratic_gd(0.8, 1.0, 2, gamma)
            observed = p.observed_rate(p.run(max_iters=p.rate_horizon))
            assert observed == pytest.approx(p.constants["spectral_rate"], abs=1e-2)
            assert observed <= p.theoretical_rate + 1e-10

    def test_gd_higher_dimension(self):
        p = make_quadratic_gd(0.8, 1.0, 5, 0.5)
        observed = p.observed_rate(p.run(max_iters=p.rate_horizon))
        assert observed == pytest.approx(0.6, abs=1e-2)

    def test_gd_perfect_conditioning_one_step(self):
        p = make_quadratic_gd(1.0, 1.0, 2, 1.0)
        tr = p.run(max_iters=5)
        assert tr.res_norm[1] == 0.0
        assert p.theoretical_rate == 0.0


class TestLasso:
    def test_large_penalty_gives_zero_solution(self):
        base = make_lasso(20, 30, seed=3)
        A, y = base.constants["A"], base.constants["y"]
        mu_kill = float(np.max(np.abs(A.T @ y))) * 1.01
        p = make_lasso(20, 30, mu=mu_kill, seed=3)
        tr = p.run(max_iters=2000, tol=1e-13)
        x = tr.z_final          # one block: its own consensus
        assert np.max(np.abs(x)) <= 1e-10
        # certificate at the zero solution stays inside the subgradient box
        step = gfb_certificate(p.built, p.built.evaluate(tr.z_final)[1])
        assert np.all(np.abs(step.g) <= mu_kill + 1e-10)

    def test_planted_support_recovered(self):
        # informational: with a small penalty the converged support contains
        # the planted one
        p = make_lasso(40, 60, seed=1)
        tr = p.run(max_iters=3000, tol=1e-13)
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
            assert p.built.n == n

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
        tr = p.run(max_iters=5000, tol=1e-12)
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


def member(label, **overrides):
    cfg = dict({m["name"]: m for m in cli.suite_members()}[label])
    cfg.update(overrides)
    return cfg


SPLITTING = [f"cert-{p}-{m}" for p in ("lasso", "multiblock", "pds", "drs")
             for m in ("exact", "inexact")]


class TestReferenceCache:
    """``fix_reference`` solves each instance's reference once, and
    ``cli.build_problem`` shares one instance between the configs that agree
    on the keys the problem reads."""

    def test_splitting_members_solve_three_references(self, solves):
        # the run-only keys (seed, error law, horizon, tol, name) share one solve
        for seed in (0, 1):
            for name in SPLITTING:
                cli.execute_run(member(name, seed=seed, max_iters=20))
            cli.execute_run(member("cert-lasso-inexact", seed=seed, max_iters=30,
                                   tol=1e-3, error_p=2.0, name="other"))
        assert solves == ["lasso", "multiblock(n=3)", "pds-small"]

    @pytest.mark.parametrize("base, key, value", [
        ({"problem": "lasso", "rows": 10, "cols": 12}, "problem_seed", 2),
        ({"problem": "lasso", "rows": 10, "cols": 12}, "rows", 11),
        ({"problem": "lasso", "rows": 10, "cols": 12}, "mu", 0.05),
        ({"problem": "multiblock", "n_blocks": 2, "dim": 5}, "dim", 6),
        ({"problem": "multiblock", "n_blocks": 2, "dim": 5}, "n_blocks", 3),
        ({"problem": "pds-small"}, "problem_seed", 4),
    ])
    def test_each_problem_key_gets_its_own_solve(self, solves, base, key, value):
        first = cli.build_problem(cli.resolve_config(overrides=base))
        other = cli.build_problem(cli.resolve_config(overrides={**base, key: value}))
        for p in (first, other, first, other):
            p.fix_reference()
        assert len(solves) == 2
        assert first.fix_reference() is not other.fix_reference()

    @pytest.mark.parametrize("row", list(cli.PROBLEMS), ids="/".join)
    def test_the_memo_keys_on_exactly_the_keys_a_problem_reads(self, fresh_references,
                                                               row):
        problem, method = row
        base = cli.resolve_config(overrides={"problem": problem, "method": method})
        first = cli.build_problem(base)
        for key, value in [("seed", 5), ("error_c", 0.1), ("error_p", 2.0),
                           ("max_iters", 7), ("tol", 1e-3), ("name", "other")]:
            assert cli.build_problem({**base, key: value}) is first
        changed = {"theta": 1.0, "delta_m": 0.5, "delta_M": 2.0, "gamma": 1.0,
                   "lam": 0.5, "mu": 0.05, "rows": 41, "cols": 61, "n_blocks": 2,
                   "dim": 3, "problem_seed": 2, "gamma_schedule": "harmonic"}
        keys = cli.PROBLEMS[row][1].values()
        for key in keys:
            other = cli.build_problem({**base, key: changed[key]})
            assert other is not first
            assert cli.build_problem({**base, key: changed[key]}) is other
        assert cli._built.cache_info().misses == 1 + len(keys)

    @pytest.mark.parametrize("problem, key", [("gd", "gamma"), ("two-subspaces", "lam"),
                                              ("lasso", "mu")])
    def test_the_memo_tells_an_int_from_a_float(self, fresh_references, problem, key):
        built = [cli.build_problem(cli.resolve_config(overrides={"problem": problem,
                                                                 key: value}))
                 for value in (1, 1.0)]
        assert built[0] is not built[1]

    def test_the_memo_holds_at_most_eight(self, fresh_references, solves):
        def build(seed):
            return cli.build_problem(cli.resolve_config(overrides={
                "problem": "lasso", "rows": 6, "cols": 8, "problem_seed": seed}))

        made = [build(s) for s in range(11)]
        assert cli._built.cache_info().currsize == 8
        assert build(3) is made[3]                  # the oldest held
        assert build(0) is not made[0]              # evicted: built again
        assert build(4) is not made[4]              # evicted by made[0]'s rebuild
        assert solves == []                         # building solves nothing

    def test_an_instance_is_frozen(self):
        p = make_lasso(10, 12, seed=3)
        with pytest.raises(FrozenInstanceError):
            p.z0 = p.z0 + 0.5

    @pytest.mark.parametrize("change", [
        lambda p: {"z0": p.z0 + 0.5},
        lambda p: {"cert_horizon": 500},
        lambda p: {"lam": 0.5},
        lambda p: {"operator": make_lasso(10, 12, mu=0.05, seed=3).operator},
    ], ids=["z0", "cert_horizon", "relaxation", "operator"])
    def test_a_replaced_instance_solves_again(self, solves, change):
        p = make_lasso(10, 12, seed=3)
        p.fix_reference()
        q = replace(p, **change(p))
        assert q.fix_reference() is not p.fix_reference()
        q.fix_reference()
        assert len(solves) == 2

    def test_analytic_fixed_points_solve_nothing(self, solves):
        for make in ANALYTIC:
            p = make()
            assert p.fix_reference() is p.fix
        assert solves == []

    def test_each_instance_solves_once(self, solves):
        # a generator called twice builds two instances, and each solves
        p = make_lasso(10, 12, seed=3)
        again = make_lasso(10, 12, seed=3)
        direct = problems.ProblemInstance(
            name="direct", kind="gfb", operator=p.operator, z0=p.z0,
            lam=p.lam, built=p.built)
        for q in (p, again, direct, p, again, direct):
            q.fix_reference()
        assert solves == ["lasso", "lasso", "direct"]

    def test_cached_point_is_read_only(self, solves):
        p = make_lasso(10, 12, seed=3)
        z_star = p.fix_reference().nearest(p.z0)
        with pytest.raises(ValueError, match="read-only"):
            z_star[0] = 1.0
        assert not z_star.flags.writeable

    @pytest.mark.parametrize("name", [f"cert-{p}-{m}" for p in ("lasso", "multiblock", "pds")
                                      for m in ("exact", "inexact")])
    def test_cold_and_warm_runs_write_the_same_bytes(self, tmp_path, solves, name):
        outputs = []
        for run in ("cold", "warm"):
            cfg = member(name, max_iters=200)
            trace, report, columns = cli.execute_run(cfg)
            base = tmp_path / run
            cli.emit_trace_csv(f"{base}.csv", cfg, trace, columns)
            cli.write_report(f"{base}.json", report)
            outputs.append((base.with_suffix(".csv").read_bytes(),
                            base.with_suffix(".json").read_bytes()))
        assert len(solves) == 1
        assert outputs[0] == outputs[1]
