"""Inputs are validated once, where they enter; the step loop only computes.

These tests pin down where each check now lives: user data at construction,
operator output once per step in the engine, schedule values at every step,
and emitted trace cells and rows when they are read back.
"""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kmcert import cli
from kmcert.cli import CSV_COLUMNS, main, verify_files
from kmcert.errors import (
    DivergenceError,
    NumericalError,
    ParameterError,
    StructuralError,
    UnavailableError,
)
from kmcert.km import (
    ErrorSchedule,
    FixedPointSet,
    GammaSchedule,
    RelaxationSchedule,
    StopRule,
    run_km,
)
from kmcert.operators import OperatorSpec, zero_operator
from kmcert.problems import (
    _check_fixed_point,
    make_gfb_multiblock,
    make_multiblock_nonstationary,
    make_pds_small,
    make_zero_map,
    reference_solution,
)
from kmcert.spaces import ProductSpace
from kmcert.splitting import (
    BoxBlock,
    CocoerciveMap,
    GfbBuilt,
    GfbScheduleChannel,
    GfbSpec,
    L1Block,
    LinearBlock,
    SubspaceBlock,
    _lu_factor,
)
from oracles import check_averaged, check_firmly_nonexpansive, vector_operator


def nan_operator(space):
    return vector_operator(space, lambda x: np.full_like(x, np.nan), None, "nan")


def inf_smooth_problem():
    """A GFB instance with a linear block whose smooth part returns inf, so
    the linear resolvent's input is not finite."""
    d = 3
    spec = GfbSpec(blocks=[L1Block(0.1), LinearBlock(np.eye(d))],
                   weights=np.array([0.5, 0.5]), gamma=1.0, dim=d,
                   smooth=CocoerciveMap(lambda x: np.full_like(x, np.inf), 1.0, "inf"))
    p = make_gfb_multiblock(2, d)
    p.built = GfbBuilt(spec)
    p.operator = p.built.operator
    return p


class TestSpaces:
    def test_point_validates_once_and_shares_weights(self):
        sp = ProductSpace((2, 1), (0.5, 0.5))
        z = sp.point(([1.0, 2.0], 3.0))
        # a point is a plain array; the weights and the layout stay on the space
        assert type(z) is np.ndarray and np.array_equal(z, [1.0, 2.0, 3.0])
        assert [b.shape for b in sp.blocks(z)] == [(2,), (1,)]

    @pytest.mark.parametrize("blocks", [
        ([1.0, np.nan], [0.0]),          # non-finite entry
        ([1.0, 2.0],),                   # missing block
        ([1.0, 2.0], [0.0, 1.0]),        # wrong block size
        ([[1.0, 2.0]], [0.0]),           # not 1-D
    ])
    def test_point_rejects_bad_data(self, blocks):
        sp = ProductSpace((2, 1), (0.5, 0.5))
        with pytest.raises(StructuralError):
            sp.point(blocks)

    def test_space_rejects_non_finite_weights(self):
        with pytest.raises(StructuralError):
            ProductSpace((1, 1), (1.0, np.inf))


class TestOperatorOutputs:
    def test_vector_operator_checks_output_shape(self):
        sp = ProductSpace.single(3)
        T = vector_operator(sp, lambda x: x[:2], None, "short")
        with pytest.raises(StructuralError, match="short"):
            T(sp.vector([1.0, 2.0, 3.0]))

    def test_vector_operator_accepts_scalar_on_one_block(self):
        sp = ProductSpace.single(1)
        T = vector_operator(sp, lambda x: float(x[0]) / 2.0, None, "half")
        out = T(sp.vector([3.0]))
        assert out.shape == (1,) and out[0] == 1.5

    def test_engine_raises_numerical_error_on_non_finite_output(self):
        sp = ProductSpace.single(2)
        with pytest.raises(NumericalError, match="step 0"):
            run_km(nan_operator(sp), sp.vector([1.0, 2.0]),
                   RelaxationSchedule.constant(0.5), stop=StopRule(5, 0.0))

    def test_non_finite_output_exits_3(self, tmp_path, monkeypatch, capsys):
        def nan_problem(cfg):
            p = make_zero_map(d=2)
            p.operator = nan_operator(p.operator.space)
            return p

        monkeypatch.setattr(cli, "build_problem", nan_problem)
        rc = main(["run", "--preset", "gd-fig1", "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_resolvent_input_raises_numerical_error(self):
        # the linear resolvent solves through LAPACK without scipy's
        # finiteness check; the engine's check names the step
        p = inf_smooth_problem()
        with pytest.raises(NumericalError, match="non-finite operator output at step 0"):
            p.exact_run(max_iters=5)

    def test_non_finite_resolvent_input_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_problem", lambda cfg: inf_smooth_problem())
        rc = main(["run", "--preset", "multiblock", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite operator output at step 0" in err

    def test_singular_factorization_raises_numerical_error(self):
        with pytest.raises(NumericalError, match="getrf info"):
            _lu_factor(np.zeros((2, 2)))

    @pytest.mark.parametrize("check", [check_averaged, check_firmly_nonexpansive])
    def test_sampling_checks_reject_non_finite_output(self, check):
        T = nan_operator(ProductSpace.single(2))
        args = (T, 0.5) if check is check_averaged else (T,)
        with pytest.raises(NumericalError):
            check(*args, samples=3)

    @pytest.mark.parametrize("z0", [np.zeros(3), np.zeros(1), np.zeros((2, 1)),
                                    np.array([np.nan, 0.0])])
    def test_engine_rejects_bad_start_point(self, z0):
        T = zero_operator(ProductSpace.single(2))
        with pytest.raises(StructuralError, match=r"shape \(2,\)"):
            run_km(T, z0, RelaxationSchedule.constant(0.5), stop=StopRule(3, 0.0))


class Poisoned:
    """A problem's evaluation with ``value`` written at step 3 into entry
    ``index`` of the exact output, the perturbed one or both (one array on
    an exact step, so both are poisoned together)."""

    def __init__(self, problem, value, index, which="both", c=0.0):
        if problem.kind == "km":
            T = problem.operator

            def plain(k, z, rng):
                out = T(z)
                return out, out, None, None

            self.inner, self.alphas = plain, ()
        else:
            channel = problem.make_channel(c, 3.0)
            self.inner, self.alphas = channel.evaluate, channel.alphas
        self.operator = problem.operator
        self.value, self.index, self.which = value, index, which

    def evaluate(self, k, z, rng):
        exact, tilde, eps, extras = self.inner(k, z, rng)
        if k == 3:
            if self.which == "both":
                exact = tilde = exact.copy()
            elif self.which == "exact":
                exact = exact.copy()
            else:
                tilde = tilde.copy()
            (tilde if self.which == "tilde" else exact)[self.index] = self.value
        return exact, tilde, eps, extras


def run_poisoned(problem, *args, **kwargs):
    channel = Poisoned(problem, *args, **kwargs)
    return run_km(None, problem.z0, problem.relaxation, stop=StopRule(10, 0.0),
                  channel=channel, fix=problem.fix)


GUARD_PROBLEMS = {"zero-map": make_zero_map,               # one block
                  "multiblock": lambda: make_gfb_multiblock(3, 4),   # equal blocks
                  "pds-small": make_pds_small}              # a metric


class TestNonFiniteGuard:
    """The engine scans an operator output only when a norm of its step is
    not finite (every step on a metric space); the error is the same."""

    @pytest.mark.parametrize("name", sorted(GUARD_PROBLEMS))
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", [0, -1])
    def test_non_finite_output_named_at_its_step(self, name, value, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="^non-finite operator output at step 3$"):
                run_poisoned(GUARD_PROBLEMS[name](), value, index)

    @pytest.mark.parametrize("name", sorted(GUARD_PROBLEMS))
    @pytest.mark.parametrize("which", ["exact", "tilde"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_one_non_finite_side_of_an_inexact_step(self, name, which, value):
        # exact reaches the residual's norm, tilde only the displacement's
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match="^non-finite operator output at step 3$"):
                run_poisoned(GUARD_PROBLEMS[name](), value, -1, which, c=0.1)

    @pytest.mark.parametrize("name", sorted(GUARD_PROBLEMS))
    @pytest.mark.parametrize("which, error, message", [
        ("both", DivergenceError, "iterate norm exceeded 1.0e+12 at step 3"),
        ("exact", NumericalError, "residual identity violated at step 3: drift inf"),
        ("tilde", NumericalError, "residual identity violated at step 3: drift inf"),
    ])
    def test_finite_output_overflowing_a_norm_fails_as_before(self, name, which, error,
                                                              message):
        # a finite output passes the scan; the norm warns on its overflow and
        # the later checks fail as they did when every output was scanned
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(error) as info:
                run_poisoned(GUARD_PROBLEMS[name](), 1e200, 0, which,
                             c=0.0 if which == "both" else 0.1)
        assert str(info.value) == message


class TestBlocks:
    def test_box_resolvent_matches_public_projection(self):
        lo, hi = np.array([-1.0, 0.0, -2.0]), np.array([1.0, 0.5, 2.0])
        v = np.array([3.0, -0.25, 0.7])
        assert np.array_equal(BoxBlock(lo, hi).resolvent(v, 1.0), np.clip(v, lo, hi))
        assert np.array_equal(BoxBlock(-0.8, 0.8).resolvent(v, 1.0),
                              np.clip(v, -0.8, 0.8))

    def test_subspace_resolvent_matches_public_projection(self):
        U, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))
        v = np.arange(5.0)
        assert np.array_equal(SubspaceBlock(U).resolvent(v, 1.0), U @ (U.T @ v))

    def test_blocks_check_bounds_and_basis_once(self):
        with pytest.raises(ParameterError):
            BoxBlock(1.0, 0.0)
        with pytest.raises(ParameterError):
            BoxBlock(np.nan, 1.0)
        with pytest.raises(ParameterError):
            SubspaceBlock(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestFixedPointChecks:
    def test_check_fixed_point_rejects_nan_residual(self):
        sp = ProductSpace.single(2)
        with pytest.raises(ParameterError):
            _check_fixed_point(nan_operator(sp), sp.zeros())

    def test_reference_solution_rejects_nan_residual(self, monkeypatch):
        from kmcert import problems

        p = make_gfb_multiblock(2, 4)
        state = {"poisoned": False}
        op = p.operator

        def fn(z):
            out = op(z)
            if state["poisoned"]:
                return out * np.nan
            return out

        p.operator = OperatorSpec(fn, op.alpha, "poisoned", op.space)
        real_run_km = problems.run_km

        def run_then_poison(*args, **kwargs):
            trace = real_run_km(*args, **kwargs)
            state["poisoned"] = True
            return trace

        monkeypatch.setattr(problems, "run_km", run_then_poison)
        with pytest.raises(UnavailableError):
            reference_solution(p, factor=1)


@pytest.mark.usefixtures("fresh_references")
class TestCaches:
    def test_factorization_cache_stays_bounded(self):
        p = make_multiblock_nonstationary("harmonic", d=6)
        assert p.exact_run(max_iters=200).n_steps == 200
        linear = [b for b in p.built.spec.blocks if isinstance(b, LinearBlock)]
        assert linear and all(len(b._lu) <= 2 for b in linear)

    def test_limit_operator_stays_resident(self, monkeypatch):
        # the limit evaluation is the problem's own splitting, and the
        # per-step step sizes assemble no operator
        p = make_multiblock_nonstationary("harmonic", d=6)
        assert p.make_channel(0.0, 3.0).operator is p.operator
        assembled = []
        real_init = GfbBuilt.__init__

        def counting_init(self, *args):
            assembled.append(args)
            real_init(self, *args)

        monkeypatch.setattr(GfbBuilt, "__init__", counting_init)
        assert p.exact_run(max_iters=20).n_steps == 20
        assert assembled == []

    def test_lu_cache_keeps_two_most_recent(self):
        blk = LinearBlock(np.eye(3))
        v = np.ones(3)
        for c in (1.0, 2.0, 1.0, 3.0):
            blk.resolvent(v, c)
        assert list(blk._lu) == [1.0, 3.0]


class TestScheduleRanges:
    def test_relaxation_out_of_range_raises_at_step(self):
        sched = RelaxationSchedule.from_function(
            lambda k: 0.5 if k < 3 else 1.9, 0.5, 1.0)
        sp = ProductSpace.single(1)
        with pytest.raises(ParameterError, match="step 3"):
            run_km(zero_operator(sp), sp.vector([1.0]), sched, stop=StopRule(10, 0.0))

    def test_relaxation_nan_raises(self):
        sched = RelaxationSchedule.from_function(lambda k: float("nan"), 0.5, 1.0)
        with pytest.raises(ParameterError):
            sched.value(0)

    def test_relaxation_rounding_of_in_range_value_accepted(self):
        lo, hi = 0.1, 0.7
        sched = RelaxationSchedule.from_function(lambda k: hi + 1e-16, lo, hi)
        assert sched.value(0) == hi + 1e-16

    def test_custom_gamma_schedule_keeps_declared_range(self):
        sched = GammaSchedule.from_function(lambda k: 1.5, 1.5, 1.2, 1.8)
        assert sched.interval == (1.2, 1.8)
        with pytest.raises(ParameterError):
            GammaSchedule.from_function(lambda k: 1.5, 1.9, 1.2, 1.8)

    def test_custom_gamma_out_of_range_raises_at_step(self):
        p = make_multiblock_nonstationary("constant", d=6)
        sched = GammaSchedule.from_function(
            lambda k: 1.5 if k < 4 else 1.85, 1.5, 1.2, 1.8)
        with pytest.raises(ParameterError, match="step 4"):
            replace(p, schedule=sched).exact_run(max_iters=10)

    def test_custom_gamma_range_checked_against_admissible_interval(self):
        base = make_gfb_multiblock(2, 6, gamma=1.5)
        sched = GammaSchedule.from_function(lambda k: 1.5, 1.5, 1.2, 2.5)
        with pytest.raises(ParameterError, match="admissible interval"):
            GfbScheduleChannel(base.built, sched, ErrorSchedule.power(0.0, 3.0))

    def test_schedule_limit_must_be_the_splittings_step_size(self):
        base = make_gfb_multiblock(2, 6)
        with pytest.raises(ParameterError, match="schedule limit 1.5"):
            GfbScheduleChannel(base.built, GammaSchedule.constant(1.5),
                               ErrorSchedule.power(0.0, 3.0))

    def test_admissibility_probed_at_both_ends(self):
        # alpha = 2 beta / (4 beta - gamma) with beta = 1
        p = make_multiblock_nonstationary("constant", d=6)
        sched = GammaSchedule.from_function(lambda k: 1.5, 1.5, 1.2, 1.8)
        channel = replace(p, schedule=sched).make_channel(0.0, 3.0)
        assert channel.alphas == pytest.approx((2.0 / 2.8, 2.0 / 2.2), rel=1e-15)


class TestCli:
    def test_bad_structure_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = zero-map\ndim = 0\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def make_run(self, tmp_path):
        assert main(["run", "--preset", "gd-fig1", "--out", str(tmp_path)]) == 0
        return tmp_path / "gd-fig1.csv", tmp_path / "gd-fig1.json"

    def set_cell(self, path, k, column, text):
        lines = path.read_text().splitlines()
        header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        row = lines[header_at + 1 + k].split(",")
        row[CSV_COLUMNS.index(column)] = text
        lines[header_at + 1 + k] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("text", ["", "nan", "inf", "-inf"])
    def test_non_finite_required_cell_exits_2(self, tmp_path, capsys, text):
        trace, report = self.make_run(tmp_path)
        self.set_cell(trace, 5, "res_norm", text)
        assert main(["verify", str(trace), str(report)]) == 2
        err = capsys.readouterr().err
        assert "k=5" in err and "res_norm" in err

    def test_partially_blank_optional_column_rejected(self, tmp_path):
        trace, report = self.make_run(tmp_path)
        self.set_cell(trace, 3, "dist_fix", "")
        with pytest.raises(ParameterError, match="dist_fix"):
            verify_files(str(trace), str(report))

    @pytest.mark.parametrize("key,value", [
        ("tau_min", "NaN"), ("d0", '"x"'), ("kappa", "Infinity"), ("alpha", "[1]"),
    ])
    def test_bad_report_number_exits_2(self, tmp_path, capsys, key, value):
        trace, report = self.make_run(tmp_path)
        text = report.read_text()
        assert f'"{key}": ' in text
        report.write_text(text.replace(f'"{key}": ', f'"{key}": {value}, "_was": ', 1))
        assert main(["verify", str(trace), str(report)]) == 2
        assert key in capsys.readouterr().err

    def data_rows(self, path):
        lines = path.read_text().splitlines()
        return lines, next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1

    def test_deleted_row_exits_2(self, tmp_path, capsys):
        trace, report = self.make_run(tmp_path)
        self.set_cell(trace, 7, "res_norm", "1e6")
        assert main(["verify", str(trace), str(report)]) == 1
        lines, first = self.data_rows(trace)
        del lines[first + 7]
        trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(trace), str(report)]) == 2
        assert "data row 7 holds k=8" in capsys.readouterr().err

    def test_swapped_rows_exit_2(self, tmp_path, capsys):
        trace, report = self.make_run(tmp_path)
        lines, first = self.data_rows(trace)
        lines[first + 7], lines[first + 8] = lines[first + 8], lines[first + 7]
        trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(trace), str(report)]) == 2
        assert "data row 7 holds k=8" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [99, 61, "62"])
    def test_steps_mismatch_exits_2(self, tmp_path, capsys, steps):
        trace, report = self.make_run(tmp_path)
        doc = json.loads(report.read_text())
        assert doc["steps"] == 62
        doc["steps"] = steps
        report.write_text(json.dumps(doc))
        assert main(["verify", str(trace), str(report)]) == 2
        assert "62 data rows" in capsys.readouterr().err

    def test_missing_constant_named(self, tmp_path, capsys):
        trace, report = self.make_run(tmp_path)
        doc = json.loads(report.read_text())
        del doc["constants"]["nu2"]
        report.write_text(json.dumps(doc))
        assert main(["verify", str(trace), str(report)]) == 2
        assert "report constants lack 'nu2'" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["cert_value", "cert_bound"])
    def test_half_blank_certificate_exits_2(self, tmp_path, capsys, column):
        assert main(["run", "--preset", "drs-subspaces", "--out", str(tmp_path)]) == 0
        trace, report = tmp_path / "drs-subspaces.csv", tmp_path / "drs-subspaces.json"
        for k in range(json.loads(report.read_text())["steps"]):
            self.set_cell(trace, k, column, "")
        assert main(["verify", str(trace), str(report)]) == 2
        assert "filled together" in capsys.readouterr().err

    def drs_run(self, tmp_path):
        assert main(["run", "--preset", "drs-subspaces", "--out", str(tmp_path)]) == 0
        return tmp_path / "drs-subspaces.csv", tmp_path / "drs-subspaces.json"

    @pytest.mark.parametrize("doc", ["[]", '"report"', "3"])
    def test_report_not_an_object_exits_2(self, tmp_path, capsys, doc):
        trace, report = self.drs_run(tmp_path)
        report.write_text(doc)
        assert main(["verify", str(trace), str(report)]) == 2
        assert "verify error: report is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 3, [1.0]])
    def test_constants_not_an_object_exits_2(self, tmp_path, capsys, value):
        trace, report = self.drs_run(tmp_path)
        doc = json.loads(report.read_text())
        doc["constants"] = value
        report.write_text(json.dumps(doc))
        assert main(["verify", str(trace), str(report)]) == 2
        assert "report carries no constants" in capsys.readouterr().err

    def test_blank_certificate_pair_exits_2_when_certified(self, tmp_path, capsys):
        trace, report = self.drs_run(tmp_path)
        assert json.loads(report.read_text())["certificates"] is not None
        for k in range(json.loads(report.read_text())["steps"]):
            self.set_cell(trace, k, "cert_value", "")
            self.set_cell(trace, k, "cert_bound", "")
        assert main(["verify", str(trace), str(report)]) == 2
        assert "'cert_value' is blank" in capsys.readouterr().err

    def test_blank_distance_exits_2_when_modulus_given(self, tmp_path, capsys):
        trace, report = self.make_run(tmp_path)
        doc = json.loads(report.read_text())
        assert doc["kappa"] is not None
        for k in range(doc["steps"]):
            self.set_cell(trace, k, "dist_fix", "")
        assert main(["verify", str(trace), str(report)]) == 2
        assert "'dist_fix' is blank" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,line", [
        ("zero-map", "max_iters = 2.5"),
        ("multiblock", "n_blocks = 3.0"),
        ("lasso", "rows = true"),
        ("zero-map", "seed = -1"),
        ("zero-map", "max_iters = -5"),
        ("zero-map", "error_c = nan"),
        ("two-subspaces", "lam = nan"),
        ("zero-map", "tol = nan"),
        ("lasso", "method = drs"),
        ("zero-map", "method = gfb"),
        ("lasso", "method = gfb-nonstationary"),
        ("two-subspaces", "method = gfb-nonstationary"),
    ])
    def test_bad_config_value_exits_2_naming_the_key(self, tmp_path, capsys, problem, line):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"problem = {problem}\n{line}\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        key = line.split(" = ")[0]
        assert f"config error: config key '{key}' must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_large_error_power_exits_with_its_verdict(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = zero-map\nerror_c = 0.1\nerror_p = 2000\n"
                           "max_iters = 5\nname = steep\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((tmp_path / "steep.json").read_text())
        assert rc == (0 if report["verdict"] == "pass" else 1)
        assert report["steps"] == 5
        rc_verify = main(["verify", str(tmp_path / "steep.csv"), str(tmp_path / "steep.json")])
        assert rc_verify == (1 if report["violations"] else 0)

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "sub"
        assert main(["run", "--preset", "gd-fig1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "output error" in err and str(out) in err
        assert "Traceback" not in err

    def test_retain_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = zero-map\nretain = false\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert "unknown config keys: ['retain']" in capsys.readouterr().err
