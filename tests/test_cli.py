import filecmp
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kmcert.cli import (
    CSV_COLUMNS,
    PRESETS,
    build_problem,
    emit_trace_csv,
    execute_run,
    main,
    parse_config_text,
    parse_trace_csv,
    resolve_config,
    suite_members,
    verify_files,
)
from kmcert.errors import ParameterError
from oracles import _fmt, trace_rows


class TestConfig:
    def test_parse_flat_text(self):
        cfg = parse_config_text(
            "# comment\nproblem = gd\ngamma=0.5\nretain = true\nname = demo\n")
        assert cfg == {"problem": "gd", "gamma": 0.5, "retain": True,
                       "name": "demo"}

    def test_bad_line_rejected(self):
        with pytest.raises(ParameterError):
            parse_config_text("problem gd")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            resolve_config(overrides={"problem": "gd", "bogus": 1})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ParameterError):
            resolve_config(preset="nope")

    def test_defaults_filled(self):
        cfg = resolve_config(preset="gd-fig1")
        assert cfg["problem"] == "gd"
        assert cfg["gamma"] == 0.5
        assert cfg["seed"] == 0
        assert cfg["name"] == "gd-fig1"

    def test_all_presets_resolve(self):
        for name in PRESETS:
            cfg = resolve_config(preset=name)
            problem = build_problem(cfg)
            assert (problem.schedule is None) == (cfg["method"] != "gfb-nonstationary")


class TestRunCommand:
    def test_gd_fig1_report(self, tmp_path):
        rc = main(["run", "--preset", "gd-fig1", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "gd-fig1.json").read_text())
        assert report["observed_rate"] == pytest.approx(0.60, abs=0.01)
        assert report["theoretical_rate"] == pytest.approx(0.7211, abs=0.005)
        assert report["verdict"] == "pass"
        assert report["violations"] == []

    def test_gd_fig1_unit_step_variant(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = gd\ngamma = 1.0\nmax_iters = -1\n"
                           "name = gd-unit\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "gd-unit.json").read_text())
        assert report["observed_rate"] == pytest.approx(0.20, abs=0.01)
        assert report["theoretical_rate"] == pytest.approx(0.60, abs=0.005)

    def test_drs_preset_rate(self, tmp_path):
        rc = main(["run", "--preset", "drs-subspaces", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "drs-subspaces.json").read_text())
        assert report["observed_rate"] == pytest.approx(0.5, abs=1e-6)

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = main(["run", "--preset", "gd-fig1", "--out", str(out),
                       "--seed", "3"])
            assert rc == 0
        assert filecmp.cmp(a / "gd-fig1.csv", b / "gd-fig1.csv", shallow=False)

    def test_inexact_byte_identical(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = zero-map\ndim = 4\nlam = 0.5\n"
                           "error_c = 0.1\nerror_p = 3.0\nmax_iters = 200\n"
                           "name = zin\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = main(["run", "--config", str(cfgfile), "--out", str(out),
                       "--seed", "11"])
            assert rc == 0
        assert filecmp.cmp(a / "zin.csv", b / "zin.csv", shallow=False)

    def test_bad_config_exit_2(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = not-a-problem\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2

    def test_missing_problem_exit_2(self, tmp_path):
        assert main(["run", "--out", str(tmp_path)]) == 2


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        cfg = resolve_config(preset="gd-fig1")
        trace, report, columns = execute_run(cfg)
        path = str(tmp_path / "t.csv")
        emit_trace_csv(path, cfg, trace, columns)
        echo, cols = parse_trace_csv(path)
        assert echo["problem"] == "gd"
        assert np.array_equal(cols["res_norm"], trace.res_norm)
        assert np.array_equal(cols["lambda"], trace.lam)
        assert np.array_equal(cols["erg_res_norm"], trace.erg_norm)
        assert np.array_equal(cols["dist_fix"],
                              trace.dist[: trace.n_steps])
        assert np.array_equal(cols["pw_bound"], columns["pw_bound"])
        # re-emitting the parsed data must reproduce the file byte-for-byte
        path2 = str(tmp_path / "t2.csv")
        emit_trace_csv(path2, cfg, trace, columns)
        assert filecmp.cmp(path, path2, shallow=False)

    def test_header_schema(self, tmp_path):
        cfg = resolve_config(preset="gd-fig1")
        trace, _, columns = execute_run(cfg)
        path = str(tmp_path / "t.csv")
        emit_trace_csv(path, cfg, trace, columns)
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        assert lines[0].strip().split(",") == CSV_COLUMNS

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# kmcert trace v1\n" + ",".join(CSV_COLUMNS) + "\n")
        with pytest.raises(ParameterError):
            parse_trace_csv(str(path))


ODD = [-0.0, 5e-324, 1.7976931348623157e308, 3.0, 1e16, 0.1, -2.5e-310, 12345678901234567.0]


def fake_trace(cols: dict):
    """A trace object holding just what ``emit_trace_csv`` reads."""
    return SimpleNamespace(n_steps=len(cols["lambda"]), lam=np.array(cols["lambda"]),
                           eps_norm=np.array(cols["err_norm"]),
                           res_norm=np.array(cols["res_norm"]),
                           erg_norm=np.array(cols["erg_res_norm"]),
                           disp_norm=np.array(cols["disp_norm"]), dist=None)


def data_rows(path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[1:]


class TestCsvWriterBytes:
    """The column-wise writer against the cell-by-cell ``_fmt`` oracle."""

    def test_odd_values_blanks_and_absent_columns(self, tmp_path):
        K = len(ODD)
        rng = np.random.default_rng(5)
        cols = {name: rng.permutation(ODD) for name in
                ("lambda", "err_norm", "res_norm", "erg_res_norm", "disp_norm")}
        cols["res_norm"][2] = np.nan             # NaN cells are blank, any column
        columns = {"gamma": None, "dist_fix": np.append(rng.permutation(ODD), 7.0),
                   "pw_bound": np.array([np.nan, *ODD[1:]]), "erg_bound": np.array(ODD),
                   "local_model": np.full(K, np.nan), "cert_value": np.array(ODD)}
        path = tmp_path / "odd.csv"                    # cert_bound absent
        emit_trace_csv(str(path), {"name": "odd"}, fake_trace(cols), columns)
        assert data_rows(path) == trace_rows(fake_trace(cols), columns)

    def test_rows_across_formatting_blocks(self, tmp_path):
        K = 2500                      # the writer formats 1024 rows at a time
        rng = np.random.default_rng(6)

        def draw():
            return rng.standard_normal(K) * 10.0 ** rng.integers(-300, 300, K)

        cols = {name: draw() for name in
                ("lambda", "err_norm", "res_norm", "erg_res_norm", "disp_norm")}
        columns = {"gamma": draw(), "dist_fix": draw(), "cert_bound": draw()}
        columns["gamma"][rng.integers(0, K, 50)] = np.nan
        path = tmp_path / "long.csv"
        emit_trace_csv(str(path), {"name": "long"}, fake_trace(cols), columns)
        assert data_rows(path) == trace_rows(fake_trace(cols), columns)

    def test_run_outputs_match_the_oracle(self, tmp_path):
        for preset in ("gd-fig1", "multiblock", "nonstationary-sq"):
            cfg = resolve_config(preset=preset, overrides={"max_iters": 30})
            trace, _, columns = execute_run(cfg)
            path = tmp_path / f"{preset}.csv"
            emit_trace_csv(str(path), cfg, trace, columns)
            assert data_rows(path) == trace_rows(trace, columns)

    def test_round_trip_is_exact(self, tmp_path):
        cols = {name: np.array(ODD) for name in
                ("lambda", "err_norm", "res_norm", "erg_res_norm", "disp_norm")}
        columns = {"gamma": np.array(ODD[::-1]), "local_model": np.full(len(ODD), np.nan)}
        path = tmp_path / "rt.csv"
        emit_trace_csv(str(path), {"name": "rt"}, fake_trace(cols), columns)
        _, parsed = parse_trace_csv(str(path))
        for name, want in {**cols, "gamma": columns["gamma"]}.items():
            # bit patterns, so -0.0 and the subnormal must survive
            assert parsed[name].tobytes() == np.asarray(want, dtype=float).tobytes(), name
        for name in ("dist_fix", "pw_bound", "local_model", "cert_bound"):
            assert np.isnan(parsed[name]).all()

    def test_short_column_raises(self, tmp_path):
        cols = {name: np.array(ODD) for name in
                ("lambda", "err_norm", "res_norm", "erg_res_norm", "disp_norm")}
        with pytest.raises(ValueError):
            emit_trace_csv(str(tmp_path / "short.csv"), {"name": "short"}, fake_trace(cols),
                           {"pw_bound": np.array(ODD[:-1])})

    @given(st.floats(allow_nan=False))
    def test_percent_format_equals_format(self, v):
        assert "%.17g" % v == _fmt(v)


class TestVerifyCommand:
    def make_run(self, tmp_path):
        rc = main(["run", "--preset", "gd-fig1", "--out", str(tmp_path)])
        assert rc == 0
        return tmp_path / "gd-fig1.csv", tmp_path / "gd-fig1.json"

    def test_clean_trace_verifies(self, tmp_path):
        trace, report = self.make_run(tmp_path)
        assert main(["verify", str(trace), str(report)]) == 0

    def test_edited_residual_detected_with_location(self, tmp_path):
        trace, report = self.make_run(tmp_path)
        lines = trace.read_text().splitlines()
        # find the data row with k = 7 and blow up its residual column
        header_at = next(i for i, ln in enumerate(lines)
                         if not ln.startswith("#"))
        row = lines[header_at + 1 + 7].split(",")
        row[CSV_COLUMNS.index("res_norm")] = "1e6"
        lines[header_at + 1 + 7] = ",".join(row)
        trace.write_text("\n".join(lines) + "\n")
        issues = verify_files(str(trace), str(report))
        assert any(k == 7 and kind == "pointwise" for k, kind, _ in issues)
        assert main(["verify", str(trace), str(report)]) == 1

    def test_malformed_trace_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n")
        _, report = self.make_run(tmp_path)
        assert main(["verify", str(bad), str(report)]) == 2

    def test_verify_idempotent_with_embedded_verification(self, tmp_path):
        trace, report = self.make_run(tmp_path)
        assert verify_files(str(trace), str(report)) == []
        rep = json.loads(report.read_text())
        assert rep["violations"] == []


class TestSuiteMembers:
    def test_member_inventory(self):
        names = [m["name"] for m in suite_members()]
        for needle in ("gd-rate-half", "gd-rate-one", "drs-rate-pi4",
                       "cert-zero-map-exact", "cert-zero-map-inexact",
                       "cert-lasso-exact", "cert-multiblock-inexact",
                       "cert-pds-exact", "ns-geometric", "ns-harmonic"):
            assert needle in names

    def test_cert_members_run_long_enough(self):
        for m in suite_members():
            if m["name"].startswith("cert-"):
                assert m["max_iters"] >= 1000

    def test_single_member_executes(self):
        member = next(m for m in suite_members()
                      if m["name"] == "cert-zero-map-inexact")
        trace, report, _ = execute_run(member)
        assert report["verdict"] == "pass"
        assert trace.n_steps == 1000


class TestFullSuite:
    def test_suite_passes_within_budget(self, capsys):
        import io
        import time

        from kmcert.cli import run_suite

        t0 = time.monotonic()
        buf = io.StringIO()
        rc = run_suite(as_json=True, out=buf)
        elapsed = time.monotonic() - t0
        assert rc == 0
        aggregate = json.loads(buf.getvalue())
        assert aggregate["failures"] == 0
        assert aggregate["ns_residual_ordering_ok"] is True
        assert elapsed < 60.0
        names = {m["name"]: m for m in aggregate["members"]}
        assert all(m["verdict"] == "pass" for m in aggregate["members"])
        # the non-summable schedule is flagged but not failed
        assert "not summable" in names["ns-harmonic"]["note"]
        assert names["ns-harmonic"]["verdict"] == "pass"


class TestNonstationaryRuns:
    def test_ns_preset_reports_schedule(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = multiblock\nmethod = gfb-nonstationary\n"
                           "gamma_schedule = harmonic\ndim = 6\n"
                           "max_iters = 300\nname = nsh\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "nsh.json").read_text())
        assert report["schedule"]["kind"] == "harmonic"
        assert report["schedule"]["abs_summable"] is False
        assert "not summable" in report["schedule"]["note"]
        _, cols = parse_trace_csv(str(tmp_path / "nsh.csv"))
        assert not np.isnan(cols["gamma"]).any()

    def test_nonstationary_method_on_another_problem_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = lasso\nmethod = gfb-nonstationary\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config key 'method' must be one of ['', 'gfb']" in err
        assert "got 'gfb-nonstationary'" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_problem_kind_accepted_as_method(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = lasso\nmethod = gfb\nmax_iters = 20\nname = l\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "l.json").read_text())["method"] == "gfb"

    def test_rate_horizon_run_takes_steps_and_writes_strict_json(self, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = multiblock\nmethod = gfb-nonstationary\n"
                           "dim = 6\nmax_iters = -1\nname = nsr\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads((tmp_path / "nsr.json").read_text(), parse_constant=reject)
        assert report["steps"] > 0
        assert report["steps"] == build_problem(resolve_config(
            overrides={"problem": "multiblock", "method": "gfb-nonstationary"})).rate_horizon


NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestHugeModuli:
    """A modulus whose square overflows: the local model's zeta is 1, so the
    run checks it, exits by its verdict, and ``verify`` agrees; the gd runs
    (rate horizon included) compute without a floating-point warning."""

    @pytest.mark.parametrize("config", [
        pytest.param("problem = gd\ndelta_m = 1e-160\n", marks=NO_RUNTIME_WARNING),
        pytest.param("problem = gd\ndelta_M = 1e300\ngamma = 1e-300\n",
                     marks=NO_RUNTIME_WARNING),
        "problem = two-subspaces\ntheta = 1e-300\n",
    ])
    def test_run_and_verify_agree(self, tmp_path, config):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(config + "max_iters = 50\nname = huge\n")
        rc = main(["run", "--config", str(cfgfile), "--out", str(tmp_path)])

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads((tmp_path / "huge.json").read_text(), parse_constant=reject)
        assert rc == (0 if report["verdict"] == "pass" else 1)
        assert report["verdict"] == "pass"
        _, cols = parse_trace_csv(str(tmp_path / "huge.csv"))
        assert np.isfinite(cols["local_model"]).all()      # the local model was checked
        assert main(["verify", str(tmp_path / "huge.csv"), str(tmp_path / "huge.json")]) == rc


class TestLargeErrors:
    def test_large_error_passes_and_verify_agrees(self, tmp_path):
        # rounding at ||eps|| = 1e5 (drift 3.2e-12 at step 0) is within the
        # residual identity's tolerance
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = zero-map\nerror_c = 1e5\nmax_iters = 5\nname = big\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        assert main(["verify", str(tmp_path / "big.csv"), str(tmp_path / "big.json")]) == 0

    @NO_RUNTIME_WARNING
    @pytest.mark.parametrize("problem", ["zero-map", "lasso", "pds-small"])
    def test_overflowing_error_exits_3_naming_its_norm(self, tmp_path, capsys, problem):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"problem = {problem}\nerror_c = 1e200\nmax_iters = 5\n"
                           "name = over\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 3
        assert "numerical failure: non-finite error norm at step 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("over.*"))
