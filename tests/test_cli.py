import filecmp
import inspect
import json
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmcert.cli import (
    CSV_COLUMNS,
    DEFAULTS,
    PRESETS,
    PROBLEMS,
    REQUIRED_COLUMNS,
    RUN_KEYS,
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

    def test_key_set_twice_rejected(self, tmp_path, capsys):
        # the second value used to win without a word
        text = "problem = gd\n# a comment\nmax_iters = 5\nproblem = lasso\n"
        with pytest.raises(ParameterError, match=r"line 4: key 'problem' already set on line 1"):
            parse_config_text(text)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(text)
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
        assert "key 'problem' already set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


def _non_default(default):
    if isinstance(default, str):
        return "harmonic"
    return default + (1 if isinstance(default, int) else 0.25)


# every key a row of the problem table does not read
UNREAD = [(row, key) for row, (_, keys) in PROBLEMS.items()
          for key in DEFAULTS if key not in RUN_KEYS | set(keys.values())]


# generator arguments no config key sets: the multi-block step size, which
# the CLI leaves at 1.0 and the non-stationary generator sets itself
LIBRARY_ONLY = {("multiblock", "gfb"): {"gamma"}}


@pytest.mark.parametrize("row", PROBLEMS, ids="/".join)
def test_each_generator_argument_has_one_config_key(row):
    make, keys = PROBLEMS[row]
    params = inspect.signature(make).parameters
    assert set(keys) | LIBRARY_ONLY.get(row, set()) == set(params)
    assert all(params[name].default is not params[name].empty
               for name in LIBRARY_ONLY.get(row, ()))
    assert len(set(keys.values())) == len(keys)
    assert set(keys.values()) <= set(DEFAULTS) - RUN_KEYS


@pytest.mark.parametrize("row, key", UNREAD, ids=[f"{p}/{m}-{k}" for (p, m), k in UNREAD])
def test_unread_key_at_a_non_default_value_exits_2(row, key, tmp_path, capsys):
    problem, method = row
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"problem = {problem}\nmethod = {method}\n"
                       f"{key} = {_non_default(DEFAULTS[key])}\n")
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
    assert (f"config error: problem {problem!r} does not read config key {key!r}"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


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
        cfgfile.write_text("problem = zero-map\ndim = 4\n"
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
# signed zeros and infinities, subnormals, the smallest normal and +-1e308
EXTREMES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, -2.5e-310,
            2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


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

    @pytest.mark.parametrize("K", [1, 1023, 1024, 1025, 2048])
    def test_file_bytes_at_block_edges(self, K, tmp_path):
        rng = np.random.default_rng(K)

        def draw():
            return rng.standard_normal(K) * 10.0 ** rng.integers(-300, 300, K)

        cols = {name: draw() for name in REQUIRED_COLUMNS}
        columns = {"gamma": draw(), "cert_value": draw(), "local_model": np.full(K, np.nan)}
        columns["gamma"][-1] = np.nan
        path = tmp_path / "edge.csv"
        emit_trace_csv(str(path), {"name": "edge", "seed": 3}, fake_trace(cols), columns)
        head = ["# kmcert trace v1", "# name = edge", "# seed = 3", ",".join(CSV_COLUMNS)]
        want = "".join(f"{line}\n" for line in head + trace_rows(fake_trace(cols), columns))
        assert path.read_bytes() == want.encode()

    def test_short_column_raises(self, tmp_path):
        # the column runs out in the third block, after two blocks went to
        # the temp file; neither it nor the target is left behind
        cols = {name: np.resize(ODD, 2500) for name in REQUIRED_COLUMNS}
        with pytest.raises(ValueError):
            emit_trace_csv(str(tmp_path / "short.csv"), {"name": "short"}, fake_trace(cols),
                           {"pw_bound": np.resize(ODD, 2499)})
        assert list(tmp_path.iterdir()) == []

    def test_failed_emission_keeps_the_existing_file(self, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_text("the previous run\n")
        cols = {name: np.resize(ODD, 2500) for name in REQUIRED_COLUMNS}
        with pytest.raises(ValueError):
            emit_trace_csv(str(path), {"name": "kept"}, fake_trace(cols),
                           {"pw_bound": np.resize(ODD, 2499)})
        assert path.read_text() == "the previous run\n"
        assert list(tmp_path.iterdir()) == [path]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_blocks_equal_the_cell_by_cell_oracle(self, data):
        # every column is filled, NaN in some rows (random ones, rows at a
        # block edge, or a whole block but not the next), all NaN or absent
        K = data.draw(st.sampled_from([1, 1023, 1024, 1025, 2049]), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        kinds = ["filled", "random-nan", "edge-nan", "block-nan"]

        def column(kind):
            v = rng.uniform(-10.0, 10.0, K) * 10.0 ** rng.integers(-322, 307, K)
            at = rng.integers(0, K, rng.integers(1, 20))
            v[at] = rng.choice(EXTREMES, at.size)
            if kind == "random-nan":
                v[rng.integers(0, K, rng.integers(1, 30))] = np.nan
            elif kind == "edge-nan":
                v[[r for r in (0, 1022, 1023, 1024, 2047, 2048) if r < K]] = np.nan
            elif kind == "block-nan":
                v[:1024] = np.nan
                v[-1] = 0.5         # so a one-block column is NaN only in part
            elif kind == "all-nan":
                v[:] = np.nan
            return v

        cols = {name: column(data.draw(st.sampled_from(kinds), label=name))
                for name in REQUIRED_COLUMNS}
        columns = {}
        for name in CSV_COLUMNS[1:]:
            if name not in REQUIRED_COLUMNS:
                kind = data.draw(st.sampled_from([*kinds, "all-nan", "none", "missing"]),
                                 label=name)
                if kind != "missing":
                    columns[name] = None if kind == "none" else column(kind)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "drawn.csv"
            emit_trace_csv(str(path), {"name": "drawn"}, fake_trace(cols), columns)
            assert data_rows(path) == trace_rows(fake_trace(cols), columns)

    @given(st.floats(allow_nan=False))
    def test_percent_format_equals_format(self, v):
        assert "%.17g" % v == _fmt(v)


def peak_bytes(fn, *args) -> int:
    """The Python heap's peak while ``fn(*args)`` runs, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def long_trace(K: int):
    """A fake trace of ``K`` rows with random values in the required columns."""
    rng = np.random.default_rng(K)
    return fake_trace({name: rng.standard_normal(K) for name in REQUIRED_COLUMNS})


class TestCsvMemory:
    """The writer and the reader hold one block of rows, not the whole text."""

    def test_peaks_do_not_grow_with_the_rows(self, tmp_path):
        emitted, parsed = {}, {}
        for K in (1024, 20_000, 80_000):
            path = str(tmp_path / f"{K}.csv")
            emitted[K] = peak_bytes(emit_trace_csv, path, {"name": "long"}, long_trace(K), {})
            parsed[K] = peak_bytes(parse_trace_csv, path)
        # joining the rows first would add about 6 MB here
        assert emitted[80_000] - emitted[20_000] <= 64 * 1024, emitted
        # the returned arrays, twice over while each column is joined, plus
        # what a one-block file takes to read
        grown = 2 * len(CSV_COLUMNS) * 8 * 60_000 + parsed[1024]
        assert parsed[80_000] - parsed[20_000] <= grown, parsed


class TestCsvReaderBlocks:
    """Faults past the reader's first block of 1024 rows are found and
    named as in the first; with several faults, the one reported is that
    of the first column checked, whatever its row."""

    K = 3500

    def write(self, tmp_path, edit):
        path = tmp_path / "long.csv"
        columns = {"gamma": np.linspace(1.0, 2.0, self.K)}
        emit_trace_csv(str(path), {"name": "long"}, long_trace(self.K), columns)
        lines = path.read_text().splitlines()
        first = lines.index(",".join(CSV_COLUMNS)) + 1
        rows = [line.split(",") for line in lines[first:]]
        edit(rows)
        path.write_text("\n".join(lines[:first] + [",".join(r) for r in rows]) + "\n")
        return str(path)

    @staticmethod
    def set_cell(rows, k, column, text):
        rows[k][CSV_COLUMNS.index(column)] = text

    def test_bad_cell_in_the_second_block_names_its_row(self, tmp_path):
        path = self.write(tmp_path, lambda rows: self.set_cell(rows, 1500, "res_norm", "inf"))
        with pytest.raises(ParameterError, match=r"^data row 1500 \(k=1500\): column "
                                                 r"'res_norm' holds 'inf', expected"):
            parse_trace_csv(path)

    def test_optional_column_blank_past_the_first_block_rejected(self, tmp_path):
        def edit(rows):
            for k in range(1024, self.K):
                self.set_cell(rows, k, "gamma", "")
        with pytest.raises(ParameterError, match=r"^data row 1024 \(k=1024\): column "
                                                 r"'gamma' holds '', expected"):
            parse_trace_csv(self.write(tmp_path, edit))

    def test_k_order_is_checked_before_a_later_column(self, tmp_path):
        def edit(rows):
            rows[3000], rows[3001] = rows[3001], rows[3000]
            self.set_cell(rows, 10, "res_norm", "")
        with pytest.raises(ParameterError, match="^data row 3000 holds k=3001, expected k=3000"):
            parse_trace_csv(self.write(tmp_path, edit))

    def test_short_row_in_the_third_block_raises_as_read(self, tmp_path):
        # the unparsable k in the first block would be reported after the
        # last block; the short row stops the reading before that
        def edit(rows):
            self.set_cell(rows, 5, "k", "five")
            rows[2100].pop()
        with pytest.raises(ParameterError, match="^malformed trace row with 12 fields"):
            parse_trace_csv(self.write(tmp_path, edit))

    @pytest.mark.parametrize("first, second, fields", [(1500, 1600, 12), (1600, 1500, 14)])
    def test_short_and_long_rows_of_one_block_raise_as_read(self, tmp_path, first, second,
                                                             fields):
        # a row one field short and one a field long leave the block 13 n
        # fields; the earlier of the two raises, before the unparsable k
        def edit(rows):
            self.set_cell(rows, 5, "k", "five")
            rows[first].pop()
            rows[second].append("1")
        with pytest.raises(ParameterError, match=f"^malformed trace row with {fields} fields"):
            parse_trace_csv(self.write(tmp_path, edit))

    def test_unparsable_cell_names_its_row_and_column(self, tmp_path):
        path = self.write(tmp_path, lambda rows: self.set_cell(rows, 2500, "gamma", "abc"))
        with pytest.raises(ParameterError, match=r"^data row 2500 \(k=2500\): column "
                                                 r"'gamma' holds 'abc', expected a number$"):
            parse_trace_csv(path)

    def test_unparsable_k_names_its_row(self, tmp_path):
        path = self.write(tmp_path, lambda rows: self.set_cell(rows, 1100, "k", "1100.0"))
        with pytest.raises(ParameterError, match=r"^data row 1100 \(k=1100.0\): column "
                                                 r"'k' holds '1100.0', expected an integer$"):
            parse_trace_csv(path)

    def test_first_column_checked_reports_before_an_earlier_row(self, tmp_path):
        # an unparsable cell, a non-finite one and a k out of order: the
        # column first in CSV_COLUMNS order reports, then its first row
        def edit(rows):
            self.set_cell(rows, 20, "res_norm", "abc")
            self.set_cell(rows, 3100, "gamma", "nan")
            self.set_cell(rows, 2900, "gamma", "x1")
            self.set_cell(rows, 2000, "lambda", "inf")
        with pytest.raises(ParameterError, match=r"^data row 2000 \(k=2000\): column "
                                                 r"'lambda' holds 'inf', expected a finite"):
            parse_trace_csv(self.write(tmp_path, edit))
        with pytest.raises(ParameterError, match=r"^data row 2900 \(k=2900\): column "
                                                 r"'gamma' holds 'x1', expected a number$"):
            parse_trace_csv(self.write(tmp_path, lambda rows: (
                edit(rows), self.set_cell(rows, 2000, "lambda", "1"))))


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

    def test_unparsable_cell_exit_2_with_its_location(self, tmp_path, capsys):
        trace, report = self.make_run(tmp_path)
        lines = trace.read_text().splitlines()
        header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        row = lines[header_at + 1 + 5].split(",")
        row[CSV_COLUMNS.index("res_norm")] = "abc"
        lines[header_at + 1 + 5] = ",".join(row)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(trace), str(report)]) == 2
        assert capsys.readouterr().err == (
            "verify error: data row 5 (k=5): column 'res_norm' holds 'abc', "
            "expected a number\n")

    # each check that ran, and each skipped one with its reason, from the record
    CHECKED = {
        "gd-fig1": [
            "constants: checked", "pointwise: checked", "ergodic: checked",
            "certificate: skipped, no certificate", "local: checked",
            "membership: skipped, no certificate", "verified: no violations"],
        "drs-subspaces-inexact": [
            "constants: checked", "pointwise: checked", "ergodic: checked",
            "certificate: checked", "local: skipped, inexact run", "membership: checked",
            "(the membership residual is the report's: the trace does not hold it)",
            "verified: no violations"],
        "lasso": [
            "constants: checked", "pointwise: checked", "ergodic: checked",
            "certificate: checked", "local: skipped, no modulus", "membership: checked",
            "(the membership residual is the report's: the trace does not hold it)",
            "verified: no violations"],
    }

    @pytest.mark.parametrize("name", sorted(CHECKED))
    def test_verify_says_what_it_checked(self, name, tmp_path, capsys):
        preset, inexact = name.removesuffix("-inexact"), name.endswith("-inexact")
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"name = {name}\nmax_iters = 40\n"
                           + ("error_c = 0.1\n" if inexact else ""))
        argv = ["run", "--preset", preset, "--config", str(cfgfile), "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        files = [str(tmp_path / f"{name}.{ext}") for ext in ("csv", "json")]
        assert main(["verify", *files]) == 0
        assert capsys.readouterr().out.splitlines() == self.CHECKED[name]

    @pytest.mark.parametrize("field, value", [("max_value", 1e9), ("worst_margin", 5.0)])
    def test_certificate_summary_must_match_the_trace(self, field, value, tmp_path):
        # the report's largest certificate value and margin are the trace's
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("max_iters = 60\nerror_c = 0.1\n")
        assert main(["run", "--preset", "multiblock", "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 0
        trace, report = tmp_path / "multiblock.csv", tmp_path / "multiblock.json"
        assert main(["verify", str(trace), str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["certificates"][field] != value
        doc["certificates"][field] = value
        report.write_text(json.dumps(doc))
        assert main(["verify", str(trace), str(report)]) == 1
        assert verify_files(str(trace), str(report)) == []

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


class TestSuiteErrors:
    def test_an_erring_ns_member_is_a_failure_row(self, monkeypatch):
        # a member that ends in an error has no final residual: the residual
        # ordering it takes part in is unknown, not a crash
        import io

        from kmcert import cli
        from kmcert.errors import NumericalError

        members = [dict(m, max_iters=40) for m in suite_members()
                   if m["name"] in ("ns-geometric", "ns-harmonic")]
        run = cli.execute_run

        def failing(cfg):
            if cfg["name"] == "ns-harmonic":
                raise NumericalError("non-finite operator output at step 7")
            return run(cfg)

        monkeypatch.setattr(cli, "suite_members", lambda: members)
        monkeypatch.setattr(cli, "execute_run", failing)
        buf = io.StringIO()
        assert cli.run_suite(out=buf) == 1
        lines = buf.getvalue().splitlines()
        assert lines[-1] == "1 failures"
        assert any(ln.startswith("ns-harmonic") and ln.endswith(
            "-1 error: non-finite operator output at step 7") for ln in lines)
        assert not any("residual ordering" in ln for ln in lines)
        buf = io.StringIO()
        assert cli.run_suite(as_json=True, out=buf) == 1
        aggregate = json.loads(buf.getvalue())
        assert aggregate["failures"] == 1 and aggregate["ns_residual_ordering_ok"] is None


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

    def test_verify_accepts_a_scheduled_run_and_checks_nothing(self, tmp_path, capsys):
        argv = ["--preset", "nonstationary-harm", "--max-iters", "300", "--out", str(tmp_path)]
        assert main(["run", *argv]) == 0
        files = [str(tmp_path / f"nonstationary-harm.{ext}") for ext in ("csv", "json")]
        capsys.readouterr()
        assert main(["verify", *files]) == 0
        why = "skipped, scheduled problem: no certified constants (ROADMAP item 1)"
        checks = ("constants", "pointwise", "ergodic", "certificate", "local", "membership")
        assert capsys.readouterr().out.splitlines() == [
            *(f"{name}: {why}" for name in checks),
            "verified: no violations; no bound was checked"]

    @pytest.mark.parametrize("edit", ["blank gamma", "no schedule"])
    def test_verify_refuses_constants_null_without_a_schedule(self, tmp_path, capsys, edit):
        argv = ["--preset", "nonstationary-harm", "--max-iters", "30", "--out", str(tmp_path)]
        assert main(["run", *argv]) == 0
        trace, report = tmp_path / "nonstationary-harm.csv", tmp_path / "nonstationary-harm.json"
        if edit == "no schedule":
            doc = json.loads(report.read_text())
            del doc["schedule"]
            report.write_text(json.dumps(doc))
        else:
            lines = trace.read_text().splitlines()
            at = CSV_COLUMNS.index("gamma")
            for i, line in enumerate(lines):
                if not line.startswith("#") and line[0].isdigit():
                    row = line.split(",")
                    row[at] = ""
                    lines[i] = ",".join(row)
            trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(trace), str(report)]) == 2
        assert "report carries no constants" in capsys.readouterr().err

    def test_nonstationary_method_on_another_problem_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = lasso\nmethod = gfb-nonstationary\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config key 'method' must be one of ['', 'gfb']" in err
        assert "got 'gfb-nonstationary'" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_l1_weight_exits_2(self, tmp_path, capsys):
        # only mu = 0 stands for the generator's own weight
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("problem = lasso\nmu = -0.5\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert "config error: l1 weight must be positive" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("argv", [["--tol", "-1.0"], ["--config", "cfg.txt"]])
    def test_negative_tol_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text("problem = zero-map\ntol = -1.0\n")
        assert main(["run", "--preset", "gd-fig1", *argv]) == 2
        assert ("config error: config key 'tol' must be >= 0, got -1.0"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("problem, dim", [("zero-map", 201), ("gd", 1_000_000),
                                              ("two-subspaces", 201)])
    def test_dim_past_desk_scale_exits_2_naming_the_limit(self, tmp_path, capsys,
                                                          problem, dim):
        # checked before anything of the dimension is allocated
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"problem = {problem}\ndim = {dim}\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert "config error: desk scale only: d <= 200" in capsys.readouterr().err
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

    @pytest.mark.parametrize("theta", ["5e-324", "1e-310"])
    def test_subnormal_angle_exits_2(self, tmp_path, capsys, theta):
        # its modulus 1/sin(theta) would overflow to inf
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"problem = two-subspaces\ntheta = {theta}\n")
        assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path)]) == 2
        assert "is subnormal: the modulus 1/sin(theta) overflows" in capsys.readouterr().err


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
