import importlib.util
import io
import itertools
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trace_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_digests", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_digests_record_and_compare(tmp_path, capsys):
    tool = load_tool()
    out = tmp_path / "digests.json"
    members = ["cert-zero-map-inexact", "preset:gd-fig1"]
    argv = ["--seeds", "0", "1", "--max-iters", "20", "--members", *members]
    assert tool.main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["digests"]) == sorted(f"{m}@seed{s}" for m in members for s in (0, 1))
    entry = doc["digests"]["cert-zero-map-inexact@seed0"]
    assert len(entry["csv"]) == 64 and len(entry["json"]) == 64
    # the error seed changes the inexact trace
    assert entry != doc["digests"]["cert-zero-map-inexact@seed1"]

    assert tool.main(["--compare", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "4/4 digests match" in shown and "OpenBLAS kernel" not in shown

    doc["digests"]["preset:gd-fig1@seed1"]["csv"] = "0" * 64
    out.write_text(json.dumps(doc))
    assert tool.main(["--compare", str(out)]) == 1
    shown = capsys.readouterr().out
    assert "MISMATCH preset:gd-fig1@seed1" in shown
    assert f"OpenBLAS kernel: {tool.blas_core()}\n" in shown


def test_blas_core_names_the_kernel_or_unknown(monkeypatch):
    tool = load_tool()
    name = tool.blas_core()
    assert name and name.isprintable() and " " not in name

    def unloadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(tool.ctypes, "CDLL", unloadable)
    assert tool.blas_core() == "unknown"


def test_trace_digests_fail_a_run_that_verify_disagrees_with(monkeypatch, capsys):
    # every written run is read back by certify_files; a report whose verdict
    # the files do not bear out fails the tool, digests or not
    tool = load_tool()
    run = tool.execute_run

    def flipped(cfg):
        trace, report, columns = run(cfg)
        report["verdict"] = "fail"
        return trace, report, columns

    argv = ["--seeds", "0", "--max-iters", "20", "--members", "preset:gd-fig1", "cert-pds-exact"]
    assert tool.main(argv) == 0
    assert "2/2 runs verify in agreement" in capsys.readouterr().out
    monkeypatch.setattr(tool, "execute_run", flipped)
    assert tool.main(argv) == 1
    out = capsys.readouterr().out
    assert "DISAGREE preset:gd-fig1@seed0: the re-check disagrees with the report" in out
    assert "0/2 runs verify in agreement" in out


def test_reference_solving_members_match_recorded_digests(solves, capsys):
    # one process, the exact member first: each inexact member reuses its
    # problem's reference, so the recorded bytes pin the warm path too
    tool = load_tool()
    members = [f"cert-{p}-{m}" for p in ("lasso", "multiblock", "pds")
               for m in ("exact", "inexact")]
    members += [f"preset:{p}" for p in ("lasso", "multiblock", "pds-small")]
    argv = ["--compare", str(ROOT / "digests-parent.json"), "--members", *members]
    assert tool.main(argv) == 0
    assert "18/18 digests match" in capsys.readouterr().out
    # one reference per distinct problem: lasso, multiblock at problem seeds
    # 1 (suite) and 2 (preset), pds-small at problem seeds 1 and 3
    assert len(solves) == 5


def test_analytic_members_match_recorded_digests(capsys):
    # the certified kinds that solve no reference: plain KM (zero-map, gd)
    # and DRS, exact and inexact, their rate members and presets, at both
    # recorded seeds; with the reference-solving test above, every certified
    # entry (the non-stationary runs are not certified)
    tool = load_tool()
    members = [f"cert-{p}-{m}" for p in ("zero-map", "gd", "drs")
               for m in ("exact", "inexact")]
    members += ["gd-rate-half", "gd-rate-one", "drs-rate-pi3", "drs-rate-pi4",
                "drs-rate-pi4-relaxed", "drs-rate-pi6", "preset:gd-fig1",
                "preset:drs-subspaces"]
    argv = ["--compare", str(ROOT / "digests-parent.json"), "--members", *members]
    assert tool.main(argv) == 0
    assert "28/28 digests match" in capsys.readouterr().out


def test_nonstationary_members_match_recorded_digests(capsys):
    # the cached limit operator (constant) and a fresh inverse every
    # step (harmonic), exact and inexact, and every other schedule's inexact
    # run, at both recorded seeds: with the certified entries, every entry
    # that draws an error; the inexact runs other than the constant one
    # draw their errors at gamma_k != gamma
    tool = load_tool()
    members = ["ns-constant", "ns-harmonic", "inexact:ns-constant", "inexact:ns-harmonic",
               "inexact:ns-geometric", "inexact:ns-inverse-square"]
    argv = ["--compare", str(ROOT / "digests-parent.json"), "--members", *members]
    assert tool.main(argv) == 0
    assert "12/12 digests match" in capsys.readouterr().out


def test_each_problem_runs_its_entries_back_to_back(monkeypatch):
    # the CLI's memo holds the 8 most recent problems: with each problem's
    # entries contiguous, none is evicted and solved again between them.
    # The runs are recorded, not executed
    tool = load_tool()
    order = []

    def record(cfg, base):
        order.append(cfg)
        return {"error": "not run"}

    monkeypatch.setattr(tool, "digest", record)
    tool.collect([0], out=io.StringIO())
    problems = [cfg["problem"] for cfg in order]
    assert len(order) == len(tool.configs())
    runs = [p for p, _ in itertools.groupby(problems)]
    assert len(runs) == len(set(runs))
    names = [cfg["name"] for cfg in order]
    for p in ("zero-map", "gd", "drs", "lasso", "multiblock", "pds"):
        assert names.index(f"cert-{p}-exact") < names.index(f"cert-{p}-inexact")


def _scale_cell(path, k, column, factor):
    """Multiply one CSV cell (row ``k`` of ``column``) by ``factor``."""
    from kmcert.cli import CSV_COLUMNS

    j = CSV_COLUMNS.index(column)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if not line.startswith("#") and fields[0] == str(k):
            fields[j] = format(float(fields[j]) * factor, ".17g")
            lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_trace_diff_tolerates_rounding_and_catches_changes(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["--seeds", "0", "--max-iters", "20", "--members", "cert-drs-inexact"]
    assert tool.main(argv + ["--write", str(a)]) == 0
    assert tool.main(argv + ["--write", str(b)]) == 0
    capsys.readouterr()
    assert tool.main(["--diff", str(a), str(b)]) == 0
    assert "1/1 entries agree" in capsys.readouterr().out

    csv = b / "cert-drs-inexact@seed0.csv"
    _scale_cell(csv, 5, "res_norm", 1.0 + 1e-14)       # a last-bits change
    assert tool.main(["--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "within tolerance" in out and "worst column: cert-drs-inexact@seed0 csv:res_norm" in out

    _scale_cell(csv, 5, "res_norm", 1.0 + 1e-9)        # a real change
    assert tool.main(["--diff", str(a), str(b)]) == 1
    assert "csv:res_norm: max|a-b|" in capsys.readouterr().out

    report = b / "cert-drs-inexact@seed0.json"
    doc = json.loads(report.read_text())
    doc["verdict"] = "fail"
    report.write_text(json.dumps(doc))
    assert tool.main(["--diff", str(a), str(b)]) == 1
    assert "json:verdict: 'pass' became 'fail'" in capsys.readouterr().out
