import importlib.util
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
    assert "4/4 digests match" in capsys.readouterr().out

    doc["digests"]["preset:gd-fig1@seed1"]["csv"] = "0" * 64
    out.write_text(json.dumps(doc))
    assert tool.main(["--compare", str(out)]) == 1
    assert "MISMATCH preset:gd-fig1@seed1" in capsys.readouterr().out


def test_reference_solving_members_match_recorded_digests(fresh_references, capsys):
    # one process, the exact member first: each inexact member reuses its
    # problem's reference, so the recorded bytes pin the warm path too
    tool = load_tool()
    members = [f"cert-{p}-{m}" for p in ("lasso", "multiblock", "pds")
               for m in ("exact", "inexact")] + ["preset:pds-small"]
    argv = ["--compare", str(ROOT / "digests-parent.json"), "--members", *members]
    assert tool.main(argv) == 0
    assert "14/14 digests match" in capsys.readouterr().out
    assert len(fresh_references) == 4


def test_analytic_members_match_recorded_digests(capsys):
    # the certified kinds that solve no reference: plain KM (zero-map, gd)
    # and DRS, exact and inexact, at both recorded seeds
    tool = load_tool()
    members = [f"cert-{p}-{m}" for p in ("zero-map", "gd", "drs")
               for m in ("exact", "inexact")]
    argv = ["--compare", str(ROOT / "digests-parent.json"), "--members", *members]
    assert tool.main(argv) == 0
    assert "12/12 digests match" in capsys.readouterr().out


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
