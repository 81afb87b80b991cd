import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "trace_digests.py"


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
