"""kmcert runs on numpy alone: no import, build, run, emit or verify loads
scipy, whose import would take most of a process's start-up time and
memory.  Each case runs in a fresh interpreter, since this test process may
have loaded scipy through its other imports."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import kmcert
from kmcert.cli import PROBLEMS

SRC = str(pathlib.Path(kmcert.__file__).resolve().parent.parent)


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter that imports kmcert from this
    checkout; it prints one JSON object as its last line, returned here."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["kmcert", "kmcert.cli"])
def test_import_leaves_scipy_unloaded(module):
    out = fresh(f"""
        import json, sys
        import {module}
        print(json.dumps("scipy" in sys.modules))
    """)
    assert out is False


def test_every_problem_builds_runs_emits_and_verifies_without_scipy():
    # every row of the problem table, built and run by execute_run at its
    # default horizon: the multiblock methods' linear block included
    rows = sorted(PROBLEMS)
    out = fresh(f"""
        import json, os, sys, tempfile
        from kmcert.cli import emit_trace_csv, execute_run, resolve_config, verify_files, write_report
        done = {{}}
        for problem, method in {rows!r}:
            cfg = resolve_config(overrides={{"problem": problem, "method": method}})
            trace, report, columns = execute_run(cfg)
            with tempfile.TemporaryDirectory() as out:
                csv, js = os.path.join(out, "t.csv"), os.path.join(out, "t.json")
                emit_trace_csv(csv, cfg, trace, columns)
                write_report(js, report)
                issues = verify_files(csv, js)
            done[problem + "/" + method] = [len(issues), "scipy" in sys.modules]
        print(json.dumps(done))
    """)
    assert out == {f"{p}/{m}": [0, False] for p, m in rows}
