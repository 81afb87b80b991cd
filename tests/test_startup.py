"""scipy's LAPACK wrappers load with the first ``LinearBlock``, not with
kmcert: importing ``scipy.linalg`` costs most of a process's start-up time
and memory, and only a linear block factors.  Each case runs in a fresh
interpreter, since this test process has long since loaded scipy."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import kmcert

SRC = str(pathlib.Path(kmcert.__file__).resolve().parent.parent)


def fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter that imports kmcert from this
    checkout; it prints one JSON object as its last line, returned here."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["kmcert", "kmcert.cli"])
def test_import_leaves_scipy_linalg_unloaded(module):
    out = fresh(f"""
        import json, sys
        import {module}
        print(json.dumps("scipy.linalg" in sys.modules))
    """)
    assert out is False


@pytest.mark.parametrize("problem", ["zero-map", "gd", "two-subspaces", "lasso", "pds-small"])
def test_run_emit_and_verify_without_a_linear_block_leave_scipy_linalg_unloaded(problem):
    out = fresh(f"""
        import json, os, sys, tempfile
        from kmcert.cli import emit_trace_csv, execute_run, resolve_config, verify_files, write_report
        cfg = resolve_config(overrides={{"problem": {problem!r}}})
        trace, report, columns = execute_run(cfg)
        with tempfile.TemporaryDirectory() as out:
            csv, js = os.path.join(out, "t.csv"), os.path.join(out, "t.json")
            emit_trace_csv(csv, cfg, trace, columns)
            write_report(js, report)
            issues = verify_files(csv, js)
        print(json.dumps({{"issues": len(issues), "verdict": report["verdict"],
                          "loaded": "scipy.linalg" in sys.modules}}))
    """)
    assert out == {"issues": 0, "verdict": "pass", "loaded": False}


@pytest.mark.parametrize("method", ["gfb", "gfb-nonstationary"])
def test_building_a_multiblock_problem_loads_scipy_linalg(method):
    # the build pays for the import, not the first solve
    out = fresh(f"""
        import json, sys
        from kmcert.cli import build_problem, resolve_config
        before = "scipy.linalg" in sys.modules
        build_problem(resolve_config(overrides={{"problem": "multiblock", "method": {method!r}}}))
        print(json.dumps([before, "scipy.linalg" in sys.modules]))
    """)
    assert out == [False, True]


def test_direct_lu_factor_loads_lapack_and_matches_scipy():
    out = fresh("""
        import json, sys
        import numpy as np
        from kmcert.splitting import _lu_factor, _lu_solve
        before = "scipy.linalg" in sys.modules
        rng = np.random.default_rng(5)
        A = np.eye(6) + rng.standard_normal((6, 6))
        b = rng.standard_normal(6)
        lu, piv = _lu_factor(A)
        x = _lu_solve((lu, piv), b)
        import scipy.linalg as sla
        lu_ref, piv_ref = sla.lu_factor(A)
        print(json.dumps([before, lu.tobytes() == lu_ref.tobytes(),
                          piv.tobytes() == piv_ref.tobytes(),
                          x.tobytes() == sla.lu_solve((lu_ref, piv_ref), b).tobytes()]))
    """)
    assert out == [False, True, True, True]
