"""Tiny-horizon self-check of the benchmark harness.

    python3 -m pytest -q perfbench/test_selfcheck.py

Checks that every metric named in BENCHMARK.json is emitted for every
workload, that the correctness gate runs and catches what it should, and
that the benchmark refuses to run without the kmcert sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
from workloads import WORKLOADS, run_configs  # noqa: E402

TINY = "20"

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--max-iters", TINY],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def cli():
    return worker.import_kmcert()


def test_gate_checks_and_hashes_certified_runs(cli, tmp_path):
    cfg = run_configs(cli, "certify-seeds", 0, int(TINY))[0]
    rec = worker.run_one(cli, cfg, str(tmp_path))
    assert rec["failure"] is None and rec["checked"] and rec["verdict"] == "pass"
    assert rec["sha256"] == worker.run_one(cli, cfg, str(tmp_path))["sha256"]


def test_gate_leaves_nonstationary_runs_unchecked(cli, tmp_path):
    cfg = run_configs(cli, "nonstationary", 0, int(TINY))[0]
    rec = worker.run_one(cli, cfg, str(tmp_path))
    assert rec["failure"] is None and not rec["checked"]


class _Stub:
    """kmcert.cli with one function replaced."""

    def __init__(self, cli, **overrides):
        self._cli, self._overrides = cli, overrides

    def __getattr__(self, name):
        return self._overrides.get(name) or getattr(self._cli, name)


def test_gate_catches_verify_disagreement(cli, tmp_path):
    stub = _Stub(cli, verify_files=lambda *a: [(3, "pointwise", 1.0)])
    cfg = run_configs(cli, "certify-seeds", 0, int(TINY))[0]
    assert "disagrees" in worker.run_one(stub, cfg, str(tmp_path))["failure"]


def test_gate_catches_non_pass_and_raise(cli, tmp_path):
    def failing(cfg):
        trace, report, columns = cli.execute_run(cfg)
        report["verdict"] = "fail"
        return trace, report, columns

    def raising(cfg):
        from kmcert.errors import NumericalError
        raise NumericalError("diverged")

    cfg = run_configs(cli, "certify-splitting", 0, int(TINY))[0]
    assert "returned 'fail'" in worker.run_one(_Stub(cli, execute_run=failing), cfg,
                                               str(tmp_path))["failure"]
    rec = worker.run_one(_Stub(cli, execute_run=raising), cfg, str(tmp_path))
    assert rec["failure"].startswith("raised NumericalError") and rec["exit_code"] == 3


def test_gate_catches_nondeterminism():
    replay = {"name": "a", "sha256": "1"}
    assert worker._determinism(replay, [[{"name": "a", "sha256": "1"}]]) == []
    assert worker._determinism(replay, [[{"name": "a", "sha256": "2"}]])


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("certify-seeds", 0, root=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
