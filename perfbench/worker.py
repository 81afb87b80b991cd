"""One benchmark process for one workload; started by run.py.

    worker.py setup   --workload W
    worker.py measure --workload W --seed N --seconds S --trace 0|1 [--max-iters K]

`setup` times a fresh import of kmcert plus the construction of every
problem of one pass and prints it.  `measure` cycles through the
workload's runs until the time is up, checks every run (the correctness
gate), replays one member to check byte-identical traces and, with
--trace 1, makes one more pass under the tracer.  Its last stdout line is a JSON record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from speed import PERIOD_S, Speedometer  # noqa: E402
from workloads import is_stationary_certification, replay_config, run_configs  # noqa: E402


def import_kmcert():
    """Import kmcert from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import kmcert
    import kmcert.cli as cli
    if not os.path.abspath(kmcert.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kmcert imported from {kmcert.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def cmd_setup(args) -> dict:
    """numpy is already imported here (the speed probe needs it), so its
    import is not part of the timed set-up."""
    with Speedometer() as speed:
        t0 = time.perf_counter()
        cli = import_kmcert()
        from kmcert.problems import make_multiblock_nonstationary
        for cfg in run_configs(cli, args.workload, 0, args.max_iters):
            if cfg.get("method") == "gfb-nonstationary":
                make_multiblock_nonstationary(cfg["gamma_schedule"], d=cfg["dim"],
                                              n_blocks=cfg["n_blocks"],
                                              seed=cfg["problem_seed"])
            else:
                cli.build_problem(cfg)
        t1 = time.perf_counter()
        time.sleep(2 * PERIOD_S)    # probe samples after the interval too
    return {"setup_s": speed.normalise(t0, t1), "setup_wall_s": t1 - t0}


# ---------------------------------------------------------------------------
# one run and its correctness gate
# ---------------------------------------------------------------------------

def _exit_code(exc) -> int:
    """Exit code `kmcert run` maps the exception to (1: uncaught)."""
    from kmcert.errors import NumericalError, ParameterError, UnavailableError
    if isinstance(exc, ParameterError):
        return 2
    if isinstance(exc, (NumericalError, UnavailableError)):
        return 3
    return 1


def _agrees(report: dict, issues: list) -> bool:
    """`verify_files` finds the same bound violations as the run itself, and
    flags a certificate only where the run's certificate check failed."""
    own = {(v["k"], v["kind"]) for v in report["violations"]}
    found = {(k, kind) for k, kind, _ in issues if kind != "certificate"}
    cert_flagged = any(kind == "certificate" for _, kind, _ in issues)
    cert_failed = bool(report.get("certificates")) and not report["certificates"]["ok"]
    return own == found and (cert_failed or not cert_flagged)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def retained_bytes(trace) -> int:
    """Bytes held by the trace's retained vector lists (computed, not
    measured: the sum of the distinct arrays' sizes)."""
    seen = set()
    stack = [getattr(trace, name, None) for name in ("z_vecs", "e_vecs", "eps_vecs", "channel")]
    total = 0
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            if id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "blocks"):
            stack.extend(item.blocks)
    return total


def run_one(cli, cfg: dict, out_dir: str, tracer=None) -> dict:
    """One run: execute, emit, report, verify.  Only that region is timed;
    the checks that follow are the benchmark's own."""
    base = os.path.join(out_dir, cfg["name"])
    rec = {"name": cfg["name"], "seed": cfg["seed"], "steps": 0, "verdict": None,
           "checked": False, "sha256": None, "failure": None}
    issues = None
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_run(cfg["name"], t0)
    try:
        trace, report, columns = cli.execute_run(cfg)
        cli.emit_trace_csv(base + ".csv", cfg, trace, columns)
        cli.write_report(base + ".json", report)
        if report.get("constants") is not None:
            issues = cli.verify_files(base + ".csv", base + ".json")
    except Exception as exc:  # any raise fails the run; keep measuring the rest
        rec.update(exit_code=_exit_code(exc), failure=f"raised {type(exc).__name__}: {exc}")
        return rec
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_run(t1)
        rec.update(t0=t0, t1=t1, wall=t1 - t0)

    rec.update(steps=trace.n_steps, verdict=report["verdict"],
               checked=issues is not None, sha256=_sha256(base + ".csv"))
    if issues is not None and not _agrees(report, issues):
        rec["failure"] = f"verify_files disagrees with the run: {issues[:5]}"
    elif is_stationary_certification(cfg) and report["verdict"] != "pass":
        rec["failure"] = f"certification member returned {report['verdict']!r}"
    elif report["verdict"] == "fail":
        rec["failure"] = "a checked bound was violated"
    if tracer is not None:
        rec["retained_bytes"] = retained_bytes(trace)
        rec["emit_bytes"] = os.path.getsize(base + ".csv") + os.path.getsize(base + ".json")
    return rec


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def _determinism(replay: dict, samples: list) -> list:
    """Problems found: a member whose trace bytes differ between its runs,
    including the replay made before the timed window."""
    problems = []
    for runs in samples:
        if runs[0]["name"] == replay["name"]:
            runs = [replay] + runs
        if len({r["sha256"] for r in runs if r["sha256"] is not None}) > 1:
            problems.append(f"{runs[0]['name']}: trace bytes differ between runs "
                            f"with the same seed")
    return problems


def environment() -> dict:
    import scipy
    head = os.path.join(ROOT, ".git", "HEAD")
    commit = "unknown"
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "commit": commit,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def traced_metrics(s: dict, c, runs: list, untraced_wall_s: float) -> dict:
    """Per-layer metrics from a tracer summary ``s`` and its counts ``c``."""
    inc, own, layer = s["inclusive"], s["self"], s["layer_self"]
    steps = c["km.steps"]
    all_steps = max(steps + c["problems.reference_steps"], 1)
    calls = c["splitting.family_calls"]
    return {
        "trace.run_s": s["root_s"],
        "trace.overhead_s": s["root_s"] - untraced_wall_s,
        "bench.self_s": layer["bench"],
        "cli.self_s": layer["cli"],
        "cli.emit_s": inc["emit"],
        "cli.emit_bytes": sum(r.get("emit_bytes", 0) for r in runs),
        "cli.verify_s": inc["verify"],
        "problems.self_s": layer["problems"],
        "problems.build_s": inc["build"],
        "problems.reference_s": inc["reference"],
        "problems.reference_steps": c["problems.reference_steps"],
        "km.engine_self_s": layer["km"],
        "km.steps": steps,
        "km.retained_bytes": max((r.get("retained_bytes", 0) for r in runs), default=0),
        "bounds.self_s": layer["bounds"],
        "bounds.constants_s": own["constants"],
        "bounds.scan_s": own["scan"],
        "splitting.self_s": layer["splitting"],
        "splitting.operator_self_s": own["operator"],
        "splitting.evals": c["splitting.evals"],
        "splitting.lu_factor": c["splitting.lu_factor"],
        "splitting.lu_solve": c["splitting.lu_solve"],
        "splitting.family_s": inc["family"],
        "splitting.family_hit_ratio": c["splitting.family_hits"] / calls if calls else 0.0,
        "splitting.certificate_s": inc["certificate"],
        "splitting.certificate_evals_per_step":
            c["splitting.certificate_evals"] / steps if steps else 0.0,
        "spaces.points_per_step": c["spaces.points"] / all_steps,
        "spaces.norms_per_step": c["spaces.norms"] / all_steps,
        "spaces.metric_applies": c["spaces.metric_applies"],
    }


def timed_window(cli, cfgs: list, out_dir: str, seconds: float) -> list:
    """Cycle through the pass run by run until the next run would end after
    ``seconds``; every member runs at least once.  Returns each member's
    run records.  Garbage is collected before each run, outside the timed
    region, so a run does not pay for the cyclic garbage of the one before."""
    samples = [[] for _ in cfgs]
    start = time.perf_counter()
    for i in itertools.count():
        runs = samples[i % len(cfgs)]
        if i >= len(cfgs):
            expected = statistics.median(r["wall"] for r in runs)
            if time.perf_counter() - start + expected > seconds:
                return samples
        gc.collect()
        runs.append(run_one(cli, cfgs[i % len(cfgs)], out_dir))


def cmd_measure(args) -> dict:
    cli = import_kmcert()
    cfgs = run_configs(cli, args.workload, args.seed, args.max_iters)
    results = os.path.join(ROOT, ".perfbench")
    os.makedirs(results, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="work-", dir=results)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with Speedometer() as speed:
            # the replay doubles as warm-up: lazy imports and first calls
            # are paid before the timed window
            replay = run_one(cli, replay_config(cfgs, args.workload), out_dir)
            samples = timed_window(cli, cfgs, out_dir, args.seconds)
        for runs in samples:
            for r in runs:
                r["norm"] = speed.normalise(r["t0"], r["t1"])
        traced = None
        if args.trace:
            from tracer import Tracer, instrument
            tracer = Tracer()
            restore = instrument(tracer)
            try:
                traced = []
                for cfg in cfgs:
                    gc.collect()
                    traced.append(run_one(cli, cfg, out_dir, tracer))
            finally:
                restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # run_s: one pass at the reference machine speed, each config at the
    # median of its runs; wall_s: the same from raw wall times
    run_s = sum(statistics.median(r["norm"] for r in runs) for runs in samples)
    wall_s = sum(statistics.median(r["wall"] for r in runs) for runs in samples)
    steps = sum(runs[0]["steps"] for runs in samples)
    every_run = [replay] + [r for runs in samples for r in runs] + (traced or [])
    failures = [f"{r['name']} (seed {r['seed']}): {r['failure']}"
                for r in every_run if r["failure"]]
    problems = _determinism(replay, [runs + ([traced[i]] if traced else [])
                                     for i, runs in enumerate(samples)])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": sum(map(len, samples)) / len(cfgs), "environment": environment(),
        "run_s": run_s, "wall_s": wall_s, "steps": steps,
        "steps_per_s": steps / run_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(every_run), "failed": len(failures),
        "failures": failures, "determinism_problems": problems,
        "runs": [{k: r[k] for k in ("name", "seed", "verdict", "checked", "sha256",
                                    "failure", "steps")} for r in every_run],
        "member_walls": {runs[0]["name"]: [r["wall"] for r in runs] for runs in samples},
        "member_norms": {runs[0]["name"]: [r["norm"] for r in runs] for runs in samples},
    }
    if traced is not None:
        summary = tracer.summary()
        metrics = traced_metrics(summary, tracer.counts, traced, wall_s)
        record.update(per_layer=metrics, untraced=tracer.missing,
                      self_sum_error_s=sum(summary["layer_self"].values())
                      - summary["root_s"])
        if abs(record["self_sum_error_s"]) > 1e-6:
            problems.append("layer self times do not add up to the traced run_s")
        tracer.write_spans(os.path.join(results, f"spans-{tag}.csv"))
    record["correct"] = not failures and not problems
    with open(os.path.join(results, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-iters", type=int, default=0, dest="max_iters")
    args = parser.parse_args(argv)
    record = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
