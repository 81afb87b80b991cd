"""kmcert benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload certify-splitting --seed 0 --seconds 20 --trace 0

Starts one worker process for the workload with BLAS/OpenMP pinned to one
thread, after timing set-up (import plus problem construction) in a few
fresh processes.  Prints a summary, then as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of one extra traced pass with
--trace 1.  Exits non-zero without that line when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON;
    raises on a non-zero exit or when the deadline passes (the child is
    killed and waited for)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-iters", type=int, default=0, dest="max_iters",
                        help="shorten every run (harness self-check only)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "kmcert", "__init__.py")):
        print(f"no kmcert sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--max-iters", str(args.max_iters)]
    try:
        setup = []
        if not args.trace:
            setup = [worker(["setup", *common], deadline) for _ in range(SETUP_PROBES)]
        rec = worker(["measure", *common, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)],
                     deadline)
    except (OSError, RuntimeError, TimeoutError, subprocess.TimeoutExpired,
            ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = rec["environment"]
    print(f"# {args.workload} seed={args.seed} passes={rec['passes']:.1f} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} commit={env['commit']}")
    for msg in rec["failures"] + rec["determinism_problems"]:
        print(f"# FAILED {msg}")
    if args.trace:
        units = per_layer_units()
        metrics = {k: {"value": rec["per_layer"][k], "unit": u} for k, u in units.items()}
        if rec["untraced"]:
            print(f"# not traced (missing in kmcert): {', '.join(rec['untraced'])}")
    else:
        values = {"run_s": rec["run_s"], "steps_per_s": rec["steps_per_s"],
                  "setup_s": statistics.median(p["setup_s"] for p in setup),
                  "peak_rss_mb": rec["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"# {'run_s, raw wall (not gated)':40s} {rec['wall_s']:>16.6g} s")
        print(f"# {'setup_s, raw wall (not gated)':40s} "
              f"{statistics.median(p['setup_wall_s'] for p in setup):>16.6g} s")
    print(f"# {'failed_ratio':40s} {rec['failed'] / rec['attempted']:>16.6g} "
          f"({rec['failed']}/{rec['attempted']} runs)")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
