"""The three benchmark workloads, as lists of `kmcert suite` member configs.

Each workload is one pass over its configs; a run is `execute_run`, then
`emit_trace_csv` and `write_report`, then `verify_files` when the report
carries constants.  The configs are taken from `kmcert.cli.suite_members()`
so the benchmark measures exactly what the suite runs.
"""

from __future__ import annotations

WORKLOADS = ("certify-splitting", "certify-seeds", "nonstationary")

# All eight splitting certification members at their 1000-step horizon:
# expensive operators, a reference fixed-point solve and a certificate pass.
SPLITTING = tuple(f"cert-{p}-{m}" for p in ("lasso", "multiblock", "pds", "drs")
                  for m in ("exact", "inexact"))

# Small-dimension inexact members (d <= 4) over a block of error seeds:
# analytic fixed points, so per-step engine bookkeeping dominates.
SEEDED = ("cert-zero-map-inexact", "cert-gd-inexact", "cert-drs-inexact")
SEED_BLOCK = 10

# One schedule that reuses a single operator and one that builds a fresh
# operator and factorization at every step.
NONSTATIONARY = ("ns-constant", "ns-harmonic")

# The member run twice with the same seed to check byte-identical traces;
# the cheapest one of each workload that draws seeded errors where it can.
REPLAY = {
    "certify-splitting": "cert-lasso-inexact",
    "certify-seeds": "cert-zero-map-inexact",
    "nonstationary": "ns-constant",
}


def run_configs(cli, workload: str, seed: int, max_iters: int = 0) -> list:
    """Configs of one pass, in run order.  ``seed`` is the benchmark seed;
    ``max_iters`` > 0 shortens every run (harness self-check only)."""
    members = {m["name"]: m for m in cli.suite_members()}
    if workload == "certify-splitting":
        plan = [(name, seed, name) for name in SPLITTING]
    elif workload == "certify-seeds":
        plan = [(name, s, f"{name}-s{s}")
                for s in range(seed * SEED_BLOCK, (seed + 1) * SEED_BLOCK)
                for name in SEEDED]
    elif workload == "nonstationary":
        plan = [(name, seed, name) for name in NONSTATIONARY]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfgs = []
    for member, run_seed, label in plan:
        cfg = dict(members[member])
        cfg["seed"] = run_seed
        cfg["name"] = label
        if max_iters > 0:
            cfg["max_iters"] = max_iters
        cfgs.append(cfg)
    return cfgs


def replay_config(cfgs: list, workload: str) -> dict:
    """The first config of the pass that belongs to the workload's replay
    member."""
    stem = REPLAY[workload]
    return next(c for c in cfgs if c["name"] == stem or c["name"].startswith(stem + "-s"))


def is_stationary_certification(cfg: dict) -> bool:
    """Stationary certification members must return verdict ``pass``."""
    return (cfg.get("method") or "") != "gfb-nonstationary"
