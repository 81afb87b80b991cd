"""Reproducible experiment runner: configure problem + method + schedules,
execute, certify and emit traces and reports.

Config files are flat ``key = value`` text (``#`` comments); every run embeds
its fully-defaulted config as a comment header in the CSV trace, so a trace
file is self-describing and byte-identical across repeated executions with
the same config and seed.

Exit codes: 0 pass, 1 bound violation, 2 usage/schema error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .bounds import DEFAULT_SLACK, BoundConstants, trace_series, verify_series
from .errors import (
    KmcertError,
    NumericalError,
    ParameterError,
    StructuralError,
    UnavailableError,
)
from .problems import (
    ProblemInstance,
    make_gfb_multiblock,
    make_lasso,
    make_multiblock_nonstationary,
    make_pds_small,
    make_quadratic_gd,
    make_two_subspaces,
    make_zero_map,
)

CSV_COLUMNS = [
    "k", "lambda", "gamma", "err_norm", "res_norm", "erg_res_norm",
    "disp_norm", "dist_fix", "pw_bound", "erg_bound", "local_model",
    "cert_value", "cert_bound",
]
# written at every step; the other columns are written for all rows or none
REQUIRED_COLUMNS = ("lambda", "err_norm", "res_norm", "erg_res_norm", "disp_norm")

MEMBERSHIP_TOL = 1e-8

DEFAULTS = {
    "method": "",
    "name": "",
    "lam": 1.0,
    "error_c": 0.0,
    "error_p": 3.0,
    "gamma_schedule": "geometric",
    "max_iters": 0,          # 0 = problem default, -1 = rate-fit horizon
    "tol": 0.0,
    "seed": 0,
    # problem parameters
    "delta_m": 0.8,
    "delta_M": 1.0,
    "dim": 2,
    "gamma": 0.5,
    "theta": math.pi / 4.0,
    "rows": 40,
    "cols": 60,
    "mu": 0.0,               # 0 = generator default
    "n_blocks": 3,
    "problem_seed": 1,
}
# seeds feed numpy's generator, which takes no negative seed
INT_MINIMUM = {"seed": 0, "problem_seed": 0, "max_iters": -1}

PRESETS = {
    "gd-fig1": {"problem": "gd", "delta_m": 0.8, "delta_M": 1.0, "dim": 2,
                "gamma": 0.5, "lam": 1.0, "max_iters": -1},
    "drs-subspaces": {"problem": "two-subspaces", "theta": math.pi / 4.0,
                      "dim": 4, "lam": 1.0, "max_iters": -1},
    "lasso": {"problem": "lasso", "rows": 40, "cols": 60, "problem_seed": 1},
    "multiblock": {"problem": "multiblock", "n_blocks": 3, "dim": 20,
                   "problem_seed": 2},
    "pds-small": {"problem": "pds-small", "problem_seed": 3},
    "nonstationary-geo": {"problem": "multiblock", "method": "gfb-nonstationary",
                          "gamma_schedule": "geometric", "dim": 10,
                          "max_iters": 10000},
    "nonstationary-sq": {"problem": "multiblock", "method": "gfb-nonstationary",
                         "gamma_schedule": "inverse-square", "dim": 10,
                         "max_iters": 10000},
    "nonstationary-harm": {"problem": "multiblock", "method": "gfb-nonstationary",
                           "gamma_schedule": "harmonic", "dim": 10,
                           "max_iters": 10000},
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _coerce(text: str):
    t = text.strip()
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def parse_config_text(text: str) -> dict:
    cfg = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        cfg[key.strip()] = _coerce(val)
    return cfg


def _check_value(key: str, val, default) -> None:
    """A config value has its default's kind (text, an integer that is not a
    boolean, or a finite number) and lies above the key's lower bound."""
    if isinstance(default, str):
        ok, want = isinstance(val, str), "text"
    elif isinstance(default, int):
        ok, want = type(val) is int, "an integer"
    else:
        ok = type(val) in (int, float) and math.isfinite(val)
        want = "a finite number"
    if not ok:
        raise ParameterError(f"config key {key!r} must be {want}, got {val!r}")
    if key in INT_MINIMUM and val < INT_MINIMUM[key]:
        raise ParameterError(
            f"config key {key!r} must be >= {INT_MINIMUM[key]}, got {val!r}")


def resolve_config(preset: Optional[str] = None, config_path: Optional[str] = None,
                   overrides: Optional[dict] = None) -> dict:
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ParameterError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg.update(PRESETS[preset])
        cfg.setdefault("name", preset)
        cfg["name"] = cfg["name"] or preset
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            cfg.update(parse_config_text(fh.read()))
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    if "problem" not in cfg:
        raise ParameterError("config must name a problem")
    known = set(DEFAULTS) | {"problem"}
    unknown = set(cfg) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    for key, default in DEFAULTS.items():
        _check_value(key, cfg[key], default)
    if not cfg["name"]:
        cfg["name"] = cfg["problem"]
    return cfg


def _make_problem(cfg: dict) -> ProblemInstance:
    kind = cfg["problem"]
    if kind == "zero-map":
        return make_zero_map(d=cfg["dim"], seed=cfg["problem_seed"])
    if kind == "gd":
        return make_quadratic_gd(cfg["delta_m"], cfg["delta_M"], cfg["dim"],
                                 cfg["gamma"])
    if kind == "two-subspaces":
        return make_two_subspaces(cfg["theta"], cfg["dim"], lam=cfg["lam"])
    if kind == "lasso":
        mu = cfg["mu"] if cfg["mu"] > 0 else None
        return make_lasso(cfg["rows"], cfg["cols"], mu=mu, seed=cfg["problem_seed"])
    if kind == "multiblock":
        if cfg["method"] == "gfb-nonstationary":
            return make_multiblock_nonstationary(
                cfg["gamma_schedule"], d=cfg["dim"], n_blocks=cfg["n_blocks"],
                seed=cfg["problem_seed"])
        return make_gfb_multiblock(cfg["n_blocks"], cfg["dim"],
                                   seed=cfg["problem_seed"])
    if kind == "pds-small":
        return make_pds_small(seed=cfg["problem_seed"])
    raise ParameterError(f"unknown problem {kind!r}")


def build_problem(cfg: dict) -> ProblemInstance:
    """The configured problem; ``method`` may be blank, the problem's own
    kind, or ``gfb-nonstationary`` on the multi-block problem."""
    problem = _make_problem(cfg)
    allowed = ["", problem.kind]
    if cfg["problem"] == "multiblock":
        allowed.append("gfb-nonstationary")
    if cfg["method"] not in allowed:
        raise ParameterError(
            f"config key 'method' must be one of {allowed} for problem "
            f"{cfg['problem']!r}, got {cfg['method']!r}")
    return problem


# ---------------------------------------------------------------------------
# CSV trace emit / parse
# ---------------------------------------------------------------------------

def emit_trace_csv(path: str, cfg: dict, trace, columns: dict) -> None:
    """Write the per-iteration table with the config echoed as comments.
    ``columns`` maps optional column names to arrays (or None)."""
    lines = ["# kmcert trace v1"]
    for key in sorted(cfg):
        lines.append(f"# {key} = {cfg[key]}")
    lines.append(",".join(CSV_COLUMNS))
    K = trace.n_steps
    data = {**columns, "lambda": trace.lam, "err_norm": trace.eps_norm,
            "res_norm": trace.res_norm, "erg_res_norm": trace.erg_norm,
            "disp_norm": trace.disp_norm}
    for lo in range(0, K, 1024):            # 1024 rows at a time bound the memory
        hi = min(lo + 1024, K)
        cells = [[str(k) for k in range(lo, hi)]]
        for col in map(data.get, CSV_COLUMNS[1:]):      # NaN and absent cells are blank
            cells.append([""] * (hi - lo) if col is None else
                         ["" if v != v else "%.17g" % v for v in col[lo:hi].tolist()])
        lines.extend(map(",".join, zip(*cells, strict=True)))
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_trace_csv(path: str):
    """Return (config echo dict, column dict of float arrays with NaN for
    blanks).  The ``k`` column must run 0..K-1 in order.  Every cell must be
    blank or finite; the required columns may not be blank, and any other
    column is either blank in every row or in none."""
    cfg = {}
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    cfg[key.strip()] = _coerce(val)
                continue
            if header is None:
                header = line.split(",")
                if header != CSV_COLUMNS:
                    raise ParameterError("unrecognized trace header")
                continue
            fields = line.split(",")
            if len(fields) != len(CSV_COLUMNS):
                raise ParameterError(
                    f"malformed trace row with {len(fields)} fields")
            rows.append(fields)
    if header is None or not rows:
        raise ParameterError("trace file holds no data rows")
    cols = {}
    for j, name in enumerate(CSV_COLUMNS):
        vals = [r[j] for r in rows]
        if name == "k":
            ks = np.array([int(v) for v in vals])
            off = np.flatnonzero(ks != np.arange(ks.size))
            if off.size:
                i = int(off[0])
                raise ParameterError(
                    f"data row {i} holds k={ks[i]}, expected k={i}: the rows "
                    f"must run k = 0..K-1 in order")
            cols[name] = ks
            continue
        col = np.array([float(v) if v != "" else np.nan for v in vals])
        bad = np.flatnonzero(~np.isfinite(col))
        blank_ok = name not in REQUIRED_COLUMNS and bad.size == col.size
        if bad.size and not blank_ok:
            i = int(bad[0])
            raise ParameterError(
                f"data row {i} (k={rows[i][0]}): column {name!r} holds "
                f"{vals[i]!r}, expected a finite number")
        cols[name] = col
    return cfg, cols


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".kmcert-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def write_report(path: str, report: dict) -> None:
    _atomic_write(path, json.dumps(report, indent=2, sort_keys=True,
                                   default=_json_default) + "\n")


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def execute_run(cfg: dict):
    """Run one configured experiment; returns (trace, report, csv columns).
    A stationary run is certified; a non-stationary one (a problem with a
    step-size schedule) reports its schedule and is not checked."""
    problem = build_problem(cfg)
    if cfg["max_iters"] == -1:
        max_iters = problem.rate_horizon
    else:
        max_iters = cfg["max_iters"] or problem.cert_horizon
    run = (cfg["error_c"], cfg["error_p"], max_iters, cfg["tol"])
    schedule = problem.schedule
    if schedule is None:
        trace, constants, cert = problem.certified_run(*run, seed=cfg["seed"])
    else:
        trace, constants, cert = problem.inexact_run(*run, seed=cfg["seed"]), None, None

    columns: dict = {}
    report = {
        "config": cfg,
        "problem": problem.name,
        "method": cfg["method"] or problem.kind,
        "steps": trace.n_steps,
        "stop_reason": trace.stop_reason,
        "final_residual": trace.final_residual,
        "alpha": trace.alpha,
        "kappa": problem.kappa,
        "theoretical_rate": problem.theoretical_rate,
        "observed_rate": None,
        "constants": None if constants is None else dataclasses.asdict(constants),
        "violations": [],
        "certificates": None,
        "verdict": "pass",
    }

    if trace.dist is not None:
        columns["dist_fix"] = trace.dist[: trace.n_steps]

    try:
        report["observed_rate"] = problem.observed_rate(trace)
    except (UnavailableError, KmcertError):
        report["observed_rate"] = None

    if schedule is not None:
        report["schedule"] = {
            "kind": schedule.kind,
            "limit": schedule.limit,
            "abs_summable": schedule.abs_summable,
            "k_summable": schedule.k_summable,
            "note": schedule.summability_note,
        }
        columns["gamma"] = np.array([schedule.value(k) for k in range(trace.n_steps)])
        return trace, report, columns

    series = trace_series(trace)
    if cert is not None:
        series["cert_value"] = columns["cert_value"] = cert.values
        series["cert_bound"] = columns["cert_bound"] = cert.bounds
    checked, bound_columns = verify_series(series, constants, trace.alpha, problem.kappa)
    columns.update(bound_columns)
    # certificate results are reported under "certificates"
    violations = [v for v in checked if v.kind != "certificate"]
    if cert is not None:
        cert_ok = len(violations) == len(checked)  # no certificate violation
        if cert.membership_max is not None:
            cert_ok = cert_ok and cert.membership_max <= MEMBERSHIP_TOL
        report["certificates"] = {
            "max_value": float(cert.values.max()),
            "worst_margin": float(np.max(cert.values - cert.bounds)),
            "membership_max": cert.membership_max,
            "structural_only": list(cert.structural_only),
            "surrogate": cert.surrogate,
            "ok": cert_ok,
        }
        if not cert_ok:
            report["verdict"] = "fail"

    report["violations"] = [
        {"k": v.k, "kind": v.kind, "margin": v.margin} for v in violations
    ]
    if violations:
        report["verdict"] = "fail"
    return trace, report, columns


def cmd_run(args) -> int:
    overrides = {
        "seed": args.seed, "max_iters": args.max_iters, "tol": args.tol,
    }
    try:
        cfg = resolve_config(args.preset, args.config, overrides)
    except (ParameterError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        trace, report, columns = execute_run(cfg)
    except (ParameterError, StructuralError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, UnavailableError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    out = args.out or "."
    base = os.path.join(out, cfg["name"])
    emit_trace_csv(base + ".csv", cfg, trace, columns)
    write_report(base + ".json", report)
    if args.json:
        print(json.dumps(report, sort_keys=True, default=_json_default))
    else:
        print(f"{cfg['name']}: {report['verdict']} "
              f"({trace.n_steps} steps, final residual "
              f"{trace.final_residual:.3e}) -> {base}.csv")
    return 0 if report["verdict"] == "pass" else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _report_number(val, name: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ParameterError(f"report {name} {val!r} is not a finite number")
    return float(val)


def verify_files(trace_path: str, report_path: str, slack: float = DEFAULT_SLACK):
    """Re-check an emitted trace against the constants, ``alpha`` and
    ``kappa`` of its report; returns a list of (k, kind, margin)."""
    _, cols = parse_trace_csv(trace_path)
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict):
        raise ParameterError("report is not a JSON object")
    K = cols["k"].size
    steps = report.get("steps")
    if type(steps) is not int or steps != K:
        first = f"; first unmatched row k={min(K, steps)}" if type(steps) is int else ""
        raise ParameterError(
            f"trace holds {K} data rows but the report says steps = {steps!r}{first}")
    consts = report.get("constants")
    if not isinstance(consts, dict):
        raise ParameterError("report carries no constants to verify against")
    names = ("d0", "tau_min", "tau_max", "nu1", "nu2", "C1", "C2")
    for n in names:
        if n not in consts:
            raise ParameterError(f"report constants lack {n!r}")
    bc = BoundConstants(*(_report_number(consts[n], n) for n in names),
                        consts.get("source", "empirical"))
    alpha, kappa = (None if report.get(n) is None else _report_number(report[n], n)
                    for n in ("alpha", "kappa"))
    # a column left blank in every row does not apply to the run, unless the
    # report says it does: a certified run writes both certificate columns,
    # and a run with a modulus has an analytic fixed point, hence distances
    series = {n: c for n, c in cols.items() if not np.isnan(c).all()}
    if ("cert_value" in series) != ("cert_bound" in series):
        raise ParameterError("columns 'cert_value' and 'cert_bound' must be "
                             "filled together or left blank together")
    required = []
    if report.get("certificates") is not None:
        required += ["cert_value", "cert_bound"]
    if kappa is not None:
        required.append("dist_fix")
    for n in required:
        if n not in series:
            raise ParameterError(f"column {n!r} is blank, but the report says it applies")
    return verify_series(series, bc, alpha, kappa, slack)[0]


def cmd_verify(args) -> int:
    try:
        issues = verify_files(args.trace, args.report)
    except (ParameterError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"verify error: {exc}", file=sys.stderr)
        return 2
    if issues:
        for k, kind, margin in issues:
            print(f"violation at k={k}: {kind} margin {margin:.3e}")
        return 1
    print("verified: no violations")
    return 0


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def _suite_member_run(cfg: dict):
    trace, report, _ = execute_run(cfg)
    return {
        "name": cfg["name"],
        "method": report["method"],
        "observed_rate": report["observed_rate"],
        "theoretical_rate": report["theoretical_rate"],
        "violations": len(report["violations"]),
        "verdict": report["verdict"],
        "final_residual": report["final_residual"],
        "note": (report.get("schedule") or {}).get("note"),
    }


def suite_members():
    """Config list for the full suite: rate reproductions, exact and inexact
    certification runs, and the per-step-parameter comparison."""
    members = []

    def cfg(name, **kw):
        c = dict(DEFAULTS)
        c.update(kw)
        c["name"] = name
        return c

    members.append(cfg("gd-rate-half", problem="gd", gamma=0.5, max_iters=-1))
    members.append(cfg("gd-rate-one", problem="gd", gamma=1.0, max_iters=-1))
    for label, theta in (("pi6", math.pi / 6), ("pi4", math.pi / 4),
                         ("pi3", math.pi / 3)):
        members.append(cfg(f"drs-rate-{label}", problem="two-subspaces",
                           theta=theta, dim=4, max_iters=-1))
    members.append(cfg("drs-rate-pi4-relaxed", problem="two-subspaces",
                       theta=math.pi / 4, dim=4, lam=0.5, max_iters=-1))

    cert_targets = [
        ("zero-map", dict(problem="zero-map", dim=4)),
        ("gd", dict(problem="gd", gamma=0.5)),
        ("drs", dict(problem="two-subspaces", theta=math.pi / 4, dim=4)),
        ("lasso", dict(problem="lasso")),
        ("multiblock", dict(problem="multiblock", n_blocks=3, dim=20)),
        ("pds", dict(problem="pds-small")),
    ]
    for label, kw in cert_targets:
        members.append(cfg(f"cert-{label}-exact", max_iters=1000, **kw))
        members.append(cfg(f"cert-{label}-inexact", max_iters=1000,
                           error_c=0.1, error_p=3.0, **kw))

    for sched in ("constant", "geometric", "inverse-square", "harmonic"):
        members.append(cfg(f"ns-{sched}", problem="multiblock",
                           method="gfb-nonstationary", gamma_schedule=sched,
                           dim=10, max_iters=10000))
    return members


def run_suite(as_json: bool = False, out=sys.stdout) -> int:
    rows = []
    failed = 0
    ns_residuals = {}
    for cfg in suite_members():
        try:
            row = _suite_member_run(cfg)
        except KmcertError as exc:
            row = {"name": cfg["name"], "method": cfg.get("method") or cfg["problem"],
                   "observed_rate": None, "theoretical_rate": None,
                   "violations": -1, "verdict": f"error: {exc}",
                   "final_residual": None, "note": None}
        if row["verdict"] != "pass":
            failed += 1
        if row["name"].startswith("ns-"):
            ns_residuals[row["name"]] = row["final_residual"]
        rows.append(row)

    ordering_ok = None
    if "ns-geometric" in ns_residuals and "ns-harmonic" in ns_residuals:
        ordering_ok = ns_residuals["ns-harmonic"] >= ns_residuals["ns-geometric"]
        if not ordering_ok:
            failed += 1

    aggregate = {"members": rows, "failures": failed,
                 "ns_residual_ordering_ok": ordering_ok}
    if as_json:
        print(json.dumps(aggregate, indent=2, sort_keys=True,
                         default=_json_default), file=out)
    else:
        hdr = f"{'member':28s} {'method':10s} {'observed':>10s} {'theory':>10s} {'viol':>5s} verdict"
        print(hdr, file=out)
        print("-" * len(hdr), file=out)
        for r in rows:
            obs = f"{r['observed_rate']:.4f}" if r["observed_rate"] else "-"
            th = f"{r['theoretical_rate']:.4f}" if r["theoretical_rate"] else "-"
            note = f"  [{r['note']}]" if r.get("note") else ""
            print(f"{r['name']:28s} {r['method']:10s} {obs:>10s} {th:>10s} "
                  f"{r['violations']:>5d} {r['verdict']}{note}", file=out)
        if ordering_ok is not None:
            print(f"non-stationary residual ordering (harmonic >= geometric): "
                  f"{'ok' if ordering_ok else 'VIOLATED'}", file=out)
        print(f"{failed} failures", file=out)
    return 0 if failed == 0 else 1


def cmd_suite(args) -> int:
    return run_suite(as_json=args.json)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kmcert",
        description="Fixed-point splitting runs with convergence certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--json", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify", help="re-check an emitted trace")
    p_ver.add_argument("trace")
    p_ver.add_argument("report")
    p_ver.set_defaults(fn=cmd_verify)

    p_suite = sub.add_parser("suite", help="run the full certification suite")
    p_suite.add_argument("--json", action="store_true")
    p_suite.set_defaults(fn=cmd_suite)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NumericalError,) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
