"""Reproducible experiment runner: configure problem + method + schedules,
execute, certify and emit traces and reports.

Config files are flat ``key = value`` text (``#`` comments); every run embeds
its fully-defaulted config as a comment header in the CSV trace, so a trace
file is self-describing and byte-identical across repeated executions with
the same config and seed.

Exit codes: 0 pass, 1 bound violation, 2 usage/schema or output error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from .bounds import BoundConstants, Certification, Violation, certify, trace_series
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
# seeds feed numpy's generator, which takes no negative seed; a residual
# tolerance below 0 would stop nothing and still be echoed
MINIMUM = {"seed": 0, "problem_seed": 0, "max_iters": -1, "tol": 0}

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
    for kind in (int, float):
        try:
            return kind(t)
        except ValueError:
            pass
    return t


def parse_config_text(text: str) -> dict:
    cfg, lines = {}, {}     # lines: the line that set each key
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ParameterError(f"line {ln}: key {key!r} already set on line {lines[key]}")
        cfg[key], lines[key] = _coerce(val), ln
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
    if key in MINIMUM and val < MINIMUM[key]:
        raise ParameterError(
            f"config key {key!r} must be >= {MINIMUM[key]}, got {val!r}")


def resolve_config(preset: Optional[str] = None, config_path: Optional[str] = None,
                   overrides: Optional[dict] = None) -> dict:
    cfg = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise ParameterError(
                f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg.update(PRESETS[preset])
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
    # the name is the stem of the run's output files inside --out
    if os.path.basename(cfg["name"]) != cfg["name"] or cfg["name"] in (".", ".."):
        raise ParameterError(
            f"config key 'name' must be a single path component, got {cfg['name']!r}")
    return cfg


# each (problem, method): its generator and the config key behind each of the
# generator's arguments; the first row of a problem is its blank method.  A
# run reads its row's keys and RUN_KEYS; any other key keeps its default
RUN_KEYS = {"method", "name", "error_c", "error_p", "max_iters", "tol", "seed"}
PROBLEMS = {
    ("zero-map", "km"): (make_zero_map, {"d": "dim", "seed": "problem_seed"}),
    ("gd", "km"): (make_quadratic_gd, {"delta_m": "delta_m", "delta_M": "delta_M",
                                       "d": "dim", "gamma": "gamma"}),
    ("two-subspaces", "drs"): (make_two_subspaces, {"theta": "theta", "d": "dim",
                                                    "lam": "lam"}),
    ("lasso", "gfb"): (make_lasso, {"m": "rows", "n": "cols", "mu": "mu",
                                    "seed": "problem_seed"}),
    ("multiblock", "gfb"): (make_gfb_multiblock, {"n_blocks": "n_blocks", "d": "dim",
                                                  "seed": "problem_seed"}),
    ("multiblock", "gfb-nonstationary"): (
        make_multiblock_nonstationary, {"kind": "gamma_schedule", "d": "dim",
                                        "n_blocks": "n_blocks", "seed": "problem_seed"}),
    ("pds-small", "pds"): (make_pds_small, {"seed": "problem_seed"}),
}


def build_problem(cfg: dict) -> ProblemInstance:
    """The configured problem; ``method`` may be blank or one of the
    problem's rows in :data:`PROBLEMS`.  A key the problem does not read must
    keep its default.  Configs that agree on the keys the problem reads share
    one instance, and with it one fixed-point reference."""
    methods = [m for problem, m in PROBLEMS if problem == cfg["problem"]]
    if not methods:
        raise ParameterError(f"unknown problem {cfg['problem']!r}")
    if cfg["method"] not in ["", *methods]:
        raise ParameterError(
            f"config key 'method' must be one of {['', *methods]} for problem "
            f"{cfg['problem']!r}, got {cfg['method']!r}")
    row = (cfg["problem"], cfg["method"] or methods[0])
    keys = PROBLEMS[row][1].values()
    unread = [key for key, default in DEFAULTS.items()
              if key not in RUN_KEYS and key not in keys and cfg[key] != default]
    if unread:
        raise ParameterError(f"problem {cfg['problem']!r} does not read config key "
                             f"{', '.join(map(repr, unread))}; leave it at its default")
    return _built(row, *(cfg[key] for key in keys))


@functools.lru_cache(maxsize=8, typed=True)
def _built(row: tuple, *values) -> ProblemInstance:
    make, keys = PROBLEMS[row]
    return make(**dict(zip(keys, values)))


# ---------------------------------------------------------------------------
# CSV trace emit / parse
# ---------------------------------------------------------------------------

# the writer formats and the reader converts this many data rows at a time,
# so neither holds a whole trace's text
_BLOCK_ROWS = 1024


def emit_trace_csv(path: str, cfg: dict, trace, columns: dict) -> None:
    """Write the per-iteration table with the config echoed as comments: the
    trace's own columns (:func:`trace_series`) and ``columns``, which maps
    the other column names to arrays (or None).  The header and then each
    block of rows go to the file as they are formatted: one row template
    applied with one ``%`` to the block's values, taken row by row, with
    ``%d`` for ``k``, ``%.17g`` for a filled column and an empty field for
    an absent or all-NaN one.  A column with NaN in some rows of the block
    is formatted cell by cell, NaN blank, and enters the template as ``%s``."""
    K = trace.n_steps
    data = {**trace_series(trace), **columns}
    names = [name for name in CSV_COLUMNS[1:] if data.get(name) is not None]

    def block(lo: int, hi: int) -> str:
        # k and the given columns; a short column raises here
        V = np.column_stack([np.arange(lo, hi), *(data[name][lo:hi] for name in names)])
        nan = np.isnan(V)
        shown = ~nan.all(axis=0)
        values, width = V[:, shown].ravel().tolist(), int(shown.sum())
        fields, j = dict.fromkeys(CSV_COLUMNS, ""), 1
        fields["k"] = "%d"
        for name, show, partial in zip(names, shown[1:], nan.any(axis=0)[1:]):
            if not show:        # all NaN: a blank field
                continue
            if partial:         # NaN cells blank, the others one at a time
                values[j::width] = ["" if v != v else "%.17g" % v for v in values[j::width]]
            fields[name], j = "%s" if partial else "%.17g", j + 1
        return ((",".join(fields.values()) + "\n") * (hi - lo)) % tuple(values)

    def pieces():
        yield "\n".join(["# kmcert trace v1", *(f"# {key} = {cfg[key]}" for key in sorted(cfg)),
                         ",".join(CSV_COLUMNS)]) + "\n"
        for lo in range(0, K, _BLOCK_ROWS):
            yield block(lo, min(lo + _BLOCK_ROWS, K))

    _atomic_write(path, pieces())


def parse_trace_csv(path: str):
    """Return (config echo dict, column dict of float arrays with NaN for
    blanks).  The ``k`` column must run 0..K-1 in order.  Every cell must be
    blank or finite; the required columns may not be blank, and any other
    column is either blank in every row or in none.

    Rows are converted to arrays a block at a time, by one split of the
    block's rows joined with ``",\\n"``: every row has 13 fields exactly
    when that gives ``13 n`` fields, every 13th opening with a newline
    (which ``int`` ignores in a ``k`` cell); else the first row of the
    wrong length raises, before any other fault.  The other checks run on
    the whole columns after the last block, column by column, so a file
    with several faults reports the same one whatever the block size."""
    cfg = {}
    header = None
    rows = []                       # the block being read
    chunks = {name: [] for name in CSV_COLUMNS}
    # column -> (row, k text, text, what was expected) of its first
    # unparsable cell, and of its first non-finite cell
    rejected, nonfinite = {}, {}

    def number(kind, text, name, at):
        if kind is float and text == "":
            return np.nan
        try:
            return kind(text)
        except ValueError:
            rejected.setdefault(name, at + (text, "an integer" if kind is int else "a number"))
            return 0            # a stand-in: the column raises after the last block

    def convert():
        start, n, width = len(chunks["k"]) * _BLOCK_ROWS, len(rows), len(CSV_COLUMNS)
        flat = ",\n".join(rows).split(",")
        if len(flat) != n * width or "".join(flat[width::width]).count("\n") != n - 1:
            for fields in (line.count(",") + 1 for line in rows):
                if fields != width:
                    raise ParameterError(f"malformed trace row with {fields} fields")
        cells = [flat[j::width] for j in range(width)]
        for name, vals in zip(CSV_COLUMNS, cells):
            kind = int if name == "k" else float
            try:
                col = np.array(list(map(kind, vals)))
            except ValueError:      # a blank cell, or one that is no number
                col = (np.full(len(vals), np.nan) if kind is float and not any(vals)
                       else np.array([number(kind, v, name, (start + i, cells[0][i]))
                                      for i, v in enumerate(vals)]))
            if kind is float and name not in nonfinite:
                bad = np.flatnonzero(~np.isfinite(col))
                if bad.size:
                    i = int(bad[0])
                    nonfinite[name] = (start + i, cells[0][i], vals[i], "a finite number")
            chunks[name].append(col)
        rows.clear()

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
            rows.append(line)
            if len(rows) == _BLOCK_ROWS:
                convert()
    if rows:
        convert()
    if not chunks["k"]:
        raise ParameterError("trace file holds no data rows")
    # each column's chunks are released as it is joined
    cols = {name: np.concatenate(chunks.pop(name)) for name in CSV_COLUMNS}
    for name, col in cols.items():
        if name == "k" and name not in rejected:
            off = np.flatnonzero(col != np.arange(col.size))
            if off.size:
                i = int(off[0])
                raise ParameterError(
                    f"data row {i} holds k={col[i]}, expected k={i}: the rows "
                    f"must run k = 0..K-1 in order")
        elif name in nonfinite and (name in REQUIRED_COLUMNS or np.isfinite(col).any()):
            rejected.setdefault(name, nonfinite[name])
        if name in rejected:
            i, k, text, expected = rejected[name]
            k, text = k.lstrip("\n"), text.lstrip("\n")     # a k cell opens with a newline
            raise ParameterError(f"data row {i} (k={k}): column {name!r} holds "
                                 f"{text!r}, expected {expected}")
    return cfg, cols


def _atomic_write(path: str, pieces) -> None:
    """Write the text ``pieces`` one at a time to a temp file beside
    ``path``, which replaces ``path`` once all are written; on any failure
    the temp file is removed and ``path`` is left as it was."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".kmcert-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def write_report(path: str, report: dict) -> None:
    _atomic_write(path, [json.dumps(report, indent=2, sort_keys=True,
                                    default=_json_default) + "\n"])


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _certificate_summary(values: np.ndarray, bounds: np.ndarray) -> tuple:
    """The report's ``(max_value, worst_margin)`` of a certificate series."""
    return float(values.max()), float(np.max(values - bounds))


def execute_run(cfg: dict):
    """Run one configured experiment; returns (trace, report, csv columns).
    The report's verdict, violations and ``certificates.ok`` are those of
    :func:`~kmcert.bounds.certify` on the columns the CSV holds, the record
    that `kmcert verify` rebuilds from the files.  A non-stationary run (a
    problem with a step-size schedule) reports its schedule; it has no
    certified constants, so its record skips every check."""
    problem = build_problem(cfg)
    max_iters = (problem.rate_horizon if cfg["max_iters"] == -1
                 else cfg["max_iters"] or problem.cert_horizon)
    run = (cfg["error_c"], cfg["error_p"], max_iters, cfg["tol"])
    schedule = problem.schedule
    columns: dict = {}
    if schedule is None:
        trace, constants, cert = problem.certified_run(*run, seed=cfg["seed"])
    else:
        trace, constants, cert = problem.run(*run, seed=cfg["seed"]), None, None
        columns["gamma"] = np.fromiter(map(schedule.value, range(trace.n_steps)), float,
                                       count=trace.n_steps)
    if cert is not None:
        columns.update(cert_value=cert.values, cert_bound=cert.bounds)
    record = certify({**trace_series(trace), **columns}, constants, trace.alpha,
                     problem.kappa, None if cert is None else cert.membership_max,
                     cert is not None)
    columns.update(record.columns)
    summary = None if cert is None else _certificate_summary(cert.values, cert.bounds)

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
        "violations": [v._asdict() for v in record.reported],
        "certificates": None if cert is None else {
            "max_value": summary[0],
            "worst_margin": summary[1],
            "membership_max": cert.membership_max,
            "structural_only": list(cert.structural_only),
            "surrogate": cert.surrogate,
            "ok": record.certificates_ok,
        },
        "verdict": record.verdict,
    }
    try:
        report["observed_rate"] = problem.observed_rate(trace)
    except UnavailableError:
        pass
    if schedule is not None:
        report["schedule"] = {
            "kind": schedule.kind,
            "limit": schedule.limit,
            "abs_summable": schedule.abs_summable,
            "k_summable": schedule.k_summable,
            "note": schedule.summability_note,
        }
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
    try:
        emit_trace_csv(base + ".csv", cfg, trace, columns)
        write_report(base + ".json", report)
    except OSError as exc:
        print(f"output error: cannot write to {out}: {exc}", file=sys.stderr)
        return 2
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

def _report_number(val, name: str, null: bool = False) -> Optional[float]:
    if null and val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ParameterError(f"report field {name!r} must be a finite number"
                             f"{' or null' if null else ''}, got {val!r}")
    return float(val)


def certify_files(trace_path: str, report_path: str) -> Certification:
    """Rebuild a run's record (:func:`~kmcert.bounds.certify`) from its
    emitted trace and the constants, ``alpha``, ``kappa`` and certificate
    membership residual of its report; the trace holds no membership
    residual, so that one is taken from the report.  The record's verdict,
    listed violations and ``certificates.ok``, and the largest certificate
    value and margin of the trace's columns, must equal the report's, and
    the trace's bound columns (``pw_bound``, ``erg_bound``, ``local_model``)
    the record's, bit for bit, blank where the record has none; where they
    differ, a ``report`` violation (``k = -1``, margin 1) is added.  A
    scheduled run's report carries no constants; it is accepted when its
    ``gamma`` column is filled, and its record checks nothing."""
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
    verdict = report.get("verdict")
    if verdict not in ("pass", "fail"):
        raise ParameterError(f"report field 'verdict' must be 'pass' or 'fail', got {verdict!r}")
    claimed = report.get("violations")
    if not isinstance(claimed, list) or not all(
            isinstance(v, dict) and sorted(v) == ["k", "kind", "margin"] and type(v["k"]) is int
            and type(v["kind"]) is str and type(v["margin"]) in (int, float) for v in claimed):
        raise ParameterError("report field 'violations' must be a list of "
                             "{k, kind, margin} objects")
    claimed = [(v["k"], v["kind"], v["margin"]) for v in claimed]
    certificates = report.get("certificates")
    if certificates is not None and not isinstance(certificates, dict):
        raise ParameterError("report field 'certificates' must be an object or null")
    membership = _report_number((certificates or {}).get("membership_max"),
                                "certificates.membership_max", null=True)
    # a column left blank in every row is absent
    series = {n: c for n, c in cols.items() if not np.isnan(c).all()}
    consts = report.get("constants")
    if consts is None and isinstance(report.get("schedule"), dict) and "gamma" in series:
        bc = None
    elif not isinstance(consts, dict):
        raise ParameterError("report carries no constants to verify against")
    else:
        names = ("d0", "tau_min", "tau_max", "nu1", "nu2", "C1", "C2")
        for n in names:
            if n not in consts:
                raise ParameterError(f"report constants lack {n!r}")
        bc = BoundConstants(*(_report_number(consts[n], n) for n in names),
                            consts.get("source", "empirical"))
    alpha, kappa = (_report_number(report.get(n), n, null=True) for n in ("alpha", "kappa"))
    record = certify(series, bc, alpha, kappa, membership, certificates is not None)
    if (verdict != record.verdict or claimed != record.reported
            or any(cols[n].tobytes() != record.columns[n].tobytes() if n in record.columns
                   else n in series for n in ("pw_bound", "erg_bound", "local_model"))
            or certificates is not None
            and (certificates.get("ok") != record.certificates_ok
                 or _certificate_summary(cols["cert_value"], cols["cert_bound"])
                 != (certificates.get("max_value"), certificates.get("worst_margin")))):
        record.append(Violation(-1, "report", 1.0))
    return record


def verify_files(trace_path: str, report_path: str) -> list:
    """The bound violations (:func:`~kmcert.bounds.verify_series`) of the
    record :func:`certify_files` rebuilds: what the run's own check finds in
    the emitted columns, without the comparison with the report."""
    return [v for v in certify_files(trace_path, report_path)
            if v.kind not in ("membership", "report")]


def cmd_verify(args) -> int:
    try:
        record = certify_files(args.trace, args.report)
    except (ParameterError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"verify error: {exc}", file=sys.stderr)
        return 2
    for name, why in record.checks.items():
        print(f"{name}: {'skipped, ' + why if why else 'checked'}")
    if record.checks["membership"] is None:
        print("(the membership residual is the report's: the trace does not hold it)")
    for k, kind, margin in record:
        print(f"violation at k={k}: {kind} margin {margin:.3e}")
    if record:
        return 1
    checked = None in record.checks.values()
    print("verified: no violations" + ("" if checked else "; no bound was checked"))
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
        return dict(DEFAULTS, **kw, name=name)

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
        if row["name"].startswith("ns-") and row["final_residual"] is not None:
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
