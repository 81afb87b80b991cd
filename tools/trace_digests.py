"""Print the sha256 of the CSV trace and the JSON report of every
`kmcert suite` member and every preset, at the given error seeds.

Each config runs in-process through `kmcert.cli.execute_run` and is written
with `emit_trace_csv` and `write_report`, exactly as `kmcert run` writes it.
A run that raises records the exception instead of two digests.

    python tools/trace_digests.py --seeds 0 3 --out digests.json
    python tools/trace_digests.py --compare digests.json

`--compare FILE` re-runs the members, seeds and horizon recorded in FILE and
exits 1 if any digest differs or any recorded entry is missing.  Run it from
the repository root; `src/` is put on the import path.

A declared numerics change is checked by value instead of by digest:

    python tools/trace_digests.py --seeds 0 3 --write before/   # old code
    python tools/trace_digests.py --seeds 0 3 --write after/    # new code
    python tools/trace_digests.py --diff before/ after/

`--write DIR` keeps each run's `<key>@seed<n>.csv` and `.json` in DIR.
`--diff A B` passes when every entry of A is in B, every numeric CSV column
of B is within `TOL * max|a|` of A's (the column's largest magnitude), every
JSON number within `TOL * max(|a|, 1)` (the report's scalars include
residuals at rounding level, 1e-17 to 1e-15, whose relative change says
nothing, so they get an absolute floor of `TOL`), and everything else (blank
columns, the config echo, verdicts, violation kinds and counts,
`stop_reason`) is identical.  It prints the worst column, as its difference
over its scale, and exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from kmcert.cli import (  # noqa: E402
    PRESETS,
    emit_trace_csv,
    execute_run,
    parse_trace_csv,
    resolve_config,
    suite_members,
    write_report,
)
from kmcert.errors import KmcertError  # noqa: E402

TOL = 1e-12


def configs(names=None):
    """(key, config) for every suite member and preset, plus an inexact
    variant (``error_c = 0.1``) of each non-stationary member, optionally
    only those whose key is in ``names``; preset keys carry a ``preset:``
    prefix and the inexact variants an ``inexact:`` prefix."""
    members = suite_members()
    out = [(m["name"], m) for m in members]
    out += [(f"inexact:{m['name']}", dict(m, name=f"{m['name']}-inexact", error_c=0.1))
            for m in members if m["name"].startswith("ns-")]
    out += [(f"preset:{p}", resolve_config(preset=p)) for p in sorted(PRESETS)]
    if names is not None:
        wanted = set(names)
        unknown = wanted - {k for k, _ in out}
        if unknown:
            raise SystemExit(f"unknown members: {sorted(unknown)}")
        out = [(k, c) for k, c in out if k in wanted]
    return out


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest(cfg: dict, base: str) -> dict:
    """Run ``cfg``, write ``base.csv`` and ``base.json`` (or, when the run
    raises, the exception to ``base.error``) and return their digests."""
    try:
        trace, report, columns = execute_run(cfg)
    except KmcertError as exc:
        error = f"{type(exc).__name__}: {exc}"
        with open(base + ".error", "w", encoding="utf-8") as fh:
            fh.write(error + "\n")
        return {"error": error}
    emit_trace_csv(base + ".csv", cfg, trace, columns)
    write_report(base + ".json", report)
    return {"csv": _sha256(base + ".csv"), "json": _sha256(base + ".json")}


def collect(seeds, max_iters=None, names=None, out=sys.stdout, keep=None) -> dict:
    """Digests of every config at every seed; with ``keep``, each run's files
    stay in that directory under the entry's key."""
    digests = {}
    with tempfile.TemporaryDirectory(prefix="kmcert-digests-") as workdir:
        if keep is not None:
            os.makedirs(keep, exist_ok=True)
        for key, base_cfg in configs(names):
            for seed in seeds:
                cfg = dict(base_cfg, seed=seed)
                if max_iters is not None:
                    cfg["max_iters"] = max_iters
                entry_key = f"{key}@seed{seed}"
                base = os.path.join(keep if keep is not None else workdir,
                                    entry_key if keep is not None else "run")
                entry = digest(cfg, base)
                digests[entry_key] = entry
                shown = entry.get("error") or f"{entry['csv']}  {entry['json']}"
                print(f"{key:28s} {seed:>4d}  {shown}", file=out, flush=True)
    return digests


# ---------------------------------------------------------------------------
# numeric comparison of two written output directories
# ---------------------------------------------------------------------------

def _json_leaves(obj, path=""):
    """(path, value) for every leaf of a parsed report, lists by index."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _json_leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _json_leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _column_diff(a: np.ndarray, b: np.ndarray):
    """(max|a-b|, max|a|) over a column's finite cells, or None when the
    blank cells differ."""
    blank = np.isnan(a)
    if a.shape != b.shape or not np.array_equal(blank, np.isnan(b)):
        return None
    if blank.all():
        return 0.0, 0.0
    return (float(np.max(np.abs(a[~blank] - b[~blank]))),
            float(np.max(np.abs(a[~blank]))))


def diff_entry(dir_a: str, dir_b: str, key: str):
    """Compare one entry of two ``--write`` directories; returns
    (problems, columns) with one ``(name, max|a-b|, scale)`` per column, the
    column passing when ``max|a-b| <= TOL * scale``."""
    base_a, base_b = os.path.join(dir_a, key), os.path.join(dir_b, key)
    if os.path.exists(base_a + ".error"):
        with open(base_a + ".error", encoding="utf-8") as fa:
            want = fa.read()
        got = None
        if os.path.exists(base_b + ".error"):
            with open(base_b + ".error", encoding="utf-8") as fb:
                got = fb.read()
        return ([] if got == want else [f"error {want.strip()!r} became {got!r}"]), []
    if not os.path.exists(base_b + ".json"):
        return ["missing"], []
    problems, columns = [], []
    cfg_a, cols_a = parse_trace_csv(base_a + ".csv")
    cfg_b, cols_b = parse_trace_csv(base_b + ".csv")
    if cfg_a != cfg_b:
        problems.append("config echo differs")
    for name in cols_a:
        d = _column_diff(cols_a[name].astype(float), cols_b[name].astype(float))
        if d is None:
            problems.append(f"csv:{name}: rows or blank cells differ")
        else:
            columns.append((f"csv:{name}", *d))
    with open(base_a + ".json", encoding="utf-8") as fa, \
            open(base_b + ".json", encoding="utf-8") as fb:
        leaves_a = dict(_json_leaves(json.load(fa)))
        leaves_b = dict(_json_leaves(json.load(fb)))
    if leaves_a.keys() != leaves_b.keys():
        problems.append("report keys differ (violation counts or fields): "
                        f"{sorted(leaves_a.keys() ^ leaves_b.keys())[:4]}")
    for path in sorted(leaves_a.keys() & leaves_b.keys()):
        va, vb = leaves_a[path], leaves_b[path]
        if _is_number(va) and _is_number(vb):
            columns.append((f"json:{path}", abs(float(va) - float(vb)),
                            max(abs(float(va)), 1.0)))
        elif va != vb:
            problems.append(f"json:{path}: {va!r} became {vb!r}")
    for name, delta, scale in columns:
        if delta > TOL * scale:
            problems.append(f"{name}: max|a-b| {delta:.3g} > {TOL:g} * scale {scale:.3g}")
    return problems, columns


def diff_dirs(dir_a: str, dir_b: str, out=sys.stdout) -> int:
    keys = sorted({os.path.splitext(f)[0] for f in os.listdir(dir_a)
                   if f.endswith((".json", ".error"))})
    failed, worst = 0, None
    for key in keys:
        problems, columns = diff_entry(dir_a, dir_b, key)
        changed = [c for c in columns if c[1] > 0.0]
        for name, delta, scale in changed:
            rel = delta / scale
            if worst is None or rel > worst[0]:
                worst = (rel, key, name, delta)
        status = "FAIL" if problems else ("equal" if not changed else "within tolerance")
        print(f"{key:36s} {status}", file=out)
        for p in problems:
            print(f"    {p}", file=out)
        failed += bool(problems)
    if worst is not None:
        rel, key, name, delta = worst
        print(f"worst column: {key} {name}: max|a-b| = {delta:.3g}, "
              f"{rel:.3g} of its scale", file=out)
    print(f"{len(keys) - failed}/{len(keys)} entries agree within {TOL:g} of each "
          f"column's scale", file=out)
    return 1 if failed else 0


def compare(recorded: dict, current: dict) -> list:
    """Keys whose entries differ, including keys missing from ``current``."""
    return sorted(k for k in recorded if recorded[k] != current.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=None,
                    help="error seeds (default 0, or those recorded in --compare)")
    ap.add_argument("--max-iters", type=int, default=None, dest="max_iters",
                    help="override every config's horizon (default: full horizon)")
    ap.add_argument("--members", nargs="+", default=None,
                    help="only these suite members / preset:<name> keys")
    ap.add_argument("--out", help="write the digests as JSON to this file")
    ap.add_argument("--compare", help="digest file to check against; exit 1 on mismatch")
    ap.add_argument("--write", metavar="DIR",
                    help="keep every run's CSV and JSON in this directory")
    ap.add_argument("--diff", nargs=2, metavar=("DIR_A", "DIR_B"),
                    help="compare two --write directories by value; exit 1 on failure")
    args = ap.parse_args(argv)
    if args.diff:
        return diff_dirs(*args.diff)

    seeds, max_iters, members = args.seeds, args.max_iters, args.members
    recorded = None
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
        seeds = seeds or recorded["seeds"]
        if max_iters is None:
            max_iters = recorded["max_iters"]
        members = members or recorded["members"]
    seeds = seeds or [0]

    digests = collect(seeds, max_iters, members, keep=args.write)
    doc = {"seeds": seeds, "max_iters": max_iters, "members": members,
           "digests": digests}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if recorded is None:
        return 0
    expected = {}
    for key, entry in recorded["digests"].items():
        name, seed = key.rsplit("@seed", 1)
        if int(seed) in seeds and (members is None or name in members):
            expected[key] = entry
    bad = compare(expected, digests)
    for key in bad:
        print(f"MISMATCH {key}: recorded {expected[key]}, now {digests.get(key)}")
    print(f"{len(expected) - len(bad)}/{len(expected)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
