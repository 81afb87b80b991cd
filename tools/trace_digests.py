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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from kmcert.cli import (  # noqa: E402
    PRESETS,
    emit_trace_csv,
    execute_run,
    resolve_config,
    suite_members,
    write_report,
)
from kmcert.errors import KmcertError  # noqa: E402


def configs(names=None):
    """(key, config) for every suite member and preset, optionally only
    those whose key is in ``names``; preset keys carry a ``preset:`` prefix."""
    out = [(m["name"], m) for m in suite_members()]
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


def digest(cfg: dict, workdir: str) -> dict:
    try:
        trace, report, columns = execute_run(cfg)
    except KmcertError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    base = os.path.join(workdir, "run")
    emit_trace_csv(base + ".csv", cfg, trace, columns)
    write_report(base + ".json", report)
    return {"csv": _sha256(base + ".csv"), "json": _sha256(base + ".json")}


def collect(seeds, max_iters=None, names=None, out=sys.stdout) -> dict:
    digests = {}
    with tempfile.TemporaryDirectory(prefix="kmcert-digests-") as workdir:
        for key, base_cfg in configs(names):
            for seed in seeds:
                cfg = dict(base_cfg, seed=seed)
                if max_iters is not None:
                    cfg["max_iters"] = max_iters
                entry = digest(cfg, workdir)
                digests[f"{key}@seed{seed}"] = entry
                shown = entry.get("error") or f"{entry['csv']}  {entry['json']}"
                print(f"{key:28s} {seed:>4d}  {shown}", file=out, flush=True)
    return digests


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
    args = ap.parse_args(argv)

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

    digests = collect(seeds, max_iters, members)
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
