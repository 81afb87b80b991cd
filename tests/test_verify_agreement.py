"""`kmcert run` and `kmcert verify` agree: the run's own bound check and
`verify_files` on the emitted trace and report find the same violations, on
generated instances (single-block maps, two-subspace Douglas-Rachford,
primal-dual and product-space splittings) and on every suite member that
carries constants; and a report whose verdict, violations, certificate
``ok`` or membership residual was edited fails `verify`."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kmcert import cli
from kmcert.bounds import CHECKS, MEMBERSHIP_TOL, BoundConstants, verify_series
from kmcert.errors import UnavailableError
from kmcert.problems import ProblemInstance
from kmcert.splitting import BoxBlock, CocoerciveMap, GfbBuilt, L1Block

EDITABLE = ("res_norm", "erg_res_norm", "dist_fix")


def emit(cfg, out_dir):
    trace, report, columns = cli.execute_run(cfg)
    base = pathlib.Path(out_dir) / cfg["name"]
    cli.emit_trace_csv(f"{base}.csv", cfg, trace, columns)
    cli.write_report(f"{base}.json", report)
    return trace, report, columns, f"{base}.csv", f"{base}.json"


def kinds(issues):
    return {(k, kind) for k, kind, _ in issues}


def set_cell(path, k, column, value):
    lines = pathlib.Path(path).read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1 + k
    row = lines[at].split(",")
    row[cli.CSV_COLUMNS.index(column)] = format(value, ".17g")
    lines[at] = ",".join(row)
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


@st.composite
def instances(draw):
    """A `zero-map`, `gd`, `two-subspaces` or `pds-small` config.  For
    `zero-map` and `gd`, ``lam`` is drawn as a fraction of the admissible cap
    ``1/alpha`` (1 when only non-expansiveness is certified) and scaled once
    the problem is built; `two-subspaces` reads ``lam`` itself, a fraction of
    its cap 2, with ``theta`` in (0, pi/2] down to the smallest normal float
    (a subnormal angle exits 2); `pds-small` draws its ``problem_seed``."""
    problem = draw(st.sampled_from(["zero-map", "gd", "two-subspaces", "pds-small"]))
    editable = EDITABLE
    if problem == "two-subspaces":
        keys = {"theta": draw(st.floats(float(np.finfo(float).tiny), math.pi / 2)),
                "dim": draw(st.integers(2, 6)), "lam": 2.0 * draw(st.floats(0.05, 0.95))}
    elif problem == "pds-small":
        keys = {"problem_seed": draw(st.integers(0, 39))}
        editable = EDITABLE[:2]     # no analytic fixed point: no dist_fix column
    else:
        keys = {"dim": draw(st.integers(1 if problem == "zero-map" else 2, 6)),
                "lam": draw(st.floats(0.05, 0.95))}
    cfg = dict(cli.DEFAULTS, problem=problem, name="prop", **keys,
               error_c=draw(st.sampled_from([0.0, 0.2]) | st.floats(0.0, 0.2)),
               error_p=draw(st.floats(2.0, 4.0, exclude_min=True)),
               max_iters=draw(st.integers(1, 150)),
               seed=draw(st.integers(0, 2 ** 16)))
    edit = draw(st.none() | st.tuples(st.sampled_from(editable),
                                      st.integers(0, 149), st.floats(0.0, 1e3)))
    return cfg, edit


def with_drawn_relaxation(build):
    """`build_problem` whose constant relaxation, for `zero-map` and `gd`, is
    ``cfg["lam"]`` times the problem's admissible cap (these generators fix
    their own, and read no ``lam``, so the real builder gets its default);
    the other problems are built as configured."""
    def patched(cfg):
        if cfg["problem"] not in ("zero-map", "gd"):
            return build(cfg)
        p = build(dict(cfg, lam=cli.DEFAULTS["lam"]))
        cap = 1.0 if p.operator.alpha is None else 1.0 / p.operator.alpha
        return dataclasses.replace(
            p, lam=cfg["lam"] * cap)
    return patched


@settings(max_examples=120, deadline=None)
@given(instances())
# one step, no transition to check: a zero start distance moves only the
# local model, which verify recomputes
@example((dict(cli.DEFAULTS, problem="zero-map", name="prop", dim=3, lam=0.5, max_iters=1),
          ("dist_fix", 0, 0.0)))
def test_run_and_verify_agree_on_generated_instances(drawn):
    cfg, edit = drawn
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(cli, "build_problem", with_drawn_relaxation(cli.build_problem))
        trace, report, columns, csv_path, report_path = emit(cfg, out)
        K = trace.n_steps

        # CSV emit then parse is bit-exact
        _, parsed = cli.parse_trace_csv(csv_path)
        dist = {} if trace.dist is None else {"dist_fix": trace.dist[:K]}
        recorded = {"lambda": trace.lam, "err_norm": trace.eps_norm,
                    "res_norm": trace.res_norm, "erg_res_norm": trace.erg_norm,
                    "disp_norm": trace.disp_norm, **dist, **columns}
        for name, values in recorded.items():
            assert np.array_equal(parsed[name], values), name

        # the splittings' certificate columns are checked as recorded
        cols = {"lambda": trace.lam, "err_norm": trace.eps_norm,
                "res_norm": trace.res_norm.copy(),
                "erg_res_norm": trace.erg_norm.copy(),
                **{name: v.copy() for name, v in dist.items()},
                **{name: columns[name] for name in ("cert_value", "cert_bound")
                   if name in columns}}
        if edit is None:
            assert report["violations"] == []
        else:
            name, row, scale = edit
            cols[name][row % K] *= scale
            set_cell(csv_path, row % K, name, cols[name][row % K])

        constants = BoundConstants(**report["constants"])
        own, _ = verify_series(cols, constants, report["alpha"], report["kappa"])
        found = cli.verify_files(csv_path, report_path)
        assert kinds(own) == kinds(found)
        # the run passed, so an edit that breaks a bound contradicts its
        # report, and so does one that moves a bound column verify recomputes
        # (dist_fix[0] scales the local model)
        record = cli.certify_files(csv_path, report_path)
        moved = any(record.columns[n].tobytes() != parsed[n].tobytes() for n in record.columns)
        assert ((-1, "report") in kinds(record)) == (bool(own) or moved)
        assert moved <= (edit is not None and edit[0] == "dist_fix" and edit[1] % K == 0)
        if edit is None:
            assert found == []


@pytest.mark.parametrize("member", [m for m in cli.suite_members()
                                    if m["method"] != "gfb-nonstationary"],
                         ids=lambda m: m["name"])
def test_member_verify_finds_the_runs_violations(member, tmp_path):
    _, report, _, csv_path, report_path = emit(dict(member, max_iters=50), tmp_path)
    assert report["constants"] is not None
    found = kinds(cli.verify_files(csv_path, report_path))
    own = {(v["k"], v["kind"]) for v in report["violations"]}
    assert {f for f in found if f[1] != "certificate"} == own
    certificates = report["certificates"]
    if any(kind == "certificate" for _, kind in found):
        assert certificates is not None and not certificates["ok"]


def tight_modulus(build):
    """`build_problem` with the modulus 10% below the true one, which breaks
    the local model at every transition of an exact run."""
    def patched(cfg):
        p = build(cfg)
        return dataclasses.replace(p, kappa=p.kappa * 0.9)
    return patched


@pytest.mark.parametrize("max_iters", [1, 2])
def test_run_checks_only_the_local_transitions_its_trace_holds(max_iters, tmp_path,
                                                               monkeypatch):
    # the run must flag just the broken transitions that verify can
    # re-check from the K distances of the CSV
    monkeypatch.setattr(cli, "build_problem", tight_modulus(cli.build_problem))
    cfg = cli.resolve_config(preset="drs-subspaces", overrides={"max_iters": max_iters})
    _, report, _, csv_path, report_path = emit(cfg, tmp_path)
    found = kinds(cli.verify_files(csv_path, report_path))
    own = {(v["k"], v["kind"]) for v in report["violations"]}
    assert {f for f in found if f[1] != "certificate"} == own
    assert {k for k, kind in own if kind == "local"} == set(range(max_iters - 1))


def gfb_instance(d, kinds_, raw_w, rng_seed, gamma_share, lam_share, error_c, error_p,
                 max_iters, seed):
    """``(config, problem)`` of a product-space splitting instance: a random
    positive definite quadratic smooth part and the box and l1 blocks of
    ``kinds_`` from ``default_rng(rng_seed)``, the weights ``raw_w``
    normalized, the step size ``gamma_share * beta`` and the relaxation
    ``lam_share / alpha``."""
    raw_w = np.array(raw_w)
    rng = np.random.default_rng(rng_seed)
    G = rng.standard_normal((d, d))
    Q = G.T @ G / max(1.0, float(np.linalg.eigvalsh(G.T @ G)[-1])) + 0.2 * np.eye(d)
    blocks = [BoxBlock(-rng.uniform(0.2, 2.0, d), rng.uniform(0.2, 2.0, d))
              if kind == "box" else L1Block(rng.uniform(0.01, 0.5)) for kind in kinds_]
    smooth = CocoerciveMap.quadratic(Q, rng.standard_normal(d))
    built = GfbBuilt(blocks=blocks, weights=raw_w / raw_w.sum(),
                     gamma=gamma_share * smooth.beta, dim=d, smooth=smooth)
    problem = ProblemInstance(
        name="gfb-generated", kind="gfb", operator=built.operator,
        z0=built.space.point([3.0 * rng.standard_normal(d) for _ in blocks]),
        lam=lam_share / built.operator.alpha,
        built=built)
    cfg = dict(cli.DEFAULTS, problem="multiblock", name="prop-gfb", error_c=error_c,
               error_p=error_p, max_iters=max_iters, seed=seed)
    return cfg, problem


@st.composite
def gfb_instances(draw):
    """A generated :func:`gfb_instance`: 1-3 box and l1 blocks with drawn
    weights, a step size inside (0, 2 beta), a relaxation inside the
    admissible (0, 1/alpha) and an error law with p in (2, 4]."""
    d = draw(st.integers(1, 5))
    kinds_ = draw(st.lists(st.sampled_from(["box", "l1"]), min_size=1, max_size=3))
    raw_w = draw(st.lists(st.floats(0.1, 1.0), min_size=len(kinds_), max_size=len(kinds_)))
    return gfb_instance(d, kinds_, raw_w, draw(st.integers(0, 2 ** 32 - 1)),
                        draw(st.floats(0.1, 1.9)), draw(st.floats(0.1, 0.95)),
                        draw(st.sampled_from([0.0, 0.2]) | st.floats(0.0, 0.2)),
                        draw(st.floats(2.0, 4.0, exclude_min=True)),
                        draw(st.integers(1, 120)), draw(st.integers(0, 2 ** 16)))


# a slowly contracting draw whose reference solve does not converge
@example(gfb_instance(1, ["box"] * 3, [1.0] * 3, 11395, 1.5, 0.5, 0.0, 3.0, 1, 0))
@settings(max_examples=40, deadline=None)
@given(gfb_instances())
def test_generated_gfb_runs_certify_and_verify_agrees(drawn):
    cfg, problem = drawn
    try:
        problem.fix_reference()     # solved once, kept on the instance for the run
        converged = True
    except UnavailableError as exc:
        assert "reference run not converged" in str(exc)
        converged = False
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(cli, "build_problem", lambda _cfg: problem)
        if not converged:       # the run fails as documented: exit 3, saying why
            mp.setattr(cli, "resolve_config", lambda *_args: cfg)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert cli.main(["run", "--out", out]) == 3
            assert "numerical failure: reference run not converged" in stderr.getvalue()
            return
        trace, report, columns, csv_path, report_path = emit(cfg, out)

        assert report["verdict"] == "pass"
        assert report["violations"] == []
        assert report["certificates"]["ok"]

        _, parsed = cli.parse_trace_csv(csv_path)
        recorded = {"lambda": trace.lam, "err_norm": trace.eps_norm,
                    "res_norm": trace.res_norm, "erg_res_norm": trace.erg_norm,
                    "disp_norm": trace.disp_norm, **columns}
        for name, values in recorded.items():
            assert np.array_equal(parsed[name], values), name

        series = {"lambda": trace.lam, "err_norm": trace.eps_norm,
                  "res_norm": trace.res_norm, "erg_res_norm": trace.erg_norm,
                  "cert_value": columns["cert_value"],
                  "cert_bound": columns["cert_bound"]}
        own, _ = verify_series(series, BoundConstants(**report["constants"]),
                               report["alpha"], report["kappa"])
        found = cli.verify_files(csv_path, report_path)
        assert kinds(found) == kinds(own) == set()


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """name -> (trace path, report) for a 30-step run of every suite member
    and preset, and of `drs-subspaces` with a tight modulus, whose report
    lists local violations; verify agrees with each."""
    out = tmp_path_factory.mktemp("short-runs")
    cfgs = [dict(m, max_iters=30) for m in cli.suite_members()]
    cfgs += [cli.resolve_config(preset=p, overrides={"max_iters": 30}) for p in cli.PRESETS]
    runs = {}
    for cfg in cfgs:
        _, report, _, csv_path, _ = emit(cfg, out)
        runs[cfg["name"]] = csv_path, report
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_problem", tight_modulus(cli.build_problem))
        cfg = cli.resolve_config(preset="drs-subspaces",
                                 overrides={"max_iters": 30, "name": "drs-tight"})
        _, report, _, csv_path, _ = emit(cfg, out)
        runs["drs-tight"] = csv_path, report
    assert runs["drs-tight"][1]["violations"]
    for csv_path, report in runs.values():
        record = cli.certify_files(csv_path, f"{csv_path[:-4]}.json")
        assert record.reported == [tuple(v.values()) for v in report["violations"]]
        assert record.verdict == report["verdict"] and "report" not in kinds(record)
    return runs


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verify_fails_a_tampered_report(short_runs, data, tmp_path_factory):
    name = data.draw(st.sampled_from(sorted(short_runs)), label="run")
    csv_path, report = short_runs[name]
    doc = copy.deepcopy(report)
    listed = doc["violations"]
    edits = ["verdict", "add"] + (["drop", "alter"] if listed else [])
    if doc["certificates"] is not None:
        edits.append("ok")
    if isinstance((doc["certificates"] or {}).get("membership_max"), float):
        edits.append("membership")
    if doc["certificates"] is not None:
        edits += ["max_value", "worst_margin"]
    edit = data.draw(st.sampled_from(edits), label="edit")
    margins = st.floats(0.0, 1e3, exclude_min=True)
    if edit == "verdict":
        doc["verdict"] = "pass" if doc["verdict"] == "fail" else "fail"
    elif edit == "add":
        listed.insert(data.draw(st.integers(0, len(listed))),
                      {"k": data.draw(st.integers(-1, doc["steps"] - 1)),
                       "kind": data.draw(st.sampled_from(CHECKS)),
                       "margin": data.draw(margins)})
    elif edit == "drop":
        del listed[data.draw(st.integers(0, len(listed) - 1))]
    elif edit == "alter":
        entry = listed[data.draw(st.integers(0, len(listed) - 1))]
        field = data.draw(st.sampled_from(["k", "kind", "margin"]))
        values = {"k": st.integers(-1, doc["steps"]), "kind": st.sampled_from(CHECKS),
                  "margin": margins}[field]
        entry[field] = data.draw(values.filter(lambda v: v != entry[field]))
    elif edit == "ok":
        doc["certificates"]["ok"] = not doc["certificates"]["ok"]
    elif edit in ("max_value", "worst_margin"):
        old = doc["certificates"][edit]
        doc["certificates"][edit] = data.draw(
            st.floats(-1e3, 1e3).filter(lambda v: v != old), label=edit)
    else:
        doc["certificates"]["membership_max"] = data.draw(
            st.floats(MEMBERSHIP_TOL, 1.0, exclude_min=True))
    report_path = tmp_path_factory.getbasetemp() / "tampered.json"
    report_path.write_text(json.dumps(doc))
    assert (-1, "report") in kinds(cli.certify_files(csv_path, str(report_path)))
    assert cli.main(["verify", csv_path, str(report_path)]) == 1


BOUND_COLUMNS = ("pw_bound", "erg_bound", "local_model")


@pytest.mark.parametrize("column", BOUND_COLUMNS)
def test_verify_checks_the_trace_bound_columns_bit_for_bit(short_runs, column, tmp_path):
    # every run's untouched files verify clean (short_runs); a bound column
    # the record computes fails when one cell moves by one ulp, and one it
    # does not compute (an inexact run's local model, every bound column of
    # a scheduled run) fails when it is filled
    edited = 0
    for name, (csv_path, report) in sorted(short_runs.items()):
        _, cols = cli.parse_trace_csv(csv_path)
        blank = np.isnan(cols[column]).all()
        trace = tmp_path / f"{name}.csv"
        trace.write_text(pathlib.Path(csv_path).read_text())
        if blank:
            for k in range(report["steps"]):
                set_cell(trace, k, column, 1.0)
        else:
            k = report["steps"] // 2
            set_cell(trace, k, column, np.nextafter(cols[column][k], np.inf))
        report_path = f"{csv_path[:-4]}.json"
        assert (-1, "report") in kinds(cli.certify_files(str(trace), report_path)), name
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(trace), report_path]) == 1, name
        edited += not blank
    assert edited >= (10 if column != "local_model" else 3)
