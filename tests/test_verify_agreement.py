"""`kmcert run` and `kmcert verify` agree: the run's own bound check and
`verify_files` on the emitted trace and report find the same violations, on
generated instances (single-block maps, two-subspace Douglas-Rachford,
primal-dual and product-space splittings) and on every suite member that
carries constants."""

import dataclasses
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmcert import cli
from kmcert.bounds import BoundConstants, verify_series
from kmcert.km import RelaxationSchedule
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
            p, relaxation=RelaxationSchedule.constant(cfg["lam"] * cap))
    return patched


@settings(max_examples=120, deadline=None)
@given(instances())
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


@pytest.mark.parametrize("max_iters", [1, 2])
def test_run_checks_only_the_local_transitions_its_trace_holds(max_iters, tmp_path,
                                                               monkeypatch):
    # a modulus 10% below the true one breaks the local model at every
    # transition; the run must flag just those that verify can re-check
    # from the K distances of the CSV
    build = cli.build_problem

    def tight_modulus(cfg):
        p = build(cfg)
        return dataclasses.replace(p, kappa=p.kappa * 0.9)

    monkeypatch.setattr(cli, "build_problem", tight_modulus)
    cfg = cli.resolve_config(preset="drs-subspaces", overrides={"max_iters": max_iters})
    _, report, _, csv_path, report_path = emit(cfg, tmp_path)
    found = kinds(cli.verify_files(csv_path, report_path))
    own = {(v["k"], v["kind"]) for v in report["violations"]}
    assert {f for f in found if f[1] != "certificate"} == own
    assert {k for k, kind in own if kind == "local"} == set(range(max_iters - 1))


@st.composite
def gfb_instances(draw):
    """A generated product-space splitting instance: a random positive
    definite quadratic smooth part, 1-3 box and l1 blocks with drawn
    weights, a step size inside (0, 2 beta), a relaxation inside the
    admissible (0, 1/alpha) and an error law with p in (2, 4]."""
    d = draw(st.integers(1, 5))
    kinds_ = draw(st.lists(st.sampled_from(["box", "l1"]), min_size=1, max_size=3))
    raw_w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(kinds_),
                                   max_size=len(kinds_))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.standard_normal((d, d))
    Q = G.T @ G / max(1.0, float(np.linalg.eigvalsh(G.T @ G)[-1])) + 0.2 * np.eye(d)
    blocks = [BoxBlock(-rng.uniform(0.2, 2.0, d), rng.uniform(0.2, 2.0, d))
              if kind == "box" else L1Block(rng.uniform(0.01, 0.5)) for kind in kinds_]
    smooth = CocoerciveMap.quadratic(Q, rng.standard_normal(d))
    built = GfbBuilt(blocks=blocks, weights=raw_w / raw_w.sum(),
                     gamma=draw(st.floats(0.1, 1.9)) * smooth.beta, dim=d, smooth=smooth)
    lam = draw(st.floats(0.1, 0.95)) / built.operator.alpha
    problem = ProblemInstance(
        name="gfb-generated", kind="gfb", operator=built.operator,
        z0=built.space.point([3.0 * rng.standard_normal(d) for _ in blocks]),
        relaxation=RelaxationSchedule.constant(lam), built=built)
    cfg = dict(cli.DEFAULTS, problem="multiblock", name="prop-gfb",
               error_c=draw(st.sampled_from([0.0, 0.2]) | st.floats(0.0, 0.2)),
               error_p=draw(st.floats(2.0, 4.0, exclude_min=True)),
               max_iters=draw(st.integers(1, 120)),
               seed=draw(st.integers(0, 2 ** 16)))
    return cfg, problem


@settings(max_examples=40, deadline=None)
@given(gfb_instances())
def test_generated_gfb_runs_certify_and_verify_agrees(drawn):
    cfg, problem = drawn
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setattr(cli, "build_problem", lambda _cfg: problem)
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
