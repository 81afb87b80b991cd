"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines."""

import filecmp
import time
from dataclasses import replace

import numpy as np
import pytest

from kmcert.bounds import trace_series, verify_series
from kmcert.cli import main as cli_main
from kmcert.km import RelaxationSchedule, StopRule, run_km
from kmcert.operators import OperatorSpec, composition_alpha, prox_l1
from kmcert.problems import (
    make_gfb_multiblock,
    make_lasso,
    make_multiblock_nonstationary,
    make_pds_small,
    make_quadratic_gd,
    make_two_subspaces,
    make_zero_map,
)
from kmcert.spaces import ProductSpace
from kmcert.splitting import GfbSpec, L1Block, LinearBlock
from oracles import (
    check_averaged,
    check_firmly_nonexpansive,
    metric_inner,
    pds_fbs_reference,
    reflect_diagonal,
    vector_operator,
)

SLACK = 1e-10
HORIZON = 1000
ERROR_LAW = (0.1, 3.0)   # magnitude law 0.1 / (k+1)^3


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {criterion:2d}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def suite_problems():
    return {
        "zero-map": make_zero_map(4),
        "gd": make_quadratic_gd(0.8, 1.0, 2, 0.5),
        "drs": make_two_subspaces(np.pi / 4, 4),
        "lasso": make_lasso(40, 60, seed=1),
        "multiblock": make_gfb_multiblock(3, 20, seed=2),
        "pds": make_pds_small(seed=3),
    }


@pytest.fixture(scope="session")
def cert_bundle():
    """Exact and inexact certification runs for the whole suite, each a
    ``(trace, empirical constants, certificate series or None)`` triple from
    one pass, plus each problem instance and its fixed-point reference."""
    out = {}
    for label, problem in suite_problems().items():
        out[label] = {
            "problem": problem,
            "ref": problem.fix_reference(),
            "exact": problem.certified_run(max_iters=HORIZON),
            "inexact": problem.certified_run(*ERROR_LAW, max_iters=HORIZON),
        }
    return out


@pytest.fixture(scope="session")
def ns_bundle():
    """Stationary baseline plus the three per-step-parameter schedules at the
    common horizon."""
    stationary = make_multiblock_nonstationary("constant", d=10)
    stop = StopRule(max_iters=10_000, residual_tol=0.0)
    runs = {"stationary": run_km(stationary.operator, stationary.z0,
                                 stationary.relaxation, stop=stop)}
    schedules = {}
    for kind in ("geometric", "inverse-square", "harmonic"):
        problem = make_multiblock_nonstationary(kind, d=10)
        runs[kind] = problem.exact_run(max_iters=10_000)
        schedules[kind] = problem.schedule
    return stationary, runs, schedules


# ---------------------------------------------------------------------------
# 1. gradient-descent rate reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_gd_rates():
    results = []
    for gamma, obs_want, th_want in ((0.5, 0.60, np.sqrt(0.52)), (1.0, 0.20, 0.60)):
        t0 = time.monotonic()
        p = make_quadratic_gd(0.8, 1.0, 2, gamma)
        observed = p.observed_rate(p.exact_run(max_iters=p.rate_horizon))
        elapsed = time.monotonic() - t0
        results.append((gamma, observed, p.theoretical_rate, elapsed))
    ok = all(
        abs(obs - want_o) <= 0.01 and abs(th - want_t) <= 0.005 and el < 1.0
        for (g, obs, th, el), (want_o, want_t) in zip(
            results, ((0.60, np.sqrt(0.52)), (0.20, 0.60)))
    )
    detail = "; ".join(
        f"gamma={g:g}: observed {obs:.4f}, theoretical {th:.4f} ({el * 1e3:.0f} ms)"
        for g, obs, th, el in results)
    report(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. reflected-resolvent two-subspace rates
# ---------------------------------------------------------------------------

def test_criterion_2_subspace_rates():
    t0 = time.monotonic()
    gaps = []
    for theta in (np.pi / 6, np.pi / 4, np.pi / 3):
        p = make_two_subspaces(theta, 4)
        observed = p.observed_rate(p.exact_run(max_iters=p.rate_horizon))
        gaps.append(abs(observed - np.cos(theta) ** 2))
    ok = max(gaps) <= 1e-6
    p_relaxed = make_two_subspaces(np.pi / 4, 4, lam=0.5)
    observed_r = p_relaxed.observed_rate(
        p_relaxed.exact_run(max_iters=p_relaxed.rate_horizon))
    want_r = 1.0 - 1.5 * 0.5 * np.sin(np.pi / 4) ** 2
    gap_r = abs(observed_r - want_r)
    elapsed = time.monotonic() - t0
    ok = ok and gap_r <= 1e-4 and elapsed < 1.0
    report(2, ok,
           f"unrelaxed max |observed - cos^2| = {max(gaps):.2e}; "
           f"relaxed gap = {gap_r:.2e} ({elapsed * 1e3:.0f} ms)")


# ---------------------------------------------------------------------------
# 3 & 4. pointwise / ergodic bound certification across the suite
# ---------------------------------------------------------------------------

def test_criterion_3_pointwise_certification(cert_bundle):
    worst = []
    for label, data in cert_bundle.items():
        for variant in ("exact", "inexact"):
            trace, constants, _ = data[variant]
            assert trace.n_steps >= HORIZON
            checked = verify_series(trace_series(trace), constants, trace.alpha,
                                    None, SLACK)[0]
            issues = [v for v in checked if v.kind == "pointwise"]
            worst.append((label, variant, len(issues)))
    ok = all(n == 0 for _, _, n in worst)
    report(3, ok, f"pointwise violations across {len(worst)} runs of >= "
                  f"{HORIZON} steps: {sum(n for _, _, n in worst)}")


def test_criterion_4_ergodic_certification(cert_bundle):
    total = 0
    for label, data in cert_bundle.items():
        for variant in ("exact", "inexact"):
            trace, constants, _ = data[variant]
            checked = verify_series(trace_series(trace), constants, trace.alpha,
                                    None, SLACK)[0]
            issues = [v for v in checked if v.kind == "ergodic"]
            total += len(issues)
    ok = total == 0
    report(4, ok, f"ergodic violations across the suite: {total}")


# ---------------------------------------------------------------------------
# 5. per-step inequality suite
# ---------------------------------------------------------------------------

def _step_inequality_slacks(trace, rec, constants, z_star):
    """Worst slacks of the per-step inequalities over a whole run, from its
    recorded vectors."""
    sp = trace.space
    exact = not trace.eps_norm.any()
    scale = 2.0 * (trace.alpha if trace.alpha is not None else 1.0)
    c = 1.0 if trace.alpha is None else 1.0 / trace.alpha
    diff_worst = -np.inf
    mono_worst = -np.inf
    sq_worst = -np.inf
    fejer_worst = -np.inf
    for k in range(trace.n_steps - 1):
        de = rec.e_vecs[k] - rec.e_vecs[k + 1]
        lhs = metric_inner(sp, de, de) / (scale * trace.lam[k])
        rhs = metric_inner(sp, rec.e_vecs[k] - rec.eps_vector(k), de)
        diff_worst = max(diff_worst, lhs - rhs)
        sq = (trace.res_norm[k + 1] ** 2 - trace.res_norm[k] ** 2
              - constants.nu2 * trace.eps_norm[k])
        sq_worst = max(sq_worst, sq)
        if exact:
            mono_worst = max(mono_worst,
                             trace.res_norm[k + 1] - trace.res_norm[k])
    if exact and z_star is not None:
        for k in range(trace.n_steps):
            tau = trace.lam[k] * (c - trace.lam[k])
            lhs = sp.norm(rec.z_vecs[k + 1] - z_star) ** 2
            rhs = sp.norm(rec.z_vecs[k] - z_star) ** 2 \
                - tau * trace.res_norm[k] ** 2
            fejer_worst = max(fejer_worst, lhs - rhs)
    return diff_worst, mono_worst, sq_worst, fejer_worst


def test_criterion_5_step_inequalities(cert_bundle, record):
    worst = {"diff": -np.inf, "mono": -np.inf, "sq": -np.inf, "fejer": -np.inf}
    for label, data in cert_bundle.items():
        problem = data["problem"]
        z_star = data["ref"].nearest(problem.z0)
        for variant, run, law in (("exact", problem.exact_run, ()),
                                  ("inexact", problem.inexact_run, ERROR_LAW)):
            # the bundle's run again, deterministic, with its vectors recorded
            trace, rec = record(run, *law, max_iters=HORIZON)
            constants = data[variant][1]
            d, m, s, f = _step_inequality_slacks(trace, rec, constants, z_star)
            worst["diff"] = max(worst["diff"], d)
            worst["mono"] = max(worst["mono"], m)
            worst["sq"] = max(worst["sq"], s)
            worst["fejer"] = max(worst["fejer"], f)
    ok = (worst["diff"] <= SLACK and worst["sq"] <= SLACK
          and worst["fejer"] <= SLACK and worst["mono"] <= 1e-12)
    report(5, ok,
           f"worst slacks: residual-difference {worst['diff']:.2e}, "
           f"squared-residual {worst['sq']:.2e}, distance-drop "
           f"{worst['fejer']:.2e}, exact monotonicity {worst['mono']:.2e}")


# ---------------------------------------------------------------------------
# 6. local squared-distance recursion with analytic moduli
# ---------------------------------------------------------------------------

def test_criterion_6_local_recursion():
    problems = [
        make_quadratic_gd(0.8, 1.0, 2, 0.5),
        make_quadratic_gd(0.8, 1.0, 2, 1.0),
        make_two_subspaces(np.pi / 6, 4),
        make_two_subspaces(np.pi / 4, 4),
        make_two_subspaces(np.pi / 3, 4),
    ]
    total = 0
    for p in problems:
        trace, constants, _ = p.certified_run(max_iters=HORIZON)
        checked = verify_series(trace_series(trace), constants, trace.alpha,
                                p.kappa, SLACK)[0]
        issues = [v for v in checked if v.kind == "local"]
        total += len(issues)
    report(6, total == 0,
           f"squared-distance recursion violations over {len(problems)} "
           f"analytic-modulus runs: {total}")


# ---------------------------------------------------------------------------
# 7. operator property suite
# ---------------------------------------------------------------------------

def _resolvent_inventory(bundle):
    """Every resolvent/prox the suite constructs, wrapped as operators."""
    out = []
    lasso = bundle["lasso"]["problem"]
    n = lasso.built.spec.dim
    sp = ProductSpace.single(n)
    g = lasso.built.spec.gamma
    blk = lasso.built.spec.blocks[0]
    out.append(("lasso-prox", vector_operator(
        sp, lambda v: blk.resolvent(v, g), 0.5, "prox")))

    drs = bundle["drs"]["problem"]
    spd = ProductSpace.single(4)
    for i, b in enumerate((drs.built.spec.block1, drs.built.spec.block2)):
        out.append((f"drs-proj{i + 1}", vector_operator(
            spd, lambda v, b=b: b.resolvent(v, 1.0), 0.5, "proj")))

    multi = bundle["multiblock"]["problem"]
    spm = ProductSpace.single(multi.built.spec.dim)
    for i, b in enumerate(multi.built.spec.blocks):
        c = multi.built.spec.gamma / multi.built.spec.weights[i]
        out.append((f"multiblock-res{i + 1}", vector_operator(
            spm, lambda v, b=b, c=c: b.resolvent(v, c), 0.5, "res")))
    # the half-averaged product-space backward step is itself firm
    spec0 = multi.built.spec
    backward = GfbSpec(blocks=spec0.blocks, weights=spec0.weights,
                       gamma=spec0.gamma, dim=spec0.dim, smooth=None)
    from kmcert.splitting import build_gfb
    out.append(("multiblock-backward", build_gfb(backward).operator))

    pds = bundle["pds"]["problem"]
    sph = ProductSpace.single(pds.built.spec.dim_primal)
    cblk = pds.built.spec.primal_block
    tau = pds.built.spec.tau
    out.append(("pds-primal-res", vector_operator(
        sph, lambda v: cblk.resolvent(v, tau), 0.5, "res")))
    term = pds.built.spec.duals[0]
    spg = ProductSpace.single(term.L.shape[0])
    out.append(("pds-dual-res", vector_operator(
        spg, lambda v: pds.built._dual_resolvent(term, v), 0.5, "res")))
    return out


def test_criterion_7_operator_properties(cert_bundle):
    firm_fail = []
    for name, op in _resolvent_inventory(cert_bundle):
        rep = check_firmly_nonexpansive(op, samples=1000, radius=10.0, seed=0,
                                        tol=SLACK)
        if not rep.passed:
            firm_fail.append((name, rep.max_violation))

    avg_fail = []
    for label, data in cert_bundle.items():
        op = data["problem"].operator
        if op.alpha is not None:
            rep = check_averaged(op, op.alpha, samples=1000, radius=10.0,
                                 seed=1, tol=SLACK)
            if not rep.passed:
                avg_fail.append((label, rep.max_violation))

    # pairwise-composition certificate on 100 random pairs, with the constant
    # GFB certifies its step with
    rng = np.random.default_rng(7)
    comp_fail = 0
    sp = ProductSpace.single(3)

    def affine(alpha, seed):
        r = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(r.standard_normal((3, 3)))
        R = r.uniform(0.2, 1.0) * Q
        return vector_operator(
            sp, lambda x, R=R, a=alpha: a * (R @ x) + (1 - a) * x, alpha, "aff")

    for i in range(100):
        a1, a2 = rng.uniform(0.05, 0.95, size=2)
        T1, T2 = affine(a1, 1000 + i), affine(a2, 2000 + i)
        T = OperatorSpec(lambda z, T1=T1, T2=T2: T1(T2(z)), composition_alpha(a1, a2),
                         "aff o aff", sp)
        if not check_averaged(T, T.alpha, samples=200, radius=10.0, seed=i,
                              tol=SLACK).passed:
            comp_fail += 1

    ok = not firm_fail and not avg_fail and comp_fail == 0
    report(7, ok,
           f"firm-nonexpansive failures: {firm_fail or 0}; averagedness "
           f"failures: {avg_fail or 0}; composition-certificate failures: "
           f"{comp_fail}/100")


# ---------------------------------------------------------------------------
# 8. termination certificates
# ---------------------------------------------------------------------------

def test_criterion_8_certificates(cert_bundle):
    margins = []
    memberships = []

    for label in ("lasso", "multiblock", "drs"):
        _, _, series = cert_bundle[label]["exact"]
        margins.append((label, float(np.max(series.values - series.bounds))))
        memberships.append((label, series.membership_max))

    _, _, series = cert_bundle["pds"]["exact"]
    margins.append(("pds", float(np.max(series.values - series.bounds))))

    # certificates vanish at fixed points: three certified steps from z*
    vanish = []
    for label in ("lasso", "multiblock", "drs", "pds"):
        problem = cert_bundle[label]["problem"]
        z_star = cert_bundle[label]["ref"].nearest(problem.z0)
        _, _, s0 = replace(problem, z0=z_star).certified_run(max_iters=3)
        vanish.append((label, float(np.max(s0.values))))

    ok = (all(m <= SLACK for _, m in margins)
          and all(m is None or m <= 1e-8 for _, m in memberships)
          and all(v <= 1e-10 for _, v in vanish))
    report(8, ok,
           f"worst criterion-bound margin {max(m for _, m in margins):.2e}; "
           f"membership residual <= "
           f"{max((m for _, m in memberships if m is not None), default=0.0):.2e}; "
           f"worst fixed-point certificate {max(v for _, v in vanish):.2e}")


# ---------------------------------------------------------------------------
# 9. reductions
# ---------------------------------------------------------------------------

def test_criterion_9_reductions(cert_bundle, record):
    # single-block product scheme vs hand-assembled forward-backward
    lasso = cert_bundle["lasso"]["problem"]
    A, y, mu = (lasso.constants["A"], lasso.constants["y"], lasso.constants["mu"])
    Q, q = A.T @ A, A.T @ y
    gamma = lasso.constants["beta"]
    sp = ProductSpace.single(A.shape[1])
    hand = OperatorSpec(lambda x: prox_l1(x - gamma * (Q @ x - q), gamma * mu),
                        None, "fbs-hand", sp)
    _, r_g = record(lasso.exact_run, max_iters=250)
    _, r_f = record(run_km, hand, sp.vector(np.zeros(A.shape[1])),
                    RelaxationSchedule.constant(1.0), stop=StopRule(250, 0.0))
    fbs_gap = max(np.max(np.abs(a - b)) for a, b in zip(r_g.z_vecs, r_f.z_vecs))

    # two-block scheme without smooth part vs hand product-space reflections
    rng = np.random.default_rng(5)
    d = 8
    R = rng.standard_normal((d, d))
    blocks = [L1Block(0.2), LinearBlock(0.5 * np.eye(d) + 0.5 * (R - R.T),
                                        0.3 * rng.standard_normal(d))]
    w = np.array([0.4, 0.6])
    from kmcert.splitting import build_gfb
    built = build_gfb(GfbSpec(blocks=blocks, weights=w, gamma=0.7, dim=d,
                              smooth=None))
    sp2 = built.space

    def hand2(z):
        rs = sp2.blocks(reflect_diagonal(sp2, z))
        ju = tuple(b.resolvent(x, 0.7 / wi) for b, x, wi in zip(blocks, rs, w))
        ra = sp2.point(tuple(2.0 * u - x for u, x in zip(ju, rs)))
        return (ra + z) * 0.5

    T2 = OperatorSpec(hand2, 0.5, "hand", sp2)
    z0 = sp2.point(tuple(rng.standard_normal(d) for _ in range(2)))
    _, ra = record(run_km, built.operator, z0, RelaxationSchedule.constant(1.0),
                   stop=StopRule(200, 0.0))
    _, rb = record(run_km, T2, z0, RelaxationSchedule.constant(1.0),
                   stop=StopRule(200, 0.0))
    drs_gap = max(np.max(np.abs(a - b)) for a, b in zip(ra.z_vecs, rb.z_vecs))

    # primal-dual reduction against the composite forward-backward reference
    pds = cert_bundle["pds"]["problem"]
    xref = pds_fbs_reference(pds)
    t_p = pds.exact_run(max_iters=20_000, tol=1e-12)
    pds_gap = float(np.linalg.norm(pds.operator.space.blocks(t_p.z_final)[0] - xref))

    ok = fbs_gap <= 1e-12 and drs_gap <= 1e-12 and pds_gap <= 1e-6
    report(9, ok,
           f"single-block vs forward-backward {fbs_gap:.2e}; two-block vs "
           f"product reflections {drs_gap:.2e}; primal-dual vs composite "
           f"reference {pds_gap:.2e}")


# ---------------------------------------------------------------------------
# 10. non-stationary comparison
# ---------------------------------------------------------------------------

def test_criterion_10_nonstationary(ns_bundle):
    stationary, runs, schedules = ns_bundle
    w = stationary.built.spec.weights

    def consensus(z):
        return sum(wi * b for wi, b in zip(w, stationary.built.space.blocks(z)))

    gap = float(np.linalg.norm(consensus(runs["geometric"].z_final)
                               - consensus(runs["stationary"].z_final)))
    flagged = not schedules["harmonic"].abs_summable \
        and "not summable" in schedules["harmonic"].summability_note
    ordering = (runs["harmonic"].final_residual
                >= runs["geometric"].final_residual)
    ok = gap <= 1e-6 and flagged and ordering
    report(10, ok,
           f"consensus gap geometric vs stationary {gap:.2e}; harmonic "
           f"flagged: {flagged}; residual ordering harmonic "
           f"({runs['harmonic'].final_residual:.2e}) >= geometric "
           f"({runs['geometric'].final_residual:.2e}): {ordering}")


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    checks = []
    for label, argv_extra in (
        ("gd-fig1", ["--preset", "gd-fig1"]),
        ("pds-small", ["--preset", "pds-small", "--max-iters", "300"]),
    ):
        a, b = tmp_path / f"{label}-a", tmp_path / f"{label}-b"
        for out in (a, b):
            rc = cli_main(["run", *argv_extra, "--out", str(out), "--seed", "4"])
            assert rc == 0
        checks.append(filecmp.cmp(a / f"{label}.csv", b / f"{label}.csv",
                                  shallow=False))
    cfg = tmp_path / "inexact.txt"
    cfg.write_text("problem = zero-map\ndim = 4\nlam = 0.5\nerror_c = 0.1\n"
                   "error_p = 3.0\nmax_iters = 500\nname = zi\n")
    a, b = tmp_path / "zi-a", tmp_path / "zi-b"
    for out in (a, b):
        rc = cli_main(["run", "--config", str(cfg), "--out", str(out),
                       "--seed", "9"])
        assert rc == 0
    checks.append(filecmp.cmp(a / "zi.csv", b / "zi.csv", shallow=False))
    ok = all(checks)
    report(11, ok, f"byte-identical traces across reruns: {checks}")
