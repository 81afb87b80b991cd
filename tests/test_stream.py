"""The constants and certificates streamed through the engine's step hook
equal the two-pass formulas over the recorded vectors of the same run.

Each formula below is the retained-vector computation written out, one step
at a time: a first pass runs and keeps every vector, a second pass walks
the lists.  The comparison is exact (``==``), on all six suite problems,
exact and inexact.  The hooks reduce ``CHUNK`` steps at a time, so the runs
also end on either side of a chunk boundary and early, by the residual
tolerance.
"""

import numpy as np
import pytest

from kmcert.bounds import CHUNK, BoundConstants, EmpiricalConstants, pointwise_bound
from kmcert.km import RelaxationSchedule
from kmcert.problems import (
    make_gfb_multiblock,
    make_lasso,
    make_pds_small,
    make_quadratic_gd,
    make_two_subspaces,
    make_zero_map,
)
from oracles import gfb_certificate, member_residual

STEPS = 200
ERROR_LAW = (0.1, 3.0)

MAKERS = {
    "zero-map": lambda: make_zero_map(4),
    "gd": lambda: make_quadratic_gd(0.8, 1.0, 2, 0.5),
    "drs": lambda: make_two_subspaces(np.pi / 4, 4),
    "lasso": lambda: make_lasso(40, 60, seed=1),
    "multiblock": lambda: make_gfb_multiblock(3, 20, seed=2),
    "pds": lambda: make_pds_small(seed=3),
}


def two_pass_constants(trace, rec, z_star, norm, eps_norm):
    d0 = norm(rec.z_vecs[0] - z_star)
    c = 1.0 if trace.alpha is None else 1.0 / trace.alpha
    tau = trace.lam * (c - trace.lam)
    sup_relaxed = 0.0
    for k in range(trace.n_steps):
        relaxed = rec.z_vecs[k] - rec.e_vecs[k] * trace.lam[k]
        sup_relaxed = max(sup_relaxed, norm(relaxed - z_star))
    lam_eps = trace.lam * eps_norm
    nu1 = 2.0 * sup_relaxed + float(lam_eps.max())
    nu2 = 0.0
    for k in range(trace.n_steps - 1):
        nu2 = max(nu2, norm(rec.e_vecs[k] - rec.e_vecs[k + 1]))
    nu2 *= 2.0
    S1 = float(lam_eps.sum())
    S2 = float((np.arange(1, trace.n_steps + 1, dtype=float) * eps_norm).sum())
    return BoundConstants(d0, float(tau.min()), float(tau.max()), nu1, nu2,
                          nu1 * S1 + nu2 * float(tau.max()) * S2, S1)


def two_pass_gfb(built, trace, rec, constants):
    steps = [gfb_certificate(built, built.evaluate(rec.z_vecs[k])[1])
             for k in range(trace.n_steps)]
    members = [s.membership for s in steps if s.membership is not None]
    return (np.array([s.criterion for s in steps]),
            pointwise_bound(np.arange(trace.n_steps), constants) / built.spec.gamma,
            max(members) if members else None)


def two_pass_drs(built, trace, rec, constants):
    spec = built.spec
    vals = np.empty(trace.n_steps)
    bnds = np.empty(trace.n_steps)
    members = []
    for k in range(trace.n_steps):
        zv, znv = rec.z_vecs[k], rec.z_vecs[k + 1]
        ch = rec.channel[k] or {}
        e1, e2 = ch.get("eps1"), ch.get("eps2")
        # shadow point x = j2(z) + e2; u = j1 at the channel's perturbed
        # reflection (2 j2(z) - z) + 2 e2; v = j2(z_{k+1})
        x = built.j2(zv)
        w = 2.0 * x - zv
        if e2 is not None:
            x = x + e2
            w = w + 2.0 * e2
        u = built.j1(w)
        v = built.j2(znv)
        g = ((2.0 * x - zv - u) + (znv - v)) / spec.gamma
        lam = float(trace.lam[k])
        ck = (1.0 / spec.gamma) * (
            (2.0 + lam) * (np.linalg.norm(e2) if e2 is not None else 0.0)
            + (np.linalg.norm(e1) if e1 is not None else 0.0))
        vals[k] = float(np.linalg.norm(g))
        bnds[k] = (1.0 + lam) / spec.gamma * pointwise_bound(k, constants) + ck
        members += [r for r in (
            member_residual(spec.block1, u, (2.0 * x - zv - u) / spec.gamma),
            member_residual(spec.block2, v, (znv - v) / spec.gamma),
        ) if r is not None]
    return vals, bnds, max(members) if members else None


def two_pass_pds(built, trace, rec, z_star):
    space = built.space
    eps_norm = np.array([space.base_norm(rec.eps_vector(k)) for k in range(trace.n_steps)])
    base = two_pass_constants(trace, rec, z_star, space.base_norm, eps_norm)
    vals = np.array([space.base_norm(e) for e in rec.e_vecs[: trace.n_steps]])
    bnds = 2.0 * built.delta / built.eta * pointwise_bound(np.arange(trace.n_steps), base)
    return vals, bnds, None


@pytest.fixture(scope="module")
def problems():
    return {label: make() for label, make in MAKERS.items()}


@pytest.mark.parametrize("law", [(), ERROR_LAW], ids=["exact", "inexact"])
@pytest.mark.parametrize("label", list(MAKERS))
def test_streamed_equals_two_pass(problems, record, label, law):
    problem = problems[label]
    trace, constants, cert = problem.certified_run(*law, max_iters=STEPS)

    # the same run again, with its vectors recorded and the base-norm
    # constants streamed
    space = problem.operator.space
    z_star = problem.fix_reference().nearest(problem.z0)
    base = EmpiricalConstants(z_star, space, base_norm=True)
    run = problem.inexact_run if law else problem.exact_run
    again, rec = record(run, *law, max_iters=STEPS, also=[base.observe])
    for name in ("lam", "eps_norm", "res_norm", "erg_norm", "disp_norm", "dist"):
        a, b = getattr(trace, name), getattr(again, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    assert len(rec.z_vecs) == STEPS + 1

    assert constants == two_pass_constants(trace, rec, z_star, space.norm, trace.eps_norm)
    base_eps = np.array([space.base_norm(rec.eps_vector(k)) for k in range(STEPS)])
    assert base.constants(trace) == two_pass_constants(trace, rec, z_star,
                                                       space.base_norm, base_eps)

    assert_certificate(problem, trace, rec, constants, z_star, cert)


def assert_certificate(problem, trace, rec, constants, z_star, cert):
    """The streamed certificate series equals the two-pass one over the
    first ``trace.n_steps`` recorded steps."""
    if problem.kind == "km":
        assert cert is None
        return
    if problem.kind == "gfb":
        want = two_pass_gfb(problem.built, trace, rec, constants)
    elif problem.kind == "drs":
        want = two_pass_drs(problem.built, trace, rec, constants)
    else:
        want = two_pass_pds(problem.built, trace, rec, z_star)
        assert cert.surrogate
    assert np.array_equal(cert.values, want[0])
    assert np.array_equal(cert.bounds, want[1])
    assert cert.membership_max == want[2]


def zero_map_spiked():
    """The zero map relaxed by 0.01 except at the last step of the first
    chunk, 0.9: the largest residual jump ``||e_k - e_{k+1}||`` is the one
    across the chunk boundary."""
    p = make_zero_map(4)
    p.relaxation = RelaxationSchedule.from_function(
        lambda k: 0.9 if k == CHUNK - 1 else 0.01, 0.01, 0.9)
    return p


HORIZONS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


@pytest.mark.parametrize("law", [(), ERROR_LAW], ids=["exact", "inexact"])
@pytest.mark.parametrize("label", [*MAKERS, "zero-map-spiked"])
def test_chunk_boundaries_equal_the_per_step_oracles(problems, record, label, law):
    # every run is a prefix of one recorded run of the longest horizon
    problem = problems[label] if label in problems else zero_map_spiked()
    space = problem.operator.space
    z_star = problem.fix_reference().nearest(problem.z0)
    run = problem.inexact_run if law else problem.exact_run
    full, rec = record(run, *law, max_iters=HORIZONS[-1])
    early = float(full.res_norm[CHUNK + 40])
    assert early > 0.0

    for horizon, tol in [(h, 0.0) for h in HORIZONS] + [(HORIZONS[-1], early)]:
        trace, constants, cert = problem.certified_run(*law, max_iters=horizon, tol=tol)
        n = trace.n_steps
        assert n == horizon if tol == 0.0 else (trace.stop_reason == "residual_tol"
                                                and n <= CHUNK + 41)
        for name in ("lam", "eps_norm", "res_norm", "erg_norm", "disp_norm"):
            assert np.array_equal(getattr(trace, name), getattr(full, name)[:n])
        assert constants == two_pass_constants(trace, rec, z_star, space.norm,
                                               trace.eps_norm)
        assert_certificate(problem, trace, rec, constants, z_star, cert)
