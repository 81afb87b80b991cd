"""The constants and certificates streamed through the engine's step hook
equal the two-pass formulas over the recorded vectors of the same run.

Each formula below is the retained-vector computation written out, one step
at a time: a first pass runs and keeps every vector, a second pass walks
the lists.  The comparison is exact (``==``), on all six suite problems,
exact and inexact.  The engine hands the hooks ``CHUNK`` steps at a time,
so the runs also end on either side of a chunk boundary and early, by the
residual tolerance, and every hand-over is checked against the contract of
``run_km``'s ``observe``.
"""

from dataclasses import dataclass, fields

import numpy as np
import pytest

from kmcert import problems as problems_module
from kmcert.bounds import BoundConstants, EmpiricalConstants, pointwise_bound
from kmcert.km import CHUNK, Channel, ErrorSchedule
from kmcert.problems import (
    ProblemInstance,
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
# subnormal magnitudes from k = 10 and 0 from k = 11 on: zero stage errors
REACHES_0 = (0.1, 300.0)

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
            pointwise_bound(np.arange(trace.n_steps), constants) / built.gamma,
            max(members) if members else None)


def two_pass_drs(built, trace, rec, constants):
    vals = np.empty(trace.n_steps)
    bnds = np.empty(trace.n_steps)
    members = []
    for k in range(trace.n_steps):
        zv, znv = rec.z_vecs[k], rec.z_vecs[k + 1]
        # the stage errors: eps1, then eps2, in the step's error-stream row
        row = rec.errors[k]
        e1, e2 = (None, None) if row is None else (row[:built.dim], row[built.dim:])
        # shadow point x = j2(z) + e2; u = j1 at the channel's perturbed
        # reflection (2 j2(z) - z) + 2 e2; v = j2(z_{k+1}); a zero e2
        # perturbs nothing
        x = built.j2(zv)
        w = 2.0 * x - zv
        if e2 is not None and e2.any():
            x = x + e2
            w = w + 2.0 * e2
        u = built.j1(w)
        v = built.j2(znv)
        g = ((2.0 * x - zv - u) + (znv - v)) / built.gamma
        lam = float(trace.lam[k])
        ck = (1.0 / built.gamma) * (
            (2.0 + lam) * (np.linalg.norm(e2) if e2 is not None else 0.0)
            + (np.linalg.norm(e1) if e1 is not None else 0.0))
        vals[k] = float(np.linalg.norm(g))
        bnds[k] = (1.0 + lam) / built.gamma * pointwise_bound(k, constants) + ck
        members += [r for r in (
            member_residual(built.block1, u, (2.0 * x - zv - u) / built.gamma),
            member_residual(built.block2, v, (znv - v) / built.gamma),
        ) if r is not None]
    return vals, bnds, max(members) if members else None


def two_pass_pds(built, trace, rec, z_star):
    space = built.space
    eps_norm = np.array([space.base_norm(rec.eps_vecs[k]) for k in range(trace.n_steps)])
    base = two_pass_constants(trace, rec, z_star, space.base_norm, eps_norm)
    vals = np.array([space.base_norm(e) for e in rec.e_vecs[: trace.n_steps]])
    bnds = 2.0 * built.delta / built.eta * pointwise_bound(np.arange(trace.n_steps), base)
    return vals, bnds, None


@pytest.fixture(scope="module")
def problems():
    return {label: make() for label, make in MAKERS.items()}


@pytest.mark.parametrize("law", [(), ERROR_LAW, REACHES_0],
                         ids=["exact", "inexact", "reaches-0"])
@pytest.mark.parametrize("label", list(MAKERS))
def test_streamed_equals_two_pass(problems, record, label, law):
    problem = problems[label]
    trace, constants, cert = problem.certified_run(*law, max_iters=STEPS)

    # the same run again, with its vectors recorded and the base-norm
    # constants streamed
    space = problem.operator.space
    z_star = problem.fix_reference().nearest(problem.z0)
    base = EmpiricalConstants(z_star, space, base_norm=True)
    again, rec = record(problem.run, *law, max_iters=STEPS, also=[base.observe])
    for name in ("lam", "eps_norm", "res_norm", "erg_norm", "disp_norm", "dist"):
        a, b = getattr(trace, name), getattr(again, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    assert len(rec.z_vecs) == STEPS + 1

    assert constants == two_pass_constants(trace, rec, z_star, space.norm, trace.eps_norm)
    base_eps = np.array([space.base_norm(rec.eps_vecs[k]) for k in range(STEPS)])
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


class SpikedChannel(Channel):
    """The bare channel with an error of norm 1000 added at the last step
    of the first chunk."""

    def evaluate(self, k, z, errors):
        exact, tilde, eps = super().evaluate(k, z, errors)
        if k != CHUNK - 1:
            return exact, tilde, eps
        spike = np.full(z.shape, 1000.0 / np.sqrt(z.size))
        eps = spike if eps is None else eps + spike
        return exact, exact + eps, eps


@dataclass(frozen=True)
class SpikedProblem(ProblemInstance):
    def make_channel(self, c, p):
        return SpikedChannel(self.operator, ErrorSchedule.power(c, p))


def zero_map_spiked():
    """The zero map whose error spikes at the last step of the first chunk:
    the largest residual jump ``||e_k - e_{k+1}||`` is the one across the
    chunk boundary."""
    p = make_zero_map(4)
    return SpikedProblem(**{f.name: getattr(p, f.name) for f in fields(p) if f.init})


HORIZONS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


@pytest.fixture
def handed_over(monkeypatch):
    """The list of :class:`~kmcert.km.Steps` records that the engine hands
    to the hooks of ``certified_run``, in order."""
    calls = []
    run_km = problems_module.run_km

    def spy(*args, observe=None, **kwargs):
        def hook(steps):
            calls.append(steps)
            observe(steps)
        return run_km(*args, observe=None if observe is None else hook, **kwargs)

    monkeypatch.setattr(problems_module, "run_km", spy)
    return calls


def assert_chunk_contract(calls, trace, rec):
    """Full chunks and then the rest, each with one iterate more than it has
    steps; consecutive records share their boundary iterate, and together
    they hold every step of the run exactly once."""
    sizes = [len(steps.lam) for steps in calls]
    assert sizes and all(1 <= c <= CHUNK for c in sizes)
    assert all(c == CHUNK for c in sizes[:-1])
    for steps, c in zip(calls, sizes):
        assert steps.z.shape[0] == c + 1 and steps.e.shape[0] == c
        assert steps.eps.shape == steps.e.shape
        assert steps.errors is None or len(steps.errors) == c
    for a, b in zip(calls, calls[1:]):
        assert np.array_equal(a.z[-1], b.z[0])
    assert sum(sizes) == trace.n_steps
    z = np.concatenate([calls[0].z[:1], *(steps.z[1:] for steps in calls)])
    assert np.array_equal(z, np.stack(rec.z_vecs[: trace.n_steps + 1]))
    assert np.array_equal(np.concatenate([steps.lam for steps in calls]), trace.lam)


@pytest.mark.parametrize("law", [(), ERROR_LAW], ids=["exact", "inexact"])
@pytest.mark.parametrize("label", [*MAKERS, "zero-map-spiked"])
def test_chunk_boundaries_equal_the_per_step_oracles(problems, record, handed_over,
                                                    label, law):
    # every run is a prefix of one recorded run of the longest horizon
    problem = problems[label] if label in problems else zero_map_spiked()
    space = problem.operator.space
    z_star = problem.fix_reference().nearest(problem.z0)
    full, rec = record(problem.run, *law, max_iters=HORIZONS[-1])
    early = float(full.res_norm[CHUNK + 40])
    assert early > 0.0
    if label == "zero-map-spiked":
        jumps = [space.norm(a - b) for a, b in zip(rec.e_vecs, rec.e_vecs[1:])]
        assert int(np.argmax(jumps)) == CHUNK - 1

    for horizon, tol in [(h, 0.0) for h in HORIZONS] + [(HORIZONS[-1], early)]:
        handed_over.clear()
        trace, constants, cert = problem.certified_run(*law, max_iters=horizon, tol=tol)
        assert_chunk_contract(handed_over, trace, rec)
        n = trace.n_steps
        assert n == horizon if tol == 0.0 else (trace.stop_reason == "residual_tol"
                                                and n <= CHUNK + 41)
        for name in ("lam", "eps_norm", "res_norm", "erg_norm", "disp_norm"):
            assert np.array_equal(getattr(trace, name), getattr(full, name)[:n])
        assert constants == two_pass_constants(trace, rec, z_star, space.norm,
                                               trace.eps_norm)
        assert_certificate(problem, trace, rec, constants, z_star, cert)
