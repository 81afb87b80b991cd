import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from kmcert.bounds import EmpiricalConstants, pointwise_bound
from kmcert.errors import ParameterError
from kmcert.km import RelaxationSchedule, StopRule, run_km
from kmcert.operators import OperatorSpec, prox_l1
from kmcert.problems import (
    make_gfb_multiblock,
    make_lasso,
    make_multiblock_nonstationary,
    make_pds_small,
    make_two_subspaces,
)
from kmcert.spaces import ProductSpace
from kmcert.splitting import (
    BoxBlock,
    CocoerciveMap,
    DrsCertificates,
    DrsSpec,
    GfbBuilt,
    GfbSpec,
    L1Block,
    LinearBlock,
    MonotoneBlock,
    PdsBuilt,
    PdsDualTerm,
    PdsSpec,
    SubspaceBlock,
    ZeroBlock,
    _lu_factor,
    _lu_solve,
)
from oracles import (
    check_averaged,
    check_firmly_nonexpansive,
    gfb_certificate,
    member_residual,
    pds_abstract_step,
    pds_fbs_reference,
    pds_metric_blocks,
    reflect_diagonal,
)


# ---------------------------------------------------------------------------
# monotone blocks
# ---------------------------------------------------------------------------

def stack(*rows):
    """A ``(C, d)`` stack of the given vectors, as ``member_residual`` takes."""
    return np.array(rows, dtype=float)


class TestBlocks:
    def test_l1_membership(self):
        blk = L1Block(0.5)
        u = stack([1.0, 0.0, -2.0])
        g = stack([0.5, 0.2, -0.5])
        assert blk.member_residual(u, g) <= 1e-15
        g_bad = stack([0.4, 0.2, -0.5])
        assert blk.member_residual(u, g_bad) == pytest.approx(0.1)

    def test_box_membership(self):
        blk = BoxBlock(-1.0, 1.0)
        u = stack([0.2, 1.0, -1.0])
        g = stack([0.0, 3.0, -0.7])
        assert blk.member_residual(u, g) <= 1e-15
        g_bad = stack([0.1, 3.0, -0.7])
        assert blk.member_residual(u, g_bad) == pytest.approx(0.1)

    def test_subspace_membership(self):
        e1 = np.array([1.0, 0.0])
        blk = SubspaceBlock(e1)
        assert blk.member_residual(stack([2.0, 0.0]), stack([0.0, 3.0])) <= 1e-15
        assert blk.member_residual(stack([2.0, 1.0]), stack([0.0, 3.0])) == pytest.approx(1.0)

    def test_linear_block_resolvent_and_membership(self):
        M = np.array([[2.0, 0.0], [0.0, 4.0]])
        blk = LinearBlock(M, np.array([1.0, 0.0]))
        out = blk.resolvent(np.array([3.0, 5.0]), 1.0)
        assert out == pytest.approx([(3.0 + 1.0) / 3.0, 1.0])
        g = M @ out - np.array([1.0, 0.0])
        assert blk.member_residual(stack(out), stack(g)) <= 1e-14

    def test_stack_residual_is_the_largest_row_residual(self):
        # the stack kernels against the one-pair forms, bit for bit, on
        # stacks that hit every branch (zeros, both box faces, interiors)
        rng = np.random.default_rng(0)
        d = 6
        R = rng.standard_normal((d, d))
        basis, _ = np.linalg.qr(rng.standard_normal((d, 2)))
        for blk, settle in (
            (L1Block(0.3), lambda v: prox_l1(v, 0.3)),
            (BoxBlock(-0.5, 0.5), lambda v: np.clip(v, -0.5, 0.5)),
            (SubspaceBlock(basis), lambda v: v),
            (LinearBlock(0.5 * np.eye(d) + 0.5 * (R - R.T), rng.standard_normal(d)),
             lambda v: v),
            (ZeroBlock(), lambda v: v),
        ):
            for rows in (1, 7, 64):
                u = settle(rng.standard_normal((rows, d)))
                g = rng.standard_normal((rows, d)) * 10.0 ** rng.uniform(-8, 2, (rows, 1))
                want = max(member_residual(blk, a, b) for a, b in zip(u, g))
                assert blk.member_residual(u, g) == want, blk.kind

    def test_linear_block_monotonicity_checked(self):
        with pytest.raises(ParameterError):
            LinearBlock(-np.eye(2))

    def test_zero_block(self):
        blk = ZeroBlock()
        v = np.array([1.0, -2.0])
        assert blk.resolvent(v, 3.0) == pytest.approx(v)
        assert blk.member_residual(stack(v), stack([0.0, 0.0])) == 0.0

    @pytest.mark.parametrize("d", [4, 10, 20])
    def test_lapack_lu_is_bit_identical_to_scipy_wrappers(self, d):
        # the trace contract rests on this: a scipy whose lu_factor/lu_solve
        # stop being plain getrf/getrs calls must fail here, not in a digest
        rng = np.random.default_rng(d)
        for c in (0.5, 1.0, 1.9):
            R = rng.standard_normal((d, d))
            M = 0.5 * np.eye(d) + 0.5 * (R - R.T) + 0.1 * (R @ R.T)
            A = np.eye(d) + c * M
            lu, piv = _lu_factor(A)
            lu_ref, piv_ref = sla.lu_factor(A)
            assert np.array_equal(lu, lu_ref) and np.array_equal(piv, piv_ref)
            b = rng.standard_normal(d)
            assert np.array_equal(_lu_solve((lu, piv), b), sla.lu_solve((lu_ref, piv_ref), b))
            blk = LinearBlock(M, rng.standard_normal(d))
            assert np.array_equal(blk.resolvent(b, c),
                                  sla.lu_solve(sla.lu_factor(A), b + c * blk.c0))


class Counting(MonotoneBlock):
    """A block that counts its resolvent evaluations."""

    def __init__(self, inner: MonotoneBlock):
        self.inner, self.kind, self.calls = inner, inner.kind, 0

    def resolvent(self, v, c):
        self.calls += 1
        return self.inner.resolvent(v, c)

    def member_residual(self, u, g):
        return self.inner.member_residual(u, g)


@pytest.mark.usefixtures("fresh_references")
class TestEvaluationCounts:
    """A certified step evaluates its operator once: the certificates read
    the step's internals instead of evaluating resolvents again."""

    @pytest.mark.parametrize("law, per_step", [((), 1), ((0.1, 3.0), 2)],
                             ids=["exact", "inexact"])
    def test_gfb_step_calls_each_resolvent_once_per_evaluation(self, law, per_step):
        p = make_gfb_multiblock(3, 8, seed=2)
        p.fix_reference()          # the reference solve is not counted
        spec = p.built.spec
        spec.blocks = [Counting(b) for b in spec.blocks]
        tr, _, series = p.certified_run(*law, max_iters=40)
        assert tr.n_steps == 40 and series.values.size == 40
        # an inexact step evaluates the perturbed resolvents once more
        assert [b.calls for b in spec.blocks] == [per_step * 40] * 3

    @pytest.mark.parametrize("tol", [0.0, 1e-6], ids=["horizon", "residual_tol"])
    def test_drs_run_makes_k_first_and_k_plus_one_second_resolvents(self, tol):
        p = make_two_subspaces(np.pi / 4, 4)
        spec = p.built.spec
        spec.block1, spec.block2 = Counting(spec.block1), Counting(spec.block2)
        tr, _, series = p.certified_run(max_iters=200, tol=tol)
        K = tr.n_steps
        assert (K == 200) == (tol == 0.0)
        assert tr.stop_reason == ("max_iters" if tol == 0.0 else "residual_tol")
        # v_k = j2(z_{k+1}) is the next step's shadow point; only the last
        # step's is evaluated by the certificate itself
        assert (spec.block1.calls, spec.block2.calls) == (K, K + 1)
        assert series.values.size == K


# ---------------------------------------------------------------------------
# product-space forward-backward
# ---------------------------------------------------------------------------

class TestGfbBuild:
    def test_averagedness_constant(self):
        p = make_lasso(20, 30, seed=0)
        beta = p.constants["beta"]
        gamma = p.built.spec.gamma
        assert p.built.alpha == pytest.approx(2.0 * beta / (4.0 * beta - gamma))

    def test_step_size_validated(self):
        with pytest.raises(ParameterError):
            GfbSpec(blocks=[L1Block(1.0)], weights=np.array([1.0]), gamma=3.0,
                    dim=2, smooth=CocoerciveMap.envelope_l1(1.0))

    def test_weight_sum_validated(self):
        with pytest.raises(ParameterError):
            GfbSpec(blocks=[L1Block(1.0), ZeroBlock()],
                    weights=np.array([0.5, 0.6]), gamma=0.5, dim=2)

    def test_single_block_equals_forward_backward(self, record):
        # independent assembly: prox after an explicit gradient step
        p = make_lasso(40, 60, seed=1)
        A, y, mu = p.constants["A"], p.constants["y"], p.constants["mu"]
        Q, q = A.T @ A, A.T @ y
        gamma = p.constants["beta"]
        sp = ProductSpace.single(60)

        def fbs(x):
            return prox_l1(x - gamma * (Q @ x - q), gamma * mu)

        hand = OperatorSpec(fbs, None, "fbs-hand", sp)
        _, rec_g = record(p.exact_run, max_iters=300)
        _, rec_f = record(run_km, hand, sp.vector(np.zeros(60)),
                          RelaxationSchedule.constant(1.0), stop=StopRule(300, 0.0))
        worst = max(np.max(np.abs(a - b)) for a, b in zip(rec_g.z_vecs, rec_f.z_vecs))
        assert worst <= 1e-12

    def test_no_smooth_part_equals_product_reflection_scheme(self, record):
        rng = np.random.default_rng(5)
        d = 8
        R = rng.standard_normal((d, d))
        blocks = [L1Block(0.2), LinearBlock(0.5 * np.eye(d) + 0.5 * (R - R.T),
                                            0.3 * rng.standard_normal(d))]
        w = np.array([0.4, 0.6])
        spec = GfbSpec(blocks=blocks, weights=w, gamma=0.7, dim=d, smooth=None)
        built = GfbBuilt(spec)
        assert built.alpha == 0.5
        sp = built.space

        def hand(z):
            rs = sp.blocks(reflect_diagonal(sp, z))
            ju = tuple(b.resolvent(x, 0.7 / wi) for b, x, wi in zip(blocks, rs, w))
            ra = sp.point(tuple(2.0 * u - x for u, x in zip(ju, rs)))
            return (ra + z) * 0.5

        T = OperatorSpec(hand, 0.5, "hand", sp)
        z0 = sp.point(tuple(rng.standard_normal(d) for _ in range(2)))
        _, r1 = record(run_km, built.operator, z0, RelaxationSchedule.constant(1.0),
                       stop=StopRule(200, 0.0))
        _, r2 = record(run_km, T, z0, RelaxationSchedule.constant(1.0),
                       stop=StopRule(200, 0.0))
        worst = max(np.max(np.abs(a - b)) for a, b in zip(r1.z_vecs, r2.z_vecs))
        assert worst <= 1e-12

    def test_operator_passes_averagedness_sampling(self):
        p = make_gfb_multiblock(3, 8, seed=2)
        rep = check_averaged(p.operator, p.operator.alpha, samples=300, seed=0)
        assert rep.passed

    def test_channel_error_bounded_by_channels(self, record):
        p = make_gfb_multiblock(3, 8, seed=2)
        tr, rec = record(p.inexact_run, c=0.2, p=2.0, max_iters=50)
        for k in range(tr.n_steps):
            ch = rec.channel[k]
            b = ch["b"]
            pre = np.linalg.norm(b) if b is not None else 0.0
            post = np.sqrt(sum(
                w * (np.linalg.norm(a) ** 2 if a is not None else 0.0)
                for w, a in zip(p.built.spec.weights, ch["a"])))
            assert tr.eps_norm[k] <= pre + post + 1e-12


@pytest.fixture(scope="module")
def lasso_run(record):
    """The certified lasso run, with the pointwise certificate series and,
    from a second identical run, the iterates."""
    p = make_lasso(40, 60, seed=1)
    tr, bc, series = p.certified_run(max_iters=400)
    _, rec = record(p.exact_run, max_iters=400)
    return p, tr, bc, series, rec


class TestGfbCertificates:

    def test_subgradient_box_and_signs(self, lasso_run):
        p, _, _, _, rec = lasso_run
        mu = p.constants["mu"]
        step = gfb_certificate(p.built, p.built.evaluate(rec.z_vecs[5])[1])
        # certificate element must be a valid scaled-l1 subgradient at the
        # resolvent output the run's own step 5 computed
        u = rec.parts[5][3]
        g = step.g
        assert np.all(np.abs(g) <= mu + 1e-10)
        on = u[0] != 0.0
        if on.any():
            assert np.max(np.abs(g[on] - mu * np.sign(u[0][on]))) <= 1e-10
        assert step.membership <= 1e-10

    def test_vanishes_at_fixed_point(self, lasso_run):
        p, tr = lasso_run[:2]
        zstar = p.fix_reference().nearest(tr.z0)
        step = gfb_certificate(p.built, p.built.evaluate(zstar)[1])
        assert step.criterion <= 1e-10

    def test_pointwise_domination(self, lasso_run):
        p, tr, bc, series = lasso_run[:4]
        assert np.all(series.values <= series.bounds + 1e-10)
        assert series.bounds[0] == pytest.approx(
            pointwise_bound(0, bc) / p.built.spec.gamma)

    def test_multiblock_membership_exact(self):
        p = make_gfb_multiblock(3, 12, seed=2)
        tr, bc, series = p.certified_run(max_iters=400)
        assert series.membership_max <= 1e-8
        assert np.all(series.values <= series.bounds + 1e-10)

    def test_consensus_solves_inclusion(self):
        # at the converged point the certificate criterion is the inclusion
        # residual of the summed operators at the consensus
        p = make_gfb_multiblock(3, 12, seed=2)
        zstar = p.fix_reference().nearest(p.z0)
        step = gfb_certificate(p.built, p.built.evaluate(zstar)[1])
        assert step.criterion <= 1e-8

    def test_all_zero_blocks_converge_to_lifted_origin(self):
        d = 6
        blocks = [ZeroBlock(), ZeroBlock()]
        spec = GfbSpec(blocks=blocks, weights=np.array([0.5, 0.5]), gamma=1.0,
                       dim=d, smooth=CocoerciveMap.envelope_l1(0.5))
        built = GfbBuilt(spec)
        rng = np.random.default_rng(0)
        z0 = built.space.point(tuple(0.3 * rng.standard_normal(d) for _ in range(2)))
        tr = run_km(built.operator, z0, RelaxationSchedule.constant(1.0),
                    stop=StopRule(2000, 1e-14))
        x = built.evaluate(tr.z_final)[1][0]     # the consensus of the blocks
        assert np.linalg.norm(x) <= 1e-10


# ---------------------------------------------------------------------------
# Douglas-Rachford
# ---------------------------------------------------------------------------

class TestDrs:
    def test_orthogonal_lines_converge_in_one_step(self):
        p = make_two_subspaces(np.pi / 2, 2)
        tr = p.exact_run(max_iters=5, tol=1e-14)
        assert tr.res_norm[1] <= 1e-14

    def test_operator_firmly_nonexpansive(self):
        p = make_two_subspaces(np.pi / 4, 4)
        assert check_firmly_nonexpansive(p.operator, samples=400, seed=1).passed

    def test_gamma_validated(self):
        with pytest.raises(ParameterError):
            DrsSpec(SubspaceBlock(np.array([1.0, 0.0])),
                    SubspaceBlock(np.array([0.0, 1.0])), gamma=0.0, dim=2)

    def test_error_bookkeeping(self, record):
        # the induced error is bounded by the channel norms, and its gap to
        # their sum is at most twice the shadow-point error
        p = make_two_subspaces(np.pi / 4, 4)
        tr, rec = record(p.inexact_run, c=0.2, p=2.0, max_iters=60)
        sp = p.operator.space
        for k in range(tr.n_steps):
            ch = rec.channel[k]
            e1 = ch["eps1"] if ch["eps1"] is not None else np.zeros(4)
            e2 = ch["eps2"] if ch["eps2"] is not None else np.zeros(4)
            n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
            assert tr.eps_norm[k] <= n1 + n2 + 1e-12
            eps = rec.eps_vector(k)
            assert np.linalg.norm(eps - (e1 + e2)) <= 2.0 * n2 + 1e-12

    def test_certificate_membership_orthogonal_complement(self):
        p = make_two_subspaces(np.pi / 3, 4)
        tr, bc, series = p.certified_run(max_iters=80)
        assert series.membership_max <= 1e-10
        assert np.all(series.values <= series.bounds + 1e-10)

    def test_certificate_zero_at_fixed_point(self, record):
        p = make_two_subspaces(np.pi / 4, 4)
        sp = p.operator.space
        zstar = sp.vector(np.array([0.0, 0.0, 1.0, -2.0]))  # in the fixed set
        cert = DrsCertificates(p.built)
        constants = EmpiricalConstants(p.fix.nearest(zstar), sp)
        tr, _ = record(run_km, p.operator, zstar, p.relaxation, stop=StopRule(5, 0.0),
                       channel=p.make_channel(0.0, 3.0),
                       also=[cert.observe, constants.observe])
        series = cert.series(tr, constants.constants(tr))
        assert np.max(series.values) <= 1e-12

    def test_inexact_certificate_includes_channel_term(self):
        p = make_two_subspaces(np.pi / 4, 4)
        tr, bc, series = p.certified_run(0.1, 3.0, max_iters=200)
        assert np.all(series.values <= series.bounds + 1e-10)


# ---------------------------------------------------------------------------
# primal-dual
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small():
    return make_pds_small(seed=3)


class TestPds:

    def test_preconditioner_hand_value(self):
        # identity coupling with tau = sigma = 1/2: eta = 2 (1 - 1/2) = 1
        spec = PdsSpec(
            primal_block=ZeroBlock(), tau=0.5, dim_primal=3,
            duals=[PdsDualTerm(block=L1Block(1.0), L=np.eye(3), sigma=0.5,
                               omega=1.0)],
            smooth=CocoerciveMap.envelope_l1(1.0),
        )
        built = PdsBuilt(spec)
        assert built.eta == pytest.approx(1.0)
        assert built.beta == pytest.approx(1.0)
        assert 2.0 * built.eta * built.beta > 1.0
        assert built.delta == pytest.approx(2.0)
        assert 2.0 * built.delta / built.eta == pytest.approx(4.0)
        assert built.alpha == pytest.approx(2.0 / 3.0)

    def test_inadmissible_steps_rejected_with_context(self):
        with pytest.raises(ParameterError) as exc:
            PdsBuilt(PdsSpec(
                primal_block=ZeroBlock(), tau=0.45, dim_primal=3,
                duals=[PdsDualTerm(block=L1Block(1.0), L=2.0 * np.eye(3),
                                   sigma=0.45, omega=1.0)],
                smooth=CocoerciveMap.envelope_l1(1.0),
            ))
        assert "eta" in str(exc.value) or ">= 1" in str(exc.value)

    def test_close_top_singular_values_cannot_pass_an_inadmissible_spec(self):
        # ||L|| has its top two singular values 1e-3 apart, and the second
        # right singular vector is (almost) v0, the start vector a power
        # iteration seeded at 0 would take: stopping early, it reads ||L||
        # about 1e-3 low, and tau sigma ||L||^2 = 1.0005 would pass as < 1
        v0 = np.random.default_rng(0).standard_normal(6)
        v0 /= np.linalg.norm(v0)
        rest = np.random.default_rng(1).standard_normal((6, 5))
        basis, _ = np.linalg.qr(np.column_stack([v0, rest]))
        first = basis[:, 1] + 1e-6 * v0
        V = np.column_stack([first / np.linalg.norm(first), v0, basis[:, 2:]])
        L = np.diag([1.0, 1.0 - 1e-3, 0.5, 0.4, 0.3, 0.2]) @ V.T
        step = np.sqrt(1.0005) / np.linalg.norm(L, 2)
        with pytest.raises(ParameterError, match="step sizes too large"):
            PdsBuilt(PdsSpec(primal_block=ZeroBlock(), tau=step, dim_primal=6,
                             duals=[PdsDualTerm(block=L1Block(1.0), L=L, sigma=step,
                                                omega=1.0)]))

    def test_averagedness_sampling_in_metric(self, small):
        rep = check_averaged(small.operator, small.built.alpha,
                             samples=300, radius=5.0, seed=2)
        assert rep.passed

    def test_primal_matches_composite_reference(self, small):
        xref = pds_fbs_reference(small)
        tr = small.exact_run(max_iters=20000, tol=1e-12)
        x_final = small.operator.space.blocks(tr.z_final)[0]
        assert np.linalg.norm(x_final - xref) <= 1e-6

    def test_zero_coupling_decouples(self):
        base = make_pds_small(seed=3)
        Q, q = base.constants["Q"], base.constants["q"]
        spec = PdsSpec(
            primal_block=BoxBlock(-10.0, 10.0), tau=0.4, dim_primal=30,
            duals=[PdsDualTerm(block=L1Block(0.3), L=np.zeros((20, 30)),
                               sigma=0.4, omega=1.0)],
            smooth=CocoerciveMap.quadratic(Q, q),
        )
        built = PdsBuilt(spec)
        tr = run_km(built.operator, built.space.zeros(),
                    RelaxationSchedule.constant(1.0), stop=StopRule(5000, 1e-12))
        # dual block never leaves the origin
        assert np.linalg.norm(built.space.blocks(tr.z_final)[1]) == 0.0

    def test_certificate_series(self, small):
        tr, _, series = small.certified_run(max_iters=300)
        assert series.surrogate
        assert np.all(series.values <= series.bounds + 1e-10)



@st.composite
def pds_instances(draw):
    """A primal-dual spec of 1-3 dual terms with random couplings, shifts
    and weights summing to 1, random monotone blocks, and steps scaled so
    that ``tau * sum sigma_i w_i ||L_i||^2`` is a drawn radicand in (0.1,
    0.99); optional smooth and inverse parts get a modulus above the
    ``1 / (2 eta)`` the scheme needs.  With a point to evaluate at."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_duals = draw(st.integers(1, 3))
    radicand = draw(st.floats(0.1, 0.99))
    d = int(rng.integers(1, 7))
    Ls = [rng.standard_normal((int(rng.integers(1, 7)), d)) for _ in range(n_duals)]
    omegas = rng.dirichlet(np.ones(n_duals))
    tau, *sigmas = 10.0 ** rng.uniform(-1.0, 1.0, n_duals + 1)
    scale = np.sqrt(radicand / (tau * sum(s * w * np.linalg.norm(L, 2) ** 2
                                          for s, w, L in zip(sigmas, omegas, Ls))))
    tau, sigmas = tau * scale, [s * scale for s in sigmas]
    eta = min(1.0 / tau, *(1.0 / s for s in sigmas)) * (1.0 - np.sqrt(radicand))

    def block():
        return [ZeroBlock(), L1Block(rng.uniform(0.1, 2.0)), BoxBlock(-1.0, 1.0)][rng.integers(3)]

    def cocoercive(m):
        # a quadratic whose modulus is 1.5-5 times the 1 / (2 eta) needed
        if not rng.integers(2):
            return None
        G = rng.standard_normal((m, m))
        Q = G @ G.T
        Q *= 2.0 * eta / (rng.uniform(1.5, 5.0) * np.linalg.eigvalsh(Q)[-1])
        return CocoerciveMap.quadratic(Q, rng.standard_normal(m))

    spec = PdsSpec(
        primal_block=block(), tau=tau, dim_primal=d,
        duals=[PdsDualTerm(block=block(), L=L, sigma=s, omega=w,
                           r=rng.standard_normal(L.shape[0]), d_inv=cocoercive(L.shape[0]))
               for L, s, w in zip(Ls, sigmas, omegas)],
        smooth=cocoercive(d),
    )
    built = PdsBuilt(spec)
    z = rng.standard_normal(built.space.size) * 10.0 ** rng.uniform(-2.0, 2.0)
    return built, z


@settings(max_examples=200, deadline=None)
@given(pds_instances())
def test_pds_block_step_metric_and_positivity_on_generated_instances(drawn):
    built, z = drawn
    space = built.space
    M = space.metric
    # the block recursion is the preconditioned resolvent form
    gap = space.base_norm(built.block_step(z) - pds_abstract_step(built, z))
    assert gap <= 1e-12 * max(1.0, space.base_norm(z))
    # M is self-adjoint in the weighted inner product: W M is symmetric
    WM = np.repeat(space.weights, space.dims)[:, None] * M
    assert np.array_equal(WM, WM.T)
    # and strongly positive with the constant the scheme reports, at z and
    # in its weakest direction, the least eigenvalue of W^1/2 M W^-1/2 (one
    # dual term with tau = sigma attains eta: allow eigvalsh's rounding)
    assert space.norm(z) ** 2 >= built.eta * space.base_norm(z) ** 2
    r = np.sqrt(np.repeat(space.weights, space.dims))
    assert np.linalg.eigvalsh(WM / np.outer(r, r))[0] >= built.eta * (1.0 - 1e-9)
    # the dense matrix is the preconditioner's block formula
    dense, blocks = M @ z, pds_metric_blocks(built, z)
    assert np.linalg.norm(dense - blocks) <= 1e-15 * np.linalg.norm(np.abs(M) @ np.abs(z))


# ---------------------------------------------------------------------------
# non-stationary family
# ---------------------------------------------------------------------------

class TestNonstationaryFamily:
    def test_per_gamma_certificates(self):
        p = make_multiblock_nonstationary("geometric", d=6)
        beta = p.constants["beta"]
        spec = p.built.spec
        for g in (1.5, 1.7, 1.9):
            at_g = GfbBuilt(GfbSpec(spec.blocks, spec.weights, g, spec.dim, spec.smooth))
            assert spec.alpha_at(g) == at_g.alpha == pytest.approx(2.0 * beta / (4.0 * beta - g))
        assert p.make_channel(0.0, 3.0).alphas == (spec.alpha_at(1.5), spec.alpha_at(1.9))

    def test_evaluate_at_another_step_size_matches_a_fresh_build(self):
        p = make_multiblock_nonstationary("harmonic", d=6)
        spec = p.built.spec
        z = np.random.default_rng(5).standard_normal(p.built.space.size)
        out, parts = p.built.evaluate(z, 1.7)
        want, want_parts = GfbBuilt(GfbSpec(spec.blocks, spec.weights, 1.7, spec.dim,
                                            spec.smooth)).evaluate(z)
        assert np.array_equal(out, want)
        assert all(np.array_equal(a, b) for a, b in zip(parts, want_parts))

    def test_schedule_classification_reported(self):
        geo = make_multiblock_nonstationary("geometric", d=6).schedule
        sq = make_multiblock_nonstationary("inverse-square", d=6).schedule
        harm = make_multiblock_nonstationary("harmonic", d=6).schedule
        assert geo.abs_summable and geo.k_summable
        assert sq.abs_summable and not sq.k_summable
        assert not harm.abs_summable and not harm.k_summable
