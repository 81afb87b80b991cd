import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kmcert import cli
from kmcert.bounds import EmpiricalConstants, pointwise_bound
from kmcert.errors import NumericalError, ParameterError, StructuralError
from kmcert.km import (
    CHUNK,
    Channel,
    ErrorSchedule,
    GammaSchedule,
    StopRule,
    run_km,
)
from kmcert.operators import OperatorSpec
from kmcert.problems import (
    make_gfb_multiblock,
    make_lasso,
    make_multiblock_nonstationary,
    make_pds_small,
    make_two_subspaces,
    make_zero_map,
)
from kmcert.spaces import ProductSpace
from kmcert.splitting import (
    BoxBlock,
    CocoerciveMap,
    DrsBuilt,
    DrsCertificates,
    GfbBuilt,
    GfbScheduleChannel,
    L1Block,
    LinearBlock,
    MonotoneBlock,
    PdsBuilt,
    PdsDualTerm,
    SplittingChannel,
    SubspaceBlock,
    ZeroBlock,
    _inverse,
)
from oracles import (
    check_averaged,
    check_firmly_nonexpansive,
    drs_step,
    gfb_certificate,
    gfb_step,
    member_residual,
    pds_abstract_step,
    pds_fbs_reference,
    pds_metric_blocks,
    per_draw_stage,
    prox_l1,
    reflect_diagonal,
    weighted_sum,
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

    @pytest.mark.parametrize("M, c0", [
        (np.ones((2, 3)), None),                     # not square
        (np.ones(2), None),                          # not a matrix
        (np.array([[1.0, np.nan], [0.0, 1.0]]), None),   # eigvalsh gives NaN, not a failure
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), None),
        (np.eye(2), [0.0, np.inf]),
        (np.eye(2), [0.0, np.nan]),
        (np.eye(2), [0.0, 1.0, 2.0]),                # wrong length
        (np.eye(2), [[0.0, 1.0]]),                   # not a vector
    ])
    def test_linear_block_data_checked_at_construction(self, M, c0):
        with pytest.raises(StructuralError):
            LinearBlock(M, c0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_drs_step_size_checked_at_construction(self, gamma):
        # a NaN passes `gamma <= 0`, and was accepted; an infinite step
        # passes `gamma > 0`, and the first evaluation returned NaNs
        with pytest.raises(ParameterError,
                           match=f"step size must be positive and finite, got {gamma}"):
            DrsBuilt(ZeroBlock(), ZeroBlock(), gamma, 2)

    @pytest.mark.parametrize("gamma", [0.0, np.nan, np.inf])
    def test_gfb_step_size_checked_at_construction(self, gamma):
        # without a smooth part no `gamma < 2 beta` check bounds the step
        with pytest.raises(ParameterError,
                           match=f"step size must be positive and finite, got {gamma}"):
            GfbBuilt(blocks=[ZeroBlock()], weights=[1.0], gamma=gamma, dim=2)

    @pytest.mark.parametrize("tau", [0.0, np.nan, np.inf])
    def test_pds_primal_step_checked_at_construction(self, tau):
        # an infinite step was caught only by the radicand ("... = inf >= 1")
        dual = PdsDualTerm(block=ZeroBlock(), L=np.eye(2), sigma=0.5, omega=1.0)
        with pytest.raises(ParameterError,
                           match=f"primal step must be positive and finite, got {tau}"):
            PdsBuilt(primal_block=ZeroBlock(), tau=tau, dim_primal=2, duals=[dual])

    @pytest.mark.parametrize("changes, error", [
        ({"sigma": np.nan}, ParameterError),
        ({"sigma": np.inf}, ParameterError),
        ({"omega": np.nan}, ParameterError),
        ({"sigma": 0.0}, ParameterError),
        ({"L": [[1.0, np.nan], [0.0, 1.0]]}, StructuralError),  # failed at a step, in inv
        ({"L": [[np.inf, 0.0], [0.0, 1.0]]}, StructuralError),
        ({"L": np.ones(2)}, StructuralError),                   # not a matrix
        ({"r": [0.0, 1.0, 2.0]}, StructuralError),              # failed at a step
        ({"r": [[0.0, 1.0]]}, StructuralError),                 # not a vector
        ({"r": [0.0, np.nan]}, StructuralError),
        ({"r": [np.inf, 0.0]}, StructuralError),
    ])
    def test_pds_dual_term_data_checked_at_construction(self, changes, error):
        term = dict(block=ZeroBlock(), L=np.eye(2), sigma=0.5, omega=1.0, r=None)
        with pytest.raises(error):
            PdsDualTerm(**dict(term, **changes))

    def test_pds_weight_sum_rejects_nan(self):
        # the dual term checks its own weight; a NaN set afterwards still
        # fails the sum, which `abs(nan - 1) > 1e-12` let through
        dual = PdsDualTerm(block=ZeroBlock(), L=np.eye(2), sigma=0.5, omega=1.0)
        dual.omega = np.nan
        with pytest.raises(ParameterError, match="dual weights must sum to 1"):
            PdsBuilt(primal_block=ZeroBlock(), tau=0.5, dim_primal=2, duals=[dual])

    def test_zero_block(self):
        blk = ZeroBlock()
        v = np.array([1.0, -2.0])
        assert blk.resolvent(v, 3.0) == pytest.approx(v)
        assert blk.member_residual(stack(v), stack([0.0, 0.0])) == 0.0

    @pytest.mark.parametrize("d", [4, 10, 20])
    def test_linear_resolvent_is_the_inverse_applied_bit_for_bit(self, d):
        # the trace contract rests on this: a vector and each row of a stack
        # get np.linalg.inv(I + c M).dot(v + c * c0), on the generators' blocks
        blk = next(b for b in make_gfb_multiblock(3, d).built.blocks
                   if isinstance(b, LinearBlock))
        rng = np.random.default_rng(d)
        for c in (0.5, 3.0, 4.5, 5.7):
            inv = np.linalg.inv(np.eye(d) + c * blk.M)
            V = rng.standard_normal((7, d))
            want = [bits(inv.dot(v + c * blk.c0)) for v in V]
            assert [bits(blk.resolvent(v, c)) for v in V] == want
            assert [bits(row) for row in blk.resolvent(V, c)] == want


class Counting(MonotoneBlock):
    """A block that counts its resolvent calls and the vectors they resolve
    (a ``(C, d)`` stack is one call of ``C`` vectors)."""

    def __init__(self, inner: MonotoneBlock):
        self.inner, self.kind, self.calls, self.vectors = inner, inner.kind, 0, 0

    def resolvent(self, v, c):
        self.calls += 1
        self.vectors += int(np.prod(np.shape(v)[:-1]))
        return self.inner.resolvent(v, c)

    def member_residual(self, u, g):
        return self.inner.member_residual(u, g)


class TestEvaluationCounts:
    """A certified step evaluates its operator once for the iterate, and the
    certificates read the internals of the evaluations instead of
    evaluating resolvents again."""

    @pytest.mark.parametrize("law", [(), (0.1, 3.0)], ids=["exact", "inexact"])
    def test_gfb_step_calls_each_resolvent_once_per_evaluation(self, law):
        p = make_gfb_multiblock(3, 8, seed=2)
        p.fix_reference()          # the reference solve is not counted
        built = p.built
        built.blocks = [Counting(b) for b in built.blocks]
        tr, _, series = p.certified_run(*law, max_iters=40)
        assert tr.n_steps == 40 and series.values.size == 40
        # each step resolves once for its iterate (the exact or the perturbed
        # argument); the chunk's exact outputs and the certificate's parts
        # come from one stacked call over its 40 points
        assert [(b.calls, b.vectors) for b in built.blocks] == [(41, 80)] * 3

    @pytest.mark.parametrize("tol", [0.0, 1e-6], ids=["horizon", "residual_tol"])
    def test_exact_drs_step_resolves_once_and_its_chunk_once_more(self, tol):
        p = make_two_subspaces(np.pi / 4, 4)
        built = p.built
        built.block1, built.block2 = Counting(built.block1), Counting(built.block2)
        tr, _, series = p.certified_run(max_iters=200, tol=tol)
        K = tr.n_steps
        assert (K == 200) == (tol == 0.0)
        assert tr.stop_reason == ("max_iters" if tol == 0.0 else "residual_tol")
        # each step resolves once for its iterate, and the certificate's
        # parts come from one stacked call over the run's one chunk; v_k =
        # j2(z_{k+1}) is the next step's shadow point, and only the last
        # step's is evaluated by the certificate itself
        assert [(b.calls, b.vectors) for b in (built.block1, built.block2)] == [
            (K + 1, 2 * K), (K + 2, 2 * K + 1)]
        assert series.values.size == K

    def test_inexact_drs_step_resolves_once_and_its_chunk_once_more(self):
        # an inexact step resolves for its perturbed iterate only; the exact
        # outputs and parts of the run's one chunk come from one stacked
        # call per block
        p = make_two_subspaces(np.pi / 4, 4)
        built = p.built
        built.block1, built.block2 = Counting(built.block1), Counting(built.block2)
        tr, _, series = p.certified_run(0.1, 3.0, max_iters=200)
        assert tr.n_steps == 200 and series.values.size == 200
        # the certificate takes j1 at the chunk's perturbed reflections in
        # one stacked call, and j2 of the chunk's last iterate
        assert [(b.calls, b.vectors) for b in (built.block1, built.block2)] == [
            (202, 600), (202, 401)]

    @pytest.mark.parametrize("law", [(), (0.1, 3.0)], ids=["exact", "inexact"])
    def test_pds_step_evaluates_once(self, law):
        # an exact step is evaluated once, for its iterate and its residual;
        # an inexact one once for its iterate, and the chunk's exact outputs
        # come from one stacked call over its 40 points
        p = make_pds_small(seed=3)
        p.fix_reference()
        built = p.built
        built.primal_block = Counting(built.primal_block)
        built.duals[0].block = Counting(built.duals[0].block)
        tr, _, series = p.certified_run(*law, max_iters=40)
        assert tr.n_steps == 40 and series.values.size == 40
        want = (41, 80) if law else (40, 40)
        assert [(b.calls, b.vectors) for b in (built.primal_block, built.duals[0].block)] == [
            want, want]


# ---------------------------------------------------------------------------
# product-space forward-backward
# ---------------------------------------------------------------------------

class TestGfbBuild:
    def test_averagedness_constant(self):
        p = make_lasso(20, 30, seed=0)
        beta = p.constants["beta"]
        gamma = p.built.gamma
        assert p.built.operator.alpha == pytest.approx(2.0 * beta / (4.0 * beta - gamma))

    def test_step_size_validated(self):
        with pytest.raises(ParameterError, match=r"step size 3\.0 outside \(0, 2\.0\)"):
            GfbBuilt(blocks=[L1Block(1.0)], weights=np.array([1.0]), gamma=3.0,
                     dim=2, smooth=CocoerciveMap.envelope_l1(1.0))

    def test_weight_sum_validated(self):
        with pytest.raises(ParameterError, match="block weights must sum to 1"):
            GfbBuilt(blocks=[L1Block(1.0), ZeroBlock()],
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
        _, rec_g = record(p.run, max_iters=300)
        _, rec_f = record(run_km, Channel(hand), sp.vector(np.zeros(60)),
                          1.0, stop=StopRule(300, 0.0))
        worst = max(np.max(np.abs(a - b)) for a, b in zip(rec_g.z_vecs, rec_f.z_vecs))
        assert worst <= 1e-12

    def test_no_smooth_part_equals_product_reflection_scheme(self, record):
        rng = np.random.default_rng(5)
        d = 8
        R = rng.standard_normal((d, d))
        blocks = [L1Block(0.2), LinearBlock(0.5 * np.eye(d) + 0.5 * (R - R.T),
                                            0.3 * rng.standard_normal(d))]
        w = np.array([0.4, 0.6])
        built = GfbBuilt(blocks=blocks, weights=w, gamma=0.7, dim=d, smooth=None)
        assert built.operator.alpha == 0.5
        sp = built.space

        def hand(z):
            rs = sp.blocks(reflect_diagonal(sp, z))
            ju = tuple(b.resolvent(x, 0.7 / wi) for b, x, wi in zip(blocks, rs, w))
            ra = sp.point(tuple(2.0 * u - x for u, x in zip(ju, rs)))
            return (ra + z) * 0.5

        T = OperatorSpec(hand, 0.5, "hand", sp)
        z0 = sp.point(tuple(rng.standard_normal(d) for _ in range(2)))
        _, r1 = record(run_km, Channel(built.operator), z0, 1.0,
                       stop=StopRule(200, 0.0))
        _, r2 = record(run_km, Channel(T), z0, 1.0,
                       stop=StopRule(200, 0.0))
        worst = max(np.max(np.abs(a - b)) for a, b in zip(r1.z_vecs, r2.z_vecs))
        assert worst <= 1e-12

    def test_operator_passes_averagedness_sampling(self):
        p = make_gfb_multiblock(3, 8, seed=2)
        rep = check_averaged(p.operator, p.operator.alpha, samples=300, seed=0)
        assert rep.passed

    def test_channel_error_bounded_by_channels(self, record):
        p = make_gfb_multiblock(3, 8, seed=2)
        tr, rec = record(p.run, c=0.2, p=2.0, max_iters=50)
        d = p.built.dim
        for k in range(tr.n_steps):
            # the stage errors: b, then one a per block
            b, a = rec.errors[k][:d], rec.errors[k][d:].reshape(-1, d)
            pre = np.linalg.norm(b)
            post = np.sqrt(sum(w * np.linalg.norm(ai) ** 2 for w, ai in zip(p.built.weights, a)))
            assert tr.eps_norm[k] <= pre + post + 1e-12


@pytest.fixture(scope="module")
def lasso_run(record):
    """The certified lasso run, with the pointwise certificate series and,
    from a second identical run, the iterates."""
    p = make_lasso(40, 60, seed=1)
    tr, bc, series = p.certified_run(max_iters=400)
    _, rec = record(p.run, max_iters=400)
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
            pointwise_bound(0, bc) / p.built.gamma)

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
        built = GfbBuilt(blocks=blocks, weights=np.array([0.5, 0.5]), gamma=1.0,
                         dim=d, smooth=CocoerciveMap.envelope_l1(0.5))
        rng = np.random.default_rng(0)
        z0 = built.space.point(tuple(0.3 * rng.standard_normal(d) for _ in range(2)))
        tr = run_km(Channel(built.operator), z0, 1.0,
                    stop=StopRule(2000, 1e-14))
        x = built.evaluate(tr.z_final)[1][0]     # the consensus of the blocks
        assert np.linalg.norm(x) <= 1e-10


# ---------------------------------------------------------------------------
# Douglas-Rachford
# ---------------------------------------------------------------------------

class TestDrs:
    def test_orthogonal_lines_converge_in_one_step(self):
        p = make_two_subspaces(np.pi / 2, 2)
        tr = p.run(max_iters=5, tol=1e-14)
        assert tr.res_norm[1] <= 1e-14

    def test_operator_firmly_nonexpansive(self):
        p = make_two_subspaces(np.pi / 4, 4)
        assert check_firmly_nonexpansive(p.operator, samples=400, seed=1).passed

    def test_gamma_validated(self):
        with pytest.raises(ParameterError, match="step size must be positive"):
            DrsBuilt(SubspaceBlock(np.array([1.0, 0.0])),
                     SubspaceBlock(np.array([0.0, 1.0])), gamma=0.0, dim=2)

    def test_error_bookkeeping(self, record):
        # the induced error is bounded by the channel norms, and its gap to
        # their sum is at most twice the shadow-point error
        p = make_two_subspaces(np.pi / 4, 4)
        tr, rec = record(p.run, c=0.2, p=2.0, max_iters=60)
        sp = p.operator.space
        for k in range(tr.n_steps):
            e1, e2 = rec.errors[k][:4], rec.errors[k][4:]
            n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
            assert tr.eps_norm[k] <= n1 + n2 + 1e-12
            eps = rec.eps_vecs[k]
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
        tr, _ = record(run_km, p.make_channel(0.0, 3.0), zstar, p.lam,
                       stop=StopRule(5, 0.0), also=[cert.observe, constants.observe])
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
        built = PdsBuilt(
            primal_block=ZeroBlock(), tau=0.5, dim_primal=3,
            duals=[PdsDualTerm(block=L1Block(1.0), L=np.eye(3), sigma=0.5,
                               omega=1.0)],
            smooth=CocoerciveMap.envelope_l1(1.0),
        )
        assert built.eta == pytest.approx(1.0)
        assert built.beta == pytest.approx(1.0)
        assert 2.0 * built.eta * built.beta > 1.0
        assert built.delta == pytest.approx(2.0)
        assert 2.0 * built.delta / built.eta == pytest.approx(4.0)
        assert built.alpha == pytest.approx(2.0 / 3.0)

    def test_inadmissible_steps_rejected_with_context(self):
        with pytest.raises(ParameterError) as exc:
            PdsBuilt(
                primal_block=ZeroBlock(), tau=0.45, dim_primal=3,
                duals=[PdsDualTerm(block=L1Block(1.0), L=2.0 * np.eye(3),
                                   sigma=0.45, omega=1.0)],
                smooth=CocoerciveMap.envelope_l1(1.0),
            )
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
            PdsBuilt(primal_block=ZeroBlock(), tau=step, dim_primal=6,
                     duals=[PdsDualTerm(block=L1Block(1.0), L=L, sigma=step,
                                        omega=1.0)])

    @pytest.mark.parametrize("tau, omegas, error, message", [
        (0.0, (1.0,), ParameterError, "primal step must be positive"),
        (0.5, (), ParameterError, "need at least one dual term"),
        (0.5, (0.5,), ParameterError, "dual weights must sum to 1"),
        (0.5, (1.0,), StructuralError, "coupling matrix does not match primal dimension"),
    ])
    def test_parameter_checks_run_before_the_shape_check(self, tau, omegas, error, message):
        # every coupling here has 4 columns against a primal block of 3
        duals = [PdsDualTerm(block=ZeroBlock(), L=np.ones((2, 4)), sigma=0.5, omega=w)
                 for w in omegas]
        with pytest.raises(error, match=message):
            PdsBuilt(primal_block=ZeroBlock(), tau=tau, dim_primal=3, duals=duals)

    def test_averagedness_sampling_in_metric(self, small):
        rep = check_averaged(small.operator, small.built.alpha,
                             samples=300, radius=5.0, seed=2)
        assert rep.passed

    def test_primal_matches_composite_reference(self, small):
        xref = pds_fbs_reference(small)
        tr = small.run(max_iters=20000, tol=1e-12)
        x_final = small.operator.space.blocks(tr.z_final)[0]
        assert np.linalg.norm(x_final - xref) <= 1e-6

    def test_zero_coupling_decouples(self):
        base = make_pds_small(seed=3)
        Q, q = base.constants["Q"], base.constants["q"]
        built = PdsBuilt(
            primal_block=BoxBlock(-10.0, 10.0), tau=0.4, dim_primal=30,
            duals=[PdsDualTerm(block=L1Block(0.3), L=np.zeros((20, 30)),
                               sigma=0.4, omega=1.0)],
            smooth=CocoerciveMap.quadratic(Q, q),
        )
        tr = run_km(Channel(built.operator), built.space.zeros(),
                    1.0, stop=StopRule(5000, 1e-12))
        # dual block never leaves the origin
        assert np.linalg.norm(built.space.blocks(tr.z_final)[1]) == 0.0

    def test_certificate_series(self, small):
        tr, _, series = small.certified_run(max_iters=300)
        assert series.surrogate
        assert np.all(series.values <= series.bounds + 1e-10)



@st.composite
def pds_instances(draw):
    """A primal-dual splitting of 1-3 dual terms with random couplings, shifts
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

    built = PdsBuilt(
        primal_block=block(), tau=tau, dim_primal=d,
        duals=[PdsDualTerm(block=block(), L=L, sigma=s, omega=w,
                           r=rng.standard_normal(L.shape[0]), d_inv=cocoercive(L.shape[0]))
               for L, s, w in zip(Ls, sigmas, omegas)],
        smooth=cocoercive(d),
    )
    z = rng.standard_normal(built.space.size) * 10.0 ** rng.uniform(-2.0, 2.0)
    return built, z


def recorded_pds_instance():
    """A drawn instance whose output dwarfs its input: one dual term, ``d =
    1``, box blocks, a quadratic ``d_inv``, radicand 0.497, ``z = [1.227,
    0.0871]`` mapped to about ``[1, 29878.7]``.  ``evaluate`` and the
    resolvent form differ there by 7.3e-12, two ulps of the output."""
    built = PdsBuilt(
        primal_block=BoxBlock(-1.0, 1.0), tau=2.06e3, dim_primal=1,
        duals=[PdsDualTerm(block=BoxBlock(-1.0, 1.0), L=np.array([[-1.43e-4]]),
                           sigma=1.18e4, omega=1.0, r=np.array([-2.0991]),
                           d_inv=CocoerciveMap.quadratic(np.array([[1.6e-5]]),
                                                         np.array([1.4331])))],
    )
    return built, np.array([1.227, 0.0871])


@settings(max_examples=200, deadline=None)
@given(pds_instances())
@example(recorded_pds_instance())
def test_pds_evaluation_metric_and_positivity_on_generated_instances(drawn):
    built, z = drawn
    space = built.space
    M = space.metric
    # the block recursion is the preconditioned resolvent form, up to
    # rounding on the scale of the larger of the input and the output
    out = built.evaluate(z)[0]
    gap = space.base_norm(out - pds_abstract_step(built, z))
    assert gap <= 1e-12 * max(1.0, space.base_norm(z), space.base_norm(out))
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
        built = p.built
        for g in (1.5, 1.7, 1.9):
            at_g = GfbBuilt(built.blocks, built.weights, g, built.dim, built.smooth)
            assert (built.alpha_at(g) == at_g.operator.alpha
                    == pytest.approx(2.0 * beta / (4.0 * beta - g)))
        assert p.make_channel(0.0, 3.0).alphas == (built.alpha_at(1.5), built.alpha_at(1.9))

    def test_evaluate_at_another_step_size_matches_a_fresh_build(self):
        # an exact step of the schedule's channel at gamma_k != gamma: the
        # splitting at the gamma_k it read, and the limit evaluation left to
        # the chunk
        p = make_multiblock_nonstationary("harmonic", d=6)
        built = p.built
        channel = GfbScheduleChannel(built, p.schedule, ErrorSchedule.power(0.0, 3.0))
        z = np.random.default_rng(5).standard_normal(p.built.space.size)
        exact, out, eps = channel.evaluate(0, z, channel.errors(np.random.default_rng(0)))
        gamma = channel._gammas[0]
        assert gamma == p.schedule.value(0) != built.gamma
        # the limit's output is left to the chunk's stacked evaluation
        assert exact is None and eps is None
        assert np.array_equal(channel.evaluate_rows(z[None])[0][0], p.built.evaluate(z)[0])
        want = GfbBuilt(built.blocks, built.weights, gamma, built.dim, built.smooth)
        assert np.array_equal(out, want.evaluate(z)[0])

    def test_schedule_classification_reported(self):
        geo = make_multiblock_nonstationary("geometric", d=6).schedule
        sq = make_multiblock_nonstationary("inverse-square", d=6).schedule
        harm = make_multiblock_nonstationary("harmonic", d=6).schedule
        assert geo.abs_summable and geo.k_summable
        assert sq.abs_summable and not sq.k_summable
        assert not harm.abs_summable and not harm.k_summable


# ---------------------------------------------------------------------------
# the stacked evaluation
# ---------------------------------------------------------------------------

def bits(a: np.ndarray) -> tuple:
    return a.shape, a.dtype, a.tobytes()


def stage_errors(inexact, rng, built, C):
    """A drawn ``(C, S)`` stack of stage-error rows of ``built``, or None."""
    if not inexact:
        return None
    return rng.standard_normal((C, sum(built.segments))) * 10.0 ** rng.uniform(-3.0, 1.0)


@st.composite
def gfb_stacks(draw):
    """A multiblock (2-4 blocks, ``d`` 2-12, a drawn problem seed) or lasso
    instance, a stack of 1-40 points on a drawn scale, a step size, the
    splitting's own (None) or one in ``(0, 2 beta)``, and stage errors (or
    None)."""
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        built = make_gfb_multiblock(draw(st.integers(2, 4)), draw(st.integers(2, 12)),
                                    seed=seed).built
    else:
        built = make_lasso(draw(st.integers(2, 20)), draw(st.integers(2, 24)), seed=seed).built
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.standard_normal((draw(st.integers(1, 40)), built.space.size))
    gamma = draw(st.none() | st.floats(0.05, 1.95).map(lambda f: f * built.smooth.beta))
    E = stage_errors(draw(st.booleans()), rng, built, len(Z))
    return built, Z * 10.0 ** rng.uniform(-2.0, 2.0), gamma, E


def row(E, r):
    return None if E is None else E[r]


@settings(max_examples=80, deadline=None)
@given(gfb_stacks())
def test_stacked_gfb_evaluation_is_the_point_evaluation_row_by_row(drawn):
    # the engine finishes a chunk's deferred steps with the stacked kernel:
    # each row, output and parts, carries the bits of the point's evaluation,
    # with its stage errors or without
    built, Z, gamma, E = drawn
    exact, parts = built.evaluate(Z, E, gamma)
    assert exact.shape == Z.shape
    for r, z in enumerate(Z):
        want, want_parts = built.evaluate(z, row(E, r), gamma)
        assert bits(exact[r]) == bits(want)
        assert [bits(p[r]) for p in parts] == [bits(p) for p in want_parts]


def gfb_splitting(n, d, smooth, seed):
    """A GFB splitting of ``n`` blocks of dimension ``d``, each an l1, box,
    linear, subspace or zero block, with drawn weights, its smooth part a
    quadratic (``"quadratic"``), a smoothed l1 (``"envelope"``) or none, and
    a drawn step size in ``(0, 2 beta)``."""
    rng = np.random.default_rng(seed)

    def block():
        kind = rng.integers(5)
        if kind == 0:
            return L1Block(rng.uniform(0.05, 2.0))
        if kind == 1:
            return BoxBlock(-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d))
        if kind == 2:
            R = rng.standard_normal((d, d))
            return LinearBlock(0.5 * np.eye(d) + 0.5 * (R - R.T), rng.standard_normal(d))
        if kind == 3:
            return SubspaceBlock(np.linalg.qr(rng.standard_normal((d, max(1, d // 2))))[0])
        return ZeroBlock()

    blocks = [block() for _ in range(n)]
    w = rng.uniform(0.2, 1.0, n)
    if smooth == "quadratic":
        G = rng.standard_normal((d, d))
        smooth = CocoerciveMap.quadratic(G @ G.T + 0.1 * np.eye(d), rng.standard_normal(d))
    elif smooth == "envelope":
        smooth = CocoerciveMap.envelope_l1(rng.uniform(0.05, 1.0))
    beta = smooth.beta if smooth is not None else 1.0
    return GfbBuilt(blocks, w / w.sum(), rng.uniform(0.05, 1.95) * beta, d, smooth)


def value_bits(a: np.ndarray) -> tuple:
    # the bits of a, with -0.0 read as +0.0 (adding +0.0 changes nothing else)
    return bits(a + 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 20), st.sampled_from([None, "quadratic", "envelope"]),
       st.integers(1, 9), st.none() | st.floats(0.05, 1.95), st.integers(0, 2 ** 32 - 1),
       st.booleans())
@example(9, 1, None, 3, None, 0, False)   # the block axis innermost: reduce sums pairwise
@example(9, 1, "envelope", 1, 1.2, 1, False)
@example(3, 1, "quadratic", 2, None, 2, False)
@example(3, 4, "quadratic", 2, None, 2, True)
def test_gfb_evaluation_is_the_block_by_block_step(n, d, smooth, C, gamma, seed, inexact):
    # the consensus added a block at a time, the sign-form soft threshold,
    # the stage errors added stage by stage: the same bits at a point and in
    # each row of a stack, zeros as values
    built = gfb_splitting(n, d, smooth, seed)
    if gamma is not None:
        gamma *= built.smooth.beta if built.smooth is not None else 1.0
    rng = np.random.default_rng(seed + 1)
    Z = rng.standard_normal((C, built.space.size)) * 10.0 ** rng.uniform(-2.0, 2.0)
    E = stage_errors(inexact, rng, built, C)
    exact, parts = built.evaluate(Z, E, gamma)
    for r, z in enumerate(Z):
        want, want_parts = gfb_step(built, z, row(E, r), gamma)
        got, got_parts = built.evaluate(z, row(E, r), gamma)
        assert value_bits(got) == value_bits(exact[r]) == value_bits(want)
        assert ([value_bits(p) for p in got_parts] == [value_bits(p[r]) for p in parts]
                == [value_bits(p) for p in want_parts])


@pytest.mark.parametrize("name", ["ns-harmonic", "cert-multiblock-inexact"])
@pytest.mark.parametrize("n_blocks", [2, 3, 4])
def test_one_dimensional_blocks_write_the_block_by_block_trace(
        fresh_references, tmp_path, monkeypatch, name, n_blocks):
    # d = 1, off the digests' shapes: the whole evaluation, in its exact and
    # inexact steps and the certificate's consensus, replaced by the oracle's
    # block-by-block form writes the same trace and report bytes
    cfg = dict(next(m for m in cli.suite_members() if m["name"] == name),
               dim=1, n_blocks=n_blocks, max_iters=300)

    def run(tag):
        cli._built.cache_clear()        # its own problem and reference
        trace, report, columns = cli.execute_run(cfg)
        cli.emit_trace_csv(str(tmp_path / f"{tag}.csv"), cfg, trace, columns)
        cli.write_report(str(tmp_path / f"{tag}.json"), report)
        return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("csv", "json")]

    def evaluate(self, z, errs=None, gamma=None):
        if z.ndim == 1:
            return gfb_step(self, z, errs, gamma)
        outs, parts = zip(*(gfb_step(self, z_r, row(errs, r), gamma)
                            for r, z_r in enumerate(z)))
        return np.stack(outs), tuple(map(np.stack, zip(*parts)))

    kernel = run("kernel")
    monkeypatch.setattr(GfbBuilt, "evaluate", evaluate)
    monkeypatch.setattr("kmcert.splitting._weighted_sum", lambda W, rows: (
        weighted_sum(W[:, 0], np.moveaxis(rows, -2, 0))[..., None, :]))
    assert run("oracle") == kernel


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_block_resolvents_take_a_stack_row_by_row(d, C, seed):
    # LinearBlock applies its inverse to each row of a stack as to a vector
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((d, d))
    M = 0.5 * np.eye(d) + 0.5 * (R - R.T)
    c = float(rng.uniform(0.1, 5.0))
    V = rng.standard_normal((C, d)) * 10.0 ** rng.uniform(-2.0, 2.0)
    linear = LinearBlock(M, rng.standard_normal(d))
    inv = _inverse(np.eye(d) + c * M)
    out = linear.resolvent(V, c)
    assert out.shape == V.shape
    for r, v in enumerate(V):
        assert bits(out[r]) == bits(inv.dot(v + c * linear.c0))
    U = np.linalg.qr(rng.standard_normal((d, max(1, d // 2))))[0]
    for blk in (L1Block(0.3), BoxBlock(-0.5, 0.8), SubspaceBlock(U), ZeroBlock()):
        out = blk.resolvent(V, c)
        assert [bits(row) for row in out] == [bits(blk.resolvent(v, c)) for v in V]


def two_dual_pds_with_forward_terms():
    """The two dual terms of :func:`two_dual_pds` (sizes 2 and 4 on a primal
    block of size 3) with shifts, a quadratic ``d_inv`` on each and a
    quadratic smooth part, and a point to evaluate at."""
    rng = np.random.default_rng(4)
    Ls = [0.1 * rng.standard_normal((m, 3)) for m in (2, 4)]

    def quadratic(m):
        G = rng.standard_normal((m, m))
        Q = G @ G.T
        return CocoerciveMap.quadratic(Q / np.linalg.eigvalsh(Q)[-1], rng.standard_normal(m))

    duals = [PdsDualTerm(block=L1Block(1.0), L=L, sigma=0.5, omega=0.5,
                         r=rng.standard_normal(L.shape[0]), d_inv=quadratic(L.shape[0]))
             for L in Ls]
    built = PdsBuilt(primal_block=BoxBlock(-0.5, 0.5), tau=0.5, dim_primal=3,
                     duals=duals, smooth=quadratic(3))
    return built, rng.standard_normal(built.space.size)


@settings(max_examples=100, deadline=None)
@given(pds_instances(), st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
@example(two_dual_pds_with_forward_terms(), 7, 0, False)
@example(two_dual_pds_with_forward_terms(), 7, 0, True)
def test_stacked_pds_evaluation_is_the_point_evaluation_row_by_row(drawn, C, seed, inexact):
    # the engine finishes an inexact PDS step's exact output with the
    # stacked block recursion: each row carries the bits of its point's,
    # with its stage errors or without
    built, z = drawn
    rng = np.random.default_rng(seed)
    Z = np.vstack([z, rng.standard_normal((C - 1, z.size)) * 10.0 ** rng.uniform(-2.0, 2.0)])
    E = stage_errors(inexact, rng, built, C)
    out, parts = built.evaluate(Z, E)
    assert out.shape == Z.shape and parts is None
    assert [bits(out_r) for out_r in out] == [
        bits(built.evaluate(z, row(E, r))[0]) for r, z in enumerate(Z)]


def drs_splitting(d, rng):
    """A DRS splitting of two blocks of dimension ``d``, each a subspace,
    linear, l1 or box block, at a drawn step size."""

    def block():
        kind = rng.integers(4)
        if kind == 0:
            return SubspaceBlock(np.linalg.qr(rng.standard_normal((d, max(1, d // 2))))[0])
        if kind == 1:
            R = rng.standard_normal((d, d))
            return LinearBlock(0.5 * np.eye(d) + 0.5 * (R - R.T), rng.standard_normal(d))
        if kind == 2:
            return L1Block(rng.uniform(0.1, 2.0))
        return BoxBlock(-rng.uniform(0.1, 2.0, d), rng.uniform(0.1, 2.0, d))

    return DrsBuilt(block(), block(), float(rng.uniform(0.1, 5.0)), d)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_stacked_drs_evaluation_is_the_point_evaluation_row_by_row(d, C, seed, inexact):
    # the engine finishes an inexact DRS step's exact output with the
    # stacked evaluation, and the inexact certificate reflects a chunk's
    # shadow points with its stage errors: each row, output and parts,
    # carries the bits of its point's, over subspace, linear, l1 and box
    # blocks, with its stage errors or without
    rng = np.random.default_rng(seed)
    built = drs_splitting(d, rng)
    Z = rng.standard_normal((C, d)) * 10.0 ** rng.uniform(-2.0, 2.0)
    E = stage_errors(inexact, rng, built, C)
    exact, parts = built.evaluate(Z, E)
    assert exact.shape == Z.shape
    for r, z in enumerate(Z):
        want, want_parts = built.evaluate(z, row(E, r))
        assert bits(exact[r]) == bits(want)
        assert [bits(p[r]) for p in parts] == [bits(p) for p in want_parts]


@pytest.mark.parametrize("kind", ["gfb", "drs"])
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.floats(1e-3, 10.0), st.integers(0, 2 ** 32 - 1))
def test_inexact_channel_step_is_the_documented_perturbation(kind, n, d, c, seed):
    # an inexact step of a splitting's channel applies its stage errors as
    # the paper's inexact method does, against an independent per-step
    # oracle: GFB bit for bit (zeros as values), DRS up to rounding
    rng = np.random.default_rng(seed)
    if kind == "gfb":
        built = gfb_splitting(n, d, rng.choice([None, "quadratic", "envelope"]), seed)
    else:
        built = drs_splitting(d, rng)
    channel = SplittingChannel(built, ErrorSchedule.power(c, 1.0))
    errors = channel.errors(np.random.default_rng(seed))
    z = rng.standard_normal(built.space.size) * 10.0 ** rng.uniform(-2.0, 2.0)
    for k in range(3):
        exact, tilde, eps = channel.evaluate(k, z, errors)
        assert exact is None and eps is None        # left to the chunk
        errs = errors(k)
        if kind == "gfb":
            assert value_bits(tilde) == value_bits(gfb_step(built, z, errs)[0])
        else:
            scale = 1.0 + np.linalg.norm(z) + np.linalg.norm(errs)
            assert np.linalg.norm(tilde - drs_step(built, z, errs)) <= 1e-13 * scale


def test_harmonic_run_inverts_the_limit_once(monkeypatch):
    # the steps' own matrices are inverted a window of step sizes at a time,
    # one stacked call per window, each matrix once (the last window also
    # inverts its unused tail); the limit's, announced with every window,
    # joins the first stack and stays for the run, and no step inverts alone
    inverted, stacks, calls = {}, [], []

    def counting(A):
        calls.append(A.ndim)
        if A.ndim == 3:
            stacks.append(len(A))
        for m in A.reshape((-1,) + A.shape[-2:]):
            inverted[m.tobytes()] = inverted.get(m.tobytes(), 0) + 1
        return _inverse(A)

    monkeypatch.setattr("kmcert.splitting._inverse", counting)
    p = make_multiblock_nonstationary("harmonic")
    steps = 2000
    tr = p.run(0.0, 3.0, steps)
    assert tr.n_steps == steps
    i = next(i for i, b in enumerate(p.built.blocks) if isinstance(b, LinearBlock))
    M, w = p.built.blocks[i].M, p.built._w[i]

    def matrix(gamma):
        return (np.eye(len(M)) + (gamma / w) * M).tobytes()

    own = {matrix(p.schedule.value(k)) for k in range(steps)}     # gamma_0 = gamma_1
    limit = matrix(p.schedule.limit)
    assert limit not in own and inverted.pop(limit) == 1
    assert all(inverted.pop(m) == 1 for m in own)
    width = p.make_channel(0.0, 3.0)._width
    assert 1 < width < steps
    assert len(stacks) == -(-steps // width) and calls == [3] * len(stacks)
    # the unused tail: the steps past the horizon that the last window read
    assert set(inverted.values()) <= {1} and len(inverted) == len(stacks) * width - steps


@pytest.mark.parametrize("d, width", [(20, 40), (60, 4)])
def test_generator_windows_leave_the_trace(monkeypatch, d, width):
    # the generators' larger blocks, the limit in every stack: a run whose
    # steps each invert their own matrix writes the same trace bytes
    def run():
        p = make_multiblock_nonstationary("harmonic", d=d)
        assert p.make_channel(0.1, 3.0)._width == width
        tr = p.run(0.1, 3.0, 300)
        return [tr.stop_reason] + [a.tobytes() for a in (
            tr.lam, tr.eps_norm, tr.res_norm, tr.erg_norm, tr.disp_norm, tr.z_final)]

    stacked, stacks = run(), []
    monkeypatch.setattr(LinearBlock, "prepare", MonotoneBlock.prepare)
    monkeypatch.setattr("kmcert.splitting._inverse",
                        lambda A: stacks.append(A.ndim) or _inverse(A))
    assert run() == stacked and stacks and 3 not in stacks


# ---------------------------------------------------------------------------
# the error-channel contract
# ---------------------------------------------------------------------------

class ZeroingGenerator:
    """A seeded generator whose normal stream, counted value by value across
    its calls, reads 0 at the positions ``zeros``; ``calls`` counts its
    ``standard_normal`` calls (the only draws a channel makes) and
    ``position`` the values drawn."""

    def __init__(self, seed, zeros=()):
        self._rng = np.random.default_rng(seed)
        self._zeros = np.array(sorted(zeros), dtype=int)
        self.calls = self.position = 0

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        flat = out.reshape(-1)
        at = self._zeros[(self._zeros >= self.position)
                         & (self._zeros < self.position + flat.size)]
        flat[at - self.position] = 0.0
        self.calls += 1
        self.position += flat.size
        return out


def rejected_positions(sizes, rejections):
    """The stream positions that zero ``count`` successive draws of stage
    ``stage`` at step ``step``, for each ``(step, stage, count)`` in stream
    order, in a channel with stage sizes ``sizes`` whose steps all draw."""
    offsets, positions, shift = np.cumsum((0,) + tuple(sizes)), [], 0
    for step, stage, count in rejections:
        start = step * sum(sizes) + int(offsets[stage]) + shift
        positions.extend(range(start, start + count * sizes[stage]))
        shift += count * sizes[stage]
    return positions


def two_dual_pds(law):
    """The primal-dual channel of a splitting with two dual terms of
    different sizes (2 and 4) on a primal block of size 3."""
    rng = np.random.default_rng(4)
    duals = [PdsDualTerm(block=L1Block(1.0), L=0.1 * rng.standard_normal((m, 3)),
                         sigma=0.5, omega=0.5) for m in (2, 4)]
    built = PdsBuilt(primal_block=ZeroBlock(), tau=0.5, dim_primal=3, duals=duals)
    return SplittingChannel(built, law)


def segments(sizes):
    """The stage errors of an error-stream row, split at the stage sizes."""
    return lambda eps, row: np.split(row, np.cumsum(sizes)[:-1])


# label: (channel of a law, its stage errors in draw order from its reported
# error and its step's error-stream row, the stage sizes, the share of the
# law per stage, and whether a stage is drawn in the space norm rather than
# the Euclidean one)
CHANNELS = {
    "bare": (lambda law: Channel(make_zero_map(d=4).operator, law),
             lambda eps, row: [eps], [4], 1.0, True),
    "gfb": (lambda law: SplittingChannel(make_gfb_multiblock(3, 5).built, law),
            segments([5, 5, 5, 5]), [5, 5, 5, 5], 2.0, False),
    "drs": (lambda law: SplittingChannel(make_two_subspaces(np.pi / 4, 3).built, law),
            segments([3, 3]), [3, 3], 2.0, False),
    "pds": (two_dual_pds, segments([3, 3, 2, 4, 2, 4]), [3, 3, 2, 4, 2, 4], 4.0, False),
    # gamma_k = gamma: the reported error is (exact + injected) - exact
    "gfb-schedule": (lambda law: GfbScheduleChannel(
        make_multiblock_nonstationary("constant", d=5).built,
        GammaSchedule.constant(1.5), law), lambda eps, row: [eps], [15], 1.0, True),
}


@pytest.mark.parametrize("label", sorted(CHANNELS))
def test_channel_draws_its_stages_in_order_at_their_share_of_the_law(label):
    # batched seeds rely on this order: one rng stream, stage by stage, as if
    # each stage had its own standard_normal call; the stream takes a chunk
    # of steps at once, so the run covers three chunks, with discarded
    # segments at a chunk's first segment, at a middle stage, and twice in a
    # row at a chunk's last segment
    make, stages, sizes, share, in_space_norm = CHANNELS[label]
    c, p = 0.3, 2.0
    channel = make(ErrorSchedule.power(c, p))
    space = channel.operator.space if in_space_norm else None
    z = np.random.default_rng(1).standard_normal(channel.operator.space.size)
    zeros = rejected_positions(sizes, [(0, 0, 1), (5, len(sizes) // 2, 1),
                                       (CHUNK - 1, len(sizes) - 1, 2), (CHUNK, 0, 1)])
    errors, replay = channel.errors(ZeroingGenerator(7, zeros)), ZeroingGenerator(7, zeros)
    steps = 2 * CHUNK + 3
    for k in range(steps):
        exact, tilde, eps = channel.evaluate(k, z, errors)
        if exact is None:       # left to the chunk: the engine finishes it so
            exact = channel.evaluate_rows(z[None])[0][0]
            eps = tilde - exact
        mag = c / share / (k + 1.0) ** p
        drawn = stages(eps, errors(k))
        assert len(drawn) == len(sizes)
        for got, size in zip(drawn, sizes):
            want = per_draw_stage(replay, size, mag, space)
            if space is not None:   # the whole error, reported as tilde - exact
                want = (exact + want) - exact
            assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(eps, tilde - exact)
    # the oracle discarded every zeroed segment
    assert replay.position == steps * sum(sizes) + len(zeros)
    # an exact channel draws nothing and reports no error
    quiet = ZeroingGenerator(7)
    exact_channel = make(ErrorSchedule.power(0.0, p))
    errors = exact_channel.errors(quiet)
    for k in range(3):
        exact, tilde, eps = exact_channel.evaluate(k, z, errors)
        assert eps is None and tilde is exact
    assert quiet.calls == 0


def oracle_rows(channel, rng, sizes, in_space_norm, steps):
    """Each of ``steps`` steps' errors as the per-draw oracle draws them:
    the unit rows of its stages, one ``standard_normal`` call each, times
    ``stage_law.magnitude(k)``; None, and no draw, for magnitude 0."""
    space = channel.operator.space if in_space_norm else None
    rows = []
    for k in range(steps):
        mag = channel.stage_law.magnitude(k)
        rows.append(None if mag == 0.0 else np.concatenate(
            [per_draw_stage(rng, size, mag, space) for size in sizes]))
    return rows


def assert_rows_equal(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), k
        if b is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), k


# (c, p): a law drawing at every step, one with subnormal magnitudes that
# reaches 0 at k = 11, and one that is 0 from k = 1 on
LAWS = {"every-step": (0.3, 2.0), "subnormal-then-0": (0.1, 300.0), "0-from-1": (0.1, 2000.0)}


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("label", sorted(CHANNELS))
def test_error_stream_rows_equal_the_per_draw_oracle(label, law):
    # the stream scales a window of CHUNK steps at once; every step's row
    # must be the oracle's unit row times its magnitude, bit for bit, with
    # discarded segments at the first step, at a window's last and next
    # steps and at the last window's first step
    make, _, sizes, _, in_space_norm = CHANNELS[label]
    channel = make(ErrorSchedule.power(*LAWS[law]))
    steps = 2 * CHUNK + 3
    drawn = sum(channel.stage_law.magnitude(k) != 0.0 for k in range(steps))
    edges = [(0, 0, 1), (CHUNK - 1, len(sizes) - 1, 2), (CHUNK, 0, 1), (2 * CHUNK, 0, 1)]
    zeros = rejected_positions(sizes, [e for e in edges if e[0] < drawn])
    errors = channel.errors(ZeroingGenerator(7, zeros))
    got = [errors(k) for k in range(steps)]
    assert_rows_equal(got, oracle_rows(channel, ZeroingGenerator(7, zeros), sizes,
                                       in_space_norm, steps))


def test_error_rows_of_a_run_stopped_inside_a_window():
    # the bare channel reports its row as the step's error; a residual stop
    # in the second window ends the run there
    make, _, sizes, _, _ = CHANNELS["bare"]
    law, problem, longest = ErrorSchedule.power(0.3, 2.0), make_zero_map(d=4), 2 * CHUNK + 3
    want = oracle_rows(make(law), np.random.default_rng(11), sizes, True, longest)

    def errors_of_run(horizon, tol):
        eps = []
        trace = run_km(make(law), problem.z0, 0.5,
                       StopRule(horizon, tol), observe=lambda steps: eps.extend(steps.eps),
                       seed=11)
        assert_rows_equal(eps, want[:trace.n_steps])
        return trace

    for horizon in (1, CHUNK - 1, CHUNK + 1, longest):
        assert errors_of_run(horizon, 0.0).n_steps == horizon
    # the first new low of the residual after step CHUNK + 40 stops the run
    res = errors_of_run(longest, 0.0).res_norm
    low = np.minimum.accumulate(res)
    stop = next(k for k in range(CHUNK + 41, longest) if res[k] < low[k - 1])
    trace = errors_of_run(longest, float(res[stop]))
    assert trace.stop_reason == "residual_tol" and trace.n_steps == stop + 1


@pytest.mark.parametrize("label", sorted(CHANNELS))
def test_exact_error_stream_never_draws(label):
    channel = CHANNELS[label][0](ErrorSchedule.power(0.0, 3.0))
    rng = ZeroingGenerator(7)
    errors = channel.errors(rng)
    assert all(errors(k) is None for k in range(2 * CHUNK + 3))
    assert rng.calls == 0


@pytest.mark.parametrize("label", sorted(CHANNELS))
def test_error_magnitude_past_the_float_range_raises_at_its_step(label):
    make = CHANNELS[label][0]
    channel = make(ErrorSchedule.power(1e200, 1.0))
    with pytest.raises(NumericalError) as want:
        channel.stage_law.magnitude(0)
    assert str(want.value).startswith("non-finite error norm at step 0: the error magnitude ")
    with pytest.raises(NumericalError) as got:
        channel.errors(np.random.default_rng(0))(0)
    assert str(got.value) == str(want.value)
    # a stage law whose magnitude grows (not one power() builds) squares
    # past the float range at k = 2, inside the first window: steps 0 and 1
    # get their rows, and step 2 raises at its turn
    channel.stage_law = ErrorSchedule(1e150, -10.0)
    errors = channel.errors(np.random.default_rng(0))
    assert errors(0) is not None and errors(1) is not None
    with pytest.raises(NumericalError, match="at step 2: the error magnitude"):
        errors(2)


def test_bare_run_with_an_overflowing_law_fails_at_step_0():
    problem = make_zero_map(d=4)
    with pytest.raises(NumericalError, match=r"^non-finite error norm at step 0: the error "
                       r"magnitude 1\.000e\+200 squares past the float range$"):
        run_km(Channel(problem.operator, ErrorSchedule.power(1e200, 1.0)), problem.z0,
               0.5, StopRule(10, 0.0))
