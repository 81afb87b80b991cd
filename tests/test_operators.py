import numpy as np
import pytest

from kmcert.errors import ParameterError, StructuralError
from kmcert.operators import (
    OperatorSpec,
    QuadraticFn,
    composition_alpha,
    gradient_step,
    moreau_envelope_gradient,
    prox_l1,
)
from kmcert.spaces import ProductSpace
from kmcert.splitting import BoxBlock, LinearBlock, SubspaceBlock
from oracles import check_averaged, check_firmly_nonexpansive, vector_operator


def affine_averaged(space, alpha, seed):
    """alpha * (c Q) + (1 - alpha) * Id with Q orthogonal and c <= 1:
    averaged by construction since c Q is non-expansive."""
    rng = np.random.default_rng(seed)
    d = space.dims[0]
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    c = rng.uniform(0.2, 1.0)
    R = c * Q

    def fn(x):
        return alpha * (R @ x) + (1.0 - alpha) * x

    return vector_operator(space, fn, alpha, f"affine({alpha:.2f})")


def identity_operator(space):
    return OperatorSpec(lambda z: z, None, "id", space)


def compose(T1, T2):
    """``T1 o T2``, certified with the constant GFB certifies its step with."""
    return OperatorSpec(lambda z: T1(T2(z)), composition_alpha(T1.alpha, T2.alpha),
                        f"({T1.label} o {T2.label})", T1.space)


class TestCompose2:
    """Two-factor compositions certified with :func:`composition_alpha`."""

    def test_two_firm_factors(self):
        assert composition_alpha(0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_forward_backward_constant(self):
        # firm backward step composed with the gamma/(2 beta)-averaged forward
        # step: the closed form 2 beta / (4 beta - gamma), 2/3 at gamma = beta
        beta = 1.0
        for gamma in (0.5, 1.0, 1.5):
            assert composition_alpha(0.5, gamma / (2.0 * beta)) == pytest.approx(
                2.0 * beta / (4.0 * beta - gamma))
        assert composition_alpha(0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_sampled_on_random_pairs(self):
        sp = ProductSpace.single(3)
        rng = np.random.default_rng(5)
        for i in range(10):
            a1, a2 = rng.uniform(0.1, 0.9, size=2)
            T1 = affine_averaged(sp, a1, seed=100 + i)
            T2 = affine_averaged(sp, a2, seed=200 + i)
            out = compose(T1, T2)
            assert check_averaged(out, out.alpha, samples=200, seed=i).passed


class TestProxL1:
    def test_shrink(self):
        out = prox_l1(np.array([2.0, -0.5]), 1.0)
        assert out == pytest.approx([1.0, 0.0])

    def test_small_threshold_limit(self):
        x = np.array([1.0, -2.0, 0.3])
        out = prox_l1(x, 1e-15)
        assert np.max(np.abs(out - x)) <= 1e-14

    def test_firmly_nonexpansive_sampled(self):
        sp = ProductSpace.single(4)
        P = vector_operator(sp, lambda x: prox_l1(x, 1.0), 0.5, "prox_l1")
        assert check_firmly_nonexpansive(P, samples=1000, seed=4).passed

    def test_optimality(self):
        # the scaled displacement must be a valid l1 subgradient at the output
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(6) * 3.0
            mu = rng.uniform(0.1, 2.0)
            u = prox_l1(x, mu)
            g = (x - u) / mu
            assert np.all(np.abs(g) <= 1.0 + 1e-12)
            on = u != 0.0
            assert np.max(np.abs(g[on] - np.sign(u[on])), initial=0.0) <= 1e-12


class TestProjections:
    """The box and subspace resolvents are projections, whatever the
    resolvent parameter."""

    def test_box(self):
        box = BoxBlock(0.0, 2.0)
        assert box.resolvent(np.array([3.0, -1.0]), 1.0) == pytest.approx([2.0, 0.0])
        with pytest.raises(ParameterError):
            BoxBlock(2.0, 0.0)

    def test_subspace_closed_form(self):
        theta = np.pi / 3.0
        U = np.array([np.cos(theta), np.sin(theta)])
        out = SubspaceBlock(U).resolvent(np.array([1.0, 0.0]), 1.0)
        assert out == pytest.approx([0.25, 0.4330127018922193], abs=1e-12)

    def test_subspace_requires_orthonormal(self):
        with pytest.raises(ParameterError):
            SubspaceBlock(np.array([1.0, 1.0]))

    def test_idempotent_sampled(self):
        rng = np.random.default_rng(12)
        U, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        sub, box = SubspaceBlock(U), BoxBlock(-0.5, 0.5)
        for _ in range(20):
            x = rng.standard_normal(5)
            p = sub.resolvent(x, 1.0)
            assert np.max(np.abs(sub.resolvent(p, 0.5) - p)) <= 1e-12
            b = box.resolvent(x, 1.0)
            assert np.max(np.abs(box.resolvent(b, 0.5) - b)) == 0.0


class TestGradientStep:
    def test_identity_hessian_unit_step(self):
        f = QuadraticFn(np.eye(2), np.zeros(2))
        T = gradient_step(f, 1.0)
        assert T.alpha == pytest.approx(0.5)
        z = T.space.vector((3.0, -1.0))
        assert T.space.norm(T(z)) == 0.0

    def test_diagonal_map_frozen(self):
        f = QuadraticFn(np.diag([0.8, 1.0]), np.zeros(2))
        T = gradient_step(f, 0.5)
        assert T.alpha == pytest.approx(0.25)
        out = T(T.space.vector((1.0, 1.0)))
        assert out == pytest.approx([0.6, 0.5], abs=1e-15)

    def test_certified_alpha_tight(self):
        # spectral oracle: R = (T - (1-a) Id)/a is diag((0.6-(1-a))/a, (0.5-(1-a))/a);
        # non-expansive iff a >= 0.25, so 0.25 passes and 0.2 fails
        f = QuadraticFn(np.diag([0.8, 1.0]), np.zeros(2))
        T = gradient_step(f, 0.5)
        assert check_averaged(T, 0.25, samples=300, seed=5).passed
        assert not check_averaged(T, 0.2, samples=300, seed=5).passed

    def test_sampled_random_spd(self):
        rng = np.random.default_rng(13)
        for i in range(5):
            G = rng.standard_normal((4, 4))
            f = QuadraticFn(G.T @ G, rng.standard_normal(4))
            gamma = rng.uniform(0.2, 1.8) * f.beta
            T = gradient_step(f, gamma)
            assert check_averaged(T, T.alpha, samples=200, seed=i).passed

    def test_range_checked(self):
        f = QuadraticFn(np.eye(2), np.zeros(2))
        with pytest.raises(ParameterError):
            gradient_step(f, 2.0)


def resolvent_linear(A, gamma):
    """``(Id + gamma A)^{-1}`` of a monotone linear map: the resolvent of a
    ``LinearBlock`` wrapped as a firmly non-expansive operator."""
    block = LinearBlock(A)
    return vector_operator(ProductSpace.single(block.M.shape[0]),
                           lambda v: block.resolvent(v, gamma), 0.5, "J(gamma A)")


class TestResolventLinear:
    def test_zero_map_gives_identity(self):
        J = resolvent_linear(np.zeros((2, 2)), 1.0)
        z = J.space.vector((1.0, -2.0))
        assert J.space.norm(J(z) - z) == 0.0

    def test_identity_halves(self):
        J = resolvent_linear(np.eye(3), 1.0)
        z = J.space.vector((2.0, 4.0, -6.0))
        assert J(z) == pytest.approx([1.0, 2.0, -3.0])

    def test_monotonicity_checked(self):
        with pytest.raises(ParameterError):
            LinearBlock(-np.eye(2))

    def test_firm_and_reflected_nonexpansive_sampled(self):
        rng = np.random.default_rng(14)
        for i in range(5):
            G = rng.standard_normal((4, 4))
            A = G.T @ G + (G - G.T)  # PSD + skew: monotone
            J = resolvent_linear(A, rng.uniform(0.1, 2.0))
            assert check_firmly_nonexpansive(J, samples=200, seed=i).passed
            refl = OperatorSpec(lambda z, J=J: J(z) * 2.0 - z, None, "refl", J.space)
            assert check_averaged(refl, 1.0, samples=200, seed=i).passed


class TestMoreauEnvelopeGradient:
    def test_inside_threshold(self):
        assert moreau_envelope_gradient(np.array([0.5]), 1.0) == pytest.approx([0.5])

    def test_outside_threshold(self):
        assert moreau_envelope_gradient(np.array([2.0]), 1.0) == pytest.approx([1.0])

    def test_cocoercive_sampled(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            x, y = rng.standard_normal((2, 5)) * 4.0
            bx = moreau_envelope_gradient(x, 0.7)
            by = moreau_envelope_gradient(y, 0.7)
            lhs = float((bx - by) @ (x - y))
            rhs = float((bx - by) @ (bx - by))
            assert lhs >= rhs - 1e-12


class TestSamplingChecks:
    def test_identity_zero_violation(self):
        sp = ProductSpace.single(3)
        rep = check_firmly_nonexpansive(identity_operator(sp), samples=100, seed=6)
        assert rep.passed and rep.max_violation <= 1e-15

    def test_doubling_fails(self):
        sp = ProductSpace.single(3)
        double = vector_operator(sp, lambda x: 2.0 * x, None, "double")
        rep = check_firmly_nonexpansive(double, samples=100, seed=7)
        assert not rep.passed and rep.max_violation > 0.0

    def test_identity_averaged_any_alpha(self):
        sp = ProductSpace.single(2)
        assert check_averaged(identity_operator(sp), 0.3, samples=100, seed=8).passed

    def test_alpha_out_of_range(self):
        sp = ProductSpace.single(2)
        with pytest.raises(ParameterError):
            check_averaged(identity_operator(sp), 1.5)


class TestModuleInvariants:
    """Every certified operator kmcert builds from these pieces passes its
    own certificate at 1000 seeded samples, and its scaled residual is firmly
    non-expansive."""

    def produced_operators(self):
        sp = ProductSpace.single(3)
        base1 = affine_averaged(sp, 0.5, seed=21)
        base2 = affine_averaged(sp, 0.7, seed=22)
        f = QuadraticFn(np.diag([0.4, 0.9, 1.3]), np.array([0.1, -0.2, 0.0]))
        rng = np.random.default_rng(23)
        G = rng.standard_normal((3, 3))
        return [
            compose(base1, base2),
            gradient_step(f, 1.0),
            resolvent_linear(G.T @ G + (G - G.T), 0.8),
        ]

    def test_certified_alpha_sampling(self):
        for op in self.produced_operators():
            rep = check_averaged(op, op.alpha, samples=1000, seed=0)
            assert rep.passed, (op.label, rep.max_violation)

    def test_scaled_residual_firm(self):
        # T is alpha-averaged iff (Id - T) / (2 alpha) is firmly non-expansive
        for op in self.produced_operators():
            s = 1.0 / (2.0 * op.alpha)
            scaled = OperatorSpec(lambda z, op=op, s=s: (z - op(z)) * s, 0.5, op.label, op.space)
            rep = check_firmly_nonexpansive(scaled, samples=1000, seed=1)
            assert rep.passed, (op.label, rep.max_violation)


class TestQuadraticFn:
    def test_symmetry_required(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(StructuralError):
            QuadraticFn(M, np.zeros(2))

    def test_eigen_extremes(self):
        # the cocoercivity modulus is one over the largest eigenvalue
        f = QuadraticFn(np.diag([0.3, 2.0]), np.zeros(2))
        assert f.beta == pytest.approx(0.5)
