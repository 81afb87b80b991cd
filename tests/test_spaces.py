import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmcert.errors import StructuralError
from kmcert.problems import make_pds_small
from kmcert.spaces import ProductSpace, apply_rows
from oracles import block_norm, metric_inner, project_diagonal, reflect_diagonal, sample_ball


def pp(blocks, weights):
    """A space of the blocks' layout and the given weights, and the point."""
    sp = ProductSpace(tuple(np.size(b) for b in blocks), weights)
    return sp, sp.point(blocks)


def random_space(rng, n=3, d=4):
    w = rng.uniform(0.2, 1.0, size=n)
    return ProductSpace((d,) * n, w / w.sum())


class TestWeightedInner:
    def test_orthonormal_blocks(self):
        sp, x = pp([(1.0, 0.0), (0.0, 1.0)], (0.5, 0.5))
        assert metric_inner(sp, x, x) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_blocks(self):
        sp, x = pp([(1.0, 0.0), (1.0, 0.0)], (0.3, 0.7))
        y = sp.point([(0.0, 1.0), (0.0, 1.0)])
        assert metric_inner(sp, x, y) == 0.0

    def test_against_flattened_oracle(self):
        # oracle: scale each block by its weight, flatten, take one dot product
        rng = np.random.default_rng(0)
        for _ in range(20):
            sp = random_space(rng)
            x, y = rng.standard_normal((2, sp.size))
            flat = np.concatenate([w * b for w, b in zip(sp.weights, sp.blocks(x))])
            oracle = float(flat @ y)
            assert metric_inner(sp, x, y) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        sp = random_space(rng)
        x, y, z = rng.standard_normal((3, sp.size))
        assert metric_inner(sp, x, y) == pytest.approx(metric_inner(sp, y, x), abs=1e-12)
        lhs = metric_inner(sp, x, y + z * 2.0)
        rhs = metric_inner(sp, x, y) + 2.0 * metric_inner(sp, x, z)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(StructuralError):
            pp([(np.nan, 0.0)], (1.0,))


class TestProjectDiagonal:
    def test_weighted_mean(self):
        sp, z = pp([(1.0,), (3.0,)], (0.5, 0.5))
        out = sp.blocks(project_diagonal(sp, z))
        assert out[0] == pytest.approx([2.0])
        assert out[1] == pytest.approx([2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        sp = random_space(rng)
        once = project_diagonal(sp, rng.standard_normal(sp.size))
        twice = project_diagonal(sp, once)
        assert np.max(np.abs(once - twice)) <= 1e-14

    def test_self_adjoint_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sp = random_space(rng)
            z, w = rng.standard_normal((2, sp.size))
            lhs = metric_inner(sp, project_diagonal(sp, z), w)
            rhs = metric_inner(sp, z, project_diagonal(sp, w))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            sp = random_space(rng)
            z = rng.standard_normal(sp.size)
            p = project_diagonal(sp, z)
            total = sp.norm(z) ** 2
            parts = sp.norm(p) ** 2 + sp.norm(z - p) ** 2
            assert total == pytest.approx(parts, abs=1e-10)

    def test_nonexpansive_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sp = random_space(rng)
            z = rng.standard_normal(sp.size)
            assert sp.norm(project_diagonal(sp, z)) <= sp.norm(z) + 1e-12

    def test_unnormalized_weights_rejected(self):
        sp, z = pp([(1.0,), (3.0,)], (1.0, 1.0))
        with pytest.raises(StructuralError):
            project_diagonal(sp, z)


class TestReflectDiagonal:
    def test_swap_about_mean(self):
        sp, z = pp([(1.0,), (3.0,)], (0.5, 0.5))
        out = sp.blocks(reflect_diagonal(sp, z))
        assert out[0] == pytest.approx([3.0])
        assert out[1] == pytest.approx([1.0])

    def test_fixes_diagonal(self):
        sp, z = pp([(1.0, -2.0)] * 3, (0.2, 0.3, 0.5))
        assert np.max(np.abs(reflect_diagonal(sp, z) - z)) <= 1e-14

    def test_involution_and_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            sp = random_space(rng)
            z = rng.standard_normal(sp.size)
            r = reflect_diagonal(sp, z)
            rr = reflect_diagonal(sp, r)
            assert sp.norm(rr - z) <= 1e-12
            assert sp.norm(r) == pytest.approx(sp.norm(z), abs=1e-12)


class TestProductSpace:
    def test_point_layout_checked(self):
        sp = ProductSpace((2, 2), (0.5, 0.5))
        with pytest.raises(StructuralError):
            sp.point([(1.0, 2.0, 3.0), (1.0, 2.0)])

    def test_sampling_in_ball(self):
        sp = ProductSpace((3, 3), (0.5, 0.5))
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = sample_ball(sp, rng, 10.0)
            assert sp.norm(z) <= 10.0 + 1e-12

    def test_metric_norm(self):
        # metric = doubled weighted inner product
        sp = ProductSpace((2,), (1.0,), metric=2.0 * np.eye(2))
        z = sp.vector((3.0, 4.0))
        assert sp.base_norm(z) == pytest.approx(5.0)
        assert sp.norm(z) == pytest.approx(5.0 * np.sqrt(2.0))


# ---------------------------------------------------------------------------
# flat layout: bit-exact against the per-block formulas
# ---------------------------------------------------------------------------

def ref_inner(weights, xs, ys):
    """Per-block reference: one dot per block, added in block order."""
    acc = 0.0
    for w, a, b in zip(weights, xs, ys):
        acc += w * float(np.dot(a, b))
    return acc


def ref_norm(weights, xs, ys):
    return float(np.sqrt(max(ref_inner(weights, xs, ys), 0.0)))


@st.composite
def layouts(draw):
    """Block dims and positive weights of 1-4 blocks, two points' blocks as
    separate arrays, a scalar and, optionally, a positive diagonal metric."""
    dims = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    weights = draw(st.lists(st.floats(1e-3, 10.0), min_size=len(dims),
                            max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = [[rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4) for d in dims]
           for _ in range(2)]
    diag = ([rng.uniform(0.1, 3.0, d) for d in dims]
            if draw(st.booleans()) else None)
    return dims, np.array(weights), pts, draw(st.floats(-1e3, 1e3)), diag


@settings(max_examples=150, deadline=None)
@given(layouts())
def test_flat_points_match_per_block_formulas_bit_exactly(drawn):
    dims, w, (xs, ys), s, diag = drawn
    metric = None if diag is None else np.diag(np.concatenate(diag))
    sp = ProductSpace(dims, w, metric=metric)
    x, y = sp.point(xs), sp.point(ys)

    assert metric_inner(ProductSpace(dims, w), x, y) == ref_inner(w, xs, ys)
    assert sp.base_norm(x) == ref_norm(w, xs, xs)
    my = ys if diag is None else [d * b for d, b in zip(diag, ys)]
    assert sp.norm(y) == ref_norm(w, ys, my)

    for got, want in ((x + y, [a + b for a, b in zip(xs, ys)]),
                      (x - y, [a - b for a, b in zip(xs, ys)]),
                      (x * s, [a * s for a in xs]),
                      (s * x, [a * s for a in xs]),
                      (-x, [-a for a in xs])):
        assert got.shape == (sp.size,)
        for blk, ref in zip(sp.blocks(got), want):
            assert np.array_equal(blk, ref)

    for blk, d in zip(sp.blocks(x), dims):
        assert blk.shape == (d,) and blk.base is x


# ---------------------------------------------------------------------------
# the space's inner-product kernel: bit-exact against one dot per block slice
# ---------------------------------------------------------------------------

KERNEL_DIMS = (1, 2, 3, 4, 5, 7, 8, 10, 16, 17, 20, 33, 60, 64, 100)


def spread(rng, size):
    """Gaussian entries scaled by magnitudes drawn log-uniformly in [1e-8, 1e8]."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_vecdot_rows_equal_per_row_dots(d):
    # equal-block spaces sum row-wise np.vecdot: each row must be x.dot(y)
    rng = np.random.default_rng(d)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            x, y = spread(rng, (n, d)), spread(rng, (n, d))
            rows = np.vecdot(x, y).tolist()
            assert rows == [float(a.dot(b)) for a, b in zip(x, y)]


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_norms_equal_the_per_block_oracle_bit_for_bit(d):
    rng = np.random.default_rng(1000 + d)
    for n in (1, 2, 3, 4):
        # equal blocks (one block is its own kernel), and one block longer
        for dims in ((d,) * n, (d,) * (n - 1) + (d + 1,)):
            w = rng.uniform(0.01, 10.0, n)
            diag = rng.uniform(0.1, 3.0, sum(dims))
            plain = ProductSpace(dims, w)
            metric = ProductSpace(dims, w, metric=np.diag(diag))
            for _ in range(10):
                a = spread(rng, sum(dims))
                assert plain.norm(a) == block_norm(plain, a)
                assert plain.base_norm(a) == block_norm(plain, a)
                assert metric.norm(a) == block_norm(metric, a)
                assert metric.base_norm(a) == block_norm(metric, a, metric=False)


# ---------------------------------------------------------------------------
# stack kernels: the certification hooks' row norms and matrix applications
# ---------------------------------------------------------------------------

@st.composite
def stacked_layouts(draw):
    """A space of one of the layouts a kernel is picked for (one block,
    equal blocks, mixed blocks), with or without a dense symmetric positive
    definite metric, and a stack of rows in it."""
    kind = draw(st.sampled_from(["single", "equal", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "single":
        dims = (int(rng.integers(1, 61)),)
    elif kind == "equal":
        dims = (int(rng.integers(1, 31)),) * int(rng.integers(2, 5))
    else:
        dims = tuple(int(d) for d in rng.integers(1, 31, int(rng.integers(2, 5))))
    weights = rng.uniform(1e-3, 10.0, len(dims))
    metric = None
    if draw(st.booleans()):
        R = rng.standard_normal((sum(dims), sum(dims)))
        metric = R @ R.T + sum(dims) * np.eye(sum(dims))
    rows = int(rng.integers(1, 40))
    return ProductSpace(dims, weights, metric=metric), spread(rng, (rows, sum(dims)))


@settings(max_examples=150, deadline=None)
@given(stacked_layouts())
def test_row_norms_equal_the_point_norms_bit_for_bit(drawn):
    sp, A = drawn
    assert sp.norms(A).tolist() == [sp.norm(a) for a in A]
    assert sp.norms(A, base=True).tolist() == [sp.base_norm(a) for a in A]


def test_stacked_matrix_application_equals_per_row_products():
    # apply_rows(A, X) is np.matmul(A, X[..., None])[..., 0]; each row must be
    # A @ x for the shapes the hooks apply: a quadratic's Q, a linear block's
    # M, a subspace basis U and its transpose, and the PDS metric
    rng = np.random.default_rng(14)
    pds = make_pds_small(seed=3).operator.space.metric
    for d in (1, 2, 4, 12, 20, 33, 60):
        R = rng.standard_normal((d, d))
        U, _ = np.linalg.qr(rng.standard_normal((d, max(1, d // 3))))
        for A in (R @ R.T, 0.5 * np.eye(d) + 0.5 * (R - R.T), U, U.T, pds):
            X = spread(rng, (50, A.shape[1]))
            assert np.array_equal(apply_rows(A, X), np.array([A @ x for x in X]))
            assert np.array_equal(apply_rows(A, X[0]), A @ X[0])

    # the assumption is not vacuous: the two other stacked forms round
    # differently on this draw, so a numpy where they agree shows here
    A, X = rng.standard_normal((60, 60)), spread(rng, (50, 60))
    per_row = np.array([A @ x for x in X])
    assert not np.array_equal(X @ A.T, per_row)
    assert not np.array_equal(np.einsum("ij,cj->ci", A, X), per_row)
