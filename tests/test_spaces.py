import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kmcert.errors import StructuralError
from kmcert.spaces import ProductPoint, ProductSpace, weighted_inner
from oracles import project_diagonal, reflect_diagonal, sample_ball


def weighted_norm(x):
    return math.sqrt(max(weighted_inner(x, x), 0.0))


def pp(blocks, weights):
    return ProductPoint(blocks, weights)


def random_pp(rng, n=3, d=4, weights=None):
    if weights is None:
        w = rng.uniform(0.2, 1.0, size=n)
        weights = w / w.sum()
    return ProductPoint([rng.standard_normal(d) for _ in range(n)], weights)


class TestWeightedInner:
    def test_orthonormal_blocks(self):
        x = pp([(1.0, 0.0), (0.0, 1.0)], (0.5, 0.5))
        assert weighted_inner(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_blocks(self):
        x = pp([(1.0, 0.0), (1.0, 0.0)], (0.3, 0.7))
        y = pp([(0.0, 1.0), (0.0, 1.0)], (0.3, 0.7))
        assert weighted_inner(x, y) == 0.0

    def test_against_flattened_oracle(self):
        # oracle: scale each block by its weight, flatten, take one dot product
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = random_pp(rng)
            y = ProductPoint([rng.standard_normal(4) for _ in range(3)], x.weights)
            flat = np.concatenate([w * b for w, b in zip(x.weights, x.blocks)])
            oracle = float(flat @ np.concatenate(y.blocks))
            assert weighted_inner(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        x, = [random_pp(rng)]
        y = ProductPoint([rng.standard_normal(4) for _ in range(3)], x.weights)
        z = ProductPoint([rng.standard_normal(4) for _ in range(3)], x.weights)
        assert weighted_inner(x, y) == pytest.approx(weighted_inner(y, x), abs=1e-12)
        lhs = weighted_inner(x, y + z * 2.0)
        rhs = weighted_inner(x, y) + 2.0 * weighted_inner(x, z)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_mismatch_rejected(self):
        x = pp([(1.0, 0.0)], (1.0,))
        y = pp([(1.0, 0.0), (0.0, 1.0)], (0.5, 0.5))
        with pytest.raises(StructuralError):
            weighted_inner(x, y)
        y2 = pp([(1.0, 0.0)], (0.5,))
        with pytest.raises(StructuralError):
            weighted_inner(x, y2)

    def test_nonfinite_rejected(self):
        with pytest.raises(StructuralError):
            pp([(np.nan, 0.0)], (1.0,))


class TestProjectDiagonal:
    def test_weighted_mean(self):
        z = pp([(1.0,), (3.0,)], (0.5, 0.5))
        out = project_diagonal(z)
        assert out.blocks[0] == pytest.approx([2.0])
        assert out.blocks[1] == pytest.approx([2.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        z = random_pp(rng)
        once = project_diagonal(z)
        twice = project_diagonal(once)
        for a, b in zip(once.blocks, twice.blocks):
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_self_adjoint_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = random_pp(rng)
            w = ProductPoint([rng.standard_normal(4) for _ in range(3)], z.weights)
            lhs = weighted_inner(project_diagonal(z), w)
            rhs = weighted_inner(z, project_diagonal(w))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            z = random_pp(rng)
            p = project_diagonal(z)
            total = weighted_norm(z) ** 2
            parts = weighted_norm(p) ** 2 + weighted_norm(z - p) ** 2
            assert total == pytest.approx(parts, abs=1e-10)

    def test_nonexpansive_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = random_pp(rng)
            assert weighted_norm(project_diagonal(z)) <= weighted_norm(z) + 1e-12

    def test_unnormalized_weights_rejected(self):
        z = pp([(1.0,), (3.0,)], (1.0, 1.0))
        with pytest.raises(StructuralError):
            project_diagonal(z)


class TestReflectDiagonal:
    def test_swap_about_mean(self):
        z = pp([(1.0,), (3.0,)], (0.5, 0.5))
        out = reflect_diagonal(z)
        assert out.blocks[0] == pytest.approx([3.0])
        assert out.blocks[1] == pytest.approx([1.0])

    def test_fixes_diagonal(self):
        z = pp([(1.0, -2.0)] * 3, (0.2, 0.3, 0.5))
        out = reflect_diagonal(z)
        for a, b in zip(out.blocks, z.blocks):
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_involution_and_isometry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z = random_pp(rng)
            r = reflect_diagonal(z)
            rr = reflect_diagonal(r)
            assert weighted_norm(rr - z) <= 1e-12
            assert weighted_norm(r) == pytest.approx(weighted_norm(z), abs=1e-12)


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
        sp = ProductSpace((2,), (1.0,), metric_op=lambda z: z * 2.0)
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
    metric = None
    if diag is not None:
        def metric(a):
            return np.concatenate([d * a[s] for d, s in zip(diag, sp._slices)])
    sp = ProductSpace(dims, w, metric_op=metric)
    x, y = sp.point(xs), sp.point(ys)

    assert weighted_inner(x, y) == ref_inner(w, xs, ys)
    assert sp.base_norm(x) == ref_norm(w, xs, xs)
    my = ys if diag is None else [d * b for d, b in zip(diag, ys)]
    assert sp.norm(y) == ref_norm(w, ys, my)

    for got, want in ((x + y, [a + b for a, b in zip(xs, ys)]),
                      (x - y, [a - b for a, b in zip(xs, ys)]),
                      (x * s, [a * s for a in xs]),
                      (s * x, [a * s for a in xs]),
                      (-x, [-a for a in xs])):
        assert got.dims == tuple(dims)
        for blk, ref in zip(got.blocks, want):
            assert np.array_equal(blk, ref)

    for blk, d in zip(x.blocks, dims):
        assert blk.shape == (d,) and blk.base is x.data
