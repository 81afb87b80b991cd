"""Property tests for the pure numeric kernels."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmcert.bounds import local_zeta, pointwise_bound, BoundConstants
from kmcert.operators import CocoerciveMap, _soft
from kmcert.splitting import BoxBlock, L1Block
from oracles import prox_l1

finite_vec = arrays(np.float64, st.integers(1, 8),
                    elements=st.floats(-50.0, 50.0))


@given(finite_vec, st.floats(1e-3, 10.0))
def test_prox_l1_subgradient_optimality(x, mu):
    u = L1Block(mu).resolvent(x, 1.0)
    g = (x - u) / mu
    # the division amplifies the cancellation in x - u by |x|/mu ulps
    tol = 1e-12 + 4.0 * np.finfo(float).eps * float(np.max(np.abs(x), initial=1.0)) / mu
    assert np.all(np.abs(g) <= 1.0 + tol)
    on = u != 0.0
    assert np.all(np.abs(g[on] - np.sign(u[on])) <= tol)


@given(finite_vec, finite_vec, st.floats(1e-3, 10.0))
def test_prox_l1_firmly_nonexpansive(x, y, mu):
    # truncate to a common dimension so the pair is comparable
    d = min(x.size, y.size)
    x, y = x[:d], y[:d]
    blk = L1Block(mu)
    du = blk.resolvent(x, 1.0) - blk.resolvent(y, 1.0)
    assert float(du @ du) <= float(du @ (x - y)) + 1e-9


@given(finite_vec, st.floats(1e-3, 5.0))
def test_envelope_gradient_bounded_by_threshold(x, mu):
    g = CocoerciveMap.envelope_l1(mu).fn(x)
    assert np.all(np.abs(g) <= mu + 1e-12)


@given(finite_vec, st.floats(-5.0, 0.0), st.floats(0.0, 5.0))
def test_project_box_idempotent_and_inside(x, lo, hi):
    box = BoxBlock(lo, hi)
    p = box.resolvent(x, 1.0)
    assert np.all(p >= lo - 1e-15) and np.all(p <= hi + 1e-15)
    assert np.array_equal(box.resolvent(p, 1.0), p)


# signed zeros, infinities and NaN, at the bounds and off them
EDGE = st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf])
VALUE = EDGE | st.sampled_from([np.nan, -np.nan]) | st.floats(-3.0, 3.0)


@st.composite
def boxes_and_stacks(draw):
    """``(lo, hi, V)``: the bounds of a box, ``-inf <= lo <= hi <= inf``
    with finite ``lo == hi`` and either order of two signed zeros included,
    and a ``(C, d)`` stack of values."""
    d, C = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    pairs = [sorted(draw(st.lists(EDGE | st.floats(-2.0, 2.0), min_size=2, max_size=2)))
             for _ in range(d)]
    pairs = [(-np.inf if lo == np.inf else lo, np.inf if hi == -np.inf else hi)
             for lo, hi in pairs]      # a box holds a real point
    lo, hi = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    at_bounds = st.sampled_from([*lo, *hi, *-lo, *-hi])     # signs flipped too
    V = np.array(draw(st.lists(st.lists(VALUE | at_bounds, min_size=d, max_size=d),
                               min_size=C, max_size=C)))
    return lo, hi, V


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# np.minimum(np.maximum(v, lo), hi) gives +0.0 here
@example((np.array([0.0]), np.array([0.0]), np.array([[-0.0]])))
@given(boxes_and_stacks())
def test_box_resolvent_is_clip_bit_for_bit(case):
    lo, hi, V = case
    box = BoxBlock(lo, hi)
    assert same_bits(box.resolvent(V[0], 1.0), np.clip(V[0], lo, hi))
    assert same_bits(box.resolvent(V, 1.0), np.clip(V, lo, hi))
    # the strided rows a product-space evaluation hands over
    S = np.stack([np.zeros_like(V), V], axis=1)[:, 1]
    assert same_bits(box.resolvent(S, 1.0), np.clip(S, lo, hi))


TINY, HUGE = 5e-324, np.finfo(float).max


@st.composite
def thresholds_and_stacks(draw):
    """``(mu, V)``: a threshold ``mu > 0``, subnormal to huge, and a ``(C,
    d)`` stack of values: signed zeros, ``+-mu`` and their neighbours,
    infinities, NaN, subnormals, huge values and any other float."""
    mu = draw(st.sampled_from([TINY, 1e-310, 0.3, 1.0, 1e300, HUGE / 2])
              | st.floats(TINY, HUGE, exclude_min=False))
    edges = [0.0, -0.0, mu, -mu, math.nextafter(mu, 0.0), math.nextafter(mu, math.inf),
             -math.nextafter(mu, math.inf), np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY,
             2.2e-308, -1e-310, HUGE, -HUGE]
    value = st.sampled_from(edges) | st.floats(allow_nan=True, allow_infinity=True)
    d, C = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    V = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                               min_size=C, max_size=C)))
    return mu, V


def same_soft(out, want):
    # bit for bit where the threshold is a non-zero number, == 0 where it is
    # 0, NaN where it is NaN: the sign form's NaN sign bit depends on the
    # array's length (a -nan reads +nan in a row of ten), not on the value
    zero, nan = want == 0.0, np.isnan(want)
    num = ~(zero | nan)
    return (out.shape == want.shape and np.array_equal(out == 0.0, zero)
            and np.array_equal(np.isnan(out), nan) and same_bits(out[num], want[num]))


# the sign form gives -0.0 at -mu <= x < 0, and +0.0 at x = -0.0
@example((1.0, np.array([[-0.0, 0.0, -1.0, 1.0, -0.5]])))
@given(thresholds_and_stacks())
def test_soft_threshold_is_the_sign_form_up_to_signed_zeros(case):
    mu, V = case
    blk = L1Block(mu)
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_soft(blk.resolvent(V[0], 1.0), prox_l1(V[0], mu))
        assert same_soft(blk.resolvent(V, 1.0), prox_l1(V, mu))
        # the strided rows a product-space evaluation hands over
        S = np.stack([np.zeros_like(V), V], axis=1)[:, 1]
        assert same_soft(blk.resolvent(S, 1.0), prox_l1(S, mu))
        assert same_soft(_soft(S, mu), prox_l1(S, mu))


@given(st.floats(1e-9, 1e3), st.floats(1e-6, 1e3))
def test_local_zeta_in_unit_interval(tau, kappa):
    z = local_zeta(tau, kappa)
    assert 0.0 <= z < 1.0


@settings(max_examples=50)
@given(st.floats(0.01, 10.0), st.floats(0.0, 10.0), st.floats(0.01, 1.0),
       st.integers(0, 1000))
def test_pointwise_bound_monotone_in_k(d0, C1, tau_min, k):
    bc = BoundConstants(d0, tau_min, tau_min, 0.0, 0.0, C1, 0.0)
    assert pointwise_bound(k + 1, bc) <= pointwise_bound(k, bc) + 1e-15
