"""Property tests for the pure numeric kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmcert.bounds import local_zeta, pointwise_bound, BoundConstants
from kmcert.operators import moreau_envelope_gradient, prox_l1
from kmcert.splitting import BoxBlock

finite_vec = arrays(np.float64, st.integers(1, 8),
                    elements=st.floats(-50.0, 50.0))


@given(finite_vec, st.floats(1e-3, 10.0))
def test_prox_l1_subgradient_optimality(x, mu):
    u = prox_l1(x, mu)
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
    du = prox_l1(x, mu) - prox_l1(y, mu)
    assert float(du @ du) <= float(du @ (x - y)) + 1e-9


@given(finite_vec, st.floats(1e-3, 5.0))
def test_envelope_gradient_bounded_by_threshold(x, mu):
    g = moreau_envelope_gradient(x, mu)
    assert np.all(np.abs(g) <= mu + 1e-12)


@given(finite_vec, st.floats(-5.0, 0.0), st.floats(0.0, 5.0))
def test_project_box_idempotent_and_inside(x, lo, hi):
    box = BoxBlock(lo, hi)
    p = box.resolvent(x, 1.0)
    assert np.all(p >= lo - 1e-15) and np.all(p <= hi + 1e-15)
    assert np.array_equal(box.resolvent(p, 1.0), p)


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
