"""Special-function and quadrature primitives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_laguerre

from cvteleport import (
    ConfigurationError,
    DomainError,
    fock_wigner,
    gauss_hermite,
    grid_integrate,
    laguerre,
    vacuum_wigner,
)
from cvteleport.phase_space import WignerGrid


def test_laguerre_low_orders():
    assert laguerre(0, 3.7) == 1.0
    assert laguerre(1, 2.0) == -1.0
    assert_allclose(laguerre(2, 1.0), -0.5, rtol=0, atol=1e-15)


def test_recurrences_match_direct_evaluation():
    # m <= 5 at 20 random points against the scipy evaluator
    rng = np.random.default_rng(7)
    xs = rng.uniform(-4.0, 8.0, size=20)
    for m in range(6):
        got_l = np.array([laguerre(m, x) for x in xs])
        assert_allclose(got_l, eval_laguerre(m, xs), rtol=1e-10, atol=1e-10)


def test_laguerre_vectorized_argument():
    x = np.linspace(0.0, 10.0, 11)
    assert_allclose(laguerre(3, x), eval_laguerre(3, x), rtol=1e-12)


def test_degree_validation():
    with pytest.raises(DomainError):
        laguerre(-1, 0.0)
    with pytest.raises(DomainError):
        laguerre(2.5, 0.0)


def test_gauss_hermite_small_orders():
    r1 = gauss_hermite(1)
    assert_allclose(r1.nodes, [0.0], atol=1e-14)
    assert_allclose(r1.weights, [math.sqrt(math.pi)], rtol=1e-14)
    r2 = gauss_hermite(2)
    assert_allclose(r2.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-14)
    assert_allclose(r2.weights, [math.sqrt(math.pi) / 2] * 2, rtol=1e-14)


def test_gauss_hermite_fourth_moment():
    r = gauss_hermite(40)
    moment = np.sum(r.weights * r.nodes**4)
    assert_allclose(moment, 0.75 * math.sqrt(math.pi), rtol=0, atol=1e-12)


def test_gauss_hermite_rule_invariants():
    for order in (1, 5, 40, 150):
        r = gauss_hermite(order)
        assert r.order == order
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(np.asarray(r.weights) > 0)
        assert_allclose(np.sum(r.weights), math.sqrt(math.pi), rtol=0, atol=1e-12)


def test_gauss_hermite_polynomial_exactness():
    # order k integrates x^j exactly for j <= 2k-1
    k = 6
    r = gauss_hermite(k)
    for j in range(2 * k):
        got = np.sum(r.weights * r.nodes ** j)
        exact = 0.0 if j % 2 else math.gamma((j + 1) / 2)
        assert_allclose(got, exact, rtol=1e-10, atol=1e-10)


def test_gauss_hermite_order_bounds():
    with pytest.raises(ConfigurationError):
        gauss_hermite(0)
    with pytest.raises(ConfigurationError):
        gauss_hermite(201)


def test_grid_integrate_normalized_states():
    assert_allclose(grid_integrate(vacuum_wigner()), 1.0, rtol=0, atol=1e-6)
    assert_allclose(grid_integrate(fock_wigner(2)), 1.0, rtol=0, atol=1e-6)


def test_grid_integrate_zeros():
    g = WignerGrid(sigma=0.0, extent=6.0, resolution=64, values=np.zeros((64, 64)))
    assert grid_integrate(g) == 0.0
