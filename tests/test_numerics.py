"""Quadrature and grid-integration primitives."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvteleport import (
    ConfigurationError,
    fock_wigner,
    gauss_hermite,
    grid_integrate,
    vacuum_wigner,
)
from cvteleport.phase_space import WignerGrid


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
    g = WignerGrid(sigma=0.0, extent=6.0, values=np.zeros((64, 64)))
    assert grid_integrate(g) == 0.0
