"""Quadrature and grid-integration primitives."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvteleport import (
    ConfigurationError,
    fock_wigner,
    gauss_hermite,
    grid_integrate,
    squeezed_vacuum_wigner,
    teleport_state,
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
        assert len(r.nodes) == order
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
    for flag in (True, False):
        with pytest.raises(ConfigurationError):
            gauss_hermite(flag)


def test_gauss_hermite_builds_each_order_once():
    rule = gauss_hermite(40)
    assert gauss_hermite(40) is rule
    assert gauss_hermite(np.int64(40)) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    gauss_hermite(1)  # cached: the order check must come before the lookup
    for flag in (True, False, 1.0, np.float64(1.0)):
        with pytest.raises(ConfigurationError):
            gauss_hermite(flag)


# counts hermgauss calls: none at import, one per order however often it is asked for
_COUNT_RULES = """
import numpy.polynomial.hermite as hermite
calls = []
build = hermite.hermgauss
hermite.hermgauss = lambda order: calls.append(order) or build(order)
import cvteleport
at_import = list(calls)
grid, ch = cvteleport.fock_wigner(1, 6.0, 16), cvteleport.two_mode_squeezed_vacuum(0.5)
for _ in range(2):
    cvteleport.protocol_oracle(grid, ch, 8)
    cvteleport.measurement_density(grid, ch, 0.1, 0.2)
    cvteleport.reconstruct_p(cvteleport.decompose(cvteleport.PExponentMatrix(2.0, 2.0, -0.5)),
                             cvteleport.PExponentMatrix(2.0, 2.0, -0.5), 0.3, 0.2j)
print(at_import, calls)
"""


def test_import_builds_no_rule_and_no_rule_is_rebuilt():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _COUNT_RULES], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] [40, 30]", proc.stdout


def test_grid_integrate_normalized_states():
    assert_allclose(grid_integrate(vacuum_wigner()), 1.0, rtol=0, atol=1e-6)
    assert_allclose(grid_integrate(fock_wigner(2)), 1.0, rtol=0, atol=1e-6)


def test_grid_integrate_zeros():
    g = WignerGrid(sigma=0.0, extent=6.0, values=np.zeros((64, 64)))
    assert grid_integrate(g) == 0.0


def _double_trapezoid(g):
    """Reference: the double np.trapezoid over the grid's own axis."""
    ax = g.axes()
    return float(np.trapezoid(np.trapezoid(g.values, ax, axis=1), ax))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(vacuum_wigner, id="vacuum"),
        pytest.param(lambda: fock_wigner(5), id="fock5"),
        pytest.param(lambda: squeezed_vacuum_wigner(0.7, extent=8.0), id="squeezed0.7"),
        pytest.param(lambda: teleport_state(fock_wigner(3), 0.8812), id="teleported-fock3"),
        pytest.param(lambda: fock_wigner(3, 8.0, 512), id="fock3-512"),
        pytest.param(lambda: WignerGrid(sigma=0.0, extent=6.0, values=np.zeros((64, 64))), id="zeros"),
    ],
)
def test_grid_integrate_matches_double_trapezoid(make):
    g = make()
    assert abs(grid_integrate(g) - _double_trapezoid(g)) <= 1e-14
