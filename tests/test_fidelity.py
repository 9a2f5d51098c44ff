"""Fidelity closed forms against the grid-overlap route."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import eval_legendre

from cvteleport import (
    ConfigurationError,
    DomainError,
    FidelityReport,
    convert_sigma,
    fock_fidelity,
    fock_wigner,
    overlap_fidelity,
    squeezed_fidelity,
    squeezed_vacuum_wigner,
    teleport_state,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    vacuum_wigner,
)
from cvteleport.cli import GRID_TOLERANCE


def legendre(m, z):
    """Legendre polynomial P_m(z) by the Bonnet recurrence; with it the
    Fock fidelity has the second closed form
    (1 - n)^m / (1 + n)^{m+1} P_m((1 + n^2) / (1 - n^2)), n != 1."""
    prev, cur = 1.0, z
    if m == 0:
        return prev
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1) * z * cur - k * prev) / (k + 1)
    return cur


def exact_fock_fidelity(m, n):
    """sum_k C(m,k)^2 n^{2(m-k)} / (1 + n)^{2m+1}, rounded once from exact
    integer arithmetic on n = a / b."""
    a, b = Fraction(n).as_integer_ratio()
    total, b_pow = 0, 1
    for k in range(m + 1):
        total = total * a * a + math.comb(m, k) ** 2 * b_pow
        b_pow *= b * b
    return b * total / (a + b) ** (2 * m + 1)


def test_legendre_low_orders():
    assert legendre(0, 5.0) == 1.0
    assert legendre(1, -0.3) == -0.3
    assert_allclose(legendre(2, 0.5), -0.125, rtol=0, atol=1e-15)
    # m <= 5 at 20 random points, arguments beyond [-1, 1] included
    zs = np.random.default_rng(7).uniform(-3.0, 3.0, size=20)
    for m in range(6):
        got = np.array([legendre(m, z) for z in zs])
        assert_allclose(got, eval_legendre(m, zs), rtol=1e-10, atol=1e-10)


def test_report_validation():
    with pytest.raises(DomainError):
        FidelityReport(value=1.2)
    r = FidelityReport(value=1.0 + 1e-10)
    assert r.value == 1.0  # clamp within round-off slack
    assert float(r) == 1.0


def test_overlap_identity_and_orthogonality():
    vac = vacuum_wigner()
    assert_allclose(overlap_fidelity(vac, vac).value, 1.0, rtol=0, atol=1e-6)
    assert_allclose(overlap_fidelity(vac, fock_wigner(1)).value, 0.0, rtol=0, atol=1e-6)
    assert_allclose(overlap_fidelity(fock_wigner(2), fock_wigner(2)).value, 1.0, rtol=0, atol=1e-6)


def test_overlap_geometry_and_purity_guards():
    vac = vacuum_wigner()
    small = vacuum_wigner(resolution=128)
    with pytest.raises(ConfigurationError):
        overlap_fidelity(vac, small)
    for bad in (convert_sigma(vac, -1.0), None, vac.values):
        with pytest.raises(ConfigurationError):
            overlap_fidelity(bad, vac)
        with pytest.raises(ConfigurationError):
            overlap_fidelity(vac, bad)
    mixed = teleport_state(vac, 0.5)  # no longer a pure-state grid
    with pytest.raises(ConfigurationError):
        overlap_fidelity(mixed, vac)
    overlap_fidelity(vac, mixed)  # mixed received state is fine


def test_fock_fidelity_values():
    for m in range(6):
        assert fock_fidelity(m, 0.0).value == 1.0
    assert_allclose(fock_fidelity(0, 1.0).value, 0.5, rtol=1e-12)
    assert_allclose(fock_fidelity(0, 0.5).value, 1.0 / 1.5, rtol=1e-12)


def test_fock_fidelity_matches_overlap():
    for m, n in ((1, 0.5), (2, 0.3)):
        grid = overlap_fidelity(fock_wigner(m), teleported_fock_wigner(m, n))
        closed = fock_fidelity(m, n)
        assert_allclose(closed.value, grid.value, rtol=0, atol=1e-5)
    # at the separability boundary the received grid comes from the convolution
    # route, independent of both closed forms
    for m in (2, 3):
        grid = overlap_fidelity(fock_wigner(m), teleport_state(fock_wigner(m), 1.0))
        closed = fock_fidelity(m, 1.0)
        assert_allclose(closed.value, grid.value, rtol=0, atol=1e-5)


def test_fock_fidelity_regularized_form_is_equivalent():
    # the positive sum equals the Legendre form at 20 ordinary noise values
    for m in (0, 1, 2, 3, 5):
        for n in np.concatenate([np.linspace(0.1, 0.9, 9), np.linspace(1.1, 2.0, 11)]):
            direct = fock_fidelity(m, n).value
            arg = (1.0 + n**2) / (1.0 - n**2)
            closed = (1.0 - n) ** m / (1.0 + n) ** (m + 1) * legendre(m, arg)
            assert abs(direct - closed) <= 1e-10


def test_fock_fidelity_large_index_matches_exact_sum():
    # the Legendre form overflowed here (nan at m = 100, n = 0.999; an
    # OverflowError at m = 400, n = 5)
    for m in (60, 200, 1000):
        for n in (0.0, 0.3, 0.999, 1.0, 1.001, 5.0):
            want = exact_fock_fidelity(m, n)
            assert_allclose(fock_fidelity(m, n).value, want, rtol=1e-12, atol=0)
    assert 0.0 < fock_fidelity(100, 0.999).value < 1.0
    assert 0.0 < fock_fidelity(400, 5.0).value < 1.0


def test_fock_fidelity_continuous_at_unit_noise():
    for m in (1, 3):
        inner = fock_fidelity(m, 1.0).value
        outer = 0.5 * (fock_fidelity(m, 1.0 + 2e-6).value + fock_fidelity(m, 1.0 - 2e-6).value)
        assert abs(inner - outer) <= 1e-9


def test_fock_fidelity_validation():
    with pytest.raises(ConfigurationError):
        fock_fidelity(1.5, 0.3)
    with pytest.raises(ConfigurationError):
        fock_fidelity(-1, 0.3)
    with pytest.raises(DomainError):
        fock_fidelity(1, -0.3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            fock_fidelity(1, bad)
        with pytest.raises(ConfigurationError):
            squeezed_fidelity(0.5, bad)
        with pytest.raises(ConfigurationError, match="s_o"):
            squeezed_fidelity(bad, 0.5)
    for s_o in (1e3, -400.0):  # cosh(2 s_o) overflows
        with pytest.raises(DomainError, match="s_o"):
            squeezed_fidelity(s_o, 0.5)
    with pytest.raises(DomainError, match="n_tau"):  # n_tau^2 overflows, cosh(2 s_o) does not
        squeezed_fidelity(0.5, 1e200)


def test_squeezed_fidelity_values():
    assert_allclose(squeezed_fidelity(0.0, 1.0).value, 0.5, rtol=1e-12)
    assert_allclose(squeezed_fidelity(0.0, 0.5).value, 1.0 / 1.5, rtol=1e-12)
    got = squeezed_fidelity(1.0, 1.0)
    assert_allclose(got.value, (2.0 + 2.0 * math.cosh(2.0)) ** -0.5, rtol=1e-12)
    assert_allclose(got.value, 0.32403, rtol=0, atol=1e-5)


def test_squeezed_fidelity_matches_overlap():
    s_o, n = 0.7, 0.3
    grid = overlap_fidelity(
        squeezed_vacuum_wigner(s_o), teleported_squeezed_wigner(s_o, n)
    )
    assert_allclose(squeezed_fidelity(s_o, n).value, grid.value, rtol=0, atol=1e-5)


def test_fidelity_monotone_in_noise():
    ns = np.linspace(0.0, 3.0, 50)
    for series in (
        [fock_fidelity(1, n).value for n in ns],
        [squeezed_fidelity(0.8, n).value for n in ns],
    ):
        assert np.all(np.diff(series) < 0.0)
    assert fock_fidelity(0, 1e3).value < 2e-3


@st.composite
def _teleported_inputs(draw):
    res = draw(st.sampled_from([96, 128]))
    dx = 16.0 / (res - 1)
    # sampled smoothing taps are exact above the per-axis variance 2 dx^2,
    # i.e. n_tau >= 4 dx^2; band-limited narrow-kernel taps (ROADMAP item 3)
    # lower this floor
    n_tau = draw(st.one_of(st.just(0.0), st.floats(4.0 * dx**2, 3.0)))
    if draw(st.booleans()):
        m = draw(st.integers(0, 5))
        return fock_wigner(m, 8.0, res), fock_fidelity(m, n_tau), n_tau
    s = draw(st.floats(-1.0, 1.0))
    return squeezed_vacuum_wigner(s, 8.0, res), squeezed_fidelity(s, n_tau), n_tau


@settings(max_examples=80, deadline=None)
@given(_teleported_inputs())
def test_overlap_fidelity_matches_closed_forms(case):
    w, closed, n_tau = case
    grid = overlap_fidelity(w, teleport_state(w, n_tau))
    assert abs(grid.value - closed.value) <= GRID_TOLERANCE
