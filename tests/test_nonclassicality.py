"""Moment extraction and nonclassicality-transfer thresholds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvteleport import (
    ConfigurationError,
    DomainError,
    PhotonStats,
    QuadratureStats,
    UnsupportedDeconvolutionError,
    characteristic,
    coherent_wigner,
    convert_sigma,
    fock_wigner,
    moment_table,
    moments,
    p_negativity_probe,
    p_positive_after_teleport,
    photon_statistics,
    quadrature_statistics,
    quadrature_transfer,
    squeezed_vacuum_wigner,
    squeezing_threshold,
    sub_poisson_threshold,
    teleport_state,
    teleported_photon_stats,
    vacuum_wigner,
)


def _grid_moment(g, m, n):
    # raw Wigner-weighted grid integral of conj(a)^m a^n; symmetrized, so
    # only compared where the normal-ordering correction is known exactly
    x, y = g.mesh()
    a = x + 1j * y
    integ = np.conj(a) ** m * a**n * g.values
    w = np.gradient(g.axes())
    return np.einsum("ij,i,j->", integ, w, w)


def _fd_weights(order, points):
    # weights w with sum w_j f(x_j) -> f^(order)(0) for symmetric points
    a = np.vander(points, len(points), increasing=True).T
    rhs = np.zeros(len(points))
    rhs[order] = math.factorial(order)
    return np.linalg.solve(a, rhs)


def _fd_moment(w, m, n):
    # independent route: mixed Wirtinger derivative of the normally ordered
    # characteristic function C^P(xi) = e^{(1-sigma)|xi|^2/2} C(xi) at xi = 0,
    # by finite differences on a 9x9 stencil; the step widens for total
    # order 3-4, where roundoff dominates truncation
    total = m + n
    h = 1e-3 if total <= 2 else 0.02
    offs = np.arange(-4, 5)
    xi = h * (offs[:, None] + 1j * offs[None, :])
    c_p = np.exp((1.0 - w.sigma) * np.abs(xi) ** 2 / 2.0) * characteristic(w, xi)
    acc = 0.0 + 0.0j
    for a_ in range(m + 1):
        for b_ in range(n + 1):
            p = a_ + b_
            coef = math.comb(m, a_) * math.comb(n, b_) * (-1j) ** (m - a_) * (1j) ** (n - b_)
            acc += coef * (_fd_weights(p, offs * h) @ c_p @ _fd_weights(total - p, offs * h))
    return complex((-1) ** n * acc / 2**total)


_ORACLE_STATES = {
    **{f"teleported_fock{m}": lambda m=m: teleport_state(fock_wigner(m), 0.3) for m in range(4)},
    "squeezed0.5": lambda: squeezed_vacuum_wigner(0.5),
    "coherent": lambda: coherent_wigner(-0.8 + 0.3j),
    "q_grid_fock1": lambda: convert_sigma(fock_wigner(1), -1.0),
}


@pytest.mark.parametrize("label", sorted(_ORACLE_STATES))
def test_moment_table_matches_characteristic_route(label):
    g = _ORACLE_STATES[label]()
    table = moment_table(g)
    for m in range(5):
        for n in range(5):
            if m + n <= 4:
                assert_allclose(table[m, n], _fd_moment(g, m, n), rtol=0, atol=1e-6)
            else:
                assert np.isnan(table[m, n])


def _refinable_state(kind, param, resolution):
    if kind == "fock":
        return fock_wigner(int(param * 4), resolution=resolution)
    if kind == "squeezed":
        return squeezed_vacuum_wigner(param - 0.5, resolution=resolution)
    return coherent_wigner(1.5 * param * np.exp(2j * np.pi * param), resolution=resolution)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["fock", "squeezed", "coherent"]), st.floats(0.0, 1.0))
def test_moment_table_invariant_under_grid_refinement(kind, param):
    coarse = moment_table(_refinable_state(kind, param, 256))
    fine = moment_table(_refinable_state(kind, param, 384))
    assert_allclose(coarse, fine, rtol=0, atol=1e-6, equal_nan=True)


def test_moment_table_rejects_other_inputs():
    with pytest.raises(ConfigurationError):
        moment_table(np.zeros((8, 8)))


def test_moments_vacuum():
    g = vacuum_wigner()
    assert_allclose(moments(g, 1, 1), 0.0, rtol=0, atol=1e-7)
    assert_allclose(moments(g, 0, 1), 0.0, rtol=0, atol=1e-7)


def test_moments_fock():
    for m in (1, 2):
        assert_allclose(moments(fock_wigner(m), 1, 1), m, rtol=0, atol=1e-6)


def test_moments_coherent_dual_route():
    mu = 1.0 + 0.0j
    g = coherent_wigner(mu)
    # closed forms
    assert_allclose(moments(g, 0, 1), mu, rtol=0, atol=1e-6)
    assert_allclose(moments(g, 1, 1), abs(mu) ** 2, rtol=0, atol=1e-6)
    assert_allclose(moments(g, 2, 2), abs(mu) ** 4, rtol=0, atol=1e-5)
    # grid-integral route: <a> is ordering-free, <a^dag a> = <|a|^2>_W - 1/2
    assert_allclose(_grid_moment(g, 0, 1), moments(g, 0, 1), rtol=0, atol=1e-6)
    assert_allclose(_grid_moment(g, 1, 1) - 0.5, moments(g, 1, 1), rtol=0, atol=1e-6)


def test_moments_respect_grid_ordering_label():
    # the same state expressed as a Q grid must give the same normal moments
    g = fock_wigner(1)
    q = convert_sigma(g, -1.0)
    assert_allclose(moments(q, 1, 1), 1.0, rtol=0, atol=1e-5)
    assert_allclose(moments(q, 0, 1), 0.0, rtol=0, atol=1e-6)


def test_moments_order_cap():
    with pytest.raises(ConfigurationError):
        moments(vacuum_wigner(), 3, 2)


def test_photon_statistics():
    s = photon_statistics(fock_wigner(2))
    assert_allclose(s.mean, 2.0, rtol=0, atol=1e-6)
    assert_allclose(s.variance, 0.0, rtol=0, atol=1e-5)
    c = photon_statistics(coherent_wigner(1.0))
    assert_allclose(c.mean, 1.0, rtol=0, atol=1e-6)
    assert_allclose(c.variance, 1.0, rtol=0, atol=1e-5)


def test_photon_stats_validation():
    with pytest.raises(DomainError):
        PhotonStats(mean=-1.0, variance=0.0)
    with pytest.raises(DomainError):
        PhotonStats(mean=1.0, variance=-0.5)
    s = PhotonStats(mean=-1e-8, variance=-1e-8)  # tiny negatives clamp to zero
    assert s.mean == 0.0 and s.variance == 0.0


def test_teleported_photon_stats_routes_agree():
    m, n = 1, 0.3
    closed = teleported_photon_stats(m, n)
    assert_allclose(closed.mean, 1.3, rtol=1e-12)
    assert_allclose(closed.variance, 3 * 0.3 + 0.09, rtol=1e-12)
    from_stats = teleported_photon_stats(PhotonStats(mean=1.0, variance=0.0), n)
    assert_allclose((from_stats.mean, from_stats.variance), (closed.mean, closed.variance))
    from_grid = photon_statistics(teleport_state(fock_wigner(m), n))
    assert_allclose(from_grid.mean, closed.mean, rtol=0, atol=1e-5)
    assert_allclose(from_grid.variance, closed.variance, rtol=0, atol=1e-4)


def test_teleported_photon_stats_rejects_other_inputs():
    with pytest.raises(ConfigurationError):
        teleported_photon_stats("fock", 0.5)
    with pytest.raises(ConfigurationError):
        teleported_photon_stats(True, 0.5)
    with pytest.raises(DomainError):
        teleported_photon_stats(-2, 0.5)


def test_sub_poisson_threshold():
    # Fock m: sqrt(m(m+1)) - m, always below 1/2
    for m in (1, 2, 5):
        thr = sub_poisson_threshold(PhotonStats(mean=m, variance=0.0))
        assert_allclose(thr, np.sqrt(m * (m + 1.0)) - m, rtol=1e-12)
        assert thr <= 0.5
    # Poissonian and super-Poissonian inputs give nothing
    assert sub_poisson_threshold(PhotonStats(mean=1.0, variance=1.0)) is None
    assert sub_poisson_threshold(PhotonStats(mean=1.0, variance=2.0)) is None
    # a radicand N^2 + N - (dN)^2 of exactly 0 is not sub-Poissonian either
    assert sub_poisson_threshold(PhotonStats(mean=3.0, variance=12.0)) is None
    # threshold approaches 1/2 from below for bright sub-Poissonian states
    thr = sub_poisson_threshold(PhotonStats(mean=1e6, variance=0.0))
    assert 0.49 < thr < 0.5


def test_threshold_consistent_with_transfer():
    m = 2
    thr = sub_poisson_threshold(PhotonStats(mean=m, variance=0.0))
    below = teleported_photon_stats(m, thr * 0.999)
    above = teleported_photon_stats(m, thr * 1.001)
    assert below.variance < below.mean
    assert above.variance > above.mean


def test_quadrature_statistics():
    vac = quadrature_statistics(vacuum_wigner())
    assert_allclose(vac.mean, 0.0, rtol=0, atol=1e-6)
    assert_allclose(vac.variance, 1.0, rtol=0, atol=1e-5)
    s_o = 0.5
    g = squeezed_vacuum_wigner(s_o)
    narrow = quadrature_statistics(g, phi=0.0)
    wide = quadrature_statistics(g, phi=np.pi / 2.0)
    assert_allclose(narrow.variance, np.exp(-2.0 * s_o), rtol=0, atol=1e-5)
    assert_allclose(wide.variance, np.exp(2.0 * s_o), rtol=0, atol=1e-4)
    disp = quadrature_statistics(coherent_wigner(1.0 + 0.5j), phi=0.0)
    assert_allclose(disp.mean, 2.0, rtol=0, atol=1e-6)  # X = 2 Re alpha at phi = 0
    assert_allclose(disp.variance, 1.0, rtol=0, atol=1e-5)


def test_quadrature_transfer():
    q = QuadratureStats(phi=0.0, mean=2.0, variance=1.0)
    out = quadrature_transfer(q, 0.4)
    assert out.mean == 2.0 and out.phi == 0.0
    assert_allclose(out.variance, 1.8, rtol=1e-12)
    same = quadrature_transfer(q, 0.0)
    assert same.variance == q.variance


def test_squeezing_threshold():
    assert_allclose(squeezing_threshold(0.0), 0.5, rtol=1e-12)
    assert_allclose(squeezing_threshold(np.exp(-2.0)), (1.0 - np.exp(-2.0)) / 2.0, rtol=1e-12)
    assert squeezing_threshold(1.0) is None
    assert squeezing_threshold(1.7) is None
    with pytest.raises(DomainError):
        squeezing_threshold(-0.2)
    with pytest.raises(ConfigurationError):
        squeezing_threshold(math.nan)


def test_squeezing_threshold_consistent_with_transfer():
    s_o = 0.5
    var_in = np.exp(-2.0 * s_o)
    thr = squeezing_threshold(var_in)
    below = quadrature_transfer(QuadratureStats(phi=0.0, mean=0.0, variance=var_in), thr * 0.99)
    above = quadrature_transfer(QuadratureStats(phi=0.0, mean=0.0, variance=var_in), thr * 1.01)
    assert below.variance < 1.0 < above.variance


def test_p_positive_after_teleport():
    assert p_positive_after_teleport(1.0)
    assert p_positive_after_teleport(2.3)
    assert not p_positive_after_teleport(0.99)


def test_p_negativity_probe_fock1():
    g = fock_wigner(1)
    # just below the positivity boundary the probed ordering stays negative
    assert p_negativity_probe(g, 0.99, sigma=0.985) < -1e-5
    # just above it the probe is consistent with a positive P function
    assert p_negativity_probe(g, 1.01, sigma=0.985) >= -1e-9
    with pytest.raises(UnsupportedDeconvolutionError):
        p_negativity_probe(g, 0.4, sigma=0.9)
    with pytest.raises(DomainError):
        p_negativity_probe(g, 1.0, sigma=1.2)
    for bad in (convert_sigma(g, -1.0), None, g.values):
        with pytest.raises(ConfigurationError):
            p_negativity_probe(bad, 1.0, sigma=0.9)


def test_p_negativity_probe_matches_teleport_then_convert():
    # blurring the input by 2 n_tau - sigma equals teleporting then lowering
    # the ordering of the output by the remaining amount (here to sigma = 0)
    g = fock_wigner(1)
    n = 0.8
    probe = p_negativity_probe(g, n, sigma=0.0)
    out_min = teleport_state(g, n).values.min()
    assert_allclose(probe, out_min, rtol=0, atol=1e-9)
