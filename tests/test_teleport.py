"""Teleportation map: convolution route, closed forms, protocol integral."""

from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvteleport import (
    AccuracyError,
    ChannelParams,
    ConfigurationError,
    DomainError,
    WignerGrid,
    coherent_wigner,
    convert_sigma,
    evolve_channel,
    fock_wigner,
    grid_integrate,
    measurement_density,
    noise_factor,
    protocol_oracle,
    squeezed_vacuum_wigner,
    teleport,
    teleport_state,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    two_mode_squeezed_vacuum,
    vacuum_wigner,
    verify,
)
from cvteleport.numerics import gauss_hermite, trapezoid_weights
from cvteleport.teleport import ORACLE_ORDER, _centred_nodes
from cvteleport.verify import ORACLE_CHANNELS, criterion_4

_FACTORED_INPUTS = (
    vacuum_wigner(8.0, 32),
    fock_wigner(1, 8.0, 32),
    fock_wigner(2, 8.0, 32),
    squeezed_vacuum_wigner(0.7, 8.0, 32),
    coherent_wigner(1.0 - 0.5j, 8.0, 32),
)


def _pointwise_oracle(g, ch):
    # protocol_oracle with the input sampled at all res^2 q^2 node pairs
    rule = gauss_hermite(ORACLE_ORDER)
    cx, cy, kx, ky = g.envelope
    xo, wx = _centred_nodes(rule, 1.0 / ch.n_minus, g.axes(), kx, cx)
    yo, wy = _centred_nodes(rule, 1.0 / ch.n_minus, g.axes(), ky, cy)
    vals = g.sample(xo[:, :, None, None], yo[None, None, :, :])
    sum_s = rule.weights.sum() * np.sqrt(ch.n_plus) / 2.0
    return ch.norm * sum_s**2 * np.einsum("rkil,rk,il->ri", vals, wx, wy)


def _pointwise_density(g, ch, di, er):
    # measurement_density with the input sampled at all q^2 nodes of each point
    rule = gauss_hermite(ORACLE_ORDER)
    di, er = np.broadcast_arrays(np.asarray(di, dtype=float), np.asarray(er, dtype=float))
    shape, di, er = di.shape, di.ravel(), er.ravel()
    sum_c = rule.weights.sum() / np.sqrt(1.0 / ch.n_minus + 1.0 / ch.n_plus)
    c_ch = 2.0 / (ch.n_minus + ch.n_plus)
    cx, cy, kx, ky = g.envelope
    dn, wd = _centred_nodes(rule, c_ch, -er, 0.5 * kx, er + np.sqrt(2.0) * cx)
    en, we = _centred_nodes(rule, c_ch, -di, 0.5 * ky, di - np.sqrt(2.0) * cy)
    vals = g.sample(((dn - er[:, None]) / np.sqrt(2.0))[:, :, None],
                    ((di[:, None] - en) / np.sqrt(2.0))[:, None, :])
    return (ch.norm * sum_c**2 * np.einsum("pkl,pk,pl->p", vals, wd, we)).reshape(shape)


def test_teleport_state_zero_noise_is_identity():
    g = fock_wigner(1)
    out = teleport_state(g, 0.0)
    assert np.array_equal(out.values, g.values)
    assert out.pure_origin


def test_teleport_state_vacuum_closed_form():
    out = teleport_state(vacuum_wigner(), 0.5)
    assert_allclose(out.value_at(0.0), 1.0 / np.pi, rtol=0, atol=1e-9)
    x, y = out.mesh()
    want = (1.0 / np.pi) * np.exp(-(x**2 + y**2))
    assert_allclose(out.values, want, rtol=0, atol=1e-8)


def test_teleport_state_preserves_mass_and_mean():
    g = coherent_wigner(1.0 + 0.5j)
    out = teleport_state(g, 0.8)
    assert_allclose(grid_integrate(out), grid_integrate(g), rtol=0, atol=5e-6)
    x, y = out.mesh()

    def mean(grid, comp):
        return grid_integrate(
            WignerGrid(sigma=0.0, extent=grid.extent, values=grid.values * comp)
        )

    assert_allclose(mean(out, x), 1.0, rtol=0, atol=1e-5)
    assert_allclose(mean(out, y), 0.5, rtol=0, atol=1e-5)


def test_teleport_state_composes_additively():
    g = fock_wigner(1)
    staged = teleport_state(teleport_state(g, 0.3), 0.45)
    single = teleport_state(g, 0.75)
    assert_allclose(staged.values, single.values, rtol=0, atol=1e-7)


def test_teleport_state_validation():
    g = vacuum_wigner()
    with pytest.raises(DomainError):
        teleport_state(g, -0.1)
    for bad in (convert_sigma(g, -1.0), None, g.values):
        with pytest.raises(ConfigurationError):
            teleport_state(bad, 0.5)
    with pytest.raises(AccuracyError):
        teleport_state(g, 5.0)  # kernel wider than the grid can hold


def test_teleported_fock_matches_convolution():
    for m, n in ((1, 0.5), (2, 0.35)):
        conv = teleport_state(fock_wigner(m), n)
        closed = teleported_fock_wigner(m, n)
        assert_allclose(closed.values, conv.values, rtol=0, atol=1e-6)


def test_teleported_fock_envelope_matches_convolution():
    for m, n in ((0, 0.0), (1, 0.5), (3, 0.8812)):
        conv = teleport_state(fock_wigner(m), n)
        closed = teleported_fock_wigner(m, n)
        assert_allclose(conv.envelope, closed.envelope, rtol=0, atol=1e-12)


def test_teleported_fock_zero_noise():
    for m in (0, 1, 3):
        assert_allclose(
            teleported_fock_wigner(m, 0.0).values, fock_wigner(m).values, rtol=0, atol=1e-12
        )


def test_teleported_fock_regularized_window():
    # at n_tau = 1/2 (u = 0) the one recurrence agrees with its own values
    # symmetrically on either side, and |1> has no negativity left there
    inner = teleported_fock_wigner(3, 0.5)
    plus = teleported_fock_wigner(3, 0.5 + 1.2e-6)
    minus = teleported_fock_wigner(3, 0.5 - 1.2e-6)
    sym = 0.5 * (plus.values + minus.values)
    assert_allclose(inner.values, sym, rtol=0, atol=1e-10)
    exact_half = teleported_fock_wigner(1, 0.5)
    assert abs(exact_half.value_at(0.0)) <= 1e-12
    assert_allclose(grid_integrate(exact_half), 1.0, rtol=0, atol=1e-6)


def test_teleported_fock_validation():
    with pytest.raises(ConfigurationError):
        teleported_fock_wigner(-1, 0.5)
    with pytest.raises(ConfigurationError):
        teleported_fock_wigner(51, 0.5)
    with pytest.raises(DomainError):
        teleported_fock_wigner(1, -0.5)


def test_teleported_squeezed_closed_form():
    n = 0.4
    s_o = 0.5
    out = teleported_squeezed_wigner(s_o, n)
    a_plus = 2.0 * n + np.exp(-2.0 * s_o)
    a_minus = 2.0 * n + np.exp(2.0 * s_o)
    assert_allclose(out.value_at(0.0), 2.0 / (np.pi * np.sqrt(a_plus * a_minus)), rtol=1e-12)
    conv = teleport_state(squeezed_vacuum_wigner(s_o), n)
    assert_allclose(out.values, conv.values, rtol=0, atol=1e-6)
    assert_allclose(
        teleported_squeezed_wigner(0.0, n).values,
        teleported_fock_wigner(0, n).values,
        rtol=0,
        atol=1e-14,
    )
    assert_allclose(
        teleported_squeezed_wigner(s_o, 0.0).values,
        squeezed_vacuum_wigner(s_o).values,
        rtol=0,
        atol=1e-14,
    )


def test_teleported_squeezed_extent_guard():
    with pytest.raises(ConfigurationError):
        teleported_squeezed_wigner(2.0, 6.0)
    teleported_squeezed_wigner(2.0, 6.0, extent=12.0)


def test_protocol_oracle_matches_convolution():
    p = ChannelParams(s_qc=1.0, n_bar=0.5, T=0.5)
    ch = evolve_channel(p)
    g = fock_wigner(1, extent=6.0, resolution=96)
    got = protocol_oracle(g, ch)
    want = teleport_state(g, noise_factor(p))
    assert got.extent == g.extent and got.resolution == g.resolution
    assert np.abs(got.values - want.values).max() <= 1e-4
    assert_allclose(grid_integrate(got), 1.0, rtol=0, atol=1e-5)


_ORACLE_INPUTS = st.one_of(
    st.integers(0, 5).map(lambda m: partial(fock_wigner, m)),
    st.floats(-1.0, 1.0).map(lambda s: partial(squeezed_vacuum_wigner, s)),
    st.complex_numbers(max_magnitude=2.0).map(lambda mu: partial(coherent_wigner, mu)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    _ORACLE_INPUTS,
    st.sampled_from((96, 128)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.5),
    st.floats(0.0, 1.0),
)
def test_protocol_oracle_is_the_convolution(make, resolution, s_qc, n_bar, T):
    # the box the verify oracle channels span, n_tau from e^-2 to 4, at
    # criterion 3's tolerance
    g = make(8.0, resolution)
    p = ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T)
    got = protocol_oracle(g, evolve_channel(p))
    want = teleport_state(g, noise_factor(p))
    assert np.abs(got.values - want.values).max() <= 1e-5


def test_protocol_oracle_spline_fallback():
    # grids without an attached profile sample through their quintic spline
    p = ChannelParams(s_qc=0.5, n_bar=0.3, T=0.4)
    ch = evolve_channel(p)
    g = fock_wigner(1, extent=6.0, resolution=96)
    bare = WignerGrid(sigma=0.0, extent=g.extent, values=g.values, envelope=g.envelope)
    got = protocol_oracle(bare, ch)
    want = protocol_oracle(g, ch)
    assert_allclose(got.values, want.values, rtol=0, atol=1e-6)


def _radial_fock(m, n, x, y):
    # (2/pi) e^{-2r^2/v} q_m(u, z) / v^{m+1} with q_m from its homogeneous
    # recurrence (k+1) q_{k+1} = ((2k+1) u - z) q_k - k u^2 q_{k-1} on (u/v, z/v)
    v = 2.0 * n + 1.0
    u = (2.0 * n - 1.0) / v
    r2 = x**2 + y**2
    z = -4.0 / (v * v) * r2
    q_prev, q = np.zeros_like(r2), np.ones_like(r2)
    for k in range(m):
        q_prev, q = q, (((2 * k + 1) * u - z) * q - k * u * u * q_prev) / (k + 1)
    return (2.0 / np.pi) / v * np.exp(-2.0 / v * r2) * q


def _radial_squeezed(s_o, n, x, y):
    b_plus = 1.0 + 2.0 * n * np.exp(2.0 * s_o)
    b_minus = 1.0 + 2.0 * n * np.exp(-2.0 * s_o)
    kx, ky = 2.0 * np.exp(2.0 * s_o) / b_plus, 2.0 * np.exp(-2.0 * s_o) / b_minus
    return (2.0 / np.pi) / np.sqrt(b_plus * b_minus) * np.exp(-kx * x**2 - ky * y**2)


def test_profile_factors_reproduce_profiles():
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-7.0, 7.0, (2, 500))
    cases = [(teleported_fock_wigner(m, n, 8.0, 16), _radial_fock(m, n, x, y))
             for m in (*range(11), 20, 35, 50) for n in (0.0, 0.3, 0.5, 2.0)]
    cases += [(teleported_squeezed_wigner(s_o, n, 8.0, 16), _radial_squeezed(s_o, n, x, y))
              for s_o in (-0.7, 0.0, 1.0) for n in (0.0, 0.4)]
    cases += [(coherent_wigner(mu, 8.0, 16),
               (2.0 / np.pi) * np.exp(-2.0 * ((x - mu.real) ** 2 + (y - mu.imag) ** 2)))
              for mu in (0.0, 1.5 - 0.5j)]
    for g, want in cases:
        fx, core, fy = g.factors()
        got = np.einsum("pc,cd,pd->p", fx(x), core, fy(y))
        assert_allclose(got, want, rtol=0, atol=1e-12)


def test_factored_quadratures_match_pointwise():
    ax = np.linspace(-4.0, 4.0, 9)
    for params in ORACLE_CHANNELS[:2] + ORACLE_CHANNELS[-1:]:
        ch = evolve_channel(ChannelParams(*params))
        for g in _FACTORED_INPUTS:
            got = protocol_oracle(g, ch).values
            assert np.abs(got - _pointwise_oracle(g, ch)).max() <= 1e-13
            dens = measurement_density(g, ch, ax[:, None], ax[None, :])
            want = _pointwise_density(g, ch, ax[:, None], ax[None, :])
            assert np.abs(dens - want).max() <= 1e-13


def test_protocol_oracle_factored_above_ten():
    p = ChannelParams(s_qc=1.0, n_bar=0.5, T=0.5)
    ch = evolve_channel(p)
    for m in (11, 20, 35):
        g = fock_wigner(m, 8.0, 32)
        assert g.factors() is not None
        got = protocol_oracle(g, ch)
        want = teleported_fock_wigner(m, noise_factor(p), 8.0, 32)
        assert np.abs(got.values - want.values).max() <= 1e-12, m
    # the density sheet of a number state above ten keeps its mass, as in criterion 9
    ax = np.linspace(-6.0, 6.0, 101)
    w = fock_wigner(20)
    ch = evolve_channel(ChannelParams(0.5, 0.5, 0.3))
    rows = np.array([measurement_density(w, ch, di, ax) for di in ax])
    assert rows.min() >= -1e-9
    weights = trapezoid_weights(ax.size, 12.0 / (ax.size - 1))
    assert abs(weights @ rows @ weights - 1.0) <= 1e-5


def test_quadratures_reject_cores_beyond_their_order():
    # q nodes integrate a number state exactly only for m < q
    ch = evolve_channel(ChannelParams(0.3, 1.5, 0.7))
    with pytest.raises(AccuracyError, match="41"):
        measurement_density(fock_wigner(40, 8.0, 32), ch, 0.0, 0.0)
    g = fock_wigner(50, 8.0, 32)
    with pytest.raises(AccuracyError, match="51"):
        protocol_oracle(g, ch)
    got = protocol_oracle(g, ch, order=60)
    want = teleported_fock_wigner(50, noise_factor(ChannelParams(0.3, 1.5, 0.7)), 8.0, 32)
    assert np.abs(got.values - want.values).max() <= 1e-12


def test_teleport_state_wide_kernel_meets_closed_form():
    # n_tau ~ 3.72: the kernel reaches the edges of the 8.0 box, which the
    # edge clamp keeps from leaking into the output
    p = ChannelParams(s_qc=0.28649, n_bar=1.42073, T=0.96174)
    n = noise_factor(p)
    out = teleport_state(squeezed_vacuum_wigner(0.7, 8.0, 128), n)
    want = teleported_squeezed_wigner(0.7, n, 8.0, 128)
    assert np.abs(out.values - want.values).max() <= 1e-12


def test_protocol_oracle_output_geometry_override():
    ch = two_mode_squeezed_vacuum(0.5)
    g = vacuum_wigner(resolution=64)
    out = protocol_oracle(g, ch, resolution=48)
    assert out.extent == g.extent
    assert out.resolution == 48
    assert out.values.shape == (48, 48)


def test_protocol_oracle_rejects_non_wigner():
    ch = two_mode_squeezed_vacuum(0.5)
    g = vacuum_wigner(resolution=64)
    for bad in (convert_sigma(g, -1.0), "x", None):
        with pytest.raises(ConfigurationError):
            protocol_oracle(bad, ch)
        with pytest.raises(ConfigurationError):
            measurement_density(bad, ch, 0.0, 0.0)
    for resolution in (0, -1, 8.5):
        with pytest.raises(ConfigurationError, match="resolution"):
            protocol_oracle(g, ch, resolution=resolution)
    with pytest.raises(ConfigurationError, match="quadrature order"):
        protocol_oracle(g, ch, order=True)


def test_protocol_oracle_through_strong_squeezing():
    # n_tau = e^{-2 s} ~ 2.1e-4: the closed form, since teleport_state's kernel
    # is narrower than this grid's step
    ch = two_mode_squeezed_vacuum(4.225)
    got = protocol_oracle(fock_wigner(1, 8.0, 64), ch)
    want = teleported_fock_wigner(1, noise_factor(ChannelParams(4.225, 0.0, 0.0)), 8.0, 64)
    assert np.abs(got.values - want.values).max() <= 1e-8


def test_measurement_density_vacuum_bare_channel():
    # vacuum in, uncorrelated vacuum channel: both quadratures are N(0, 1/4)
    ch = two_mode_squeezed_vacuum(0.0)
    g = vacuum_wigner()
    pts = np.array([0.0, 0.3, -1.1])
    got = measurement_density(g, ch, pts, 2.0 * pts)
    want = (2.0 / np.pi) * np.exp(-2.0 * pts**2 - 2.0 * (2.0 * pts) ** 2)
    assert_allclose(got, want, rtol=0, atol=1e-10)
    scalar = measurement_density(g, ch, 0.0, 0.0)
    assert isinstance(scalar, float)
    assert_allclose(scalar, 2.0 / np.pi, rtol=0, atol=1e-10)


def test_measurement_density_displaced_input_shifts_one_readout():
    ch = evolve_channel(ChannelParams(s_qc=0.6, n_bar=0.2, T=0.3))
    g = coherent_wigner(1.0 + 0.0j)
    ax = np.linspace(-6.0, 6.0, 121)
    di, er = np.meshgrid(ax, ax, indexing="ij")
    dens = measurement_density(g, ch, di, er)
    assert dens.shape == (121, 121)
    assert dens.min() >= -1e-9
    w = np.gradient(ax)
    mass = np.einsum("ij,i,j->", dens, w, w)
    mean_di = np.einsum("ij,i,j->", dens * di, w, w) / mass
    mean_er = np.einsum("ij,i,j->", dens * er, w, w) / mass
    assert_allclose(mass, 1.0, rtol=0, atol=1e-5)
    assert_allclose(mean_di, 0.0, rtol=0, atol=1e-6)
    assert_allclose(mean_er, -1.0 / np.sqrt(2.0), rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "make, mu, s",
    [
        (partial(coherent_wigner, 1.0 + 0.5j), 1.0 + 0.5j, 0.0),
        (partial(coherent_wigner, -0.8 + 0.3j), -0.8 + 0.3j, 0.0),
        (partial(squeezed_vacuum_wigner, 0.5), 0.0, 0.5),
        (partial(squeezed_vacuum_wigner, -0.7), 0.0, -0.7),
        (partial(squeezed_vacuum_wigner, 0.0), 0.0, 0.0),
    ],
    ids=["coherent+", "coherent-", "squeezed+", "squeezed-", "squeezed0"],
)
def test_measurement_density_gaussian_closed_form(make, mu, s):
    # a Gaussian input of mean mu and quadrature variances v_x = e^{-2s}/4,
    # v_y = e^{2s}/4 gives independent normal readouts:
    # d_i ~ N(Im mu / sqrt2, (v_y + v_b)/2), e_r ~ N(-Re mu / sqrt2, (v_x + v_b)/2),
    # with v_b = (n_minus + n_plus)/8 from the channel
    g = make(8.0, 128)
    v_x, v_y = np.exp(-2.0 * s) / 4.0, np.exp(2.0 * s) / 4.0
    rng = np.random.default_rng(23)
    di, er = rng.uniform(-2.5, 2.5, (2, 50))

    def normal(t, mean, var):
        return np.exp(-((t - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)

    for params in ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.5, 0.5), (0.3, 1.5, 0.7)):
        ch = evolve_channel(ChannelParams(*params))
        v_b = (ch.n_minus + ch.n_plus) / 8.0
        want = (normal(di, mu.imag / np.sqrt(2.0), (v_y + v_b) / 2.0)
                * normal(er, -mu.real / np.sqrt(2.0), (v_x + v_b) / 2.0))
        assert_allclose(measurement_density(g, ch, di, er), want, rtol=0, atol=1e-12)


def test_measurement_density_spline_route_matches_profile():
    ch = evolve_channel(ChannelParams(s_qc=0.5, n_bar=0.3, T=0.4))
    g = fock_wigner(1, 6.0, 96)
    bare = replace(g, profile=None)
    di = np.linspace(-2.0, 2.0, 9)[:, None]
    er = np.linspace(-1.5, 2.5, 7)[None, :]
    got = measurement_density(bare, ch, di, er)
    want = measurement_density(g, ch, di, er)
    assert got.shape == (9, 7)
    assert_allclose(got, want, rtol=0, atol=1e-6)
    # non-finite readout points raise on both routes, before any factors
    for grid in (g, bare):
        for point in ((np.nan, 0.0), (0.0, np.inf), (np.array([0.0, np.nan]), 0.0)):
            with pytest.raises(ConfigurationError, match="finite readout"):
                measurement_density(grid, ch, *point)


def test_measurement_density_rejects_readouts_that_do_not_broadcast():
    # both shapes are named, and the check comes before any factors are built
    ch = evolve_channel(ChannelParams(s_qc=0.5, n_bar=0.3, T=0.4))
    bare = replace(fock_wigner(1, 6.0, 32), profile=None)
    for grid in (fock_wigner(1), bare):
        with pytest.raises(ConfigurationError, match=r"\(3,\).*\(4,\)"):
            measurement_density(grid, ch, np.zeros(3), np.zeros(4))
    assert "_factors" not in bare.__dict__


_SPLINE_DENSITY_INPUT = replace(fock_wigner(2, 6.0, 64), profile=None)
_READOUTS = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5).map(np.array)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(_ORACLE_INPUTS.map(lambda make: make(8.0, 32)), st.just(_SPLINE_DENSITY_INPUT)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.5),
    st.floats(0.0, 1.0),
    _READOUTS,
    _READOUTS,
)
def test_density_at_broadcast_readouts_is_pointwise(g, s_qc, n_bar, T, a, b):
    # each readout's node sums are formed in its own shape; the sheet is its
    # scalar calls, to within 1e-16 of its largest entry
    ch = evolve_channel(ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T))
    for di, er in ((a[0], b), (a, b[-1]), (a[:, None], b[None, :]), (b[:, None], a[None, :]),
                   (a, a[::-1]), (a[:, None], a[:, None] / 2.0)):
        got = measurement_density(g, ch, di, er)
        d_i, e_r = np.broadcast_arrays(di, er)
        want = np.array([measurement_density(g, ch, float(x), float(y))
                         for x, y in zip(d_i.ravel(), e_r.ravel())]).reshape(d_i.shape)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-16 * np.abs(want).max()


def test_kernel_mutation_hook_breaks_oracle_agreement(monkeypatch):
    # a corrupted kernel that smooths at n_tau * 1.05 must fail criterion 4
    g = fock_wigner(1)
    closed = teleported_fock_wigner(1, 0.5)
    corrupted = teleport_state(g, 0.5 * (1.0 + 0.05))
    assert np.abs(corrupted.values - closed.values).max() > 1e-3
    clean = teleport_state(g, 0.5)
    assert np.abs(clean.values - closed.values).max() <= 1e-6
    monkeypatch.setattr(verify, "teleport_state", lambda w, n: teleport_state(w, float(n) * 1.05))
    ok, detail = criterion_4()
    assert not ok and detail.startswith("fock 1, n_tau=0.5")
    monkeypatch.undo()
    assert criterion_4()[0]


# grids for the cached side sums, on both routes: symmetric envelopes (vacuum,
# Fock), squeezed ones and off-centre ones (coherent); a bare grid's two sides
# share one basis whatever its envelope
_CACHE_INPUTS = (
    vacuum_wigner(8.0, 32),
    fock_wigner(1, 8.0, 32),
    squeezed_vacuum_wigner(0.5, 8.0, 32),
    coherent_wigner(0.5 - 0.25j, 8.0, 32),
    replace(fock_wigner(2, 6.0, 32), profile=None),
    replace(squeezed_vacuum_wigner(-0.4, 6.0, 32), profile=None),
    replace(coherent_wigner(0.5 - 0.25j, 6.0, 32), profile=None),
)
_FIELDS = {"sigma", "extent", "values", "profile", "envelope", "pure_origin"}


def _bits(x):
    x = np.asarray(x)
    return x.shape, x.tobytes()


def _uncached_side_sums(w_o, slot, f, rule, a, p, k, c):
    # teleport._side_sums without its cache
    t, w = _centred_nodes(rule, a, p, k, c)
    return np.einsum("...k,...kc->...c", w, f(t))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_CACHE_INPUTS),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.5),
    st.floats(0.0, 1.0),
    _READOUTS,
    _READOUTS,
)
def test_cached_side_sums_match_fresh_grids(g, s_qc, n_bar, T, a, b):
    # rows of one sheet, a whole sheet, equal readouts on both sides and the
    # oracle at two orders, twice over on one grid that earlier examples used
    # too: each is bit for bit the call on a fresh copy, which holds no sums
    # before the call, and the call with no sums kept at all
    ch = evolve_channel(ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T))
    calls = (
        lambda w: protocol_oracle(w, ch, 16).values,
        lambda w: protocol_oracle(w, ch, 16, ORACLE_ORDER + 1).values,
        lambda w: measurement_density(w, ch, a[0], b),
        lambda w: measurement_density(w, ch, a[-1], b),
        lambda w: measurement_density(w, ch, b[:, None], a[None, :]),
        lambda w: measurement_density(w, ch, a, -a),
        lambda w: measurement_density(w, ch, float(b[0]), float(a[-1])),
    )
    for _ in range(2):
        for call in calls:
            got = _bits(call(g))
            assert got == _bits(call(replace(g)))
            with mock.patch.object(teleport, "_side_sums", _uncached_side_sums):
                assert got == _bits(call(replace(g)))
            assert set(vars(g)) - _FIELDS <= {"_axis_factors", "_factors", "_x_sums", "_y_sums"}


def test_density_rows_and_the_oracle_reuse_side_sums():
    ch = evolve_channel(ChannelParams(0.5, 0.5, 0.3))
    ax = np.linspace(-6.0, 6.0, 101)
    g = fock_wigner(1, 8.0, 32)
    measurement_density(g, ch, ax[0], ax)
    sx = g.__dict__["_x_sums"][1]
    measurement_density(g, ch, ax[1], ax)
    assert g.__dict__["_x_sums"][1] is sx  # the second row found the first row's x sums
    # the oracle's y side reads the x slot only where fy is fx and the
    # envelope is symmetric; a second order or channel on the grid misses
    for g, shared in (
        (fock_wigner(1, 8.0, 32), True),
        (replace(fock_wigner(1, 8.0, 32), profile=None), True),
        (squeezed_vacuum_wigner(0.5, 8.0, 32), False),  # fy is not fx
        (replace(squeezed_vacuum_wigner(0.5, 8.0, 32), profile=None), False),  # kx != ky
        (replace(coherent_wigner(0.5 - 0.25j, 8.0, 32), profile=None), False),  # cx != cy
    ):
        for order, params in ((ORACLE_ORDER, (0.5, 0.5, 0.3)), (ORACLE_ORDER + 1, (0.5, 0.5, 0.3)),
                              (ORACLE_ORDER + 1, (0.2, 0.5, 0.3))):
            ch = evolve_channel(ChannelParams(*params))
            got = protocol_oracle(g, ch, order=order).values
            assert ("_y_sums" not in vars(g)) == shared
            with mock.patch.object(teleport, "_side_sums", _uncached_side_sums):
                assert _bits(got) == _bits(protocol_oracle(replace(g), ch, order=order).values)


def test_cached_side_sums_are_read_only_and_stay_on_their_grid():
    ch = evolve_channel(ChannelParams(0.5, 0.5, 0.3))
    ax = np.linspace(-6.0, 6.0, 101)
    for g in (fock_wigner(1, 8.0, 32), replace(fock_wigner(1, 8.0, 32), profile=None)):
        measurement_density(g, ch, 0.5, ax)
        for slot in ("_x_sums", "_y_sums"):
            sums = g.__dict__[slot][1]
            assert not sums.flags.writeable
            with pytest.raises(ValueError):
                sums[...] = 0.0
        for other in (replace(g), convert_sigma(g, -1.0), teleport_state(g, 0.5)):
            assert not {"_x_sums", "_y_sums"} & set(vars(other))


def test_overflowing_readouts_raise_after_cached_rows():
    # only finished sums are kept: a readout whose sums overflow raises on
    # every call, on either side, and the cached row is unchanged by it
    ch = evolve_channel(ChannelParams(0.5, 0.5, 0.3))
    ax = np.linspace(-6.0, 6.0, 101)
    g = fock_wigner(1, 8.0, 32)
    want = measurement_density(g, ch, 0.5, ax)
    for _ in range(2):
        with pytest.raises(DomainError, match="readouts are too large"):
            measurement_density(g, ch, 1e200, ax)
        with pytest.raises(DomainError, match="readouts are too large"):
            measurement_density(g, ch, 0.5, np.full(101, 1e200))
    assert _bits(measurement_density(g, ch, 0.5, ax)) == _bits(want)


def test_readouts_with_equal_bytes_and_other_shapes_do_not_share_sums():
    ch = evolve_channel(ChannelParams(0.5, 0.5, 0.3))
    ax = np.linspace(-6.0, 6.0, 101)
    g = vacuum_wigner(8.0, 32)
    flat = measurement_density(g, ch, 0.5, ax)
    column = measurement_density(g, ch, 0.5, ax[:, None])
    assert flat.shape == (101,) and column.shape == (101, 1)
    assert g.__dict__["_x_sums"][1].shape == (101, 1, 1)
    assert _bits(column.ravel()) == _bits(flat)
