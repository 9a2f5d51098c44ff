"""Thermal channel evolution, noise factors and the direct-transmission gap."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvteleport import (
    ChannelParams,
    ConfigurationError,
    CvtError,
    DomainError,
    NoiseFactor,
    direct_noise,
    evolve_channel,
    integrate_moment_flow,
    is_separable,
    noise_factor,
    teleport_vs_direct_gap,
    two_mode_squeezed_vacuum,
)
from cvteleport.channel import as_noise


def test_channel_params_validation():
    with pytest.raises(ConfigurationError):
        ChannelParams(s_qc=-0.1, n_bar=0.0, T=0.0)
    with pytest.raises(ConfigurationError):
        ChannelParams(s_qc=0.0, n_bar=-1.0, T=0.0)
    with pytest.raises(ConfigurationError):
        ChannelParams(s_qc=0.0, n_bar=0.0, T=1.2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            ChannelParams(s_qc=bad, n_bar=0.0, T=0.5)
        with pytest.raises(ConfigurationError):
            ChannelParams(s_qc=0.0, n_bar=bad, T=0.5)
        with pytest.raises(ConfigurationError):
            ChannelParams(s_qc=0.0, n_bar=0.0, T=bad)


def test_gamma_t_conversion():
    p = ChannelParams(s_qc=0.0, n_bar=0.0, T=0.5)
    assert_allclose(p.gamma_t, np.log(2.0), rtol=1e-14)
    assert ChannelParams(s_qc=0.0, n_bar=0.0, T=1.0).gamma_t == np.inf


def test_noise_factor_validation():
    with pytest.raises(DomainError):
        NoiseFactor(value=-0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            NoiseFactor(value=bad)
    assert float(NoiseFactor(value=0.25)) == 0.25


def test_as_noise_validates_numbers_like_noise_factors():
    assert as_noise(NoiseFactor(value=0.25)) == 0.25
    assert as_noise(0.5) == 0.5
    with pytest.raises(DomainError):
        as_noise(-0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            as_noise(bad)


def test_evolve_channel_limits():
    p0 = ChannelParams(s_qc=0.8, n_bar=1.5, T=0.0)
    fresh = evolve_channel(p0)
    pure = two_mode_squeezed_vacuum(0.8)
    assert_allclose((fresh.gamma, fresh.lam), (pure.gamma, pure.lam), rtol=1e-14)
    p1 = ChannelParams(s_qc=0.8, n_bar=1.5, T=1.0)
    dead = evolve_channel(p1)
    assert_allclose((dead.gamma, dead.lam), (4.0, 0.0), rtol=0, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 20.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
def test_evolve_channel_normal_modes(s_qc, n_bar, T):
    p = ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T)
    ch = evolve_channel(p)
    assert ch.n_minus == noise_factor(p).value
    assert ch.n_minus * ch.n_plus >= 1.0 - 1e-9
    # n_minus mixes the bath's 1 + 2 n_bar with the squeezed e^{-2 s_qc}
    ends = (1.0 + 2.0 * n_bar, np.exp(-2.0 * s_qc))
    assert min(ends) * (1.0 - 1e-15) <= ch.n_minus <= max(ends) * (1.0 + 1e-15)


@pytest.mark.parametrize("T", [0.0, 0.5, 1.0])
def test_evolve_channel_rejects_overflowing_squeezing(T):
    # e^{2 s_qc} overflows; tier-1 turns a numpy overflow warning into an error
    with pytest.raises(CvtError, match="s_qc"):
        evolve_channel(ChannelParams(s_qc=400.0, n_bar=0.0, T=T))


def test_evolve_channel_midpoint():
    ch = evolve_channel(ChannelParams(s_qc=1.0, n_bar=0.5, T=0.5))
    assert_allclose(ch.gamma, 0.5 * 2.0 + 0.5 * np.cosh(2.0), rtol=1e-12)
    assert_allclose(ch.lam, 0.5 * np.sinh(2.0), rtol=1e-12)
    assert_allclose(ch.gamma, 2.88110, rtol=0, atol=5e-6)
    assert_allclose(ch.lam, 1.81343, rtol=0, atol=5e-6)


def test_moment_flow_matches_closed_form():
    for (s_qc, n_bar, T) in ((1.0, 0.5, 0.5), (0.3, 2.0, 0.9), (0.0, 0.0, 0.2)):
        p = ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T)
        ch = evolve_channel(p)
        gamma, lam = integrate_moment_flow(p)
        assert_allclose((gamma, lam), (ch.gamma, ch.lam), rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "s_qc, T", [(400.0, 0.0), (400.0, 0.5), (354.7, 0.5), (400.0, 1.0), (355.0, 1.0)]
)
def test_moment_flow_rejects_overflowing_squeezing(s_qc, T):
    # exp(2 s_qc) overflows at 400 and at 355, also at T = 1, where
    # evolve_channel raises too (cosh(2 s_qc) is still finite at 355); at
    # 354.7 it is finite but the Runge-Kutta steps overflow; tier-1 turns a
    # numpy overflow warning into an error
    with pytest.raises(DomainError, match="s_qc"):
        integrate_moment_flow(ChannelParams(s_qc=s_qc, n_bar=0.0, T=T))


def test_bath_variance_must_not_overflow():
    # 1 + 2 n_bar overflows past about 8.99e307
    for T in (0.0, 0.5, 1.0):
        with pytest.raises(ConfigurationError, match="n_bar"):
            ChannelParams(s_qc=0.5, n_bar=1e308, T=T)
    p = ChannelParams(s_qc=0.5, n_bar=8.9e307, T=0.5)
    assert evolve_channel(p).n_minus == noise_factor(p).value
    # the flow's steps overflow below that bound, and say which inputs to blame
    with pytest.raises(DomainError, match="n_bar"):
        integrate_moment_flow(p)
    assert integrate_moment_flow(replace(p, T=1.0)) == (1.0 + 2.0 * 8.9e307, 0.0)


def test_moment_flow_fixed_point_and_step_guard():
    p = ChannelParams(s_qc=0.7, n_bar=1.2, T=1.0)
    assert integrate_moment_flow(p) == (3.4, 0.0)


def test_noise_factor_values():
    assert_allclose(noise_factor(ChannelParams(s_qc=0.0, n_bar=0.0, T=0.37)).value, 1.0, rtol=1e-14)
    assert_allclose(
        noise_factor(ChannelParams(s_qc=1.0, n_bar=0.0, T=0.0)).value,
        np.exp(-2.0),
        rtol=1e-14,
    )
    got = noise_factor(ChannelParams(s_qc=1.0, n_bar=1.0, T=0.5))
    assert_allclose(got.value, 1.56767, rtol=0, atol=5e-6)
    ch = evolve_channel(ChannelParams(s_qc=1.0, n_bar=1.0, T=0.5))
    assert_allclose(got.value, ch.gamma - ch.lam, rtol=0, atol=1e-12)


def test_noise_factor_monotone_in_time():
    rng = np.random.default_rng(5)
    ts = np.linspace(0.0, 1.0, 50)
    for _ in range(20):
        s_qc = rng.uniform(0.0, 2.0)
        n_bar = rng.uniform(0.0, 3.0)
        vals = [noise_factor(ChannelParams(s_qc=s_qc, n_bar=n_bar, T=t)).value for t in ts]
        assert np.all(np.diff(vals) >= -1e-12)


def test_noise_factor_decreases_with_squeezing():
    ss = np.linspace(0.0, 2.0, 40)
    vals = [noise_factor(ChannelParams(s_qc=s, n_bar=0.8, T=0.4)).value for s in ss]
    assert np.all(np.diff(vals) <= 1e-12)


def test_noise_factor_range_invariant():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = ChannelParams(
            s_qc=rng.uniform(0.0, 2.0), n_bar=rng.uniform(0.0, 3.0), T=rng.uniform(0.0, 1.0)
        )
        v = noise_factor(p).value
        assert np.exp(-2.0 * p.s_qc) - 1e-12 <= v <= 2.0 * p.n_bar + 1.0 + 1e-12


def test_is_separable():
    assert not is_separable(ChannelParams(s_qc=0.5, n_bar=0.0, T=0.0))
    assert is_separable(ChannelParams(s_qc=1.3, n_bar=2.0, T=1.0))
    # lossless bath never separates the channel
    for t in (0.1, 0.5, 0.99):
        assert not is_separable(ChannelParams(s_qc=0.4, n_bar=0.0, T=t))
    # boundary n_tau = 1 counts as separable
    assert is_separable(ChannelParams(s_qc=0.0, n_bar=0.0, T=0.5))


def test_direct_noise():
    assert direct_noise(ChannelParams(s_qc=0.0, n_bar=0.0, T=0.7)).value == 0.0
    assert direct_noise(ChannelParams(s_qc=0.0, n_bar=1.5, T=1.0)).value == 1.5
    got = direct_noise(ChannelParams(s_qc=0.0, n_bar=2.0, T=0.3))
    assert_allclose(got.value, 0.6, rtol=1e-14)
    with pytest.raises(ConfigurationError):
        direct_noise(ChannelParams(s_qc=0.0, n_bar=-1.0, T=0.5))


def test_gap_closed_form():
    assert_allclose(
        teleport_vs_direct_gap(ChannelParams(s_qc=1.0, n_bar=0.0, T=0.0)),
        np.exp(-2.0),
        rtol=0,
        atol=5e-6,
    )
    # large squeezing, no thermal photons: gap -> 1 - sqrt(1-T)
    big = teleport_vs_direct_gap(ChannelParams(s_qc=12.0, n_bar=0.0, T=0.64))
    assert_allclose(big, 1.0 - 0.6, rtol=0, atol=1e-9)


def test_gap_identity_and_positivity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = ChannelParams(
            s_qc=rng.uniform(0.0, 3.0), n_bar=rng.uniform(0.0, 5.0), T=rng.uniform(0.0, 1.0)
        )
        gap = teleport_vs_direct_gap(p)
        assert gap >= 0.0
        half = ChannelParams(s_qc=p.s_qc, n_bar=p.n_bar, T=1.0 - np.sqrt(1.0 - p.T))
        identity = noise_factor(half).value - direct_noise(p).value
        assert_allclose(gap, identity, rtol=0, atol=1e-12)
