"""Teleportation map: convolution route, closed forms, protocol integral."""

from dataclasses import replace

import numpy as np
import pytest
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
    teleport_state,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    two_mode_squeezed_vacuum,
    vacuum_wigner,
    verify,
)
from cvteleport.verify import criterion_4


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
    with pytest.raises(ConfigurationError):
        teleport_state(convert_sigma(g, -1.0), 0.5)
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


def test_protocol_oracle_spline_fallback():
    # grids without an attached profile sample through the interpolator
    p = ChannelParams(s_qc=0.5, n_bar=0.3, T=0.4)
    ch = evolve_channel(p)
    g = fock_wigner(1, extent=6.0, resolution=96)
    bare = WignerGrid(sigma=0.0, extent=g.extent, values=g.values, envelope=g.envelope)
    got = protocol_oracle(bare, ch)
    want = protocol_oracle(g, ch)
    assert_allclose(got.values, want.values, rtol=0, atol=1e-6)


def test_protocol_oracle_output_geometry_override():
    ch = two_mode_squeezed_vacuum(0.5)
    g = vacuum_wigner(resolution=64)
    out = protocol_oracle(g, ch, resolution=48)
    assert out.extent == g.extent
    assert out.resolution == 48
    assert out.values.shape == (48, 48)


def test_protocol_oracle_rejects_non_wigner():
    ch = two_mode_squeezed_vacuum(0.5)
    with pytest.raises(ConfigurationError):
        protocol_oracle(convert_sigma(vacuum_wigner(resolution=64), -1.0), ch)


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
