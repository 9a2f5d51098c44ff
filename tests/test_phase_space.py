"""Quasiprobability grids, ordering conversions and characteristic functions."""

import csv
import gc
import io
import json
import os
import stat
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import RectBivariateSpline

from cvteleport import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    UnsupportedDeconvolutionError,
    WignerGrid,
    band_limit,
    characteristic,
    coherent_wigner,
    convert_sigma,
    fock_wigner,
    grid_integrate,
    load_grid,
    moment_table,
    overlap_fidelity,
    save_grid,
    squeezed_vacuum_wigner,
    teleport_state,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    vacuum_wigner,
)
from cvteleport.nonclassicality import _raw_moments
from cvteleport.numerics import trapezoid_weights
from cvteleport.phase_space import _blur_matrix, _write_text, smooth

_SMOOTH_INPUTS = {
    "vacuum": vacuum_wigner(resolution=128),
    "fock 1": fock_wigner(1, resolution=128),
    "fock 3": fock_wigner(3, resolution=128),
    "coherent 1+0.5j": coherent_wigner(1.0 + 0.5j, resolution=128),
    "squeezed 0.7": squeezed_vacuum_wigner(0.7, resolution=128),
}
_MAX_VAR = (6.0 / 4.0) ** 2  # the widest kernel the 6.0 extent accepts


def test_grid_validation():
    vals = np.zeros((64, 64))
    with pytest.raises(ConfigurationError):
        WignerGrid(sigma=0.0, extent=-1.0, values=vals)
    with pytest.raises(ConfigurationError):
        WignerGrid(sigma=0.0, extent=6.0, values=np.zeros((4, 4)))
    with pytest.raises(ConfigurationError):
        WignerGrid(sigma=1.5, extent=6.0, values=vals)
    with pytest.raises(ConfigurationError):
        WignerGrid(sigma=0.0, extent=6.0, values=np.zeros((64, 32)))
    bad = vals.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        WignerGrid(sigma=0.0, extent=6.0, values=bad)
    for extent in (np.inf, np.nan):
        with pytest.raises(ConfigurationError, match=f"extent must be finite, got {extent}"):
            WignerGrid(sigma=0.0, extent=extent, values=np.zeros((8, 8)))
        with pytest.raises(ConfigurationError, match=f"extent must be finite, got {extent}"):
            fock_wigner(1, extent=extent)
    for resolution in (0, -1, 8.5):
        with pytest.raises(ConfigurationError, match="resolution"):
            fock_wigner(1, resolution=resolution)
    # the node envelope is a Gaussian: four finite numbers, positive curvatures
    for envelope in (None, (0.0, 0.0, 2.0), (0.0, 0.0, 2.0, 2.0, 2.0), (np.nan, 0.0, 2.0, 2.0),
                     (0.0, np.inf, 2.0, 2.0), (0.0, 0.0, np.nan, 2.0), (0.0, 0.0, 2.0, np.inf),
                     (0.0, 0.0, 0.0, 2.0), (0.0, 0.0, 2.0, -1.0), (0.0, 0.0, "x", 2.0), 2.0):
        with pytest.raises(ConfigurationError, match="envelope"):
            WignerGrid(sigma=0.0, extent=6.0, values=vals, envelope=envelope)
    # the accepting side of each boundary: side 8 and sigma = +-1
    assert WignerGrid(sigma=0.0, extent=6.0, values=np.zeros((8, 8))).resolution == 8
    assert fock_wigner(1, resolution=8).resolution == 8
    for sigma in (1.0, -1.0):
        assert WignerGrid(sigma=sigma, extent=6.0, values=vals).sigma == sigma


def test_grid_geometry():
    g = vacuum_wigner(extent=5.0, resolution=101)
    ax = g.axes()
    assert ax[0] == -5.0 and ax[-1] == 5.0
    assert_allclose(g.dx, 0.1)
    # every constructor's grid is its factors' product, which sample contracts point by point
    grids = [g, fock_wigner(3, 6.0, 64), squeezed_vacuum_wigner(0.7, 6.0, 64),
             coherent_wigner(1.0 - 0.5j, 6.0, 64), teleported_fock_wigner(5, 0.3, 8.0, 64),
             teleported_squeezed_wigner(-0.5, 0.4, 8.0, 64)]
    for grid in grids:
        x, y = grid.mesh()
        assert_allclose(grid.values, grid.sample(x, y), rtol=0, atol=1e-15)


def test_value_at_outside_extent():
    g = vacuum_wigner()
    with pytest.raises(DomainError):
        g.value_at(7.0 + 0j)
    # a NaN coordinate lies in no box, on either route
    small = vacuum_wigner(resolution=32)
    for grid in (g, small, replace(small, profile=None)):
        for alpha in (complex(np.nan, 0.0), complex(0.0, np.nan), np.nan):
            with pytest.raises(DomainError, match="outside"):
                grid.value_at(alpha)
        # a point that is no number is a configuration error
        for alpha in ("abc", None):
            with pytest.raises(ConfigurationError, match="complex point"):
                grid.value_at(alpha)


def test_spline_sampling_matches_profile():
    g = fock_wigner(1, resolution=192)
    bare = WignerGrid(sigma=0.0, extent=g.extent, values=g.values)
    pts = np.array([0.3, -1.7, 2.2]), np.array([0.9, 0.4, -2.8])
    assert_allclose(bare.sample(*pts), g.sample(*pts), rtol=0, atol=1e-9)


def test_spline_factors_match_sample():
    bare = replace(fock_wigner(2, 6.0, 64), profile=None)
    fx, core, fy = bare.factors()
    rng = np.random.default_rng(3)
    # the box is [-6, 6]^2; half the points lie outside it, where the spline clamps
    x, y = rng.uniform(-9.0, 9.0, (2, 400))
    got = np.einsum("pc,cd,pd->p", fx(x), core, fy(y))
    ax = bare.axes()
    spline = RectBivariateSpline(ax, ax, bare.values, kx=5, ky=5)
    assert_allclose(got, spline(x, y, grid=False), rtol=0, atol=1e-15)
    assert fx(x.reshape(20, 20)).shape == (20, 20, core.shape[0])


def test_spline_factors_are_cached_without_holding_the_grid():
    bare = WignerGrid(sigma=0.0, extent=6.0, values=fock_wigner(1, 6.0, 32).values)
    first = bare.factors()
    assert bare.factors() is first
    fx, core, fy = first
    assert fx is fy  # a square grid's axes share knots and degree
    ref = weakref.ref(bare)
    gc.disable()
    try:
        del bare
        assert ref() is None  # freed by its reference count, with no cycle through the cache
    finally:
        gc.enable()
    assert fx(np.zeros(3)).shape == (3, core.shape[0])


def test_sample_broadcasts_on_both_routes():
    g = fock_wigner(1, 6.0, 96)
    bare = replace(g, profile=None)
    x = np.linspace(-2.5, 2.5, 7)[:, None]
    y = np.linspace(-1.9, 3.1, 5)[None, :]
    shape = np.broadcast(x, y).shape
    want = g.sample(x, y)
    got = bare.sample(x, y)
    assert want.shape == shape and got.shape == shape
    assert_allclose(got, want, rtol=0, atol=1e-6)


def test_convert_sigma_vacuum_to_q():
    q = convert_sigma(vacuum_wigner(), -1.0)
    assert q.sigma == -1.0
    x, y = q.mesh()
    assert_allclose(q.values, np.exp(-(x**2 + y**2)) / np.pi, rtol=0, atol=1e-7)
    assert_allclose(q.value_at(0.0), 1.0 / np.pi, rtol=0, atol=1e-6)


def test_convert_sigma_identity():
    g = fock_wigner(2)
    same = convert_sigma(g, 0.0)
    assert np.array_equal(same.values, g.values)


def test_zero_variance_smoothing_keeps_the_grid_description():
    for g in (fock_wigner(1, 6.0, 64), squeezed_vacuum_wigner(0.7, 6.0, 64),
              teleported_fock_wigner(2, 0.3, 6.0, 64)):
        for out in (smooth(g, 0.0), teleport_state(g, 0.0), convert_sigma(g, 0.0)):
            assert out.profile is g.profile
            assert out.envelope == g.envelope
            assert out.pure_origin == g.pure_origin
            assert out.sigma == g.sigma
            assert np.array_equal(out.values, g.values) and out.values is not g.values
        for out in (smooth(g, 0.05), teleport_state(g, 0.1), convert_sigma(g, -0.2)):
            assert out.profile is None and not out.pure_origin


def test_default_envelope_is_the_vacuums_and_widens(tmp_path):
    bare = WignerGrid(sigma=0.0, extent=6.0, values=fock_wigner(1, 6.0, 32).values)
    save_grid(bare, str(tmp_path / "grid"))
    for g in (bare, load_grid(str(tmp_path / "grid"))):
        assert g.envelope == (0.0, 0.0, 2.0, 2.0)
        for var in (0.0, 0.1, 0.5, 2.0):
            k = 2.0 / (1.0 + 4.0 * var)
            assert smooth(g, var).envelope == (0.0, 0.0, k, k)


def test_convert_sigma_fock1_q_at_origin():
    # closed-form Q of the one-photon state: (1/pi) |a|^2 exp(-|a|^2)
    q = convert_sigma(fock_wigner(1), -1.0)
    assert abs(q.value_at(0.0)) <= 1e-6
    x, y = q.mesh()
    r2 = x**2 + y**2
    assert_allclose(q.values, r2 * np.exp(-r2) / np.pi, rtol=0, atol=1e-6)
    assert q.values.min() >= -1e-9


def test_convert_sigma_semigroup():
    g = fock_wigner(2)
    direct = convert_sigma(g, -1.0)
    staged = convert_sigma(convert_sigma(g, -0.4), -1.0)
    assert_allclose(staged.values, direct.values, rtol=0, atol=1e-7)


def test_convert_sigma_rejects_deconvolution_on_grids():
    with pytest.raises(UnsupportedDeconvolutionError):
        convert_sigma(vacuum_wigner(), 0.5)


def test_conversion_mass_preserved():
    g = fock_wigner(1)
    q = convert_sigma(g, -1.0)
    assert_allclose(grid_integrate(q), grid_integrate(g), rtol=0, atol=1e-9)


def test_characteristic_vacuum():
    g = vacuum_wigner()
    assert_allclose(characteristic(g, 0.0), 1.0, rtol=0, atol=1e-9)
    assert_allclose(characteristic(g, 1.0), np.exp(-0.5), rtol=0, atol=1e-6)


def test_characteristic_fock1():
    g = fock_wigner(1)
    got = characteristic(g, 1.0)
    assert abs(got) <= 1e-6  # (1 - |xi|^2) e^{-|xi|^2/2} vanishes at |xi| = 1
    xi = 0.5 + 0.3j
    want = (1.0 - abs(xi) ** 2) * np.exp(-abs(xi) ** 2 / 2.0)
    assert_allclose(characteristic(g, xi), want, rtol=0, atol=1e-6)


def test_characteristic_ordering_factor():
    # C_sigma' = exp(-(sigma - sigma') |xi|^2 / 2) C_sigma at 10 random points
    g = fock_wigner(1)
    q = convert_sigma(g, -1.0)
    rng = np.random.default_rng(11)
    xi = rng.uniform(-1.5, 1.5, 10) + 1j * rng.uniform(-1.5, 1.5, 10)
    cw = characteristic(g, xi)
    cq = characteristic(q, xi)
    assert_allclose(cq, cw * np.exp(-0.5 * np.abs(xi) ** 2), rtol=0, atol=1e-6)


def test_characteristic_band_limit():
    g = vacuum_wigner(resolution=64)
    with pytest.raises(AccuracyError):
        characteristic(g, 1.01 * band_limit(g))
    # a NaN frequency is not inside the band, on either route
    for grid in (g, replace(g, profile=None)):
        for xi in (np.nan, complex(0.0, np.nan), np.array([0.5, np.nan])):
            with pytest.raises(AccuracyError, match="band limit"):
                characteristic(grid, xi)
        with pytest.raises(ConfigurationError, match="complex xi"):
            characteristic(grid, "x")


@pytest.mark.parametrize("resolution", [64, 256])
def test_characteristic_is_exact_inside_its_band(resolution):
    # the trapezoid sum of exp(2i xi x) at spacing dx aliases once 2 |xi| dx > pi,
    # so up to band_limit = pi / (2 dx) a Gaussian's transform is exact:
    # C(xi) = exp(-|xi|^2 / 2) exp(xi mu* - xi* mu) for a coherent state mu
    for g, mu in ((vacuum_wigner(6.0, resolution), 0.0),
                  (coherent_wigner(1.0 + 0.5j, 6.0, resolution), 1.0 + 0.5j)):
        for direction in (1.0, 1j, np.exp(0.25j * np.pi)):
            xi = np.array([0.5, 0.9, 0.99, 1.0]) * band_limit(g) * direction
            want = np.exp(-0.5 * np.abs(xi) ** 2 + xi * np.conj(mu) - np.conj(xi) * mu)
            assert_allclose(characteristic(g, xi), want, rtol=0, atol=1e-12)


def test_characteristic_gaussian_closed_form():
    # squeezed vacuum: quadrature variances e^{-2s}/4 and e^{2s}/4, so
    # C(xi) = exp(-2 (var_r Im(xi)^2 + var_i Re(xi)^2))
    g = squeezed_vacuum_wigner(0.5)
    var_r, var_i = np.exp(-1.0) / 4.0, np.exp(1.0) / 4.0
    pts = np.array([0.3 + 0.1j, -0.8j, 1.2 - 0.5j])
    want = np.exp(-2.0 * (var_r * pts.imag**2 + var_i * pts.real**2))
    assert_allclose(characteristic(g, pts), want, rtol=0, atol=1e-6)


def test_save_load_roundtrip(tmp_path):
    g = fock_wigner(1, extent=4.0, resolution=64)
    base = str(tmp_path / "grid")
    csv_path, json_path = save_grid(g, base)
    assert csv_path.endswith(".csv") and json_path.endswith(".json")
    back = load_grid(base)
    assert back.sigma == g.sigma
    assert back.extent == g.extent
    assert back.resolution == g.resolution
    assert_allclose(back.values, g.values, rtol=1e-11, atol=1e-15)
    # a copy of the value column, not a view that keeps the whole file's array
    assert back.values.flags["C_CONTIGUOUS"] and back.values.base is None


def test_load_grid_rejects_bad_header(tmp_path):
    g = vacuum_wigner(resolution=32)
    base = str(tmp_path / "grid")
    save_grid(g, base)
    good = (tmp_path / "grid.csv").read_bytes()
    rows = good.split(b"\r\n")
    rows[1] = rows[1].rsplit(b",", 1)[0] + b",abc"
    non_numeric = b"\r\n".join(rows)
    cases = [
        ('{"sigma": 0.0, "extent": 6.0}\n', good),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": "abc"}\n', good),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": 32\n', good),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": 32}\n', non_numeric),
        # the CSV axes were written at extent 6
        ('{"sigma": 0.0, "extent": 7.0, "resolution": 32}\n', good),
        # the shape guard: -32 squares to the 1024 rows of a 32^2 file
        ('{"sigma": 0.0, "extent": 6.0, "resolution": 0}\n', good),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": 31}\n', good),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": -32}\n', good),
    ]
    for header, data in cases:
        (tmp_path / "grid.json").write_text(header)
        (tmp_path / "grid.csv").write_bytes(data)
        with pytest.raises(ConfigurationError):
            load_grid(base)


def test_load_grid_header_follows_the_number_rule(tmp_path):
    # a bool is no number, text is no number, and a side is an integer
    base = str(tmp_path / "grid")
    save_grid(vacuum_wigner(resolution=16), base)
    for header, what in (
        ('{"sigma": true, "extent": 6.0, "resolution": 16}', "grid header sigma"),
        ('{"sigma": "0", "extent": 6.0, "resolution": 16}', "grid header sigma"),
        ('{"sigma": 0.0, "extent": "6", "resolution": 16}', "grid header extent"),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": 16.9}', "grid header resolution"),
        ('{"sigma": 0.0, "extent": 6.0, "resolution": true}', "grid header resolution"),
    ):
        (tmp_path / "grid.json").write_text(header + "\n")
        with pytest.raises(ConfigurationError, match=what):
            load_grid(base)
    (tmp_path / "grid.json").write_text('{"sigma": 0, "extent": 6, "resolution": 16}\n')
    assert load_grid(base).sigma == 0.0


def test_save_grid_writes_csv_writer_bytes(tmp_path):
    values = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    values[3, :5] = (-0.0, 5e-324, 1e-300, 1e20, 1.0 / 3.0)
    g = WignerGrid(sigma=0.0, extent=6.0, values=values)
    csv_path, json_path = save_grid(g, str(tmp_path / "grid"))
    ax = g.axes()
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["alpha_r", "alpha_i", "value"])
    for i in range(16):
        for j in range(16):
            writer.writerow([f"{ax[i]:.12g}", f"{ax[j]:.12g}", f"{values[i, j]:.12g}"])
    with open(csv_path, "rb") as fh:
        assert fh.read() == want.getvalue().encode()
    with open(json_path) as fh:
        assert json.load(fh) == {"sigma": 0.0, "extent": 6.0, "resolution": 16}


def test_write_text_is_whole_or_absent(tmp_path):
    path = tmp_path / "out.txt"
    _write_text(str(path), ["old\n"])
    ref = tmp_path / "ref.txt"
    open(ref, "w").close()
    assert path.stat().st_mode == ref.stat().st_mode  # the mode open() gives
    ref.unlink()

    class Interrupted(Exception):
        pass

    def chunks():
        yield "new\n"
        raise Interrupted

    with pytest.raises(Interrupted):
        _write_text(str(path), chunks())
    assert path.read_text() == "old\n"
    missing = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(FileNotFoundError) as exc:
        _write_text(missing, ["text"])
    assert exc.value.filename == missing
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_text_keeps_links_modes_and_special_files(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    _write_text(str(link), ["new\n"])
    assert link.is_symlink() and target.read_text() == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600

    null_link = tmp_path / "null"
    null_link.symlink_to(os.devnull)
    _write_text(str(null_link), ["discarded\n"])
    assert null_link.is_symlink()
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "null", "target.txt"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the smoothed grid is the exact smoothed state on the box, and the mass it "
    "lacks is that state's own tail beyond the box: its deficit equals the closed "
    "form's on the same grid (Fock 1 at 128^2 and var 2.25: 7.5e-4 on both)",
)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@example(label="fock 1", var=_MAX_VAR)
@given(st.sampled_from(sorted(_SMOOTH_INPUTS)), st.floats(0.0, _MAX_VAR))
def test_smooth_preserves_mass(label, var):
    g = _SMOOTH_INPUTS[label]
    assert abs(grid_integrate(smooth(g, var)) - grid_integrate(g)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(0.0, _MAX_VAR), st.floats(-1.0, 1.0))
def test_smooth_preserves_constants(var, level):
    g = WignerGrid(sigma=0.0, extent=6.0, values=np.full((64, 64), level))
    assert_allclose(smooth(g, var).values, level, rtol=0, atol=1e-12)


def test_smooth_checks_its_variance():
    # non-finite or negative variances raise before the kernel is sized
    g = fock_wigner(1, resolution=32)
    with pytest.raises(ConfigurationError, match="finite"):
        smooth(g, np.nan)
    with pytest.raises(ConfigurationError, match="finite"):
        smooth(g, np.inf)
    with pytest.raises(ConfigurationError, match="finite"):
        convert_sigma(g, np.nan)
    with pytest.raises(DomainError, match=">= 0"):
        smooth(g, -0.1)
    with pytest.raises(AccuracyError):
        smooth(g, _MAX_VAR * 1.01)


def test_smooth_identity_kernel_returns_input_silently():
    # at var = 1e-310 every off-diagonal tap underflows and std**2 is subnormal
    g = fock_wigner(1, resolution=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = smooth(g, 1e-310)
    assert np.array_equal(out.values, g.values)


def _reference_blur(ax, std):
    """The edge-clamped kernel built as a fancy index into the taps, with
    the edge tails added and one division by the norm at the end."""
    n = len(ax)
    dx = ax[1] - ax[0]
    taps = np.exp(-((np.arange(n + int(np.ceil(9.0 * std / dx))) * dx) ** 2) / (2.0 * std**2))
    tails = np.cumsum(taps[::-1])[::-1]
    norm = taps[0] + 2.0 * tails[1]
    i = np.arange(n)
    k = taps[np.abs(i[:, None] - i[None, :])]
    k[:, 0] += tails[i + 1]
    k[:, -1] += tails[n - i]
    return k / norm


def _factorless(g):
    """A copy of ``g`` with its values, geometry and envelope alone, so that
    smoothing it runs the dense products."""
    return WignerGrid(g.sigma, g.extent, g.values, envelope=g.envelope)


@pytest.mark.parametrize("extent", (6.0, 8.0))
@pytest.mark.parametrize(
    "make",
    [
        lambda e: fock_wigner(1, e),
        lambda e: fock_wigner(3, e),
        lambda e: squeezed_vacuum_wigner(0.5, e),
        lambda e: squeezed_vacuum_wigner(1.0, e),
        lambda e: squeezed_vacuum_wigner(1.5, e),
    ],
    ids=["fock 1", "fock 3", "squeezed 0.5", "squeezed 1.0", "squeezed 1.5"],
)
def test_scaled_smoothing_matches_unscaled_products(make, extent):
    # scaling by powers of two is exact, so only entries that the unscaled
    # products leave subnormal (or nearly so) may move, on either route: a
    # factor-less copy runs the dense products k @ values @ k.T, and the
    # constructor's grid its factors, (k @ u_x) @ core @ (k @ u_y).T
    g = make(extent)
    bare = _factorless(g)
    ax = g.axes()
    fx, core, fy = g.profile
    u_x, u_y = fx(ax), fy(ax)
    for n_tau in (1e-3, 0.05, 0.3, 2.0):
        std = np.sqrt(n_tau / 2.0)
        k = _reference_blur(ax, std)
        out = np.empty_like(k)
        assert np.array_equal(_blur_matrix(ax, std, 1.0, out), k)
        assert np.array_equal(_blur_matrix(ax, std, 2.0**300, out), np.ldexp(k, 300))
        for grid, want in ((bare, k @ g.values @ k.T), (g, (k @ u_x) @ core @ (k @ u_y).T)):
            got = smooth(grid, n_tau / 2.0).values
            normal = np.abs(want) >= 1e-300
            assert np.array_equal(got[normal], want[normal]), n_tau


def test_replaced_values_drop_the_axis_factors():
    # dataclasses.replace builds a new grid, so values replaced on a
    # constructor's grid are smoothed as they are, not through the factors
    # of the values they replaced
    g = fock_wigner(1, resolution=64)
    doubled = replace(g, values=2 * g.values)
    for out, bare in (
        (smooth(doubled, 0.5), smooth(_factorless(doubled), 0.5)),
        (convert_sigma(doubled, -1.0), convert_sigma(_factorless(doubled), -1.0)),
    ):
        assert_allclose(out.values, bare.values, rtol=0, atol=1e-15)
    assert_allclose(smooth(doubled, 0.5).values, 2 * smooth(g, 0.5).values, rtol=0, atol=1e-15)
    # a grid stripped of its profile samples and integrates through its spline
    spline = replace(g, profile=None)
    fx, core, _ = spline.factors()
    assert spline.profile is None and fx is not g.profile[0]
    assert core.shape[0] > g.profile[1].shape[0]
    assert np.array_equal(smooth(spline, 0.5).values, smooth(_factorless(g), 0.5).values)



def test_grid_values_are_read_only(tmp_path):
    # a write into a grid's values would leave its profile and its cached
    # axis factors describing other values (smooth was then off by 0.086)
    caller = fock_wigner(1, resolution=64).values.copy()
    bare = WignerGrid(sigma=0.0, extent=6.0, values=caller)
    g = fock_wigner(1, resolution=64)
    save_grid(g, str(tmp_path / "grid"))
    for grid in (bare, g, smooth(g, 0.5), convert_sigma(g, -1.0), replace(g, profile=None),
                 _factorless(g), load_grid(str(tmp_path / "grid"))):
        with pytest.raises(ValueError):
            grid.values[...] *= 2
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0
        assert not grid.values.flags.writeable
    # the grid holds a read-only view; the caller's own array keeps its flags
    assert caller.flags.writeable


def test_grid_integrals_keep_their_operation_order():
    # every trapezoid contraction goes through phase_space._contract; each of
    # its sites equals its written-out expression bit for bit, so a later
    # helper that reorders the sums fails here
    g = fock_wigner(3, resolution=96)
    smoothed = teleport_state(g, 0.4)
    xi = np.array([0.0, 0.3 + 0.2j, -0.7j, 1.1, 0.5 - 0.5j])
    for grid in (g, smoothed, _factorless(g), _factorless(smoothed)):
        w = trapezoid_weights(grid.resolution, grid.dx)
        ax = grid.axes()
        assert grid_integrate(grid) == float(w @ grid.values @ w)
        v = ax ** np.arange(5)[:, None] * w
        assert np.array_equal(_raw_moments(grid), v @ grid.values @ v.T)
        overlap = np.pi * (w @ (g.values * grid.values) @ w)
        assert overlap_fidelity(g, grid).value == min(max(float(overlap), 0.0), 1.0)
        ex = np.exp(2j * np.outer(xi.imag, ax)) * w
        ey = np.exp(-2j * np.outer(xi.real, ax)) * w
        want = np.einsum("ki,ij,kj->k", ex, grid.values, ey)
        assert np.array_equal(characteristic(grid, xi), want)
        assert characteristic(grid, complex(xi[1])) == complex(want[1])

_EQUIVALENCE_INPUTS = st.one_of(
    st.builds(lambda m: ("fock", m), st.integers(0, 20)),
    st.builds(lambda s: ("squeezed", s), st.floats(-1.0, 1.0)),
    st.builds(lambda r, i: ("coherent", complex(r, i)), st.floats(-1.4, 1.4), st.floats(-1.4, 1.4)),
)


def _equivalence_input(kind, arg, resolution):
    make = {"fock": fock_wigner, "squeezed": squeezed_vacuum_wigner, "coherent": coherent_wigner}
    return make[kind](arg, 6.0, resolution)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_EQUIVALENCE_INPUTS, st.floats(0.0, 2.0 * _MAX_VAR), st.sampled_from((64, 128, 192, 256)))
def test_factored_smoothing_matches_dense_products(state, n_tau, resolution):
    # the factored route on a constructor's grid against the dense route on
    # a factor-less copy, teleported and then lowered to the Q function
    g = _equivalence_input(*state, resolution)
    bare = _factorless(g)
    out, dense = teleport_state(g, n_tau), teleport_state(bare, n_tau)
    assert_allclose(out.values, dense.values, rtol=0, atol=1e-15)
    q, q_dense = convert_sigma(out, -1.0), convert_sigma(dense, -1.0)
    assert q.__dict__.get("_axis_factors") is not None
    assert q_dense.__dict__.get("_axis_factors") is None
    assert_allclose(q.values, q_dense.values, rtol=0, atol=1e-15)
    for got, want in ((out, dense), (q, q_dense)):
        # relative to the table's largest moment: the odd ones of a number
        # state are zero up to the rounding of the largest
        table, want_table = moment_table(got), moment_table(want)
        assert np.nanmax(np.abs(table - want_table)) <= 1e-13 * np.nanmax(np.abs(want_table))
        xi = np.array([0.0, 0.4 + 0.3j, -0.9j, 0.8]) * band_limit(got)
        assert_allclose(characteristic(got, xi), characteristic(want, xi), rtol=0, atol=1e-14)
    assert abs(overlap_fidelity(g, out).value - overlap_fidelity(g, dense).value) <= 1e-15


@pytest.mark.parametrize("peak", [0.0, 1e-310, 1e-300, 1e300, "1e300 and subnormals"])
def test_smooth_scales_any_finite_grid_silently(peak):
    shape = fock_wigner(1, resolution=64).values
    if peak == "1e300 and subnormals":
        values = np.where(shape > 0.0, 5e-324, -1e-310)
        values[32, 32] = 1e300
    else:
        values = shape / np.abs(shape).max() * peak
    g = WignerGrid(sigma=0.0, extent=6.0, values=values)
    for var in (1e-3, 0.025, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = smooth(g, var).values
        assert np.all(np.isfinite(out))
        if peak in (1e-310, 1e-300, 1e300):
            # smoothing commutes with scaling by the peak
            unit = smooth(replace(g, values=shape / np.abs(shape).max()), var).values
            assert_allclose(out / peak, unit, rtol=0, atol=1e-12)
