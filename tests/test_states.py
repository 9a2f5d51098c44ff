"""State constructors, their teleported closed forms, and the two-mode
Gaussian channel state."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvteleport import (
    ConfigurationError,
    GaussianTwoMode,
    coherent_wigner,
    fock_wigner,
    grid_integrate,
    squeezed_vacuum_wigner,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    two_mode_squeezed_vacuum,
    vacuum_wigner,
)

# noise factors on both sides of n_tau = 1/2, where the Laguerre argument of the
# teleported number state is singular
_ORACLE_NTAU = (0.0, 0.06, 0.3, 0.4999995, 0.499999, 0.5, 0.500001, 0.5000011, 0.8812, 1.0, 3.0)


def test_two_mode_squeezed_vacuum_values():
    flat = two_mode_squeezed_vacuum(0.0)
    assert flat.gamma == 1.0 and flat.lam == 0.0
    s = two_mode_squeezed_vacuum(1.0)
    assert_allclose(s.gamma, np.cosh(2.0), rtol=1e-14)
    assert_allclose(s.lam, np.sinh(2.0), rtol=1e-14)
    assert_allclose(s.gamma**2 - s.lam**2, 1.0, rtol=0, atol=1e-12)


def test_two_mode_squeezed_vacuum_purity_identity():
    for s_qc in (0.0, 0.3, 1.2, 2.0):
        st = two_mode_squeezed_vacuum(s_qc)
        assert_allclose(st.gamma - st.lam, np.exp(-2.0 * s_qc), rtol=0, atol=1e-12)


def test_two_mode_squeezed_vacuum_accepts_strong_squeezing():
    # gamma and lam are both near e^{2 s} / 2 here, so gamma^2 - lam^2 would
    # cancel below 1 - 1e-9 (at 197 of these 1001 values, the first s = 4.225)
    for s_qc in np.arange(4000, 5001) / 1000.0:
        st = two_mode_squeezed_vacuum(float(s_qc))
        assert st.n_minus == np.exp(-2.0 * s_qc)


def test_two_mode_squeezed_vacuum_rejects_negative():
    with pytest.raises(ConfigurationError, match="s_qc"):
        two_mode_squeezed_vacuum(-0.1)


def test_gaussian_two_mode_invariants():
    pure = GaussianTwoMode(n_minus=0.5, n_plus=2.0)  # n_minus * n_plus is exactly 1
    assert (pure.gamma, pure.lam) == (1.25, 0.75)
    with pytest.raises(ConfigurationError):
        GaussianTwoMode(n_minus=0.5, n_plus=1.99)  # n_minus * n_plus < 1
    with pytest.raises(ConfigurationError):
        GaussianTwoMode(n_minus=0.0, n_plus=3.0)
    with pytest.raises(ConfigurationError):
        GaussianTwoMode(n_minus=-1.0, n_plus=-2.0)  # product 2, but variances are positive


@pytest.mark.parametrize(
    "n_minus, n_plus",
    [(float("nan"), 2.0), (float("inf"), 2.0), (2.0, float("nan")), (2.0, float("inf"))],
)
def test_gaussian_two_mode_rejects_non_finite(n_minus, n_plus):
    with pytest.raises(ConfigurationError):
        GaussianTwoMode(n_minus=n_minus, n_plus=n_plus)


def test_gaussian_two_mode_norm_and_values():
    st = GaussianTwoMode(n_minus=1.0, n_plus=3.0)  # gamma = 2, lam = 1
    assert (st.gamma, st.lam) == (2.0, 1.0)
    assert_allclose(st.norm, 4.0 / (np.pi**2 * 3.0), rtol=1e-14)


def test_fock_wigner_values():
    assert_allclose(fock_wigner(0).value_at(0.0), 2.0 / np.pi, rtol=1e-12)
    assert_allclose(fock_wigner(1).value_at(0.0), -2.0 / np.pi, rtol=1e-12)
    for m in range(4):
        assert_allclose(fock_wigner(m).value_at(0.0), (2.0 / np.pi) * (-1.0) ** m, rtol=1e-12)


def test_fock_wigner_normalization():
    assert_allclose(grid_integrate(fock_wigner(2)), 1.0, rtol=0, atol=1e-6)
    assert_allclose(grid_integrate(fock_wigner(5)), 1.0, rtol=0, atol=1e-6)


def test_fock_wigner_index_validation():
    with pytest.raises(ConfigurationError):
        fock_wigner(-1)
    with pytest.raises(ConfigurationError):
        fock_wigner(51)
    with pytest.raises(ConfigurationError):
        fock_wigner(1.5)
    with pytest.raises(ConfigurationError):
        fock_wigner(True)


def test_squeezed_vacuum_wigner():
    g = squeezed_vacuum_wigner(0.0)
    assert_allclose(g.values, vacuum_wigner().values, rtol=0, atol=1e-15)
    g1 = squeezed_vacuum_wigner(1.0)
    assert_allclose(g1.value_at(0.0), 2.0 / np.pi, rtol=1e-12)  # peak is s-independent
    assert_allclose(grid_integrate(squeezed_vacuum_wigner(0.5)), 1.0, rtol=0, atol=1e-6)
    # at s = 1 the wide axis leaks ~1e-5 of mass past the default extent
    assert_allclose(grid_integrate(squeezed_vacuum_wigner(1.0, extent=8.0)), 1.0, rtol=0, atol=1e-6)


def test_squeezed_vacuum_variance():
    # Var(alpha_r) = e^{-2 s} / 4 from the grid second moment
    s_o = 0.5
    g = squeezed_vacuum_wigner(s_o)
    x, y = g.mesh()
    var = grid_integrate(
        g.__class__(sigma=0.0, extent=g.extent, values=g.values * x**2)
    )
    assert_allclose(var, np.exp(-2.0 * s_o) / 4.0, rtol=0, atol=1e-6)


def test_squeezed_vacuum_extent_guard():
    with pytest.raises(ConfigurationError):
        squeezed_vacuum_wigner(2.5)  # needs extent > default
    squeezed_vacuum_wigner(2.5, extent=6.0 * np.exp(1.0))  # grown extent is fine
    for s_o in (400.0, float("inf"), float("nan")):  # rejected before e^{2 s_o} overflows
        with pytest.raises(ConfigurationError):
            squeezed_vacuum_wigner(s_o)
    # a finite squeezing too wide for the grid blames the extent, even where
    # its width e^|s_o| overflows; one that is no finite number names itself
    for s_o in (400.0, 800.0, -800.0):
        with pytest.raises(ConfigurationError, match="too small for squeezing .*; grow it"):
            squeezed_vacuum_wigner(s_o)
    for s_o in (float("nan"), float("inf"), "x"):
        with pytest.raises(ConfigurationError, match="squeezing s_o must be") as err:
            squeezed_vacuum_wigner(s_o)
        assert "grow it" not in str(err.value)


def test_coherent_wigner():
    assert_allclose(coherent_wigner(0.0).values, vacuum_wigner().values, rtol=0, atol=1e-15)
    g = coherent_wigner(1.0 + 0.0j)
    assert_allclose(g.value_at(1.0), 2.0 / np.pi, rtol=1e-12)
    assert g.value_at(1.0) > g.value_at(0.0)
    assert_allclose(grid_integrate(g), 1.0, rtol=0, atol=1e-6)


def test_coherent_wigner_extent_guard():
    with pytest.raises(ConfigurationError):
        coherent_wigner(4.0, extent=6.0)
    coherent_wigner(4.0, extent=8.0)
    # |mu| + 3 = extent is accepted
    assert coherent_wigner(3.0, extent=6.0).extent == 6.0


def _random_points(seed, count=30):
    rng = np.random.default_rng(seed)
    return rng.uniform(-6.0, 6.0, count), rng.uniform(-6.0, 6.0, count)


def _teleported_fock_exact(m, n, x, y):
    """(2/pi) e^{-2r^2/v} sum_k C(m,k) (4r^2)^k u^{m-k} / (k! v^{m+k+1}) at 60 digits."""
    with mpmath.workdps(60):
        n, r2 = mpmath.mpf(n), mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2
        u, v = 2 * n - 1, 2 * n + 1
        total = mpmath.fsum(
            mpmath.binomial(m, k) * (4 * r2) ** k * u ** (m - k)
            / (mpmath.factorial(k) * v ** (m + k + 1))
            for k in range(m + 1)
        )
        return float(2 / mpmath.pi * mpmath.exp(-2 * r2 / v) * total)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 10, 20, 35, 50])
def test_teleported_fock_matches_high_precision_sum(m):
    x, y = _random_points(m)
    for n in _ORACLE_NTAU:
        got = teleported_fock_wigner(m, n, resolution=16).sample(x, y)
        exact = [_teleported_fock_exact(m, n, xi, yi) for xi, yi in zip(x, y)]
        assert_allclose(got, exact, rtol=0, atol=1e-14, err_msg=f"m={m}, n_tau={n}")


def test_teleported_fock_is_finite_beside_half():
    for n in (0.4999995, 0.5000011):
        g = teleported_fock_wigner(50, n)
        assert np.all(np.isfinite(g.values))


def test_teleported_squeezed_matches_high_precision_form():
    x, y = _random_points(99)
    for s_o in (-0.7, 0.0, 0.5, 1.0):
        for n in _ORACLE_NTAU:
            got = teleported_squeezed_wigner(s_o, n, resolution=16).sample(x, y)
            with mpmath.workdps(60):
                a_p = 2 * mpmath.mpf(n) + mpmath.exp(-2 * mpmath.mpf(s_o))
                a_m = 2 * mpmath.mpf(n) + mpmath.exp(2 * mpmath.mpf(s_o))
                exact = [
                    float(
                        2 / (mpmath.pi * mpmath.sqrt(a_p * a_m))
                        * mpmath.exp(-2 * mpmath.mpf(xi) ** 2 / a_p - 2 * mpmath.mpf(yi) ** 2 / a_m)
                    )
                    for xi, yi in zip(x, y)
                ]
            assert_allclose(got, exact, rtol=0, atol=1e-14, err_msg=f"s_o={s_o}, n_tau={n}")
