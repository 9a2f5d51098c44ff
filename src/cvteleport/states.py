"""Wigner functions of the input states and of their teleported forms.

All constructors return normalized Wigner grids (sigma = 0) that keep their
exact form as ``profile = (fx, core, fy)``, a separable form
``W(x, y) = fx(x) @ core @ fy(y)``: one Gaussian per axis for squeezed and
coherent states, and Gaussians times Laguerre polynomials of order -1/2
for number states.  The grid is built, sampled and integrated from these
factors alone.  Number states and squeezed vacua each have one closed
form valid for every noise factor n_tau >= 0; the input state is its
n_tau = 0 case.
"""

from __future__ import annotations

import numpy as np

from .channel import as_noise
from .errors import ConfigurationError, as_index, as_number
from .phase_space import DEFAULT_EXTENT, DEFAULT_RESOLUTION, WignerGrid

MAX_FOCK = 50


def _gaussian(c, centre=0.0):
    """The one-column basis t -> exp(c (t - centre)^2), on a new last axis."""

    def basis(t):
        return np.exp(c * (np.asarray(t, dtype=float) - centre) ** 2)[..., None]

    return basis


def teleported_fock_wigner(
    m: int,
    n_tau,
    extent: float = DEFAULT_EXTENT,
    resolution: int = DEFAULT_RESOLUTION,
) -> WignerGrid:
    """Wigner function of the number state |m> teleported with noise n_tau,

        W_r(a) = (2/pi) exp(-2|a|^2/v) q_m(u, z) / v^{m+1},
        u = 2n - 1,  v = 2n + 1,  z = -4|a|^2 / v,

    with q_m(u, z) = u^m L_m(z/u).  At n_tau = 0 this is
    (2/pi) (-1)^m exp(-2|a|^2) L_m(4|a|^2).

    The factors split q_m over the two axes by the addition theorem
    L_m(x + y) = sum_i L_i^(-1/2)(x) L_{m-i}^(-1/2)(y):

        q_m(u, z) = sum_i h_i(u, -4 a_r^2 / v) h_{m-i}(u, -4 a_i^2 / v),

    with h_i(u, z) = u^i L_i^(-1/2)(z/u), so the core is antidiagonal.  The
    h_i follow the homogeneous recurrence

        (k+1) h_{k+1} = ((2k+1/2) u - z) h_k - (k-1/2) u^2 h_{k-1},  h_0 = 1, h_1 = u/2 - z,

    which never divides by u, so n_tau = 1/2 needs no special case.  h_i is
    homogeneous of degree i, so it runs on (u/v, z/v) and no power of v is
    formed.  At n_tau = 0 the h_i are even Hermite polynomials.
    """
    m = as_index(m, "number-state index", 0, MAX_FOCK)
    n = as_noise(n_tau)
    v = 2.0 * n + 1.0
    u = (2.0 * n - 1.0) / v
    u2 = u * u
    pref = (2.0 / np.pi) / v
    c_exp = -2.0 / v
    c_z = -4.0 / (v * v)

    def basis(t):
        # exp(c_exp t^2) h_i(u, c_z t^2) for i = 0..m, built on a leading axis
        d2 = np.asarray(t, dtype=float) ** 2
        z = c_z * d2
        out = np.empty((m + 1,) + d2.shape)
        out[0] = np.exp(c_exp * d2)
        if m:
            out[1] = (0.5 * u - z) * out[0]
        for k in range(1, m):
            out[k + 1] = (((2 * k + 0.5) * u - z) * out[k] - (k - 0.5) * u2 * out[k - 1]) / (k + 1)
        return np.moveaxis(out, 0, -1)

    factors = (basis, pref * np.eye(m + 1)[::-1], basis)
    envelope = (0.0, 0.0, -c_exp, -c_exp)
    return WignerGrid.from_profile(factors, envelope, extent, resolution, pure=(n == 0.0))


def teleported_squeezed_wigner(
    s_o: float,
    n_tau,
    extent: float = DEFAULT_EXTENT,
    resolution: int = DEFAULT_RESOLUTION,
) -> WignerGrid:
    """Wigner function of a quadrature-squeezed vacuum teleported with noise
    n_tau,

        W_r(a) = (2/pi) / sqrt(B(s_o) B(-s_o)) exp(-kx a_r^2 - ky a_i^2),
        kx = 2 e^{2 s_o} / B(s_o),  ky = 2 e^{-2 s_o} / B(-s_o),
        B(s) = 1 + 2 n_tau e^{2 s}.

    The extent must hold (6 / e^1.5) times the widest axis sqrt(2 / min(kx, ky)).
    """
    s_o = as_number(s_o, "squeezing s_o")
    n = as_noise(n_tau)
    # sqrt(2 / min(kx, ky)), written so that it is exactly e^|s_o| at n_tau = 0;
    # it comes before e^{+-2 s_o}, which overflows for squeezings the guard rejects
    with np.errstate(over="ignore"):  # past |s_o| = 709.78 the width is inf, which the guard rejects
        width = np.exp(abs(s_o)) * np.sqrt(1.0 + 2.0 * n * np.exp(-2.0 * abs(s_o)))
    if not as_number(extent, "grid extent") >= 6.0 * width / np.exp(1.5):
        raise ConfigurationError(
            f"extent {extent} too small for squeezing {s_o} at noise {n}; grow it as e^|s_o|"
        )
    e_plus = np.exp(2.0 * s_o)
    e_minus = np.exp(-2.0 * s_o)
    b_plus = 1.0 + 2.0 * n * e_plus
    b_minus = 1.0 + 2.0 * n * e_minus
    kx = 2.0 * e_plus / b_plus
    ky = 2.0 * e_minus / b_minus
    pref = (2.0 / np.pi) / np.sqrt(b_plus * b_minus)

    factors = (_gaussian(-kx), np.array([[pref]]), _gaussian(-ky))
    return WignerGrid.from_profile(factors, (0.0, 0.0, kx, ky), extent, resolution, pure=(n == 0.0))


def fock_wigner(
    m: int, extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Wigner function of the number state |m>,

    W(a) = (2/pi) (-1)^m exp(-2|a|^2) L_m(4|a|^2).
    """
    return teleported_fock_wigner(m, 0.0, extent, resolution)


def squeezed_vacuum_wigner(
    s_o: float, extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Wigner function of a quadrature-squeezed vacuum,

    W(a) = (2/pi) exp(-2 e^{2 s_o} a_r^2 - 2 e^{-2 s_o} a_i^2).
    """
    return teleported_squeezed_wigner(s_o, 0.0, extent, resolution)


def coherent_wigner(
    mu: complex, extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Wigner function of the coherent state centered at mu."""
    mu = as_number(mu, "coherent amplitude mu", complex)
    if abs(mu) + 3.0 > as_number(extent, "grid extent"):
        raise ConfigurationError(
            f"coherent amplitude {mu} needs extent >= |mu| + 3, got {extent}"
        )
    factors = (_gaussian(-2.0, mu.real), np.array([[2.0 / np.pi]]), _gaussian(-2.0, mu.imag))
    return WignerGrid.from_profile(factors, (mu.real, mu.imag, 2.0, 2.0), extent, resolution)


def vacuum_wigner(
    extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Vacuum Wigner function (number state m = 0)."""
    return fock_wigner(0, extent=extent, resolution=resolution)
