"""Wigner functions of the input states and of their teleported forms.

All constructors return normalized Wigner grids (sigma = 0) with an exact
``profile`` attached, so downstream quadratures can resample them without
interpolation loss.  Number states and squeezed vacua each have one closed
form valid for every noise factor n_tau >= 0; the input state is its
n_tau = 0 case.
"""

from __future__ import annotations

import numpy as np

from .channel import as_noise
from .errors import ConfigurationError
from .phase_space import DEFAULT_EXTENT, DEFAULT_RESOLUTION, WignerGrid

MAX_FOCK = 50


def teleported_fock_wigner(
    m: int,
    n_tau,
    extent: float = DEFAULT_EXTENT,
    resolution: int = DEFAULT_RESOLUTION,
) -> WignerGrid:
    """Wigner function of the number state |m> teleported with noise n_tau,

        W_r(a) = (2/pi) exp(-2|a|^2/v) q_m(u, z) / v^{m+1},
        u = 2n - 1,  v = 2n + 1,  z = -4|a|^2 / v,

    where q_m(u, z) = u^m L_m(z/u) follows the homogeneous recurrence

        (k+1) q_{k+1} = ((2k+1) u - z) q_k - k u^2 q_{k-1},  q_0 = 1, q_1 = u - z,

    which never divides by u, so n_tau = 1/2 needs no special case.  q_m is
    homogeneous of degree m, so it runs on (u/v, z/v) and no power of v is
    formed.  At n_tau = 0 this is (2/pi) (-1)^m exp(-2|a|^2) L_m(4|a|^2).
    """
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= MAX_FOCK:
        raise ConfigurationError(f"number-state index must be an integer in [0, {MAX_FOCK}]")
    m = int(m)
    n = as_noise(n_tau)
    v = 2.0 * n + 1.0
    u = (2.0 * n - 1.0) / v
    u2 = u * u
    pref = (2.0 / np.pi) / v
    c_exp = -2.0 / v
    c_z = -4.0 / (v * v)

    def profile(x, y):
        r2 = x**2 + y**2
        if m == 0:
            return pref * np.exp(c_exp * r2)
        z = c_z * r2
        q_prev, q = 1.0, u - z
        for k in range(1, m):
            q_prev, q = q, (((2 * k + 1) * u - z) * q - k * u2 * q_prev) / (k + 1)
        return pref * np.exp(c_exp * r2) * q

    return WignerGrid.from_profile(
        profile, (0.0, 0.0, -c_exp, -c_exp), extent, resolution, pure=(n == 0.0)
    )


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
    n = as_noise(n_tau)
    # sqrt(2 / min(kx, ky)), written so that it is exactly e^|s_o| at n_tau = 0;
    # it comes before e^{+-2 s_o}, which overflows for squeezings the guard rejects
    width = np.exp(abs(s_o)) * np.sqrt(1.0 + 2.0 * n * np.exp(-2.0 * abs(s_o)))
    if not extent >= DEFAULT_EXTENT * width / np.exp(1.5):
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

    def profile(x, y):
        return pref * np.exp(-kx * x**2 - ky * y**2)

    return WignerGrid.from_profile(
        profile, (0.0, 0.0, kx, ky), extent, resolution, pure=(n == 0.0)
    )


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
    mu = complex(mu)
    if abs(mu) + 3.0 > extent:
        raise ConfigurationError(
            f"coherent amplitude {mu} needs extent >= |mu| + 3, got {extent}"
        )

    def profile(x, y):
        return (2.0 / np.pi) * np.exp(-2.0 * ((x - mu.real) ** 2 + (y - mu.imag) ** 2))

    return WignerGrid.from_profile(profile, (mu.real, mu.imag, 2.0, 2.0), extent, resolution)


def vacuum_wigner(
    extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Vacuum Wigner function (number state m = 0)."""
    return fock_wigner(0, extent=extent, resolution=resolution)
