"""Wigner functions of the input states and of the two-mode channel state.

All constructors return normalized Wigner grids (sigma = 0) with an exact
``profile`` attached, so downstream quadratures can resample them without
interpolation loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .numerics import laguerre
from .phase_space import DEFAULT_EXTENT, DEFAULT_RESOLUTION, WignerGrid

MAX_FOCK = 50


@dataclass(frozen=True)
class GaussianTwoMode:
    """Zero-mean two-mode Gaussian Wigner function of the channel state.

    W(a_b, a_c) = norm * exp(-2 gamma (|a_b|^2 + |a_c|^2) / (gamma^2 - lam^2)
                             + 2 lam (a_b a_c + conj) / (gamma^2 - lam^2))

    ``gamma`` is the common single-mode width parameter, ``lam`` the
    cross-mode correlation.  Physical channels satisfy gamma >= 1,
    gamma > |lam| and gamma^2 - lam^2 >= 1.
    """

    gamma: float
    lam: float

    def __post_init__(self):
        if self.gamma < 1.0 - 1e-12:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")
        if abs(self.lam) >= self.gamma:
            raise ConfigurationError("correlation |lam| must be below gamma")
        if self.gamma**2 - self.lam**2 < 1.0 - 1e-9:
            raise ConfigurationError("gamma^2 - lam^2 must be >= 1 for a physical state")

    @property
    def norm(self) -> float:
        return 4.0 / (np.pi**2 * (self.gamma**2 - self.lam**2))

    def wigner(self, alpha_b, alpha_c):
        ab = np.asarray(alpha_b, dtype=complex)
        ac = np.asarray(alpha_c, dtype=complex)
        det = self.gamma**2 - self.lam**2
        quad = (
            -2.0 * self.gamma * (np.abs(ab) ** 2 + np.abs(ac) ** 2)
            + 4.0 * self.lam * (ab * ac).real
        ) / det
        out = self.norm * np.exp(quad)
        return out if out.ndim else float(out)

    def characteristic(self, xi_b, xi_c):
        """Two-mode Wigner characteristic function."""
        xb = np.asarray(xi_b, dtype=complex)
        xc = np.asarray(xi_c, dtype=complex)
        out = np.exp(
            -0.5 * self.gamma * (np.abs(xb) ** 2 + np.abs(xc) ** 2)
            + self.lam * (xb * xc).real
        )
        return out if out.ndim else complex(out)


def two_mode_squeezed_vacuum(s_qc: float) -> GaussianTwoMode:
    """Pure two-mode squeezed vacuum with squeezing parameter s_qc >= 0."""
    if s_qc < 0:
        raise DomainError(f"squeezing parameter must be >= 0, got {s_qc}")
    return GaussianTwoMode(gamma=np.cosh(2.0 * s_qc), lam=np.sinh(2.0 * s_qc))


def fock_wigner(
    m: int, extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Wigner function of the number state |m>,

    W(a) = (2/pi) (-1)^m exp(-2|a|^2) L_m(4|a|^2).
    """
    if not isinstance(m, (int, np.integer)) or not 0 <= m <= MAX_FOCK:
        raise ConfigurationError(f"number-state index must be an integer in [0, {MAX_FOCK}]")
    m = int(m)

    def profile(x, y):
        r2 = x**2 + y**2
        return (2.0 / np.pi) * (-1.0) ** m * np.exp(-2.0 * r2) * laguerre(m, 4.0 * r2)

    return WignerGrid.from_profile(profile, (0.0, 0.0, 2.0, 2.0), extent, resolution)


def squeezed_vacuum_wigner(
    s_o: float, extent: float = DEFAULT_EXTENT, resolution: int = DEFAULT_RESOLUTION
) -> WignerGrid:
    """Wigner function of a quadrature-squeezed vacuum,

    W(a) = (2/pi) exp(-2 e^{2 s_o} a_r^2 - 2 e^{-2 s_o} a_i^2).
    """
    width = np.exp(abs(s_o))
    if extent < DEFAULT_EXTENT * width / np.exp(1.5):
        raise ConfigurationError(
            f"extent {extent} too small for squeezing {s_o}; grow it as e^|s_o|"
        )
    kx = 2.0 * np.exp(2.0 * s_o)
    ky = 2.0 * np.exp(-2.0 * s_o)

    def profile(x, y):
        return (2.0 / np.pi) * np.exp(-kx * x**2 - ky * y**2)

    return WignerGrid.from_profile(profile, (0.0, 0.0, kx, ky), extent, resolution)


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
