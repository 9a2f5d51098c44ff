"""Thermal degradation of the entangled channel and the derived noise figures.

The two modes of the channel couple to independent thermal baths with mean
occupation ``n_bar`` and damping rate ``gamma``; time enters through the
renormalized variable T = 1 - exp(-gamma t) in [0, 1].  The Gaussian channel
state keeps the form of :class:`GaussianTwoMode` with

    gamma(T) = T (1 + 2 n_bar) + (1 - T) cosh(2 s_qc)
    lam(T)   = (1 - T) sinh(2 s_qc)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


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
        for name in ("gamma", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma < 1.0 - 1e-12:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")
        if abs(self.lam) >= self.gamma:
            raise ConfigurationError("correlation |lam| must be below gamma")
        if self.gamma**2 - self.lam**2 < 1.0 - 1e-9:
            raise ConfigurationError("gamma^2 - lam^2 must be >= 1 for a physical state")

    @property
    def norm(self) -> float:
        return 4.0 / (np.pi**2 * (self.gamma**2 - self.lam**2))


def two_mode_squeezed_vacuum(s_qc: float) -> GaussianTwoMode:
    """Pure two-mode squeezed vacuum with squeezing parameter s_qc >= 0."""
    if s_qc < 0:
        raise DomainError(f"squeezing parameter must be >= 0, got {s_qc}")
    return GaussianTwoMode(gamma=np.cosh(2.0 * s_qc), lam=np.sinh(2.0 * s_qc))


@dataclass(frozen=True)
class ChannelParams:
    """Channel squeezing s_qc >= 0, bath occupation n_bar >= 0, and
    renormalized interaction time T in [0, 1]."""

    s_qc: float
    n_bar: float
    T: float

    def __post_init__(self):
        for name in ("s_qc", "n_bar", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.s_qc < 0:
            raise ConfigurationError(f"s_qc must be >= 0, got {self.s_qc}")
        if self.n_bar < 0:
            raise ConfigurationError(f"n_bar must be >= 0, got {self.n_bar}")
        if not 0.0 <= self.T <= 1.0:
            raise ConfigurationError(f"T must lie in [0, 1], got {self.T}")

    @property
    def gamma_t(self) -> float:
        """Dimensionless bare time gamma*t corresponding to T (inf at T = 1)."""
        return float(-np.log1p(-self.T)) if self.T < 1.0 else float("inf")


@dataclass(frozen=True)
class NoiseFactor:
    """Additive Gaussian noise of a transmission scheme."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigurationError(f"noise factor must be finite, got {self.value}")
        if self.value < 0:
            raise DomainError(f"noise factor must be >= 0, got {self.value}")

    def __float__(self) -> float:
        return float(self.value)


def as_noise(n_tau) -> float:
    """The noise value of a :class:`NoiseFactor` or of a plain number,
    validated the same way: finite (else ConfigurationError) and >= 0
    (else DomainError)."""
    if not isinstance(n_tau, NoiseFactor):
        n_tau = NoiseFactor(value=float(n_tau))
    return float(n_tau.value)


def evolve_channel(p: ChannelParams) -> GaussianTwoMode:
    """Channel state after bath contact for renormalized time T."""
    gamma = p.T * (1.0 + 2.0 * p.n_bar) + (1.0 - p.T) * np.cosh(2.0 * p.s_qc)
    lam = (1.0 - p.T) * np.sinh(2.0 * p.s_qc)
    return GaussianTwoMode(gamma=float(gamma), lam=float(lam))


def integrate_moment_flow(p: ChannelParams):
    """Integrate the second-moment flow of the thermal master equation,

        d gamma / d(tau) = (1 + 2 n_bar) - gamma,   d lam / d(tau) = -lam,

    with tau = gamma*t, by classic fourth-order Runge-Kutta at step 1e-3.
    Serves as an independent route to :func:`evolve_channel`.
    """
    if p.T >= 1.0:
        # infinite-time fixed point
        return 1.0 + 2.0 * p.n_bar, 0.0
    tau_end = p.gamma_t
    n = max(1, int(np.ceil(tau_end / 1e-3))) if tau_end > 0 else 0
    h = tau_end / n if n else 0.0
    a = 1.0 + 2.0 * p.n_bar
    y = np.array([np.cosh(2.0 * p.s_qc), np.sinh(2.0 * p.s_qc)])

    def f(v):
        return np.array([a - v[0], -v[1]])

    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0]), float(y[1])


def noise_factor(p: ChannelParams) -> NoiseFactor:
    """Additive noise of teleportation through the degraded channel,

    n_tau = (2 n_bar + 1) T + (1 - T) exp(-2 s_qc),

    which equals gamma(T) - lam(T) of the channel state.
    """
    value = (2.0 * p.n_bar + 1.0) * p.T + (1.0 - p.T) * np.exp(-2.0 * p.s_qc)
    return NoiseFactor(value=float(value))


def direct_noise(n_bar: float, T: float) -> NoiseFactor:
    """Additive noise n_bar * T of direct transmission through the bath."""
    if n_bar < 0:
        raise ConfigurationError(f"n_bar must be >= 0, got {n_bar}")
    if not 0.0 <= T <= 1.0:
        raise ConfigurationError(f"T must lie in [0, 1], got {T}")
    return NoiseFactor(value=float(n_bar) * float(T))


def is_separable(p: ChannelParams) -> bool:
    """True when the degraded channel state is separable (n_tau >= 1)."""
    return noise_factor(p).value >= 1.0


def teleport_vs_direct_gap(p: ChannelParams) -> float:
    """Noise penalty of teleportation over direct transmission when the
    channel mode travels for half the total bath time,

        n_bar (1 - sqrt(1-T))^2 + 1 - sqrt(1-T) (1 - exp(-2 s_qc)),

    equal to n_tau at T' = 1 - sqrt(1-T) minus n_bar * T, and never negative.
    """
    u = np.sqrt(1.0 - p.T)
    return float(p.n_bar * (1.0 - u) ** 2 + 1.0 - u * (1.0 - np.exp(-2.0 * p.s_qc)))
