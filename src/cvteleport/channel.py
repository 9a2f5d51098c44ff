"""Thermal degradation of the entangled channel and the derived noise figures.

The two modes of the channel couple to independent thermal baths with mean
occupation ``n_bar`` and damping rate ``gamma``; time enters through the
renormalized variable T = 1 - exp(-gamma t) in [0, 1].  The Gaussian channel
state keeps the form of :class:`GaussianTwoMode`, with normal-mode variances

    n_minus(T) = T (1 + 2 n_bar) + (1 - T) exp(-2 s_qc)   (= n_tau)
    n_plus(T)  = T (1 + 2 n_bar) + (1 - T) exp(+2 s_qc)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, as_kind, as_number, overflow_guard


@dataclass(frozen=True)
class GaussianTwoMode:
    """Zero-mean two-mode Gaussian Wigner function of the channel state,
    held as the variances of its normal modes (a_b -/+ conj(a_c)) / sqrt2:

    W(a_b, a_c) = norm * exp(-|a_b - conj(a_c)|^2 / n_minus
                             - |a_b + conj(a_c)|^2 / n_plus)

    ``n_minus`` is the noise n_tau; the paper's gamma and lam are (n_plus +/- n_minus) / 2.
    Physical states have n_minus, n_plus > 0 and n_minus n_plus >= 1, so gamma >= 1.
    """

    n_minus: float
    n_plus: float

    def __post_init__(self):
        if not (as_number(self.n_minus, "n_minus") > 0 and as_number(self.n_plus, "n_plus") > 0):
            raise ConfigurationError(f"n_minus and n_plus must lie in (0, inf), got {self}")
        if self.n_minus * self.n_plus < 1.0 - 1e-9:
            raise ConfigurationError(f"n_minus * n_plus must be >= 1, got {self}")

    @property
    def gamma(self) -> float:
        return 0.5 * (self.n_plus + self.n_minus)

    @property
    def lam(self) -> float:
        return 0.5 * (self.n_plus - self.n_minus)

    @property
    def norm(self) -> float:
        return 4.0 / (np.pi**2 * (self.n_minus * self.n_plus))


def two_mode_squeezed_vacuum(s_qc: float) -> GaussianTwoMode:
    """Pure two-mode squeezed vacuum with squeezing parameter s_qc >= 0."""
    return evolve_channel(ChannelParams(s_qc, 0.0, 0.0))


@dataclass(frozen=True)
class ChannelParams:
    """Channel squeezing s_qc >= 0, bath occupation n_bar >= 0, and
    renormalized interaction time T in [0, 1]."""

    s_qc: float
    n_bar: float
    T: float

    def __post_init__(self):
        if as_number(self.s_qc, "s_qc") < 0:
            raise ConfigurationError(f"s_qc must be >= 0, got {self.s_qc}")
        if as_number(self.n_bar, "n_bar") < 0:
            raise ConfigurationError(f"n_bar must be >= 0, got {self.n_bar}")
        if 2.0 * float(self.n_bar) + 1.0 == math.inf:  # the bath's variance 1 + 2 n_bar
            raise ConfigurationError(f"n_bar = {self.n_bar} is too large: 1 + 2 n_bar overflows")
        if not 0.0 <= as_number(self.T, "T") <= 1.0:
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
        if as_number(self.value, "noise factor") < 0:
            raise DomainError(f"noise factor must be >= 0, got {self.value}")

    def __float__(self) -> float:
        return float(self.value)


def as_noise(n_tau) -> float:
    """The noise value of a :class:`NoiseFactor` or of a plain number,
    validated the same way: finite (else ConfigurationError) and >= 0
    (else DomainError)."""
    if not isinstance(n_tau, NoiseFactor):
        n_tau = NoiseFactor(value=n_tau)
    return float(n_tau.value)


def _growth(p: ChannelParams) -> float:
    """exp(2 s_qc), or DomainError naming s_qc where it overflows."""
    # math.exp raises past 709.78 but returns inf at inf, where 2 s_qc overflows
    with overflow_guard(f"s_qc = {p.s_qc} is too large: exp(2 s_qc) overflows"):
        return math.exp(min(2.0 * p.s_qc, 1e308))


def evolve_channel(p: ChannelParams) -> GaussianTwoMode:
    """Channel state after bath contact for renormalized time T."""
    as_kind(p, ChannelParams, "evolve_channel")
    return GaussianTwoMode(_mode_variance(p, np.exp(-2.0 * p.s_qc)), _mode_variance(p, _growth(p)))


def _mode_variance(p: ChannelParams, start: float) -> float:
    return float((2.0 * p.n_bar + 1.0) * p.T + (1.0 - p.T) * start)


def integrate_moment_flow(p: ChannelParams):
    """Integrate the second-moment flow of the thermal master equation,

        d gamma / d(tau) = (1 + 2 n_bar) - gamma,   d lam / d(tau) = -lam,

    with tau = gamma*t, by classic fourth-order Runge-Kutta at step 1e-3.
    Serves as an independent route to :func:`evolve_channel`.
    """
    as_kind(p, ChannelParams, "integrate_moment_flow")
    a = 1.0 + 2.0 * p.n_bar
    _growth(p)  # one domain with evolve_channel, at T = 1 too
    if p.T >= 1.0:
        return a, 0.0  # infinite-time fixed point

    def f(v):
        return np.array([a - v[0], -v[1]])

    y = np.array([math.cosh(2.0 * p.s_qc), math.sinh(2.0 * p.s_qc)])  # finite with exp(2 s_qc)
    tau_end = p.gamma_t
    n = max(1, int(np.ceil(tau_end / 1e-3))) if tau_end > 0 else 0
    h = tau_end / n if n else 0.0
    # a start or a bath variance near the float limit overflows in the steps
    with overflow_guard(f"s_qc = {p.s_qc} or n_bar = {p.n_bar} is too large: "
                        "the flow's Runge-Kutta steps overflow"):
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

    which is the channel state's n_minus, bit for bit.
    """
    as_kind(p, ChannelParams, "noise_factor")
    return NoiseFactor(value=_mode_variance(p, np.exp(-2.0 * p.s_qc)))


def direct_noise(p: ChannelParams) -> NoiseFactor:
    """Additive noise n_bar * T of direct transmission through the bath."""
    as_kind(p, ChannelParams, "direct_noise")
    return NoiseFactor(value=float(p.n_bar) * float(p.T))


def is_separable(p: ChannelParams) -> bool:
    """True when the degraded channel state is separable (n_tau >= 1)."""
    return noise_factor(p).value >= 1.0


def teleport_vs_direct_gap(p: ChannelParams) -> float:
    """Noise penalty of teleportation over direct transmission when the
    channel mode travels for half the total bath time,

        n_bar (1 - sqrt(1-T))^2 + 1 - sqrt(1-T) (1 - exp(-2 s_qc)),

    equal to n_tau at T' = 1 - sqrt(1-T) minus n_bar * T, and never negative.
    """
    as_kind(p, ChannelParams, "teleport_vs_direct_gap")
    u = np.sqrt(1.0 - p.T)
    return float(p.n_bar * (1.0 - u) ** 2 + 1.0 - u * (1.0 - np.exp(-2.0 * p.s_qc)))
