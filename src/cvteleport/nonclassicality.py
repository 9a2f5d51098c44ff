"""Moment extraction and nonclassicality-transfer predicates.

Normally ordered moments <(a^dag)^m a^n> come from one table per state: the
trapezoid raw moments Int x^p y^q R d^2alpha, reordered to normal order by
the Cahill-Glauber identity (Phys. Rev. 177, 1882, 1969).  On top of those
sit the survival thresholds: how much teleportation noise n_tau a
sub-Poissonian or squeezed input can absorb before the corresponding
nonclassical signature disappears, and the global statement that for
n_tau >= 1 the teleported P function is positive for every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import as_noise
from .errors import DomainError, UnsupportedDeconvolutionError, as_index, as_kind, as_number
from .phase_space import WignerGrid, _contract, as_grid, smooth

_VAR_SLOP = 1e-6
MAX_MOMENT_ORDER = 4


@dataclass(frozen=True)
class PhotonStats:
    """Mean photon number and photon-number variance."""

    mean: float
    variance: float

    def __post_init__(self):
        for name, what in (("mean", "mean photon number"), ("variance", "photon-number variance")):
            value = as_number(getattr(self, name), what, finite=False)
            if not -_VAR_SLOP <= value < math.inf:
                raise DomainError(f"{what} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, max(0.0, value))


@dataclass(frozen=True)
class QuadratureStats:
    """Mean and variance of X(phi) = e^{-i phi} a + e^{i phi} a^dag.

    Vacuum variance is 1 in this convention.
    """

    phi: float
    mean: float
    variance: float

    def __post_init__(self):
        variance = as_number(self.variance, "quadrature variance", finite=False)
        if not -_VAR_SLOP <= variance < math.inf:
            raise DomainError(f"quadrature variance must be finite and >= 0, got {variance}")
        phi = as_number(self.phi, "quadrature angle", finite=False)
        mean = as_number(self.mean, "quadrature mean", finite=False)
        if not (-math.inf < phi < math.inf and -math.inf < mean < math.inf):
            raise DomainError(f"quadrature angle and mean must be finite: {phi}, {mean}")
        object.__setattr__(self, "variance", max(0.0, variance))


def _raw_moments(g: WignerGrid) -> np.ndarray:
    """raw[p, q] = Int x^p y^q R(x + iy) dx dy for p, q <= MAX_MOMENT_ORDER,
    by the trapezoid rule as one product V R V^T with V[p, i] = x_i^p w_i."""
    as_grid(g, "moment_table")
    return _contract(g, g.axes() ** np.arange(MAX_MOMENT_ORDER + 1)[:, None])


def moment_table(g) -> np.ndarray:
    """Normally ordered moments <(a^dag)^m a^n> for every m + n <= 4.

    Returns a complex 5x5 array ``t`` with ``t[m, n]`` the moment and NaN
    where m + n > 4.  The sigma-ordered moments are the phase-space
    integrals of conj(alpha)^m alpha^n = (x - iy)^m (x + iy)^n, expanded
    binomially over the raw moments; the Cahill-Glauber identity

        {a^dag^m a^n}_sigma = sum_k k! C(m,k) C(n,k) ((1-sigma)/2)^k
                              <a^dag^(m-k) a^(n-k)>_N

    then gives the normal order, solved upward in total order.
    """
    raw = _raw_moments(g)
    c = (1.0 - g.sigma) / 2.0
    table = np.full((MAX_MOMENT_ORDER + 1,) * 2, np.nan, dtype=complex)
    for total in range(MAX_MOMENT_ORDER + 1):
        for m in range(total + 1):
            n = total - m
            ordered = sum(
                math.comb(m, a) * math.comb(n, b) * (-1j) ** (m - a) * 1j ** (n - b)
                * raw[a + b, total - a - b]
                for a in range(m + 1)
                for b in range(n + 1)
            )
            table[m, n] = ordered - sum(
                math.factorial(k) * math.comb(m, k) * math.comb(n, k) * c**k * table[m - k, n - k]
                for k in range(1, min(m, n) + 1)
            )
    return table


def moments(w, m: int, n: int) -> complex:
    """Normally ordered moment <(a^dag)^m a^n>, m + n <= 4, read from
    :func:`moment_table`."""
    what = f"moment orders m + n <= {MAX_MOMENT_ORDER}: "
    m = as_index(m, what + "m", 0, MAX_MOMENT_ORDER)
    n = as_index(n, what + "n", 0, MAX_MOMENT_ORDER - m)
    return complex(moment_table(w)[m, n])


def photon_statistics(w) -> PhotonStats:
    """PhotonStats of a state from its (1,1) and (2,2) moments."""
    t = moment_table(w)
    n_mean = t[1, 1].real
    n2 = t[2, 2].real + n_mean  # <N^2> = <a^dag^2 a^2> + <N>
    return PhotonStats(mean=n_mean, variance=n2 - n_mean**2)


def quadrature_statistics(w, phi: float = 0.0) -> QuadratureStats:
    """QuadratureStats of X(phi) from first and second moments."""
    # no angle: checked before np.exp warns on it
    if not -math.inf < as_number(phi, "quadrature angle", finite=False) < math.inf:
        raise DomainError(f"quadrature variance is undefined at angle {phi}")
    t = moment_table(w)
    a1, a2, nbar = t[0, 1], t[0, 2], t[1, 1].real
    rot = np.exp(-1j * phi)
    mean = 2.0 * (rot * a1).real
    x2 = 2.0 * (rot**2 * a2).real + 2.0 * nbar + 1.0
    return QuadratureStats(phi=float(phi), mean=mean, variance=x2 - mean**2)


def teleported_photon_stats(s_in, n_tau) -> PhotonStats:
    """Photon statistics after teleportation with noise n_tau,

        N_r = N + n_tau,   (dN_r)^2 = (dN)^2 + (2N + 1) n_tau + n_tau^2,

    for a PhotonStats input or a Fock index m, which is PhotonStats(m, 0).
    """
    n = as_noise(n_tau)
    if not isinstance(s_in, PhotonStats):  # a Fock index; PhotonStats rejects a negative one
        s_in = PhotonStats(mean=as_index(s_in, "Fock index", lo=None), variance=0.0)
    mean = s_in.mean + n
    var = s_in.variance + (2.0 * s_in.mean + 1.0) * n + n**2
    return PhotonStats(mean=mean, variance=var)


def sub_poisson_threshold(s: PhotonStats):
    """Largest n_tau below which the teleported state stays sub-Poissonian.

    Returns sqrt(N^2 + N - (dN)^2) - N when real and positive, else None
    (Poissonian and super-Poissonian inputs never survive).  The value
    never exceeds 1/2.
    """
    as_kind(s, PhotonStats, "sub_poisson_threshold")
    radicand = s.mean**2 + s.mean - s.variance
    if radicand <= 0.0:
        return None
    thr = math.sqrt(radicand) - s.mean
    return thr if thr > 0.0 else None


def quadrature_transfer(q: QuadratureStats, n_tau) -> QuadratureStats:
    """Quadrature statistics after teleportation: mean kept, variance + 2 n_tau."""
    as_kind(q, QuadratureStats, "quadrature_transfer")
    n = as_noise(n_tau)
    return QuadratureStats(phi=q.phi, mean=q.mean, variance=q.variance + 2.0 * n)


def squeezing_threshold(var_min: float):
    """Largest n_tau below which teleported quadrature squeezing survives.

    var_min is the input's minimum quadrature variance; the threshold is
    (1 - var_min)/2, None when the input is not squeezed.  Never exceeds 1/2.
    """
    if as_number(var_min, "variance") < 0:
        raise DomainError(f"variance must be >= 0, got {var_min}")
    thr = (1.0 - var_min) / 2.0
    return thr if thr > 0.0 else None


def p_positive_after_teleport(n_tau) -> bool:
    """True iff the teleported P function is positive for every input.

    Holds exactly when n_tau >= 1, the same boundary at which the channel
    state becomes separable.
    """
    return as_noise(n_tau) >= 1.0


def p_negativity_probe(w_o: WignerGrid, n_tau, sigma: float = 0.9) -> float:
    """Minimum of the sigma-ordered quasiprobability of the teleported state.

    Blurs the *input* Wigner grid with the combined kernel of variance-order
    2 n_tau - sigma, which equals converting the teleported state toward
    ordering sigma without any ill-posed deconvolution.  Requires
    2 n_tau - sigma > 0.  A negative return witnesses surviving
    P-nonclassicality down to the probed ordering.
    """
    as_grid(w_o, "p_negativity_probe", wigner=True)
    if as_number(sigma, "ordering parameter") > 1.0:
        raise DomainError(f"ordering parameter must be <= 1, got {sigma}")
    n = as_noise(n_tau)
    s = 2.0 * n - sigma
    if s <= 0.0:
        raise UnsupportedDeconvolutionError(
            f"probing sigma = {sigma} at n_tau = {n} would require deconvolution"
        )
    return float(smooth(w_o, s / 4.0).values.min())
