"""Teleportation fidelity: grid overlap and the two closed forms.

For a pure input, fidelity is the Wigner overlap

    F = pi Int d2a W_o(a) W_r(a).

Number-state and squeezed-vacuum inputs admit closed forms in the noise
factor n_tau; the number-state one is a sum of positive terms, valid for
every n_tau >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cosh, sqrt

import numpy as np

from .channel import as_noise
from .errors import ConfigurationError, DomainError, as_index, as_number
from .phase_space import WignerGrid, _contract, as_grid

_RESCALE = 2.0**300


@dataclass(frozen=True)
class FidelityReport:
    value: float

    def __post_init__(self):
        if not -1e-9 <= as_number(self.value, "fidelity", finite=False) <= 1.0 + 1e-9:
            raise DomainError(f"fidelity {self.value} outside [0, 1]")
        object.__setattr__(self, "value", min(max(float(self.value), 0.0), 1.0))

    def __float__(self):
        return self.value


def overlap_fidelity(w_o: WignerGrid, w_r: WignerGrid) -> FidelityReport:
    """Overlap fidelity of two Wigner grids on identical geometry.

    w_o must come from a pure state; overlap-as-fidelity does not hold
    against mixed originals.
    """
    as_grid(w_o, "overlap_fidelity", wigner=True)
    as_grid(w_r, "overlap_fidelity", wigner=True)
    if (w_o.extent, w_o.resolution) != (w_r.extent, w_r.resolution):
        raise ConfigurationError(
            f"grid geometry mismatch: ({w_o.extent}, {w_o.resolution}) vs "
            f"({w_r.extent}, {w_r.resolution})"
        )
    if not w_o.pure_origin:
        raise ConfigurationError("the reference state must be pure for overlap fidelity")
    return FidelityReport(value=np.pi * _contract(w_o, values=w_o.values * w_r.values))


def fock_fidelity(m: int, n_tau) -> FidelityReport:
    """Fidelity of teleporting the number state |m> through noise n_tau,

        F_m = sum_k C(m,k)^2 n^{2(m-k)} / (1 + n)^{2m+1}.

    With r = min(n, 1/n) and t_j = C(m,j) r^j this is
    sum_j t_j^2 / ((sum_j t_j)^2 (1 + n)): the squared binomial
    probabilities of success r / (1 + r), over 1 + n.  The t_j follow from
    their ratio recurrence and are rescaled by a power of two whenever they
    grow large, so every term stays finite for any m and n.
    """
    m = as_index(m, "number-state index")
    n = as_noise(n_tau)
    r = min(n, 1.0 / n) if n > 0.0 else 0.0
    t = s1 = s2 = 1.0
    for j in range(1, m + 1):
        t = t * (m - j + 1) / j * r
        if t > _RESCALE:
            t, s1, s2 = t / _RESCALE, s1 / _RESCALE, s2 / _RESCALE**2
        s1 += t
        s2 += t * t
    return FidelityReport(value=s2 / (s1 * s1 * (1.0 + n)))


def squeezed_fidelity(s_o: float, n_tau) -> FidelityReport:
    """Fidelity of teleporting a squeezed vacuum with parameter s_o,

    F = (n^2 + 2 n cosh 2 s_o + 1)^{-1/2}.
    """
    s_o = as_number(s_o, "squeezing s_o")
    n = as_noise(n_tau)
    try:
        val = 1.0 / sqrt(n**2 + 2.0 * n * cosh(2.0 * s_o) + 1.0)
    except OverflowError:
        raise DomainError(f"squeezing s_o = {s_o} is too large: cosh(2 s_o) overflows") from None
    return FidelityReport(value=val)
