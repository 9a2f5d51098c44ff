"""Separable decomposition of the channel state through its P function.

A two-mode Gaussian state is separable exactly when, after conjugating one
mode (which preserves separability), its P function is a normalizable
Gaussian exp(-a^dag N a) with N positive definite.  The criterion is
N_ii > 0 and det N > 0, and a passing N splits into an explicit classical
mixture of product coherent-like Gaussians P_b, P_c weighted by a positive
distribution over an auxiliary field beta.  Reconstruction of P from that
mixture is the correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GaussianTwoMode
from .errors import NotSeparableError
from .numerics import gauss_hermite

RECONSTRUCT_ORDER = 30


@dataclass(frozen=True)
class PExponentMatrix:
    """Hermitian exponent matrix of a Gaussian P function (linear terms
    removed by local displacements)."""

    n_bb: float
    n_cc: float
    n_bc: complex

    @property
    def det(self) -> float:
        return self.n_bb * self.n_cc - abs(self.n_bc) ** 2


@dataclass(frozen=True)
class SeparableDecomposition:
    """Parameters of the explicit separable mixture."""

    m_b: float
    m_c: float
    m_s: float


def p_exponent_from_channel(g: GaussianTwoMode):
    """P-function exponent matrix of the channel state, mode c conjugated.

    Deconvolving one vacuum unit per mode from the Wigner Gaussian shifts
    the characteristic exponent by (|xi_b|^2 + |xi_c|^2)/2; conjugating
    mode c turns the Re(xi_b xi_c) cross term into a Hermitian one.  The
    resulting Gaussian is normalizable iff gamma - 1 > |lam|, i.e. iff the
    noise factor exceeds 1; otherwise returns None.
    """
    gm1 = g.gamma - 1.0
    if gm1 <= abs(g.lam):
        return None
    d = gm1**2 - g.lam**2
    # the conjugation maps the +Re(a_b a_c) coupling onto a negative
    # Hermitian cross term; the sign is pinned by the characteristic identity
    return PExponentMatrix(n_bb=2.0 * gm1 / d, n_cc=2.0 * gm1 / d, n_bc=-2.0 * g.lam / d)


def check_criterion(n: PExponentMatrix) -> bool:
    """True iff N represents a normalizable (separable-ready) P function."""
    return n.n_bb > 0.0 and n.n_cc > 0.0 and n.det > 0.0


def decompose(n: PExponentMatrix) -> SeparableDecomposition:
    """Split a passing exponent matrix into the mixture parameters.

    m_b = n_bb + |n_bc|^2, m_c = n_cc + 1, m_s = det N / (m_b m_c); the
    construction guarantees m_s + |n_bc|^2/m_b + 1/m_c = 1, which is what
    makes the beta integral reproduce P exactly.
    """
    if not check_criterion(n):
        raise NotSeparableError("exponent matrix fails the positivity criterion")
    m_b = n.n_bb + abs(n.n_bc) ** 2
    m_c = n.n_cc + 1.0
    m_s = n.det / (m_b * m_c)
    return SeparableDecomposition(m_b=m_b, m_c=m_c, m_s=m_s)


def p_value(n: PExponentMatrix, a_b: complex, a_c: complex) -> float:
    """Direct Gaussian P function (det N / pi^2) exp(-a^dag N a)."""
    quad = (
        n.n_bb * abs(a_b) ** 2
        + n.n_cc * abs(a_c) ** 2
        + 2.0 * (n.n_bc * np.conj(a_b) * a_c).real
    )
    return float(n.det / np.pi**2 * np.exp(-quad))


def _factor_b(n, d, a_b, beta):
    coupling = 2.0 * (np.conj(n.n_bc) * a_b * np.conj(beta)).real
    return (
        d.m_b
        / np.pi
        * np.exp(-d.m_b * abs(a_b) ** 2 + coupling - (abs(n.n_bc) ** 2 / d.m_b) * np.abs(beta) ** 2)
    )


def _factor_c(n, d, a_c, beta):
    coupling = -2.0 * (a_c * np.conj(beta)).real
    return d.m_c / np.pi * np.exp(-d.m_c * abs(a_c) ** 2 + coupling - np.abs(beta) ** 2 / d.m_c)


def _weight(d, beta):
    return d.m_s / np.pi * np.exp(-d.m_s * np.abs(beta) ** 2)


def reconstruct_p(
    d: SeparableDecomposition,
    n: PExponentMatrix,
    a_b: complex,
    a_c: complex,
) -> float:
    """P(a_b, a_c) rebuilt as Int d2beta weight(beta) P_b(a_b;beta) P_c(a_c;beta).

    Gauss-Hermite over both components of beta after completing the square
    of the combined exponent; must match :func:`p_value`.
    """
    a_tot = d.m_s + abs(n.n_bc) ** 2 / d.m_b + 1.0 / d.m_c
    b_lin = np.conj(n.n_bc) * a_b - a_c  # coefficient of conj(beta)
    rule = gauss_hermite(RECONSTRUCT_ORDER)
    ctr_r, ctr_i = b_lin.real / a_tot, b_lin.imag / a_tot
    br = ctr_r + rule.nodes / np.sqrt(a_tot)
    bi = ctr_i + rule.nodes / np.sqrt(a_tot)
    beta = br[:, None] + 1j * bi[None, :]
    integrand = _weight(d, beta) * _factor_b(n, d, a_b, beta) * _factor_c(n, d, a_c, beta)
    comp = np.exp(a_tot * ((br - ctr_r) ** 2)[:, None] + a_tot * ((bi - ctr_i) ** 2)[None, :])
    w2 = rule.weights[:, None] * rule.weights[None, :]
    return float(np.sum(w2 * integrand * comp) / a_tot)


def channel_is_separable_via_appendix(g: GaussianTwoMode) -> bool:
    """Separability verdict from the P-function route; strict at the boundary."""
    n = p_exponent_from_channel(g)
    return n is not None and check_criterion(n)


def is_boundary_case(g: GaussianTwoMode) -> bool:
    """True when the noise factor lies within 1e-9 of the separability
    boundary, where the strict criterion and the closed-form verdict
    (n_tau >= 1) disagree."""
    return abs((g.gamma - g.lam) - 1.0) <= 1e-9
