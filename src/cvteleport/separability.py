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
from .errors import ConfigurationError, NotSeparableError, as_kind, as_number, overflow_guard
from .numerics import _centred_nodes, gauss_hermite

RECONSTRUCT_ORDER = 30


@dataclass(frozen=True)
class PExponentMatrix:
    """Hermitian exponent matrix of a Gaussian P function (linear terms
    removed by local displacements)."""

    n_bb: float
    n_cc: float
    n_bc: complex

    def __post_init__(self):
        as_number(self.n_bb, "n_bb")
        as_number(self.n_cc, "n_cc")
        as_number(self.n_bc, "n_bc", complex)
        what = "PExponentMatrix's det N = n_bb n_cc - |n_bc|^2"
        with overflow_guard(what + " overflows", ConfigurationError):
            as_number(self.det, what)  # Python's float product overflows to inf silently

    @property
    def det(self) -> float:
        return self.n_bb * self.n_cc - abs(self.n_bc) ** 2


@dataclass(frozen=True)
class SeparableDecomposition:
    """Parameters of the explicit separable mixture."""

    m_b: float
    m_c: float
    m_s: float

    def __post_init__(self):
        for name in ("m_b", "m_c", "m_s"):
            as_number(getattr(self, name), name)


def p_exponent_from_channel(g: GaussianTwoMode):
    """P-function exponent matrix of the channel state, mode c conjugated.

    Deconvolving one vacuum unit per mode from the Wigner Gaussian shifts
    the characteristic exponent by (|xi_b|^2 + |xi_c|^2)/2, taking 1 from each
    normal-mode variance; conjugating mode c turns the Re(xi_b xi_c) cross
    term into a Hermitian one.  The resulting Gaussian is normalizable iff
    n_minus - 1 and n_plus - 1 are both positive; otherwise returns None.
    """
    as_kind(g, GaussianTwoMode, "p_exponent_from_channel")
    if min(g.n_minus, g.n_plus) <= 1.0:
        return None
    d = (g.n_minus - 1.0) * (g.n_plus - 1.0)
    diag = (g.n_minus + g.n_plus - 2.0) / d
    # the conjugation maps the +Re(a_b a_c) coupling onto a negative
    # Hermitian cross term; the sign is pinned by the characteristic identity
    return PExponentMatrix(n_bb=diag, n_cc=diag, n_bc=(g.n_minus - g.n_plus) / d)


def check_criterion(n: PExponentMatrix) -> bool:
    """True iff N represents a normalizable (separable-ready) P function."""
    as_kind(n, PExponentMatrix, "check_criterion")
    return n.n_bb > 0.0 and n.n_cc > 0.0 and n.det > 0.0


def decompose(n: PExponentMatrix) -> SeparableDecomposition:
    """Split a passing exponent matrix into the mixture parameters.

    m_b = n_bb + |n_bc|^2, m_c = n_cc + 1, m_s = det N / (m_b m_c); the
    construction guarantees m_s + |n_bc|^2/m_b + 1/m_c = 1, which is what
    makes the beta integral reproduce P exactly.
    """
    as_kind(n, PExponentMatrix, "decompose")
    if not check_criterion(n):
        raise NotSeparableError("exponent matrix fails the positivity criterion")
    m_b = n.n_bb + abs(n.n_bc) ** 2
    m_c = n.n_cc + 1.0
    m_s = n.det / (m_b * m_c)
    return SeparableDecomposition(m_b=m_b, m_c=m_c, m_s=m_s)


def p_value(n: PExponentMatrix, a_b: complex, a_c: complex) -> float:
    """Direct Gaussian P function (det N / pi^2) exp(-a^dag N a)."""
    as_kind(n, PExponentMatrix, "p_value")
    as_number(a_b, "p_value's point a_b", complex)
    as_number(a_c, "p_value's point a_c", complex)
    with overflow_guard(f"p_value overflows at a_b = {a_b}, a_c = {a_c}"):
        quad = (  # numpy's products, so that an overflow raises rather than gives inf
            np.float64(n.n_bb) * abs(a_b) ** 2
            + np.float64(n.n_cc) * abs(a_c) ** 2
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

    Gauss-Hermite over both components of beta, with the nodes centred on
    the combined exponent; must match :func:`p_value`.
    """
    as_kind(d, SeparableDecomposition, "reconstruct_p")
    as_kind(n, PExponentMatrix, "reconstruct_p")
    as_number(a_b, "reconstruct_p's point a_b", complex)
    as_number(a_c, "reconstruct_p's point a_c", complex)
    a_tot = d.m_s + abs(n.n_bc) ** 2 / d.m_b + 1.0 / d.m_c
    rule = gauss_hermite(RECONSTRUCT_ORDER)
    with overflow_guard(f"reconstruct_p overflows at a_b = {a_b}, a_c = {a_c}"):
        b_lin = np.conj(n.n_bc) * a_b - a_c  # coefficient of conj(beta)
        # the nodes of Re and Im beta sit under exp(-a_tot |beta - b_lin / a_tot|^2)
        centre = np.array([b_lin.real, b_lin.imag]) / a_tot
        (br, bi), (wr, wi) = _centred_nodes(rule, 0.0, np.zeros(2), a_tot, centre)
        beta = br[:, None] + 1j * bi[None, :]
        integrand = _weight(d, beta) * _factor_b(n, d, a_b, beta) * _factor_c(n, d, a_c, beta)
        return float(wr @ integrand @ wi)


def channel_is_separable_via_appendix(g: GaussianTwoMode) -> bool:
    """Separability verdict from the P-function route; strict at the boundary."""
    n = p_exponent_from_channel(g)
    return n is not None and check_criterion(n)


def is_boundary_case(g: GaussianTwoMode) -> bool:
    """True when the noise factor lies within 1e-9 of the separability
    boundary, where the strict criterion and the closed-form verdict
    (n_tau >= 1) disagree."""
    as_kind(g, GaussianTwoMode, "is_boundary_case")
    return abs(g.n_minus - 1.0) <= 1e-9
