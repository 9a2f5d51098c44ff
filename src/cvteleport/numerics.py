"""Shared numerical kernels: polynomial recurrences, Gauss-Hermite rules,
and trapezoidal integration over phase-space grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ConfigurationError, DomainError

MAX_QUADRATURE_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule for weight exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def _validate_degree(m) -> int:
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise DomainError(f"polynomial degree must be a nonnegative integer, got {m!r}")
    return int(m)


def laguerre(m: int, x):
    """Laguerre polynomial L_m(x) via the stable three-term recurrence.

    Parameters
    ----------
    m : int
        Degree, m >= 0.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray matching the shape of ``x``.
    """
    m = _validate_degree(m)
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    if m > 0:
        prev, cur = out, 1.0 - x
        for k in range(1, m):
            prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        out = cur
    return out if out.ndim else float(out)


def legendre(m: int, z):
    """Legendre polynomial P_m(z) via the Bonnet recurrence."""
    m = _validate_degree(m)
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    if m > 0:
        prev, cur = out, z.copy()
        for k in range(1, m):
            prev, cur = cur, ((2 * k + 1) * z * cur - k * prev) / (k + 1)
        out = cur
    return out if out.ndim else float(out)


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule (weight exp(-x^2)) of the given order.

    Nodes and weights come from the eigendecomposition of the Jacobi
    matrix, which is stable for every order accepted here.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ConfigurationError(
            f"quadrature order must be an integer in [1, {MAX_QUADRATURE_ORDER}], got {order!r}"
        )
    nodes, weights = hermgauss(int(order))
    return QuadratureRule(nodes=nodes, weights=weights, order=int(order))


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Weights of the n-point trapezoid rule with node spacing dx."""
    w = np.full(n, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_integrate(g) -> float:
    """Trapezoidal integral of a sampled phase-space function over its grid.

    ``g`` is any object exposing ``values`` (2D array) and ``axes()``.
    """
    ax = g.axes()
    return float(np.trapezoid(np.trapezoid(g.values, ax, axis=1), ax))
