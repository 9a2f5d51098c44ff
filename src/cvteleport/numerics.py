"""Shared numerical kernels: Gauss-Hermite rules and trapezoidal
integration over phase-space grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ConfigurationError

MAX_QUADRATURE_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule for weight exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


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


def integrate_2d(values: np.ndarray, ax: np.ndarray) -> float:
    """Trapezoidal integral of samples on the square grid ax x ax."""
    return float(np.trapezoid(np.trapezoid(values, ax, axis=1), ax))


def grid_integrate(g) -> float:
    """Trapezoidal integral of a sampled phase-space function over its grid.

    ``g`` is any object exposing ``values`` (2D array) and ``axes()``.
    """
    return integrate_2d(g.values, g.axes())
