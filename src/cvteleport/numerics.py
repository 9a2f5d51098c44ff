"""Shared numerical kernels: Gauss-Hermite rules and the trapezoid
weights behind every grid integral."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import as_index

MAX_QUADRATURE_ORDER = 200


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss-Hermite rule for weight exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule (weight exp(-x^2)) of the given order.

    Nodes and weights come from the eigendecomposition of the Jacobi
    matrix, which is stable for every order accepted here.
    """
    nodes, weights = hermgauss(as_index(order, "quadrature order", 1, MAX_QUADRATURE_ORDER))
    return QuadratureRule(nodes=nodes, weights=weights)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Weights of the n-point trapezoid rule with node spacing dx."""
    w = np.full(n, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_integrate(g) -> float:
    """Trapezoidal integral ``w @ values @ w`` of a ``WignerGrid`` ``g``; reads
    its ``values``, ``resolution`` and ``dx``, not ``axes()``."""
    from .phase_space import as_grid  # phase_space imports this module
    as_grid(g, "grid_integrate")
    w = trapezoid_weights(g.resolution, g.dx)
    return float(w @ g.values @ w)
