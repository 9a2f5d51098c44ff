"""Shared numerical kernels: Gauss-Hermite rules and the trapezoid
weights that ``phase_space._contract``, the one grid integral, folds in."""

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


def _centred_nodes(rule, a, p, b, c):
    """Gauss-Hermite nodes and weights for Int exp(-a (t-p)^2) f(t) dt, one row
    per entry of p: the nodes sit under that Gaussian times the envelope
    exp(-b (t-c)^2) of f, and the weights carry the known Gaussian."""
    rho = a + b
    m = (a * p + b * c) / rho
    t = m[:, None] + rule.nodes[None, :] / np.sqrt(rho)  # (len(p), q)
    res = np.exp(rho * (t - m[:, None]) ** 2 - a * (t - p[:, None]) ** 2)
    return t, rule.weights[None, :] * res / np.sqrt(rho)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Weights of the n-point trapezoid rule with node spacing dx."""
    w = np.full(n, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def grid_integrate(g) -> float:
    """Trapezoidal integral ``w @ values @ w`` of a ``WignerGrid`` ``g``, by
    ``phase_space._contract``; reads its ``values``, ``resolution`` and ``dx``."""
    from .phase_space import _contract, as_grid  # phase_space imports this module
    return float(_contract(as_grid(g, "grid_integrate")))
