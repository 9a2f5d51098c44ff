"""Quasiprobability representations on a square phase-space grid.

A single real parameter ``sigma`` labels the representation: sigma = 1 is
the normally-ordered (P) function, sigma = 0 the symmetrically-ordered
(Wigner) function and sigma = -1 the antinormally-ordered (Q) function.
Moving from sigma to a smaller sigma' convolves with the Gaussian kernel

    K(d) = 2 / (pi (sigma - sigma')) * exp(-2 |d|^2 / (sigma - sigma')),

so on sampled grids only decreasing sigma is supported; the analytic
Gaussian path works in both directions while the variances stay positive.
The phase-space measure is d^2 alpha = d(alpha_r) d(alpha_i).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    UnsupportedDeconvolutionError,
)
from .numerics import trapezoid_weights

DEFAULT_EXTENT = 6.0
DEFAULT_RESOLUTION = 256


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """A quasiprobability distribution sampled on [-extent, extent]^2.

    Attributes
    ----------
    sigma : float
        Ordering label of the stored representation.
    extent : float
        Half-width of the square grid.
    resolution : int
        Sample count per axis.
    values : ndarray
        ``values[i, j]`` is the distribution at ``alpha = axes()[i] + 1j*axes()[j]``.
    profile : callable or None
        Optional exact evaluator ``profile(x, y) -> values`` for the same
        representation; set by the analytic constructors.
    envelope : tuple or None
        Gaussian envelope hint ``(cx, cy, kx, ky)`` meaning the values decay
        at least like exp(-kx (x-cx)^2 - ky (y-cy)^2); used to place
        quadrature nodes, never to alter results.
    pure_origin : bool
        True when the grid was built from a pure state (needed by overlap
        fidelities).
    """

    sigma: float
    extent: float
    resolution: int
    values: np.ndarray
    profile: object = None
    envelope: tuple = None
    pure_origin: bool = False

    def __post_init__(self):
        if not -1.0 <= self.sigma <= 1.0:
            raise ConfigurationError(f"sigma must lie in [-1, 1], got {self.sigma}")
        if self.extent <= 0:
            raise ConfigurationError(f"grid extent must be positive, got {self.extent}")
        if not isinstance(self.resolution, (int, np.integer)) or self.resolution < 8:
            raise ConfigurationError(
                f"grid resolution must be an integer >= 8, got {self.resolution!r}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.resolution, self.resolution):
            raise ConfigurationError(
                f"values shape {vals.shape} does not match resolution {self.resolution}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("grid values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "resolution", int(self.resolution))

    def axes(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.resolution)

    @property
    def dx(self) -> float:
        return 2.0 * self.extent / (self.resolution - 1)

    def mesh(self):
        ax = self.axes()
        return np.meshgrid(ax, ax, indexing="ij")

    def _interpolator(self):
        cached = self.__dict__.get("_spline")
        if cached is None:
            from scipy.interpolate import RectBivariateSpline

            ax = self.axes()
            cached = RectBivariateSpline(ax, ax, self.values, kx=5, ky=5)
            object.__setattr__(self, "_spline", cached)
        return cached

    def sample(self, x, y):
        """Evaluate the distribution at arbitrary points, exactly when a
        profile is attached, by quintic spline interpolation otherwise."""
        if self.profile is not None:
            return self.profile(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self._interpolator()(x, y, grid=False)

    def value_at(self, alpha: complex) -> float:
        a = complex(alpha)
        if max(abs(a.real), abs(a.imag)) > self.extent:
            raise DomainError(f"point {a} lies outside the grid extent {self.extent}")
        return float(self.sample(a.real, a.imag))


@dataclass(frozen=True)
class GaussianOneMode:
    """Axis-aligned Gaussian quasiprobability of a single mode.

    ``var_r`` and ``var_i`` are the principal variances along the real and
    imaginary quadrature axes at ordering label ``sigma``.
    """

    mean: complex
    var_r: float
    var_i: float
    sigma: float = 0.0

    def __post_init__(self):
        if self.var_r <= 0 or self.var_i <= 0:
            raise ConfigurationError("Gaussian variances must be positive")

    def value(self, x, y):
        m = complex(self.mean)
        norm = 1.0 / (2.0 * np.pi * np.sqrt(self.var_r * self.var_i))
        return norm * np.exp(
            -((np.asarray(x) - m.real) ** 2) / (2 * self.var_r)
            - ((np.asarray(y) - m.imag) ** 2) / (2 * self.var_i)
        )


def band_limit(g: WignerGrid) -> float:
    """Largest |xi| at which the grid can represent the characteristic function."""
    return np.pi * g.resolution / (2.0 * g.extent)


def _blur_matrix(ax: np.ndarray, std: float) -> np.ndarray:
    """Row-normalized 1D Gaussian convolution matrix for node spacing ax.

    Row normalization keeps the discrete kernel a partition of unity, so
    mass is conserved and the delta limit (std -> 0) degrades gracefully
    to the identity instead of blowing up.
    """
    dx = ax[1] - ax[0]
    k = np.exp(-((ax[:, None] - ax[None, :]) ** 2) / (2.0 * std**2))
    k *= dx / (std * np.sqrt(2.0 * np.pi))
    rows = k.sum(axis=1, keepdims=True)
    small = rows[:, 0] <= 0
    if np.any(small):
        k[small, :] = np.eye(len(ax))[small, :]
        rows = k.sum(axis=1, keepdims=True)
    return k / rows


def blur_values(values: np.ndarray, ax: np.ndarray, std: float) -> np.ndarray:
    """Convolve a sampled distribution with an isotropic Gaussian of the
    given per-axis standard deviation (two separable 1D passes)."""
    if std == 0.0:
        return values.copy()
    k = _blur_matrix(ax, std)
    return k @ values @ k.T


def _widened_envelope(envelope, added_var: float):
    if envelope is None:
        return None
    cx, cy, kx, ky = envelope
    return (cx, cy, kx / (1.0 + 2.0 * kx * added_var), ky / (1.0 + 2.0 * ky * added_var))


def convert_sigma(g, sigma_to: float):
    """Convert a quasiprobability to a lower ordering label.

    Grids only support decreasing sigma (Gaussian smoothing); asking for a
    higher label raises, since deconvolution of sampled data is ill-posed.
    ``GaussianOneMode`` inputs convert analytically in either direction as
    long as the target variances stay positive.
    """
    if isinstance(g, GaussianOneMode):
        shift = (g.sigma - sigma_to) / 4.0
        var_r, var_i = g.var_r + shift, g.var_i + shift
        if var_r <= 0 or var_i <= 0:
            raise DomainError(
                f"target sigma {sigma_to} would need a Gaussian of non-positive variance"
            )
        return GaussianOneMode(mean=g.mean, var_r=var_r, var_i=var_i, sigma=sigma_to)
    if not isinstance(g, WignerGrid):
        raise ConfigurationError(f"cannot convert object of type {type(g).__name__}")
    if sigma_to > g.sigma:
        raise UnsupportedDeconvolutionError(
            f"cannot raise sigma from {g.sigma} to {sigma_to} on a sampled grid; "
            "deconvolution is ill-posed, use the Gaussian analytic path"
        )
    s = g.sigma - sigma_to
    if s == 0.0:
        return replace(g, values=g.values.copy())
    std = np.sqrt(s) / 2.0
    if 4.0 * std > g.extent:
        raise AccuracyError(
            f"conversion kernel width {std:.3g} exceeds what extent {g.extent} can hold"
        )
    out = blur_values(g.values, g.axes(), std)
    return WignerGrid(
        sigma=sigma_to,
        extent=g.extent,
        resolution=g.resolution,
        values=out,
        profile=None,
        envelope=_widened_envelope(g.envelope, s / 4.0),
        pure_origin=False,
    )


def characteristic(g, xi):
    """Characteristic function C(xi) = Int d^2a exp(xi a* - xi* a) R(a).

    Accepts a complex scalar or array ``xi``.  Grid inputs are integrated
    by the trapezoid rule and must stay inside the grid band limit;
    ``GaussianOneMode`` inputs use the closed form.
    """
    xi_arr = np.asarray(xi, dtype=complex)
    if isinstance(g, GaussianOneMode):
        m = complex(g.mean)
        lin = xi_arr * np.conj(m) - np.conj(xi_arr) * m
        out = np.exp(lin - 2.0 * (g.var_r * xi_arr.imag**2 + g.var_i * xi_arr.real**2))
        return out if out.ndim else complex(out)
    if not isinstance(g, WignerGrid):
        raise ConfigurationError(f"cannot evaluate characteristic of {type(g).__name__}")
    if np.any(np.abs(xi_arr) > band_limit(g)):
        raise AccuracyError(
            f"|xi| exceeds the grid band limit {band_limit(g):.4g}"
        )
    ax = g.axes()
    w = trapezoid_weights(g.resolution, g.dx)
    flat = xi_arr.reshape(-1)
    ex = np.exp(2j * np.outer(flat.imag, ax)) * w  # (n, res)
    ey = np.exp(-2j * np.outer(flat.real, ax)) * w
    out = np.einsum("ki,ij,kj->k", ex, g.values, ey)
    out = out.reshape(xi_arr.shape)
    return out if out.ndim else complex(out)


def save_grid(g: WignerGrid, basepath: str):
    """Write ``<basepath>.csv`` (columns alpha_r, alpha_i, value) and a
    ``<basepath>.json`` header describing the geometry."""
    csv_path = f"{basepath}.csv"
    json_path = f"{basepath}.json"
    ax = g.axes()
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha_r", "alpha_i", "value"])
        for i in range(g.resolution):
            for j in range(g.resolution):
                writer.writerow(
                    [f"{ax[i]:.12g}", f"{ax[j]:.12g}", f"{g.values[i, j]:.12g}"]
                )
    with open(json_path, "w") as fh:
        json.dump(
            {"sigma": g.sigma, "extent": g.extent, "resolution": g.resolution},
            fh,
            indent=2,
        )
        fh.write("\n")
    return csv_path, json_path


def load_grid(basepath: str) -> WignerGrid:
    """Read a grid written by :func:`save_grid`."""
    with open(f"{basepath}.json") as fh:
        header = json.load(fh)
    for key in ("sigma", "extent", "resolution"):
        if key not in header:
            raise ConfigurationError(f"grid header is missing {key!r}")
    res = int(header["resolution"])
    data = np.loadtxt(f"{basepath}.csv", delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape != (res * res, 3):
        raise ConfigurationError(
            f"grid data shape {data.shape} does not match header resolution {res}"
        )
    values = data[:, 2].reshape(res, res)
    return WignerGrid(
        sigma=float(header["sigma"]),
        extent=float(header["extent"]),
        resolution=res,
        values=values,
    )
