"""Quasiprobability representations on a square phase-space grid.

A single real parameter ``sigma`` labels the representation: sigma = 1 is
the normally-ordered (P) function, sigma = 0 the symmetrically-ordered
(Wigner) function and sigma = -1 the antinormally-ordered (Q) function.
Moving from sigma to a smaller sigma' convolves with the Gaussian kernel

    K(d) = 2 / (pi (sigma - sigma')) * exp(-2 |d|^2 / (sigma - sigma')).

Every representation is sampled on a :class:`WignerGrid`, so only
decreasing sigma is supported; deconvolving sampled data is ill-posed.
The phase-space measure is d^2 alpha = d(alpha_r) d(alpha_i).
"""

from __future__ import annotations

import json
import math
import os
import stat
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


def _check_extent(extent) -> None:
    if not math.isfinite(extent):
        raise ConfigurationError(f"grid extent must be finite, got {extent}")
    if extent <= 0:
        raise ConfigurationError(f"grid extent must be positive, got {extent}")


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """A quasiprobability distribution sampled on [-extent, extent]^2.

    Attributes
    ----------
    sigma : float
        Ordering label of the stored representation.
    extent : float
        Half-width of the square grid.
    values : ndarray
        Square array; ``values[i, j]`` is the distribution at
        ``alpha = axes()[i] + 1j*axes()[j]``.
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
    values: np.ndarray
    profile: object = None
    envelope: tuple = None
    pure_origin: bool = False

    def __post_init__(self):
        if not -1.0 <= self.sigma <= 1.0:
            raise ConfigurationError(f"sigma must lie in [-1, 1], got {self.sigma}")
        _check_extent(self.extent)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 8:
            raise ConfigurationError(
                f"grid values must be a square array of side >= 8, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_profile(cls, profile, envelope, extent, resolution, pure=True) -> WignerGrid:
        """Wigner grid (sigma = 0) sampled from ``profile``, which stays attached."""
        _check_extent(extent)
        ax = np.linspace(-extent, extent, resolution)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        return cls(
            sigma=0.0,
            extent=float(extent),
            values=profile(x, y),
            profile=profile,
            envelope=envelope,
            pure_origin=pure,
        )

    @property
    def resolution(self) -> int:
        """Sample count per axis."""
        return self.values.shape[0]

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
        profile is attached, by quintic spline interpolation otherwise.  Both
        routes broadcast ``x`` against ``y``: profiles are numpy expressions, and
        ``RectBivariateSpline(..., grid=False)`` obeys numpy broadcasting."""
        if self.profile is not None:
            return self.profile(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self._interpolator()(x, y, grid=False)

    def value_at(self, alpha: complex) -> float:
        a = complex(alpha)
        if max(abs(a.real), abs(a.imag)) > self.extent:
            raise DomainError(f"point {a} lies outside the grid extent {self.extent}")
        return float(self.sample(a.real, a.imag))


def band_limit(g: WignerGrid) -> float:
    """Largest |xi| at which the grid can represent the characteristic function."""
    return np.pi * g.resolution / (2.0 * g.extent)


def _blur_matrix(ax: np.ndarray, std: float) -> np.ndarray:
    """Row-normalized 1D Gaussian convolution matrix for node spacing ax.

    Row normalization keeps the discrete kernel a partition of unity, so
    constants are kept (mass only away from the edges).  Every row sum is
    positive, since the diagonal entry is dx / (std sqrt(2 pi)).
    """
    dx = ax[1] - ax[0]
    k = np.exp(-((ax[:, None] - ax[None, :]) ** 2) / (2.0 * std**2))
    k *= dx / (std * np.sqrt(2.0 * np.pi))
    return k / k.sum(axis=1, keepdims=True)


def smooth(g: WignerGrid, var: float) -> WignerGrid:
    """Convolve a grid with an isotropic Gaussian of per-axis variance var.

    Teleporting (var = n_tau / 2), lowering the ordering (var = delta_sigma / 4)
    and the P-negativity probe all reduce to this one smoothing.  The
    result keeps ``sigma``, drops the profile, widens the envelope, and
    stays pure only when var = 0.
    """
    std = np.sqrt(var)
    if 4.0 * std > g.extent:
        raise AccuracyError(
            f"smoothing kernel width {std:.3g} exceeds what extent {g.extent} can hold"
        )
    ax = g.axes()
    # the nearest-neighbour tap as _blur_matrix computes it: once it
    # underflows to 0 (always at var = 0), the kernel is the identity
    with np.errstate(divide="ignore", over="ignore"):
        tap = np.exp(-(np.diff(ax).min() ** 2) / (2.0 * std**2))
    if tap == 0.0:
        values = g.values.copy()
    else:
        k = _blur_matrix(ax, std)
        values = k @ g.values @ k.T
    envelope = g.envelope
    if envelope is not None:
        cx, cy, kx, ky = envelope
        envelope = (cx, cy, kx / (1.0 + 2.0 * kx * var), ky / (1.0 + 2.0 * ky * var))
    return WignerGrid(
        sigma=g.sigma,
        extent=g.extent,
        values=values,
        envelope=envelope,
        pure_origin=g.pure_origin and var == 0.0,
    )


def convert_sigma(g: WignerGrid, sigma_to: float) -> WignerGrid:
    """Convert a quasiprobability grid to a lower ordering label.

    Grids only support decreasing sigma (Gaussian smoothing); asking for a
    higher label raises, since deconvolution of sampled data is ill-posed.
    """
    if not isinstance(g, WignerGrid):
        raise ConfigurationError(f"cannot convert object of type {type(g).__name__}")
    if sigma_to > g.sigma:
        raise UnsupportedDeconvolutionError(
            f"cannot raise sigma from {g.sigma} to {sigma_to} on a sampled grid; "
            "deconvolution is ill-posed"
        )
    s = g.sigma - sigma_to
    if s == 0.0:
        return replace(g, values=g.values.copy())
    return replace(smooth(g, s / 4.0), sigma=sigma_to)


def characteristic(g: WignerGrid, xi):
    """Characteristic function C(xi) = Int d^2a exp(xi a* - xi* a) R(a).

    Accepts a complex scalar or array ``xi``.  The grid is integrated by the
    trapezoid rule, and ``xi`` must stay inside the grid band limit.
    """
    xi_arr = np.asarray(xi, dtype=complex)
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


def _write_text(path: str, chunks) -> None:
    """Write the strings ``chunks`` yields to ``path``.

    A regular file (or a new one) is filled as a temporary file beside the
    file ``path`` resolves to, given the existing file's mode, and renamed
    onto it, so a failed run leaves it whole or untouched; a symlink stays
    a link.  A device, pipe or directory cannot be replaced, so it is
    written through as ``open(path, "w")`` would.  The temporary file never
    outlives the call, and an ``OSError`` names ``path``.
    """
    try:
        st = os.stat(path)
    except OSError:
        st = None
    real = os.path.realpath(path)
    atomic = os.path.basename(path) not in ("", ".", "..") and (
        st is None or stat.S_ISREG(st.st_mode))
    tmp = f"{real}.{os.getpid()}.tmp" if atomic else path
    try:
        with open(tmp, "w", newline="") as fh:
            if atomic and st is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            fh.writelines(chunks)
        if atomic:
            os.replace(tmp, real)
    except BaseException as exc:
        if atomic and os.path.lexists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def save_grid(g: WignerGrid, basepath: str):
    """Write ``<basepath>.csv`` (columns alpha_r, alpha_i, value) and a
    ``<basepath>.json`` header describing the geometry."""
    csv_path = f"{basepath}.csv"
    json_path = f"{basepath}.json"
    ax = [f"{a:.12g}" for a in g.axes().tolist()]

    def rows():
        yield "alpha_r,alpha_i,value\r\n"
        for x, row in zip(ax, g.values):
            yield "".join(f"{x},{y},{v:.12g}\r\n" for y, v in zip(ax, row.tolist()))

    _write_text(csv_path, rows())
    header = {"sigma": g.sigma, "extent": g.extent, "resolution": g.resolution}
    _write_text(json_path, [json.dumps(header, indent=2) + "\n"])
    return csv_path, json_path


def load_grid(basepath: str) -> WignerGrid:
    """Read a grid written by :func:`save_grid`; a malformed pair raises
    :class:`ConfigurationError`."""
    try:
        with open(f"{basepath}.json") as fh:
            header = json.load(fh)
        sigma, extent = float(header["sigma"]), float(header["extent"])
        res = int(header["resolution"])
        data = np.loadtxt(f"{basepath}.csv", delimiter=",", skiprows=1)
    except KeyError as exc:
        raise ConfigurationError(f"grid header is missing {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed grid {basepath}: {exc}") from None
    if res < 1 or data.shape != (res * res, 3):
        raise ConfigurationError(
            f"grid data shape {data.shape} does not match header resolution {res}"
        )
    # a copy, so the grid does not keep the whole (res^2, 3) array alive
    g = WignerGrid(sigma=sigma, extent=extent, values=data[:, 2].reshape(res, res).copy())
    # the axes were written to 12 significant digits
    ax = g.axes()
    for col in (data[::res, 0], data[:res, 1]):
        if not np.all(np.abs(col - ax) <= 1e-11 * extent):
            raise ConfigurationError(
                f"grid data axes do not match header extent {extent} and resolution {res}"
            )
    return g
