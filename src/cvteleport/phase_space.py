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


def check_geometry(extent, resolution) -> None:
    """Raise ConfigurationError unless ``extent`` is finite and positive and
    ``resolution`` is an integer (not a bool) of at least 8."""
    if not math.isfinite(extent):
        raise ConfigurationError(f"grid extent must be finite, got {extent}")
    if extent <= 0:
        raise ConfigurationError(f"grid extent must be positive, got {extent}")
    integer = isinstance(resolution, (int, np.integer)) and not isinstance(resolution, bool)
    if not integer or resolution < 8:
        raise ConfigurationError(f"grid resolution must be an integer >= 8, got {resolution!r}")


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
        representation; set by the analytic constructors.  It may carry
        ``profile.factors``, the separable form :meth:`factors` returns.
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
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ConfigurationError(f"grid values must be a square array, got shape {vals.shape}")
        check_geometry(self.extent, vals.shape[0])
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_profile(cls, profile, envelope, extent, resolution, pure=True) -> WignerGrid:
        """Wigner grid (sigma = 0) sampled from ``profile``, which stays attached."""
        check_geometry(extent, resolution)
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
        ``RectBivariateSpline(..., grid=False)`` obeys numpy broadcasting.
        The spline clamps points outside the box to its edge.

        :meth:`factors` gives the same values in separable form, which the
        protocol quadratures use in place of sampling point by point: for
        every grid without a profile, and for the constructors' profiles
        except number states above m = 10 (``states.MAX_FACTORED_FOCK``)."""
        if self.profile is not None:
            return self.profile(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return self._interpolator()(x, y, grid=False)

    def factors(self):
        """Separable form ``(fx, core, fy)`` of :meth:`sample`, or None.

        ``fx(t)`` and ``fy(t)`` stack basis functions on a new last axis, and
        ``sample(x, y) = fx(x) @ core @ fy(y)`` point by point.  With a profile
        this is ``profile.factors`` (Gaussians times even powers; None for a
        profile without them, such as a number state above
        ``states.MAX_FACTORED_FOCK``).  Without one it is the cached quintic
        spline: B-spline design matrices on its knots, with points clipped to
        the box as the spline clamps them, and its coefficient matrix.
        """
        if self.profile is not None:
            return getattr(self.profile, "factors", None)
        from scipy.interpolate import BSpline

        spline = self._interpolator()
        tx, ty, coef = spline.tck
        kx, ky = spline.degrees

        def basis(knots, k):
            def design(t):
                t = np.clip(np.asarray(t, dtype=float), -self.extent, self.extent)
                rows = BSpline.design_matrix(t.ravel(), knots, k).toarray()
                return rows.reshape(t.shape + rows.shape[-1:])

            return design

        core = coef.reshape(len(tx) - kx - 1, len(ty) - ky - 1)
        return basis(tx, kx), core, basis(ty, ky)

    def value_at(self, alpha: complex) -> float:
        a = complex(alpha)
        if max(abs(a.real), abs(a.imag)) > self.extent:
            raise DomainError(f"point {a} lies outside the grid extent {self.extent}")
        return float(self.sample(a.real, a.imag))


def as_grid(g, what: str, wigner: bool = False) -> WignerGrid:
    """``g`` itself when it is a WignerGrid, and a Wigner one (sigma = 0) when
    ``wigner`` is set; otherwise a ConfigurationError naming ``what``."""
    if not isinstance(g, WignerGrid):
        raise ConfigurationError(f"{what} takes a WignerGrid, got {type(g).__name__}")
    if wigner and g.sigma != 0.0:
        raise ConfigurationError(f"{what} takes a Wigner grid (sigma = 0), got sigma = {g.sigma}")
    return g


def band_limit(g: WignerGrid) -> float:
    """Largest |xi| at which the grid can represent the characteristic function."""
    return np.pi * g.resolution / (2.0 * g.extent)


def _blur_matrix(ax: np.ndarray, std: float, scale: float) -> np.ndarray:
    """``scale`` times the 1D Gaussian convolution matrix on the uniform nodes
    ax, clamped at the edges.

    The tap at offset d is exp(-(d dx)^2 / 2 std^2) normalized by its sum
    over the whole lattice, d in Z, so the taps of a row that fall beyond
    an edge are known; they are added to the first or last column, as if the
    input held its edge value outside the grid.  Every row then sums to
    ``scale`` and constants are kept.  Mass is not: what an interior node
    spreads beyond an edge still leaves the grid.

    The interior is a symmetric Toeplitz matrix, a mirrored sliding window
    over the normalized taps.  Each entry is rounded as ``tap / norm`` and
    then scaled, so for a power-of-two ``scale`` the matrix is exactly
    ``scale`` times the one at scale 1, subnormal entries included.
    """
    n = len(ax)
    dx = ax[1] - ax[0]
    # offsets past n - 1 only feed the edge columns; past 9 std a tap is below 3e-18
    taps = np.exp(-((np.arange(n + int(np.ceil(9.0 * std / dx))) * dx) ** 2) / (2.0 * std**2))
    tails = np.cumsum(taps[::-1])[::-1]  # tails[d]: the taps at offsets >= d, smallest first
    norm = taps[0] + 2.0 * tails[1]
    row = taps[:n] / norm * scale
    # window n - 1 - i of [row[n-1], ..., row[1], row[0], row[1], ..., row[n-1]]
    # is row i of the Toeplitz matrix row[|i - j|]
    k = np.lib.stride_tricks.sliding_window_view(np.concatenate((row[:0:-1], row)), n)[::-1].copy()
    # row i of the first column holds tap i plus the taps beyond the edge,
    # taps[i] + tails[i + 1], which the running sum has already added as tails[i]
    k[:, 0] = tails[:n] / norm * scale
    k[:, -1] = k[::-1, 0]
    return k


# the kernel carries 2^300 and the grid is scaled so that |values| < 2^420: the
# products stay below 2^1020, and what is not negligible stays normal
_KERNEL_EXP = 300
_GRID_EXP = 420


def smooth(g: WignerGrid, var: float) -> WignerGrid:
    """Convolve a grid with an isotropic Gaussian of per-axis variance var.

    Teleporting (var = n_tau / 2), lowering the ordering (var = delta_sigma / 4)
    and the P-negativity probe all reduce to this one smoothing.  The
    result keeps ``sigma``, drops the profile, widens the envelope, and
    stays pure only when var = 0.

    The two products run on scaled operands, the kernel times 2^300 and
    the grid times 2^(420 - e) where |values| < 2^e, and the result is
    scaled back.  Narrow kernels have taps near the bottom of the double
    range, and their products with small grid values would otherwise
    fall into subnormal arithmetic, which is several times slower and
    rounds at a fixed absolute granularity.  Scaling by a power of two is
    exact, so every result that stays normal either way is unchanged; no
    product can overflow for any finite grid.
    """
    std = np.sqrt(var)
    if 4.0 * std > g.extent:
        raise AccuracyError(
            f"smoothing kernel width {std:.3g} exceeds what extent {g.extent} can hold"
        )
    ax = g.axes()
    # the nearest-neighbour tap (at the smallest spacing): once it underflows
    # to 0 (always at var = 0), the kernel is the identity
    with np.errstate(divide="ignore", over="ignore"):
        tap = np.exp(-(np.diff(ax).min() ** 2) / (2.0 * std**2))
    if tap == 0.0:
        values = g.values.copy()
    else:
        k = _blur_matrix(ax, std, np.ldexp(1.0, _KERNEL_EXP))
        top = int(np.frexp(np.abs(g.values).max())[1])
        # np.ldexp, since the exponents can pass the range of 2.0**e; the
        # scaled grid is a temporary, so at most two res x res arrays besides
        # the kernel and the input are alive at once, as without scaling.
        # Scaling back into a new array, not in place, leaves the heap as the
        # unscaled products did: in place, a later 256^2 load_grid peaked
        # 1.3 MB higher.
        values = k @ np.ldexp(g.values, _GRID_EXP - top) @ k.T
        values = np.ldexp(values, top - _GRID_EXP - 2 * _KERNEL_EXP)
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
    as_grid(g, "convert_sigma")
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
    as_grid(g, "characteristic")
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
    # one row of the file, with NUL standing for alpha_r and %.12g (which
    # prints a float as f"{v:.12g}" does) for each value
    template = "".join(f"\0,{y},%.12g\r\n" for y in ax)

    def rows():
        yield "alpha_r,alpha_i,value\r\n"
        for x, row in zip(ax, g.values):
            yield template.replace("\0", x) % tuple(row.tolist())

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
