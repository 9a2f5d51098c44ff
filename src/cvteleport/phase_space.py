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
import os
import stat
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    UnsupportedDeconvolutionError,
    as_array,
    as_index,
    as_kind,
    as_number,
    overflow_guard,
)
from .numerics import trapezoid_weights

DEFAULT_EXTENT = 6.0
DEFAULT_RESOLUTION = 256


def check_geometry(extent, resolution) -> None:
    """Raise ConfigurationError unless ``extent`` is finite and positive, with a
    finite square, and ``resolution`` is an integer (not a bool) of at least 8."""
    extent = as_number(extent, "grid extent")
    if extent <= 0:
        raise ConfigurationError(f"grid extent must be positive, got {extent}")
    if extent * extent == np.inf:
        raise ConfigurationError(f"grid extent {extent} is too large: its square overflows")
    as_index(resolution, "grid resolution", lo=8)


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
        ``alpha = axes()[i] + 1j*axes()[j]``.  Read-only, so no write can leave
        ``profile`` or the cached factors below describing other values: a
        read-only array that owns its data is kept, any other is copied.
    profile : tuple or None
        The exact separable form ``(fx, core, fy)`` of the distribution, set
        by the analytic constructors: ``fx(x) @ core @ fy(y)`` is its value
        at (x, y).  None for any other grid, whose :meth:`factors` are
        those of its quintic spline.
    envelope : tuple
        Gaussian envelope hint ``(cx, cy, kx, ky)`` meaning the values decay
        at least like exp(-kx (x-cx)^2 - ky (y-cy)^2); used to place
        quadrature nodes, never to alter results.  The vacuum's
        ``(0, 0, 2, 2)`` unless given; curvatures must be positive.
    pure_origin : bool
        True when the grid was built from a pure state (needed by overlap
        fidelities).

    :meth:`from_profile` and :func:`smooth` also cache the axis-sampled
    factors ``(u_x, core, u_y)`` of the values, ``u_x @ core @ u_y.T``, which
    :func:`smooth` and every grid integral read in place of the values; they
    are no field, so ``dataclasses.replace`` drops them.
    """

    sigma: float
    extent: float
    values: np.ndarray
    profile: object = None
    envelope: tuple = (0.0, 0.0, 2.0, 2.0)
    pure_origin: bool = False

    def __post_init__(self):
        if not -1.0 <= as_number(self.sigma, "grid sigma") <= 1.0:
            raise ConfigurationError(f"sigma must lie in [-1, 1], got {self.sigma}")
        vals = as_array(self.values, "grid values")
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ConfigurationError(f"grid values must be a square array, got shape {vals.shape}")
        check_geometry(self.extent, vals.shape[0])
        if vals.flags.writeable or not vals.flags.owndata:
            # a copy: a later write into the caller's array or its base would
            # leave the cached spline describing other values
            vals = vals.copy()
            vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        env = as_array(self.envelope, "grid envelope")
        if np.shape(env) != (4,) or min(env[2:]) <= 0.0:
            raise ConfigurationError(
                f"grid envelope must be (cx, cy, kx, ky) with kx, ky > 0, got {self.envelope!r}"
            )
        object.__setattr__(self, "envelope", tuple(env.tolist()))

    @classmethod
    def from_profile(cls, profile, envelope, extent, resolution, pure=True) -> WignerGrid:
        """Wigner grid (sigma = 0) of the separable form ``profile = (fx, core,
        fy)``, which stays attached: the values are ``u_x @ core @ u_y.T``,
        with ``u_x = fx(ax)`` and ``u_y = fy(ax)`` (``u_x`` if ``fy is fx``)."""
        check_geometry(extent, resolution)
        fx, core, fy = profile
        ax = np.linspace(-extent, extent, resolution)
        with overflow_guard(f"grid extent {extent} is too large: sampling the state on it "
                            "overflows", ConfigurationError):
            u_x = fx(ax)
            u_y = u_x if fy is fx else fy(ax)
        values = u_x @ core @ u_y.T
        values.flags.writeable = False
        grid = cls(
            sigma=0.0,
            extent=float(extent),
            values=values,
            profile=profile,
            envelope=envelope,
            pure_origin=pure,
        )
        return _with_axis_factors(grid, (u_x, core, u_y))

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

    def sample(self, x, y):
        """Evaluate the distribution at arbitrary points, as the one
        contraction ``fx(x) @ core @ fy(y)`` of :meth:`factors`: exact for a
        constructor's grid, the quintic spline of the values otherwise.
        ``fx`` runs on ``x`` and ``fy`` on ``y`` in their own shapes, and
        :func:`_pointwise` broadcasts the two against each other.  A NaN or
        infinite point raises ConfigurationError, before any factors."""
        x = as_array(x, "sample takes finite points: x")
        y = as_array(y, "sample takes finite points: y")
        fx, core, fy = self.factors()
        with overflow_guard("the points x, y are too large: sampling the grid overflows"):
            return _pointwise(fx(x), core, fy(y))

    def factors(self):
        """Separable form ``(fx, core, fy)`` of the distribution.

        ``fx(t)`` and ``fy(t)`` stack basis functions on a new last axis, and
        ``fx(x) @ core @ fy(y)`` is the value at (x, y) point by point.  It
        is the exact ``profile`` when one is attached.  Otherwise it is the
        interpolating quintic spline of the grid values, fitted once and
        cached, on FITPACK's knots for these nodes: ``ax[0]`` six times, the
        interior nodes ``ax[3:-3]``, ``ax[-1]`` six times.  Both axes share
        that basis.  With B the res x res collocation matrix, B[i, c] =
        B_c(ax[i]), a band of 4 below and 4 above the diagonal, the
        coefficient matrix is C = B^-1 V B^-T, two banded solves.  At a
        point, clipped to the box as the spline clamps it, 6 B-splines are
        nonzero (:func:`_quintic_basis`); they are scattered into a dense
        row of length res.
        """
        if self.profile is not None:
            return self.profile
        cached = self.__dict__.get("_factors")
        if cached is None:
            from scipy.linalg import solve_banded

            ax = self.axes()
            n = len(ax)
            knots = np.concatenate((np.full(6, ax[0]), ax[3:-3], np.full(6, ax[-1])))
            first, vals = _quintic_basis(knots, ax)
            cols = first[:, None] + np.arange(6)
            band = 4 + np.arange(n)[:, None] - cols  # B[i, c] sits in row 4 + i - c
            # B[0, 5] and B[-1, -6] are 0 and lie outside the band
            inside = (band >= 0) & (band <= 8)
            banded = np.zeros((9, n))
            banded[band[inside], cols[inside]] = vals[inside]
            coef = solve_banded((4, 4), banded, solve_banded((4, 4), banded, self.values).T).T
            extent = self.extent  # the closure holds no reference to the grid

            def basis(t):
                t = np.clip(np.asarray(t, dtype=float), -extent, extent)
                first, vals = _quintic_basis(knots, t.ravel())
                rows = np.zeros((t.size, n))
                np.put_along_axis(rows, first[:, None] + np.arange(6), vals, axis=1)
                return rows.reshape(t.shape + (n,))

            cached = (basis, coef, basis)
            object.__setattr__(self, "_factors", cached)
        return cached

    def value_at(self, alpha: complex) -> float:
        a = as_number(alpha, "value_at's complex point", complex, finite=False)
        if not (abs(a.real) <= self.extent and abs(a.imag) <= self.extent):
            raise DomainError(f"point {a} lies outside the grid extent {self.extent}")
        return float(self.sample(a.real, a.imag))


def _quintic_basis(knots, t):
    """The 6 quintic B-splines on ``knots`` that can be nonzero at each point of
    the 1-D array ``t`` (inside the knots' span): the index of the first,
    shape (len(t),), and their values, shape (len(t), 6), by the Cox-de Boor
    recursion.  A point in [knots[i], knots[i + 1]) meets B_(i-5) ... B_i;
    the right end of the span belongs to the last interval."""
    n = len(knots) - 6
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, 5, n - 1)
    j = np.arange(6)[:, None]
    left = t - knots[i + 1 - j]  # left[j] = t - knots[i + 1 - j]
    right = knots[i + j] - t  # right[j] = knots[i + j] - t
    vals = np.zeros((6, len(t)))
    vals[0] = 1.0
    for d in range(1, 6):
        saved = 0.0
        for r in range(d):
            temp = vals[r] / (right[r + 1] + left[d - r])
            vals[r] = saved + right[r + 1] * temp
            saved = left[d - r] * temp
        vals[d] = saved
    return i - 5, vals.T


def _pointwise(left, core, right):
    """``left @ core @ right`` point by point: the rows ``left`` (..., c) and
    ``right`` (..., d) broadcast against each other over their leading axes,
    and only the last product takes the broadcast shape.

    A point's value does not depend on the shapes it is broadcast in: the
    rows meet the core through ``einsum``, not BLAS, whose matrix-vector and
    matrix-matrix kernels sum in different orders, and each point's d
    products are summed as one contiguous row."""
    return np.sum(np.einsum("...c,cd->...d", left, core) * right, axis=-1)


def _with_axis_factors(g: WignerGrid, factors) -> WignerGrid:
    """``g``, caching the axis-sampled factors of its values (None for none)."""
    object.__setattr__(g, "_axis_factors", factors)
    return g


def as_grid(g, what: str, wigner: bool = False) -> WignerGrid:
    """``g`` itself when it is a WignerGrid, and a Wigner one (sigma = 0) when
    ``wigner`` is set; otherwise a ConfigurationError naming ``what``."""
    as_kind(g, WignerGrid, what)
    if wigner and g.sigma != 0.0:
        raise ConfigurationError(f"{what} takes a Wigner grid (sigma = 0), got sigma = {g.sigma}")
    return g


def band_limit(g: WignerGrid) -> float:
    """Largest |xi| the trapezoid sum of exp(2i xi x) resolves: pi / (2 dx), its Nyquist limit."""
    return np.pi / (2.0 * as_grid(g, "band_limit").dx)


def _contract(g: WignerGrid, left=1.0, right=None, rowwise=False, other=None):
    """The one grid integral, ``(left * w) @ values @ (right * w).T`` with w the
    trapezoid weights of ``g``'s axes; ``right`` is ``left`` unless given, and
    ``rowwise`` takes the diagonal (row k by row k).  With ``other``, a grid on
    the same geometry, it is the overlap sum_ij w_i w_j g_ij other_ij instead.

    It reads a grid's axis-sampled factors ``(u_x, core, u_y)`` when it has
    them: ``(left * w) @ u_x @ core @ ((right * w) @ u_y).T``.  A grid without
    them is the case ``u_x = u_y = I``, ``core = values``.  The overlap
    contracts the other grid against the factored one's weighted sides,
    ``sum(core * contraction with rows u_x.T and u_y.T)``, so it forms no
    res^2 product unless neither grid has factors.  The rowwise sides go
    through ``einsum``, not BLAS, so a row's value does not depend on how
    many rows are contracted with it.
    """
    if other is not None:
        if other.__dict__.get("_axis_factors") is None:
            g, other = other, g
        factors = other.__dict__.get("_axis_factors")
        if factors is not None:
            u_x, core, u_y = factors
            return np.sum(core * _contract(g, u_x.T, None if u_y is u_x else u_y.T))
    w = trapezoid_weights(g.resolution, g.dx)
    lw = left * w
    rw = lw if right is None else right * w
    factors = None if other is not None else g.__dict__.get("_axis_factors")
    if factors is None:
        core = g.values if other is None else g.values * other.values
    else:
        u_x, core, u_y = factors
        side = (lambda rows, u: np.einsum("ki,ic->kc", rows, u)) if rowwise else np.matmul
        same = rw is lw and u_y is u_x
        lw = side(lw, u_x)
        rw = lw if same else side(rw, u_y)
    return np.einsum("ki,ij,kj->k", lw, core, rw) if rowwise else lw @ core @ rw.T


def _blur_matrix(ax: np.ndarray, std: float, scale: float, out: np.ndarray) -> np.ndarray:
    """``scale`` times the 1D Gaussian convolution matrix on the uniform nodes
    ax, clamped at the edges, written into and returned as ``out``.

    The tap at offset d is exp(-(d dx)^2 / 2 std^2) normalized by its sum
    over the whole lattice, d in Z, so the taps of a row that fall beyond
    an edge are known; they are added to the first or last column, as if the
    input held its edge value outside the grid.  Every row then sums to
    ``scale`` and constants are kept.  Mass is not: what an interior node
    spreads beyond an edge still leaves the grid.

    The interior is a symmetric Toeplitz matrix, one strided read-only view
    of the mirrored normalized taps.  Each entry is rounded as ``tap / norm`` and
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
    # entry n - 1 - i + j of [row[n-1], ..., row[1], row[0], row[1], ..., row[n-1]]
    # is row[|i - j|]: strides (-s, s) from its middle entry
    mirrored = np.concatenate((row[:0:-1], row))
    s = mirrored.strides[0]
    out[...] = np.lib.stride_tricks.as_strided(
        mirrored[n - 1 :], (n, n), (-s, s), writeable=False
    )
    # row i of the first column holds tap i plus the taps beyond the edge,
    # taps[i] + tails[i + 1], which the running sum has already added as tails[i]
    out[:, 0] = tails[:n] / norm * scale
    out[:, -1] = out[::-1, 0]
    return out


# the kernel carries 2^300 and each factor it meets is scaled below 2^420: the
# products stay below 2^1020, and what is not negligible stays normal
_KERNEL_EXP = 300
_GRID_EXP = 420


def _top(a) -> int:
    """The exponent e of the largest |entry| of ``a``, so that |a| < 2^e."""
    return int(np.frexp(np.abs(a).max())[1])


def smooth(g: WignerGrid, var: float) -> WignerGrid:
    """Convolve a grid with an isotropic Gaussian of per-axis variance var.

    Teleporting (var = n_tau / 2), lowering the ordering (var = delta_sigma / 4)
    and the P-negativity probe all reduce to this one smoothing.  The
    result keeps ``sigma`` and widens the envelope; it keeps the profile
    and stays pure only when var = 0, where it copies the values.

    With K the edge-clamped kernel matrix, the grid's axis-sampled factors
    ``(u_x, core, u_y)`` become ``(K u_x, core, K u_y)``, which the result
    keeps, and its values ``(K u_x) @ core @ (K u_y).T``.  A grid without
    them is the case ``u_x = values``, ``core = u_y = I``: ``K @ values @
    K.T``, two dense res^3 products.

    Every product runs on operands scaled by powers of two and is scaled
    back: the kernel carries 2^300 and each factor it meets 2^(420 - e),
    where |factor| < 2^e, and the final factored product takes sides below
    2^420 and a core below 1.  Narrow kernels have taps near the bottom of the
    double range, and their products with small values would otherwise
    fall into subnormal arithmetic, which is several times slower and
    rounds at a fixed absolute granularity.  Scaling by a power of two is
    exact, so every result that stays normal either way is unchanged; no
    product can overflow for any finite grid.
    """
    if as_number(var, "smoothing variance") < 0.0:
        raise DomainError(f"smoothing variance must be >= 0, got {var}")
    std = np.sqrt(var)
    if 4.0 * std > g.extent:
        raise AccuracyError(
            f"smoothing kernel width {std:.3g} exceeds what extent {g.extent} can hold"
        )
    ax = g.axes()
    factors = g.__dict__.get("_axis_factors")
    # the nearest-neighbour tap (at the smallest spacing): once it underflows
    # to 0 (always at var = 0), the kernel is the identity
    with np.errstate(divide="ignore", over="ignore"):
        tap = np.exp(-(np.diff(ax).min() ** 2) / (2.0 * std**2))
    if tap == 0.0:
        values = g.values.copy()
    else:
        u_x, core, u_y = factors or (g.values, None, None)
        # the kernel, the scaled factor and the half product share one
        # allocation: glibc's malloc keeps a block that size between calls,
        # while three arrays on a heap with no older free space below them
        # went back to the system after each call and were faulted in again
        # (about 350 page faults per 256^2 call)
        n = g.resolution
        block = np.empty(n * n + 2 * u_x.size)
        k = _blur_matrix(ax, std, np.ldexp(1.0, _KERNEL_EXP), block[: n * n].reshape(n, n))
        scaled, half = block[n * n :].reshape((2,) + u_x.shape)
        top = _top(u_x)
        # np.ldexp, since the exponents can pass the range of 2.0**e
        np.ldexp(u_x, _GRID_EXP - top, out=scaled)
        np.matmul(k, scaled, out=half)  # K u_x times 2^(720 - top)
        if core is None:  # K u_y is K itself
            np.matmul(half, k.T, out=scaled)
            values = np.ldexp(scaled, top - _GRID_EXP - 2 * _KERNEL_EXP)
        else:
            top_y, other = top, half
            if u_y is not u_x:
                top_y = _top(u_y)
                other = k @ np.ldexp(u_y, _GRID_EXP - top_y)
            top_c = _top(core)
            left = np.ldexp(half, -_KERNEL_EXP) @ np.ldexp(core, -top_c)
            right = np.ldexp(other, -_KERNEL_EXP)
            k_ux = np.ldexp(half, top - _GRID_EXP - _KERNEL_EXP)
            k_uy = k_ux if u_y is u_x else np.ldexp(other, top_y - _GRID_EXP - _KERNEL_EXP)
            factors = (k_ux, core, k_uy)
            # free the block before the res^2 product, which then takes its
            # place on the heap; holding both raised export-roundtrip's peak
            # RSS by 1.5 MB
            del block, k, scaled, half, other
            values = left @ right.T
            np.ldexp(values, top + top_y + top_c - 2 * _GRID_EXP, out=values)
    values.flags.writeable = False
    cx, cy, kx, ky = g.envelope
    out = WignerGrid(
        sigma=g.sigma,
        extent=g.extent,
        values=values,
        profile=g.profile if var == 0.0 else None,
        envelope=(cx, cy, kx / (1.0 + 2.0 * kx * var), ky / (1.0 + 2.0 * ky * var)),
        pure_origin=g.pure_origin and var == 0.0,
    )
    return _with_axis_factors(out, factors)


def convert_sigma(g: WignerGrid, sigma_to: float) -> WignerGrid:
    """Convert a quasiprobability grid to a lower ordering label.

    Grids only support decreasing sigma (Gaussian smoothing); asking for a
    higher label raises, since deconvolution of sampled data is ill-posed.
    The result keeps the smoothed grid's axis-sampled factors.
    """
    as_grid(g, "convert_sigma")
    sigma_to = as_number(sigma_to, "convert_sigma's target sigma")
    if sigma_to > g.sigma:
        raise UnsupportedDeconvolutionError(
            f"cannot raise sigma from {g.sigma} to {sigma_to} on a sampled grid; "
            "deconvolution is ill-posed"
        )
    out = smooth(g, (g.sigma - sigma_to) / 4.0)
    return _with_axis_factors(replace(out, sigma=sigma_to), out.__dict__.get("_axis_factors"))


def characteristic(g: WignerGrid, xi):
    """Characteristic function C(xi) = Int d^2a exp(xi a* - xi* a) R(a).

    Accepts a complex scalar or array ``xi``.  The grid is integrated by the
    trapezoid rule, and ``xi`` must stay inside the grid band limit.
    """
    xi_arr = as_array(xi, "characteristic's complex xi", complex, finite=False)
    as_grid(g, "characteristic")
    if not np.all(np.abs(xi_arr) <= band_limit(g)):
        raise AccuracyError(
            f"|xi| exceeds the grid band limit {band_limit(g):.4g}"
        )
    ax = g.axes()
    flat = xi_arr.reshape(-1)
    ex = np.exp(2j * np.outer(flat.imag, ax))  # (n, res)
    ey = np.exp(-2j * np.outer(flat.real, ax))
    out = _contract(g, ex, ey, rowwise=True).reshape(xi_arr.shape)
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
    ``<basepath>.json`` header describing the rest of the grid: its ordering,
    geometry, envelope and purity."""
    as_grid(g, "save_grid")
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
    header = {"sigma": g.sigma, "extent": g.extent, "resolution": g.resolution,
              "envelope": list(g.envelope), "pure_origin": g.pure_origin}
    _write_text(json_path, [json.dumps(header, indent=2) + "\n"])
    return csv_path, json_path


def load_grid(basepath: str) -> WignerGrid:
    """Read a grid written by :func:`save_grid`; a malformed pair raises
    :class:`ConfigurationError`.  A header without ``envelope`` or
    ``pure_origin`` gives the vacuum's envelope and a grid that is not pure."""
    try:
        with open(f"{basepath}.json") as fh:
            header = json.load(fh)
        sigma, extent = (as_number(header[k], f"grid header {k}") for k in ("sigma", "extent"))
        res = as_index(header["resolution"], "grid header resolution", lo=8)
        envelope = header.get("envelope", list(WignerGrid.envelope))
        if not isinstance(envelope, list) or len(envelope) != 4:
            raise ConfigurationError(
                f"grid header envelope must be [cx, cy, kx, ky], got {envelope!r}")
        envelope = tuple(as_number(v, "grid header envelope") for v in envelope)
        pure = header.get("pure_origin", False)
        if not isinstance(pure, bool):
            raise ConfigurationError(f"grid header pure_origin must be true or false, got {pure!r}")
        data = np.loadtxt(f"{basepath}.csv", delimiter=",", skiprows=1)
    except KeyError as exc:
        raise ConfigurationError(f"grid header is missing {exc}") from None
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed grid {basepath}: {exc}") from None
    if data.shape != (res * res, 3):
        raise ConfigurationError(
            f"grid data shape {data.shape} does not match header resolution {res}"
        )
    # a read-only copy, kept as it is: no view holds the whole (res^2, 3) array alive
    values = data[:, 2].reshape(res, res).copy()
    values.flags.writeable = False
    g = WignerGrid(sigma=sigma, extent=extent, values=values, envelope=envelope, pure_origin=pure)
    # the axes were written to 12 significant digits
    ax = g.axes()
    for col in (data[::res, 0], data[:res, 1]):
        if not np.all(np.abs(col - ax) <= 1e-11 * extent):
            raise ConfigurationError(
                f"grid data axes do not match header extent {extent} and resolution {res}"
            )
    return g
