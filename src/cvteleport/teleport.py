"""The measured-quadrature teleportation map in phase space.

Teleporting a state whose Wigner function is W_o through a Gaussian channel
adds isotropic noise: the output is the convolution

    W_r = P_tau * W_o,   P_tau(d) = 1/(pi n_tau) exp(-|d|^2 / n_tau),

with n_tau = gamma - lam of the channel state; ``teleport_state`` runs it
as ``phase_space.smooth`` at per-axis variance n_tau / 2.
``protocol_oracle`` instead evaluates the full protocol integral (balanced
mixing of the input with one channel mode, quadrature readout, conditional
displacement of the other mode) by four-dimensional Gauss-Hermite
quadrature and serves as an independent cross-check of the convolution
route.
"""

from __future__ import annotations

import numpy as np

from .channel import GaussianTwoMode, as_noise
from .errors import ConfigurationError
from .numerics import gauss_hermite
from .phase_space import WignerGrid, smooth

ORACLE_ORDER = 40


def teleport_state(w_o: WignerGrid, n_tau) -> WignerGrid:
    """Teleport a Wigner grid: convolve with the noise kernel P_tau, an
    isotropic Gaussian of per-axis variance n_tau / 2.

    The convolution runs as two separable 1D Gaussian passes with
    row-normalized kernels, so the n_tau -> 0 limit returns the input.
    """
    n = as_noise(n_tau)
    if w_o.sigma != 0.0:
        raise ConfigurationError("teleportation acts on Wigner grids (sigma = 0)")
    return smooth(w_o, n / 2.0)


def _channel_coeffs(ch: GaussianTwoMode):
    det = ch.gamma**2 - ch.lam**2
    return 2.0 * ch.gamma / det, 2.0 * ch.lam / det


def _envelope(w_o: WignerGrid):
    return w_o.envelope if w_o.envelope is not None else (0.0, 0.0, 2.0, 2.0)


def _centred_nodes(rule, a, p, b, c):
    """Gauss-Hermite nodes and weights for Int exp(-a (t-p)^2) f(t) dt, one row
    per entry of p: the nodes sit under that Gaussian times the input envelope
    exp(-b (t-c)^2), and the weights carry the known Gaussian."""
    rho = a + b
    m = (a * p + b * c) / rho
    t = m[:, None] + rule.nodes[None, :] / np.sqrt(rho)  # (len(p), q)
    res = np.exp(rho * (t - m[:, None]) ** 2 - a * (t - p[:, None]) ** 2)
    return t, rule.weights[None, :] * res / np.sqrt(rho)


def protocol_oracle(
    w_o: WignerGrid,
    ch: GaussianTwoMode,
    resolution: int = None,
    order: int = ORACLE_ORDER,
) -> WignerGrid:
    """Brute-force protocol integral, independent of :func:`teleport_state`.

    The output Wigner function is

        W_r(a) = Int d2ad d2ae W_o((ad - ae)/sqrt2)
                 W_ch((ad + ae)/sqrt2, a + sqrt2 (Re ae - i Im ad)),

    i.e. the input is mixed with one channel mode on a balanced splitter,
    the real part of one output and the imaginary part of the other are
    read out, and the second channel mode is displaced accordingly.  The
    four real integrals run over rotated coordinates in which the channel
    Gaussian factors into the quadrature weight; two of them carry the
    input profile, the other two are plain Gaussian sums.  The output spans
    the input's extent, at ``resolution`` points a side (the input's by
    default).
    """
    if w_o.sigma != 0.0:
        raise ConfigurationError("the protocol integral consumes Wigner grids (sigma = 0)")
    resolution = w_o.resolution if resolution is None else int(resolution)
    a, b = _channel_coeffs(ch)
    rule = gauss_hermite(order)

    # the two displacement-conjugate dimensions hold pure Gaussians
    sum_s = rule.weights.sum() / np.sqrt(2.0 * (a - b))
    k_ker = 0.5 * (a + b)

    cx, cy, kx, ky = _envelope(w_o)
    ax_out = np.linspace(-w_o.extent, w_o.extent, resolution)
    xo, wx = _centred_nodes(rule, k_ker, ax_out, kx, cx)  # (res, q)
    yo, wy = _centred_nodes(rule, k_ker, ax_out, ky, cy)

    pref = ch.norm * sum_s**2
    out = np.empty((resolution, resolution))
    chunk = max(1, int(4e6 // (order * order * resolution)))
    for lo in range(0, resolution, chunk):
        hi = min(lo + chunk, resolution)
        wo_vals = w_o.sample(
            xo[lo:hi][:, :, None, None], yo[None, None, :, :]
        )  # (chunk, q, res, q)
        out[lo:hi] = pref * np.einsum("rkil,rk,il->ri", wo_vals, wx[lo:hi], wy)
    return WignerGrid(
        sigma=0.0,
        extent=w_o.extent,
        values=out,
        profile=None,
        envelope=None,
        pure_origin=False,
    )


def measurement_density(
    w_o: WignerGrid,
    ch: GaussianTwoMode,
    alpha_d_i,
    alpha_e_r,
):
    """Joint density of the two measured quadratures (Im of one splitter
    output, Re of the other), marginalized over everything unread.

    Accepts scalars or broadcastable arrays and returns matching shape.
    """
    if w_o.sigma != 0.0:
        raise ConfigurationError("the measurement density consumes Wigner grids (sigma = 0)")
    di, er = np.broadcast_arrays(
        np.asarray(alpha_d_i, dtype=float), np.asarray(alpha_e_r, dtype=float)
    )
    shape = di.shape
    di = di.ravel()
    er = er.ravel()
    a, b = _channel_coeffs(ch)
    rule = gauss_hermite(ORACLE_ORDER)
    sum_c = rule.weights.sum() / np.sqrt(a)  # unread channel quadratures
    c_ch = (a**2 - b**2) / (2.0 * a)  # background curvature left on the splitter mode

    cx, cy, kx, ky = _envelope(w_o)
    dn, wd = _centred_nodes(rule, c_ch, -er, 0.5 * kx, er + np.sqrt(2.0) * cx)  # (np, q)
    en, we = _centred_nodes(rule, c_ch, -di, 0.5 * ky, di - np.sqrt(2.0) * cy)
    x_o = (dn - er[:, None]) / np.sqrt(2.0)  # (np, q)
    y_o = (di[:, None] - en) / np.sqrt(2.0)
    wo_vals = w_o.sample(x_o[:, :, None], y_o[:, None, :])
    out = ch.norm * sum_c**2 * np.einsum("pkl,pk,pl->p", wo_vals, wd, we)
    out = out.reshape(shape)
    return out if out.ndim else float(out)
