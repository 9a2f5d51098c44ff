"""The measured-quadrature teleportation map in phase space.

Teleporting a state whose Wigner function is W_o through a Gaussian channel
adds isotropic noise: the output is the convolution

    W_r = P_tau * W_o,   P_tau(d) = 1/(pi n_tau) exp(-|d|^2 / n_tau),

with n_tau the channel state's ``n_minus``; ``teleport_state`` runs it
as ``phase_space.smooth`` at per-axis variance n_tau / 2.
``protocol_oracle`` instead evaluates the full protocol integral (balanced
mixing of the input with one channel mode, quadrature readout, conditional
displacement of the other mode) by four-dimensional Gauss-Hermite
quadrature and serves as an independent cross-check of the convolution
route.  It and ``measurement_density`` sum the input over its x and y
nodes separately, through its separable form (``WignerGrid.factors``):
the x sums at each x readout and the y sums at each y readout, each in
its own shape, contracted through the core only where the two meet.  Both
refuse exact factors of a degree their rule cannot integrate.  The grid
keeps the sums of its last two sides, so the rows of a density sheet share
their x sums, and the oracle's y side reuses its x sums where they agree.
"""

from __future__ import annotations

import numpy as np

from .channel import GaussianTwoMode, as_noise
from .errors import AccuracyError, ConfigurationError, as_array, as_kind, overflow_guard
from .numerics import _centred_nodes, gauss_hermite
from .phase_space import WignerGrid, _pointwise, as_grid, check_geometry, smooth

ORACLE_ORDER = 40


def teleport_state(w_o: WignerGrid, n_tau) -> WignerGrid:
    """Teleport a Wigner grid: convolve with the noise kernel P_tau, an
    isotropic Gaussian of per-axis variance n_tau / 2.

    It is ``phase_space.smooth``: a lattice-normalized, edge-clamped kernel
    K whose rows sum to 1, so the n_tau -> 0 limit returns the input and
    the kernel's reach beyond the grid does not bend the output near the
    edges.  A constructor's grid is smoothed on its axis-sampled factors as
    ``(K u_x) @ core @ (K u_y).T``, any other as ``K @ values @ K.T``.
    """
    n = as_noise(n_tau)
    return smooth(as_grid(w_o, "teleport_state", wigner=True), n / 2.0)


def _factor_sums(w_o: WignerGrid, rule, a, px, py):
    """``(Sx, core, Sy)`` with ``Sx[..., :] = Int exp(-a (x - px[...])^2) fx(x) dx``
    by ``rule`` under the input's envelope, of shape ``px.shape + (c,)``, and
    ``Sy`` likewise on y in the shape of ``py``, so that ``Sx[i] @ core @
    Sy[j]`` integrates the input against the Gaussian at (px[i], py[j]).

    The factors are ``w_o.factors()``: q nodes integrate exact factors of
    degree below 2q, so a core of size c (a number state of index c - 1)
    needs c <= q.  The spline's piecewise basis is not checked.  Readouts so
    far out that the sums overflow raise DomainError.  Each side's sums come
    from :func:`_side_sums`, which the grid caches."""
    fx, core, fy = w_o.factors()
    if w_o.profile is not None and core.shape[0] > len(rule.nodes):
        raise AccuracyError(
            f"an input core of size {core.shape[0]} needs at least {core.shape[0]} "
            f"quadrature nodes, got {len(rule.nodes)}"
        )
    cx, cy, kx, ky = w_o.envelope
    with overflow_guard("the readouts are too large: the quadrature node sums overflow"):
        return (_side_sums(w_o, "_x_sums", fx, rule, a, px, kx, cx), core,
                _side_sums(w_o, "_y_sums", fy, rule, a, py, ky, cy))


# the grid's two slots of side sums, one written by each side
_SUM_SLOTS = ("_x_sums", "_y_sums")


def _side_sums(w_o: WignerGrid, slot: str, f, rule, a, p, k, c):
    """``Int exp(-a (t - p[...])^2) f(t) dt`` by ``rule`` under the envelope
    exp(-k (t - c)^2), of shape ``p.shape + (columns of f,)``, read-only.

    A grid cannot change, so the sums of its last two sides are kept on it,
    each in its ``slot`` as one ``(key, sums)`` tuple.  The key holds all the
    sums depend on: ``f`` (matched by identity), the rule's order, ``a``, ``k``
    and ``c`` by their bits, and the readouts' shape and bytes.  Either slot
    serves either side, so a density row finds the x sums of the row before,
    and the oracle's y side finds its x side's sums when ``fy is fx`` and the
    envelope is symmetric.  Only finished sums are kept: sums that overflow
    raise on every call.  A slot is written whole, so a reader in another
    thread finds a key with its own sums or misses."""
    key = (f, len(rule.nodes), float(a).hex(), float(k).hex(), float(c).hex(), p.shape, p.tobytes())
    for name in _SUM_SLOTS:
        entry = w_o.__dict__.get(name)
        if entry is not None and entry[0][0] is f and entry[0] == key:
            return entry[1]
    t, w = _centred_nodes(rule, a, p, k, c)  # p.shape + (q,)
    sums = np.einsum("...k,...kc->...c", w, f(t))
    sums.flags.writeable = False
    object.__setattr__(w_o, slot, (key, sums))
    return sums


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

    The input nodes of output row i depend only on a_r and those of column
    j only on a_i, so with the separable form W_o = fx @ core @ fy of
    :meth:`WignerGrid.factors` the sum is one matrix product
    ``(weighted fx node sums) @ core @ (weighted fy node sums).T``.  That
    form is the exact ``profile`` of every state constructor's grid, and the
    quintic spline of the grid values otherwise.  Exact factors need at
    least as many nodes as their core has rows (``order`` > m for Fock m),
    else :class:`AccuracyError`.
    """
    as_grid(w_o, "protocol_oracle", wigner=True)
    as_kind(ch, GaussianTwoMode, "protocol_oracle")
    resolution = w_o.resolution if resolution is None else resolution
    check_geometry(w_o.extent, resolution)
    rule = gauss_hermite(order)

    # the two displacement-conjugate dimensions hold pure Gaussians of curvature 4 / n_plus
    sum_s = rule.weights.sum() * np.sqrt(ch.n_plus) / 2.0
    ax_out = np.linspace(-w_o.extent, w_o.extent, resolution)
    sx, core, sy = _factor_sums(w_o, rule, 1.0 / ch.n_minus, ax_out, ax_out)
    out = ch.norm * sum_s**2 * (sx @ core @ sy.T)
    out.flags.writeable = False  # the grid keeps it, uncopied
    return WignerGrid(sigma=0.0, extent=w_o.extent, values=out)


def measurement_density(
    w_o: WignerGrid,
    ch: GaussianTwoMode,
    alpha_d_i,
    alpha_e_r,
):
    """Joint density of the two measured quadratures (Im of one splitter
    output, Re of the other), marginalized over everything unread.

    Accepts finite scalars or broadcastable arrays and returns their
    broadcast shape.  In the input's own coordinates the x nodes depend only
    on ``alpha_e_r`` and the y nodes only on ``alpha_d_i``, so (as in
    :func:`protocol_oracle`) the weighted node sums ``Sx`` and ``Sy`` are
    formed once per readout in that readout's own shape, and
    ``phase_space._pointwise`` contracts ``Sx @ core`` against ``Sy`` as
    :meth:`WignerGrid.sample` contracts its factors.  Readouts whose shapes
    do not broadcast raise :class:`ConfigurationError`.  Its rule has
    ``ORACLE_ORDER`` nodes, so a number state above m = 39 raises
    :class:`AccuracyError`.
    """
    as_grid(w_o, "measurement_density", wigner=True)
    as_kind(ch, GaussianTwoMode, "measurement_density")
    what = "measurement_density takes finite readout points: "
    di = as_array(alpha_d_i, what + "alpha_d_i")
    er = as_array(alpha_e_r, what + "alpha_e_r")
    try:
        np.broadcast_shapes(di.shape, er.shape)
    except ValueError:
        raise ConfigurationError(
            f"measurement_density's readouts alpha_d_i of shape {di.shape} and "
            f"alpha_e_r of shape {er.shape} do not broadcast"
        ) from None
    # the unread quadratures sum to sum_c each; in the input's coordinates
    # x = (d - e_r)/sqrt2, y = (d_i - e)/sqrt2 the splitter mode's exp(-c (d + e_r)^2),
    # c = 2/(n_minus + n_plus), is exp(-2c (x + sqrt2 e_r)^2), and each Jacobian is sqrt2
    rule = gauss_hermite(ORACLE_ORDER)
    sum_c = rule.weights.sum() / np.sqrt(1.0 / ch.n_minus + 1.0 / ch.n_plus)
    a = 4.0 / (ch.n_minus + ch.n_plus)
    sx, core, sy = _factor_sums(w_o, rule, a, -np.sqrt(2.0) * er, np.sqrt(2.0) * di)
    out = 2.0 * ch.norm * sum_c**2 * _pointwise(sx, core, sy)
    return out if out.ndim else float(out)
