"""Self-verification runners behind ``cvteleport verify``.

Each criterion pits two independent routes against each other (closed form
vs grid quadrature, convolution vs protocol integral, algebra vs ODE) at a
fixed tolerance.  ``run_all`` executes them in order and reports one result
per criterion; the quick level skips criterion 3, the four-dimensional
protocol-oracle lattice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import cosh, exp, sqrt

import numpy as np

from .channel import (
    ChannelParams,
    direct_noise,
    evolve_channel,
    integrate_moment_flow,
    is_separable,
    noise_factor,
    teleport_vs_direct_gap,
)
from .errors import ConfigurationError
from .fidelity import fock_fidelity, squeezed_fidelity
from .nonclassicality import photon_statistics, quadrature_statistics
from .numerics import grid_integrate
from .phase_space import WignerGrid
from .separability import (
    PExponentMatrix,
    channel_is_separable_via_appendix,
    decompose,
    is_boundary_case,
    p_value,
    reconstruct_p,
)
from .states import (
    coherent_wigner,
    fock_wigner,
    squeezed_vacuum_wigner,
    teleported_fock_wigner,
    teleported_squeezed_wigner,
    vacuum_wigner,
)
from .teleport import measurement_density, protocol_oracle, teleport_state

_SEED = 20260814
LEVELS = ("quick", "full")

# channel settings shared by the oracle lattice; noise factors span ~0.14-3
ORACLE_CHANNELS = (
    (1.0, 0.0, 0.01),
    (0.5, 0.0, 0.0),
    (1.0, 0.5, 0.5),
    (0.7, 1.0, 0.4),
    (0.3, 1.5, 0.7),
    (0.0, 1.0, 1.0),
)


@dataclass(frozen=True)
class CriterionResult:
    criterion: int
    name: str
    passed: bool  # None means skipped
    detail: str
    seconds: float

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skipped"
        return "pass" if self.passed else "fail"


def criterion_1():
    """Closed-form fidelity regression values."""
    failures = []
    worst = 0.0

    def check(label, got, want):
        nonlocal worst
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-9:
            failures.append(f"{label}: got {got:.12g}, expected {want:.12g}")

    for m in range(6):
        check(f"fock m={m} lossless", fock_fidelity(m, 0.0).value, 1.0)
    check("fock m=0 at n_tau=1", fock_fidelity(0, 1.0).value, 0.5)
    # at n_tau=1 the output is the Q-mixture of coherent states, so
    # F_m = int_0^inf e^{-2u} u^{2m} du / (m!)^2 = binom(2m, m) / 2^(2m+1)
    for m, want in zip(range(1, 6), (1 / 4, 3 / 16, 5 / 32, 35 / 256, 63 / 512)):
        check(f"fock m={m} at n_tau=1", fock_fidelity(m, 1.0).value, want)
    for s_o in (0.5, 1.0, 1.5):
        check(
            f"squeezed s_o={s_o} at n_tau=1",
            squeezed_fidelity(s_o, 1.0).value,
            (2.0 + 2.0 * cosh(2.0 * s_o)) ** -0.5,
        )
    if failures:
        return False, "; ".join(failures)
    return True, f"15 values, worst |delta| = {worst:.3g}"


def criterion_2():
    """Noise factor vs the paper's cosh/sinh gamma - lam, and the teleport-vs-direct gap."""
    rng = np.random.default_rng(_SEED)
    worst_n = worst_g = 0.0
    for _ in range(100):
        p = ChannelParams(
            s_qc=rng.uniform(0.0, 2.0),
            n_bar=rng.uniform(0.0, 3.0),
            T=rng.uniform(0.0, 1.0),
        )
        gamma = p.T * (1.0 + 2.0 * p.n_bar) + (1.0 - p.T) * np.cosh(2.0 * p.s_qc)
        lam = (1.0 - p.T) * np.sinh(2.0 * p.s_qc)
        worst_n = max(worst_n, abs(noise_factor(p).value - (gamma - lam)))
        half = ChannelParams(s_qc=p.s_qc, n_bar=p.n_bar, T=1.0 - sqrt(1.0 - p.T))
        gap_identity = noise_factor(half).value - direct_noise(p).value
        gap = teleport_vs_direct_gap(p)
        worst_g = max(worst_g, abs(gap - gap_identity))
        if gap < 0:
            return False, f"negative gap {gap} at {p}"
    ok = worst_n <= 1e-12 and worst_g <= 1e-12
    detail = f"100 points, worst n_tau |delta| = {worst_n:.3g}, gap |delta| = {worst_g:.3g}"
    return ok, detail


def criterion_3():
    """Protocol integral vs convolution on the full input/channel lattice."""
    states = (
        ("vacuum", vacuum_wigner(extent=8.0, resolution=128)),
        ("fock 1", fock_wigner(1, extent=8.0, resolution=128)),
        ("fock 2", fock_wigner(2, extent=8.0, resolution=128)),
        ("squeezed 0.7", squeezed_vacuum_wigner(0.7, extent=8.0, resolution=128)),
    )
    worst = 0.0
    worst_at = ""
    for s_qc, n_bar, T in ORACLE_CHANNELS:
        p = ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T)
        ch = evolve_channel(p)
        n_tau = noise_factor(p)
        for label, grid in states:
            got = protocol_oracle(grid, ch)
            want = teleport_state(grid, n_tau)
            err = float(np.abs(got.values - want.values).max())
            if err > worst:
                worst, worst_at = err, f"{label} through {(s_qc, n_bar, T)}"
    ok = worst <= 1e-5
    return ok, f"sup-norm worst {worst:.3g} at {worst_at}"


def criterion_4():
    """Closed-form teleported states vs grid convolution."""
    tol = 1e-6
    worst = 0.0
    cases = [
        ("fock 1, n_tau=0.5", fock_wigner(1), teleported_fock_wigner(1, 0.5), 0.5),
        ("fock 2, n_tau=0.2", fock_wigner(2), teleported_fock_wigner(2, 0.2), 0.2),
        (
            "squeezed 1.0, n_tau=0.3",
            squeezed_vacuum_wigner(1.0, extent=8.0),
            teleported_squeezed_wigner(1.0, 0.3, extent=8.0),
            0.3,
        ),
    ]
    for label, w_in, closed, n_tau in cases:
        conv = teleport_state(w_in, n_tau)
        err = float(np.abs(conv.values - closed.values).max())
        worst = max(worst, err)
        if err > tol:
            return False, f"{label}: sup-norm {err:.3g} > {tol}"
    return True, f"3 states, worst sup-norm {worst:.3g}"


def criterion_5():
    """Photon-number and quadrature moment transfer from grid moments."""
    tol = 1e-5
    worst = 0.0
    for m in range(4):
        # fourth moments weight the far field; keep kernel truncation away
        # from the boundary
        w = fock_wigner(m, extent=8.0)
        for n_tau in (0.3, 0.7):
            stats = photon_statistics(teleport_state(w, n_tau))
            worst = max(worst, abs(stats.mean - (m + n_tau)))
            worst = max(worst, abs(stats.variance - ((2 * m + 1) * n_tau + n_tau**2)))
    if worst > tol:
        return False, f"photon transfer off by {worst:.3g}"
    inputs = [
        coherent_wigner(1.0),
        coherent_wigner(-0.8 + 0.3j),
        coherent_wigner(0.5j),
        coherent_wigner(1.0 + 0.5j),
        squeezed_vacuum_wigner(0.5),
    ]
    n_tau = 0.4
    worst_q = 0.0
    for w in inputs:
        out = teleport_state(w, n_tau)
        for phi in (0.0, 0.9):
            before = quadrature_statistics(w, phi)
            after = quadrature_statistics(out, phi)
            worst_q = max(worst_q, abs(after.mean - before.mean))
            worst_q = max(
                worst_q, abs((after.variance - before.variance) - 2.0 * n_tau)
            )
    ok = worst_q <= tol
    return ok, f"photon worst {worst:.3g}, quadrature worst {worst_q:.3g}"


def _bisect(fn, lo, hi):
    flo = fn(lo)
    for _ in range(60):
        if hi - lo <= 1e-5:
            break
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def criterion_6():
    """Empirical nonclassicality-survival crossovers vs threshold formulas."""
    worst = 0.0
    for m in (1, 2, 3):
        w = fock_wigner(m)

        def super_poisson(n):
            s = photon_statistics(teleport_state(w, n))
            return s.variance - s.mean

        got = _bisect(super_poisson, 0.3, 0.5)
        want = sqrt(m * (m + 1)) - m
        if not want <= 0.5:
            return False, f"sub-Poisson threshold {want} exceeds 1/2"
        worst = max(worst, abs(got - want))
    for s_o in (0.5, 1.0):
        extent = 8.0 if s_o >= 1.0 else 6.0
        w = squeezed_vacuum_wigner(s_o, extent=extent)

        def unsqueezed(n):
            return quadrature_statistics(teleport_state(w, n), 0.0).variance - 1.0

        got = _bisect(unsqueezed, 0.1, 0.5)
        want = (1.0 - exp(-2.0 * s_o)) / 2.0
        if not want <= 0.5:
            return False, f"squeezing threshold {want} exceeds 1/2"
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-4
    return ok, f"5 crossovers, worst offset {worst:.3g}"


def criterion_7():
    """Separability equivalence on a parameter lattice plus P reconstruction."""
    checked = 0
    for s_qc in np.linspace(0.0, 2.0, 5):
        for n_bar in np.linspace(0.0, 2.0, 5):
            for T in np.linspace(0.1, 0.9, 5):
                p = ChannelParams(s_qc=float(s_qc), n_bar=float(n_bar), T=float(T))
                ch = evolve_channel(p)
                if is_boundary_case(ch):
                    continue
                checked += 1
                if channel_is_separable_via_appendix(ch) != is_separable(p):
                    return False, f"separability verdicts disagree at {p}"
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    probes = 0
    while probes < 100:
        n_bb = rng.uniform(0.3, 3.0)
        n_cc = rng.uniform(0.3, 3.0)
        mag = rng.uniform(0.0, 0.9) * sqrt(n_bb * n_cc)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mat = PExponentMatrix(n_bb=n_bb, n_cc=n_cc, n_bc=mag * np.exp(1j * phase))
        dec = decompose(mat)
        for _ in range(20):
            a_b = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            a_c = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            err = abs(reconstruct_p(dec, mat, a_b, a_c) - p_value(mat, a_b, a_c))
            worst = max(worst, err)
            probes += 1
    ok = worst <= 1e-8
    return ok, f"{checked} lattice points agree; reconstruction worst |delta| = {worst:.3g}"


def criterion_8():
    """ODE-integrated channel moments vs closed forms."""
    worst = 0.0
    for T in np.linspace(0.1, 1.0, 10):
        p = ChannelParams(s_qc=0.8, n_bar=1.2, T=float(T))
        g_ode, l_ode = integrate_moment_flow(p)
        ch = evolve_channel(p)
        worst = max(worst, abs(g_ode - ch.gamma), abs(l_ode - ch.lam))
    ok = worst <= 1e-6
    return ok, f"10 time points, worst |delta| = {worst:.3g}"


def criterion_9():
    """Normalization of constructors, teleported grids, measurement density."""
    tol = 1e-5
    grids = {
        "vacuum": vacuum_wigner(),
        "fock 1": fock_wigner(1),
        "fock 2": fock_wigner(2),
        "fock 3": fock_wigner(3),
        "squeezed 0.5": squeezed_vacuum_wigner(0.5),
        "squeezed 0.9": squeezed_vacuum_wigner(0.9),
        "coherent 1+0.5j": coherent_wigner(1.0 + 0.5j),
        "coherent -2": coherent_wigner(-2.0),
        "teleported vacuum n=0.5": teleport_state(vacuum_wigner(), 0.5),
        "teleported fock 2 n=1": teleport_state(fock_wigner(2), 1.0),
        "closed fock 1 n=0.5": teleported_fock_wigner(1, 0.5),
        "closed fock 3 n=0.2": teleported_fock_wigner(3, 0.2),
        "closed squeezed 0.7 n=0.4": teleported_squeezed_wigner(0.7, 0.4),
    }
    worst = 0.0
    for label, g in grids.items():
        err = abs(grid_integrate(g) - 1.0)
        worst = max(worst, err)
        if err > tol:
            return False, f"{label} integrates to 1{err:+.3g}"
    ax = np.linspace(-6.0, 6.0, 101)
    density_cases = [
        ("vacuum, bare channel", vacuum_wigner(), evolve_channel(ChannelParams(0.0, 0.0, 0.0))),
        (
            "fock 1, mixed channel",
            fock_wigner(1),
            evolve_channel(ChannelParams(0.5, 0.5, 0.3)),
        ),
    ]
    for label, w, ch in density_cases:
        rows = np.empty((ax.size, ax.size))
        for i, di in enumerate(ax):
            rows[i] = measurement_density(w, ch, di, ax)
        if rows.min() < -1e-9:
            return False, f"{label} density dips to {rows.min():.3g}"
        mass = grid_integrate(WignerGrid(sigma=0.0, extent=6.0, values=rows))
        err = abs(mass - 1.0)
        worst = max(worst, err)
        if err > tol:
            return False, f"{label} density integrates to 1{err:+.3g}"
    return True, f"13 grids + 2 densities, worst |mass - 1| = {worst:.3g}"


_CRITERIA = (
    (1, "closed-form fidelity regression", criterion_1),
    (2, "noise-factor and gap identities", criterion_2),
    (3, "protocol-oracle equivalence", criterion_3),
    (4, "closed-form teleported states vs convolution", criterion_4),
    (5, "moment transfer", criterion_5),
    (6, "nonclassicality-survival thresholds", criterion_6),
    (7, "separability equivalence and reconstruction", criterion_7),
    (8, "moment-flow integration", criterion_8),
    (9, "normalization suite", criterion_9),
)


def run_all(level: str = "quick"):
    """Run every criterion; quick level skips the protocol-oracle lattice."""
    if level not in LEVELS:
        raise ConfigurationError(f"level must be one of {LEVELS}, got {level!r}")
    results = []
    for number, name, fn in _CRITERIA:
        if number == 3 and level == "quick":
            results.append(CriterionResult(number, name, None, "skipped at quick level", 0.0))
            continue
        t0 = time.perf_counter()
        passed, detail = fn()
        seconds = time.perf_counter() - t0
        results.append(CriterionResult(number, name, passed, detail, seconds))
    return results
