"""P-function separability criterion and the explicit mixture reconstruction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvteleport import (
    ChannelParams,
    NotSeparableError,
    PExponentMatrix,
    channel_is_separable_via_appendix,
    check_criterion,
    decompose,
    evolve_channel,
    is_boundary_case,
    is_separable,
    noise_factor,
    p_exponent_from_channel,
    p_value,
    reconstruct_p,
    two_mode_squeezed_vacuum,
)


def test_exponent_matrix_from_thermal_channel():
    # fully thermalized channel: gamma = 1 + 2 n_bar, lam = 0
    ch = evolve_channel(ChannelParams(s_qc=1.3, n_bar=2.0, T=1.0))
    n = p_exponent_from_channel(ch)
    assert n is not None
    assert_allclose((n.n_bb, n.n_cc), (0.5, 0.5), rtol=1e-12)
    assert n.n_bc == 0.0
    assert check_criterion(n)


def test_exponent_matrix_requires_separability():
    assert p_exponent_from_channel(two_mode_squeezed_vacuum(0.5)) is None
    # n_tau slightly above 1: representable
    ch = evolve_channel(ChannelParams(s_qc=0.5, n_bar=0.5, T=0.6))
    assert noise_factor(ChannelParams(s_qc=0.5, n_bar=0.5, T=0.6)).value > 1.0
    assert p_exponent_from_channel(ch) is not None


def test_exponent_matrix_reproduces_characteristic():
    # C^W(xi_b, xi_c) must equal the vacuum factor times the P-function
    # characteristic exp(-xi^dag M xi) with M = N^{-1}, mode c conjugated
    ch = evolve_channel(ChannelParams(s_qc=0.6, n_bar=1.2, T=0.7))
    n = p_exponent_from_channel(ch)
    mat = np.array([[n.n_bb, n.n_bc], [np.conj(n.n_bc), n.n_cc]])
    m = np.linalg.inv(mat)
    rng = np.random.default_rng(13)
    for _ in range(10):
        xb = complex(rng.normal(), rng.normal()) * 0.4
        xc = complex(rng.normal(), rng.normal()) * 0.4
        xi = np.array([xb, -np.conj(xc)])  # undo the mode-c conjugation
        quad = np.conj(xi) @ m @ xi
        want = np.exp(-0.5 * (abs(xb) ** 2 + abs(xc) ** 2)) * np.exp(-quad.real)
        # the channel's two-mode Wigner characteristic function
        got = np.exp(-0.5 * ch.gamma * (abs(xb) ** 2 + abs(xc) ** 2) + ch.lam * (xb * xc).real)
        assert_allclose(got, want, rtol=1e-10)


def test_check_criterion():
    assert check_criterion(PExponentMatrix(n_bb=1.0, n_cc=1.0, n_bc=0.0))
    assert not check_criterion(PExponentMatrix(n_bb=1.0, n_cc=1.0, n_bc=1.0))  # det = 0
    assert not check_criterion(PExponentMatrix(n_bb=-1.0, n_cc=1.0, n_bc=0.0))
    assert not check_criterion(PExponentMatrix(n_bb=2.0, n_cc=0.5, n_bc=1.0 + 0.5j))


def test_decompose_identity():
    n = PExponentMatrix(n_bb=2.0, n_cc=3.0, n_bc=0.0)
    d = decompose(n)
    assert_allclose((d.m_b, d.m_c, d.m_s), (2.0, 4.0, 0.75), rtol=1e-12)
    n2 = PExponentMatrix(n_bb=1.0, n_cc=1.0, n_bc=0.5)
    d2 = decompose(n2)
    assert_allclose((d2.m_b, d2.m_c, d2.m_s), (1.25, 2.0, 0.3), rtol=1e-12)
    # the weight normalization identity behind the reconstruction
    for nn, dd in ((n, d), (n2, d2)):
        assert_allclose(dd.m_s + abs(nn.n_bc) ** 2 / dd.m_b + 1.0 / dd.m_c, 1.0, rtol=1e-12)


def test_decompose_rejects_failing_matrix():
    with pytest.raises(NotSeparableError):
        decompose(PExponentMatrix(n_bb=1.0, n_cc=1.0, n_bc=1.2))


def test_p_value_at_origin():
    n = PExponentMatrix(n_bb=0.8, n_cc=1.1, n_bc=0.2 - 0.1j)
    assert_allclose(p_value(n, 0.0, 0.0), n.det / np.pi**2, rtol=1e-12)


def test_reconstruction_matches_direct_p():
    rng = np.random.default_rng(21)
    mats = [
        PExponentMatrix(n_bb=0.5, n_cc=0.5, n_bc=0.0),
        PExponentMatrix(n_bb=1.0, n_cc=1.5, n_bc=0.7),
        PExponentMatrix(n_bb=2.0, n_cc=0.9, n_bc=-0.4 + 0.9j),
    ]
    for n in mats:
        d = decompose(n)
        for _ in range(8):
            a_b = complex(rng.normal(), rng.normal())
            a_c = complex(rng.normal(), rng.normal())
            assert_allclose(
                reconstruct_p(d, n, a_b, a_c), p_value(n, a_b, a_c), rtol=0, atol=1e-8
            )


def test_reconstruction_factorizes_without_correlation():
    n = PExponentMatrix(n_bb=0.7, n_cc=1.3, n_bc=0.0)
    d = decompose(n)
    a_b, a_c = 0.4 + 0.2j, -0.9 + 0.5j
    product = (
        n.det / np.pi**2 * np.exp(-0.7 * abs(a_b) ** 2 - 1.3 * abs(a_c) ** 2)
    )
    assert_allclose(reconstruct_p(d, n, a_b, a_c), product, rtol=0, atol=1e-10)


def test_reconstruction_invariant_under_mode_swap():
    # relabeling the modes (and conjugating the cross term) leaves P unchanged
    n = PExponentMatrix(n_bb=1.1, n_cc=0.8, n_bc=0.3 + 0.6j)
    swapped = PExponentMatrix(n_bb=0.8, n_cc=1.1, n_bc=np.conj(n.n_bc))
    a_b, a_c = 0.5 - 0.3j, -0.2 + 0.7j
    got = reconstruct_p(decompose(swapped), swapped, a_c, a_b)
    want = p_value(n, a_b, a_c)
    assert_allclose(got, want, rtol=0, atol=1e-8)


def test_appendix_route_agrees_with_closed_form():
    for s_qc, n_bar, T in ((1.0, 1.0, 0.5), (0.5, 0.0, 0.9), (0.0, 2.0, 0.8), (1.5, 0.2, 0.1)):
        p = ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T)
        ch = evolve_channel(p)
        if is_boundary_case(ch):
            continue
        assert channel_is_separable_via_appendix(ch) == is_separable(p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(s_qc=st.floats(0.0, 6.0), n_bar=st.floats(0.0, 3.0), T=st.floats(0.0, 1.0))
def test_appendix_verdict_matches_the_closed_form_off_the_boundary(s_qc, n_bar, T):
    # the P-function route and n_tau >= 1 agree on every channel off n_tau = 1
    p = ChannelParams(s_qc=s_qc, n_bar=n_bar, T=T)
    ch = evolve_channel(p)
    assume(not is_boundary_case(ch))
    assert channel_is_separable_via_appendix(ch) == is_separable(p)


def test_boundary_case_detection():
    # s = 0, n_bar = 0 sits exactly at n_tau = 1 for every T
    ch = evolve_channel(ChannelParams(s_qc=0.0, n_bar=0.0, T=0.5))
    assert is_boundary_case(ch)
    assert is_separable(ChannelParams(s_qc=0.0, n_bar=0.0, T=0.5))  # inclusive
    assert not channel_is_separable_via_appendix(ch)  # strict
    off = evolve_channel(ChannelParams(s_qc=0.3, n_bar=1.0, T=0.5))
    assert not is_boundary_case(off)


def _simon_nu_minus(ch):
    """Smallest symplectic eigenvalue of the partially transposed covariance
    matrix (R. Simon, PRL 84, 2726, 2000), built from gamma and lam.

    In quadratures (q_b, p_b, q_c, p_c) with vacuum variance 1 the channel's
    covariance is [[gamma I, lam Z], [lam Z, gamma I]], Z = diag(1, -1).  The
    partial transpose flips p_c; the symplectic eigenvalues of a covariance
    V are the moduli of the eigenvalues of the Hermitian i V^1/2 Omega V^1/2.
    """
    z = np.diag([1.0, -1.0])
    v = np.block([[ch.gamma * np.eye(2), ch.lam * z], [ch.lam * z, ch.gamma * np.eye(2)]])
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    w, u = np.linalg.eigh(flip @ v @ flip)
    root = (u * np.sqrt(w)) @ u.T
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.abs(np.linalg.eigvalsh(1j * root @ omega @ root)).min())


def test_simon_ppt_criterion_is_a_third_route():
    # criterion 7's lattice, off the boundary n_tau = 1
    checked = 0
    for s_qc in np.linspace(0.0, 2.0, 5):
        for n_bar in np.linspace(0.0, 2.0, 5):
            for T in np.linspace(0.1, 0.9, 5):
                p = ChannelParams(s_qc=float(s_qc), n_bar=float(n_bar), T=float(T))
                if abs(noise_factor(p).value - 1.0) < 1e-9:
                    continue
                ch = evolve_channel(p)
                nu = _simon_nu_minus(ch)
                assert_allclose(nu, ch.n_minus, rtol=1e-12, atol=0)
                assert (nu >= 1.0) == is_separable(p) == channel_is_separable_via_appendix(ch)
                checked += 1
    assert checked == 120
