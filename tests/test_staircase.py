import numpy as np
import pytest

import dhkrylov as dk
from dhkrylov.errors import DefinitenessError

from support import random_spd, random_unitary


def random_psd_h_instance(rng, n, rank=None, complex_=False):
    """A = H + S with H PSD of prescribed rank and S random skew."""
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    q = random_unitary(rng, n, complex_)
    eigs = np.concatenate([rng.uniform(0.5, 2.0, size=rank), np.zeros(n - rank)])
    h = (q * eigs) @ q.conj().T
    h = (h + h.conj().T) / 2
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    s = (g - g.conj().T) / 2
    return h, s


# ---------------------------------------------------------------------------
# staircase form
# ---------------------------------------------------------------------------

def test_trivial_when_h_nonsingular():
    rng = np.random.default_rng(0)
    s = (lambda g: (g - g.T) / 2)(rng.standard_normal((5, 5)))
    sf = dk.hs_staircase(np.eye(5), s)
    assert np.array_equal(sf.u, np.eye(5))
    assert sf.block_sizes == (5, 0)
    assert sf.r == 2
    assert not sf.has_decoupled_block


def test_two_by_two_hand_case():
    h = np.diag([1.0, 0.0])
    s = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sf = dk.hs_staircase(h, s)
    assert sf.block_sizes == (1, 1, 0)
    sigma = sf.s_block(2, 1)
    assert abs(abs(sigma[0, 0]) - 1.0) < 1e-14  # up to sign/phase convention
    assert np.max(np.abs(sf.reconstruct() - (h + s))) < 1e-14


def test_fully_decoupled_zero_block():
    sf = dk.hs_staircase(np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)))
    assert sf.block_sizes == (1, 2)
    assert sf.has_decoupled_block
    assert np.max(np.abs(sf.s_block(2, 2))) == 0.0


def test_degenerate_h_zero():
    s = np.array([[0.0, 2.0], [-2.0, 0.0]])
    sf = dk.hs_staircase(np.zeros((2, 2)), s)
    assert sf.r == 1
    assert sf.block_sizes == (2,)
    assert sf.h11.shape == (0, 0)


def test_staircase_rejects_indefinite_h():
    with pytest.raises(DefinitenessError):
        dk.hs_staircase(np.diag([1.0, -1.0]), np.zeros((2, 2)))


@pytest.mark.parametrize("complex_", [False, True])
def test_staircase_random_instances(complex_):
    rng = np.random.default_rng(123 if complex_ else 321)
    for _ in range(25):
        n = int(rng.integers(2, 25))
        h, s = random_psd_h_instance(rng, n, complex_=complex_)
        a = h + s
        sf = dk.hs_staircase(h, s)
        norm_a = np.linalg.norm(a, 2)
        # unitary and reconstruction
        assert np.max(np.abs(sf.u.conj().T @ sf.u - np.eye(n))) <= 1e-12
        assert np.linalg.norm(sf.reconstruct() - a, 2) <= 1e-10 * norm_a
        # transformed H is blkdiag(h11, 0) with h11 positive definite
        n1 = sf.block_sizes[0]
        norm_h = np.linalg.norm(h, 2)
        if n1 < n:
            assert np.max(np.abs(sf.h_t[n1:, :])) <= 1e-10 * max(norm_h, 1e-300)
            assert np.max(np.abs(sf.h_t[:, n1:])) <= 1e-10 * max(norm_h, 1e-300)
        if n1:
            assert np.linalg.eigvalsh((sf.h11 + sf.h11.conj().T) / 2)[0] > 0
        # block-tridiagonal-plus-decoupled pattern of the transformed S
        assert sf.pattern_residual() <= 1e-10 * max(np.linalg.norm(s, 2), 1e-300)
        # monotone positive block sizes and nonsingular couplings
        positive = sf.block_sizes[:-1]
        assert all(positive[i] >= positive[i + 1] for i in range(len(positive) - 1))
        for c in sf.coupling_blocks():
            svals = np.linalg.svd(c, compute_uv=False)
            assert svals[-1] > 1e-10 * svals[0]


# ---------------------------------------------------------------------------
# Schur complement and block diagonalization
# ---------------------------------------------------------------------------

def test_block_diagonalize_trivial():
    rng = np.random.default_rng(1)
    s = (lambda g: (g - g.T) / 2)(rng.standard_normal((4, 4)))
    sf = dk.hs_staircase(np.eye(4), s)
    red = dk.schur_block_diagonalize(sf)
    assert len(red.blocks) == 1
    assert np.allclose(red.blocks[0], np.eye(4) + s)
    assert red.left_factors == ()


def test_block_diagonalize_three_stage_instance():
    # blocks (4, 2, 1) built directly in staircase coordinates, then hidden
    # behind a random unitary congruence
    rng = np.random.default_rng(9)
    n = 7
    h = np.zeros((n, n))
    h[:4, :4] = random_spd(rng, 4)
    s = np.zeros((n, n))
    s[:4, :4] = (lambda g: (g - g.T) / 2)(rng.standard_normal((4, 4)))
    s[4:6, :4] = np.hstack([np.diag([2.0, 1.0]), np.zeros((2, 2))])
    s[:4, 4:6] = -s[4:6, :4].T
    s[6, 4:6] = [1.5, 0.0]
    s[4:6, 6] = [-1.5, 0.0]
    u = random_unitary(rng, n)
    h_in = u @ h @ u.T
    h_in = (h_in + h_in.T) / 2
    s_in = u @ s @ u.T
    s_in = (s_in - s_in.T) / 2
    sf = dk.hs_staircase(h_in, s_in)
    assert sf.block_sizes[:3] == (4, 2, 1)
    red = dk.schur_block_diagonalize(sf)
    a_t = sf.h_t + sf.s_t
    assert np.linalg.norm(red.reconstruct() - a_t, 2) <= 1e-10 * np.linalg.norm(a_t, 2)
    for lam_min in red.herm_min_eigenvalues:
        assert lam_min > 0
    for left in red.left_factors:
        inv = 2 * np.eye(n) - left
        assert np.allclose(left @ inv, np.eye(n), atol=1e-12)


def test_block_diagonalize_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        h, s = random_psd_h_instance(rng, n)
        sf = dk.hs_staircase(h, s)
        red = dk.schur_block_diagonalize(sf)
        a_t = sf.h_t + sf.s_t
        resid = np.linalg.norm(red.reconstruct() - a_t, 2)
        assert resid <= 1e-9 * max(np.linalg.norm(a_t, 2), 1e-300)
        n_positive = len([b for b in sf.block_sizes[:-1] if b > 0])
        expected_blocks = n_positive + (1 if sf.has_decoupled_block else 0)
        assert len(red.blocks) == expected_blocks
        for i, lam_min in enumerate(red.herm_min_eigenvalues):
            assert lam_min > -1e-12 * np.linalg.norm(red.blocks[i + 1], 2)


def test_stokes_schur_complement_formula():
    # the midpoint matrix of unstabilized Stokes has B = -tau/2 B_m with
    # B_m = J[v, p], so the Schur complement B* A11^{-1} B that the Schur
    # path forms is (tau^2/4) B_m* A11^{-1} B_m
    sys = dk.assemble_stokes_like(3, viscosity=1.0, convection=0.0, stabilization=0.0)
    tau = 0.05
    a11, b, (nv, n_p) = dk.midpoint_saddle_blocks(sys, tau)
    rep = dk.solve_via_schur(a11, b, np.ones(nv), np.ones(n_p), tol=1e-10)
    b_m = sys.j.toarray()[:nv, nv:]
    expected = (tau**2 / 4) * b_m.T @ np.linalg.solve(a11, b_m)
    comp = rep.schur_matrix
    assert np.linalg.norm(comp - expected, 2) <= 1e-10 * np.linalg.norm(expected, 2)
    assert np.linalg.eigvalsh((comp + comp.T) / 2)[0] > 0


# ---------------------------------------------------------------------------
# audit report
# ---------------------------------------------------------------------------

def test_staircase_report_fields():
    rng = np.random.default_rng(4)
    h, s = random_psd_h_instance(rng, 8, rank=5)
    sf = dk.hs_staircase(h, s)
    report = dk.staircase_report(sf)
    assert report["n"] == 8
    assert report["block_sizes"] == list(sf.block_sizes)
    assert report["reconstruction_residual_relative"] <= 1e-10
    assert isinstance(report["decoupled_block_present"], bool)
    assert report["rank_decisions"][0]["kind"] == "h_rank"
    import json
    json.dumps(report)  # must be JSON-serializable
