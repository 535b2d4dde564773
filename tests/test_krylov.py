import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings, strategies as st

import dhkrylov as dk
from dhkrylov.errors import (DefinitenessError, DimensionError, ParameterError, SolverError,
                             StructureError)
from dhkrylov.krylov import SOLVER_NAMES, lanczos_advance, lanczos_init

from support import (krylov_basis, mgs_gmres_reference, random_hs_system, random_spd,
                     uniform_spectrum_system)


EPS = np.finfo(float).eps


class _CountingOperator:
    """A matrix behind ``@`` that counts its products and the columns they take."""

    def __init__(self, a):
        self.a, self.shape, self.dtype = a, a.shape, a.dtype
        self.products = self.columns = 0

    def __matmul__(self, x):
        self.products += 1
        self.columns += x.shape[1] if x.ndim == 2 else 1
        return self.a @ x


def _counted(sysm):
    """``sysm`` with its ``a`` behind a :class:`_CountingOperator`, and that operator."""
    op = _CountingOperator(sysm.a)
    return dataclasses.replace(sysm, a=op), op


def _operators(sysm):
    apply_k = lambda x: sysm.solve_h(sysm.s @ x)
    h_inner_fn = lambda x, y: np.vdot(y, sysm.h @ x)
    return apply_k, h_inner_fn


# ---------------------------------------------------------------------------
# Lanczos engine
# ---------------------------------------------------------------------------

def test_lanczos_two_by_two_hand_case():
    sysm = dk.HsSplitSystem.from_matrix(np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]]))
    apply_k, hin = _operators(sysm)
    state = lanczos_init(sysm.solve_h(np.array([1.0, 0.0])), hin)
    state = lanczos_advance(state, apply_k, hin)
    assert state.t_diag[0] == pytest.approx(0.0, abs=1e-15)
    assert state.t_sub[0] == pytest.approx(1.0, rel=1e-14)


def test_lanczos_breakdown_when_skew_vanishes():
    sysm = dk.HsSplitSystem.from_matrix(random_spd(np.random.default_rng(0), 5))
    b = np.arange(1.0, 6.0)
    for method in ("widlund", "rapoport"):
        rep = dk.solve(method, sysm, b, tol=1e-12)
        assert rep.breakdown == 1, method
        assert rep.iterations == 1, method
        assert np.allclose(rep.solution, sysm.solve_h(b), atol=1e-12), method


def test_lanczos_relation_residual():
    rng = np.random.default_rng(3)
    sysm = random_hs_system(rng, 50, cond_h=100.0, lam=1.5)
    apply_k, hin = _operators(sysm)
    b = rng.standard_normal(50)
    state = lanczos_init(sysm.solve_h(b), hin)
    for _ in range(30):
        state = lanczos_advance(state, apply_k, hin)
    k = 30
    v_k = state.basis_matrix(k)
    v_k1 = state.basis_matrix(k + 1)
    t_ext = np.zeros((k + 1, k))
    t_ext[:k, :k] = state.tridiagonal(k)
    t_ext[k, k - 1] = state.t_sub[k - 1]
    k_mat = np.linalg.solve(sysm.h, sysm.s)
    resid = np.linalg.norm(k_mat @ v_k - v_k1 @ t_ext, 2)
    assert resid <= 1e-9 * np.linalg.norm(k_mat, 2)


def test_lanczos_h_orthonormality_and_skew_tridiagonal():
    # 50 steps with no reorthogonalization on a well-conditioned system
    rng = np.random.default_rng(10)
    sysm = uniform_spectrum_system(rng, 240, cond_h=1e3, lam=1.0)
    apply_k, hin = _operators(sysm)
    state = lanczos_init(sysm.solve_h(rng.standard_normal(240)), hin)
    for _ in range(50):
        state = lanczos_advance(state, apply_k, hin)
    v = state.basis_matrix(50)
    gram = v.conj().T @ sysm.h @ v
    assert np.max(np.abs(gram - np.eye(50))) <= 1e-8
    t = state.tridiagonal(50)
    assert np.max(np.abs(t + t.conj().T)) <= 1e-10
    # tridiagonal: nothing outside the three central diagonals
    off = np.triu(np.abs(t), 2) + np.tril(np.abs(t), -2)
    assert np.max(off) == 0.0


# ---------------------------------------------------------------------------
# The H-Lanczos loop shared by Widlund and Rapoport
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["widlund", "rapoport"])
def test_hlanczos_makes_one_h_solve_per_step(method, monkeypatch):
    calls = []
    solve = dk.hs_core.HermitianFactor.solve

    def counted(self, b):
        calls.append(1)
        return solve(self, b)

    monkeypatch.setattr(dk.hs_core.HermitianFactor, "solve", counted)
    rng = np.random.default_rng(21)
    sysm = random_hs_system(rng, 40, cond_h=100.0, lam=1.5)
    rep = dk.solve(method, sysm, rng.standard_normal(40), tol=1e-10)
    assert rep.converged and rep.iterations > 5
    assert len(calls) == rep.iterations + 1


def _block_cases():
    """(system, block of right sides) pairs for the lockstep H-Lanczos driver."""
    rng = np.random.default_rng(31)
    real = random_hs_system(rng, 40, cond_h=100.0, lam=1.5)
    cplx = random_hs_system(rng, 30, cond_h=50.0, lam=1.0, complex_=True)
    # a decoupled leading 2x2 block: a right side supported there spans a
    # two-dimensional Krylov space, so its column stops long before the rest
    small = random_hs_system(rng, 2, cond_h=3.0, lam=0.7).a
    split = dk.HsSplitSystem.from_matrix(scipy.linalg.block_diag(small, real.a))
    early = np.zeros(42)
    early[:2] = rng.standard_normal(2)
    spd = dk.HsSplitSystem.from_matrix(random_spd(rng, 25, cond=20.0))  # S = 0
    cases = {
        "real": (real, rng.standard_normal((40, 4))),
        "complex": (cplx, rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))),
        "early-and-zero-columns": (
            split, np.column_stack([rng.standard_normal(42), early, np.zeros(42),
                                    rng.standard_normal(42)])),
        "s-zero": (spd, rng.standard_normal((25, 3))),
    }
    # lam = 2 keeps the runs near 40 steps, where rounding leaves the stopping
    # step fixed (ROADMAP item 7)
    lam_two = random_hs_system(rng, 200, cond_h=100.0, lam=2.0)
    cases["lam-two"] = (lam_two, rng.standard_normal((200, 6)))
    return cases


@pytest.mark.parametrize("case", ["real", "lam-two", "complex", "early-and-zero-columns",
                                  "s-zero"])
@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_block_hlanczos_matches_column_solves(method, case):
    # every method's lockstep block runs each column's own solve
    sysm, rhs = _block_cases()[case]
    counted, op = _counted(sysm)
    block = dk.krylov._solve_block(method, counted, rhs, 1e-10, 250)
    assert block.solution.shape == rhs.shape
    if method in ("widlund", "rapoport"):
        # one true residual per nonzero column, taken at its stopping step
        assert op.columns == np.count_nonzero(np.linalg.norm(rhs, axis=0))
    for j in range(rhs.shape[1]):
        single = dk.solve(method, sysm, rhs[:, j], tol=1e-10)
        assert block.iterations[j] == single.iterations, j
        assert block.converged[j] == single.converged, j
        assert block.breakdown[j] == (single.breakdown or 0), j
        err = np.linalg.norm(block.solution[:, j] - single.solution)
        assert err <= 1e-12 * np.linalg.norm(single.solution), (j, err)
        # the block forms it by a GEMM, so it agrees to rounding in A x
        x = block.solution[:, j]
        true = np.linalg.norm(rhs[:, j] - sysm.a @ x)
        slack = 100 * sysm.n * EPS * np.linalg.norm(sysm.a, 2) * np.linalg.norm(x)
        assert abs(block.residual_2norm[j] - true) <= slack, j
    its = block.iterations
    if case == "early-and-zero-columns":
        assert its[2] == 0
        if method != "hss":
            # the Krylov space of the second column is two-dimensional
            assert its[1] <= 2 < min(its[0], its[3])
    if case == "s-zero" and method in ("widlund", "rapoport", "lgmres"):
        # H^{-1} A = I
        assert np.all(its == 1) and np.all(block.breakdown == (method != "lgmres"))


def test_block_hlanczos_maxit_leaves_columns_unconverged():
    sysm, rhs = _block_cases()["real"]
    for method in ("rapoport", "gmres", "lgmres", "hss"):
        block = dk.krylov._solve_block(method, sysm, rhs, 1e-10, 3)
        assert np.all(block.iterations == 3) and not np.any(block.converged), method
        for j in range(rhs.shape[1]):
            single = dk.solve(method, sysm, rhs[:, j], tol=1e-10, maxit=3)
            if method == "rapoport":
                assert np.allclose(block.solution[:, j], single.solution, rtol=1e-12, atol=0)
            # the tolerance of test_block_hlanczos_matches_column_solves
            err = np.linalg.norm(block.solution[:, j] - single.solution)
            assert err <= 1e-12 * np.linalg.norm(single.solution), (method, j)


def test_block_hlanczos_maxit_zero_reports_the_residual_of_the_zero_iterate():
    sysm, rhs = _block_cases()["early-and-zero-columns"]
    for method in ("rapoport", "gmres", "lgmres", "hss"):
        block = dk.krylov._solve_block(method, sysm, rhs, 1e-10, 0)
        assert np.all(block.iterations == 0) and not np.any(block.solution), method
        assert np.array_equal(block.converged, [False, False, True, False])
        assert np.array_equal(block.residual_2norm, np.linalg.norm(rhs, axis=0))
        assert np.array_equal(block.residual, rhs)


def test_block_hlanczos_zero_block_takes_no_step():
    sysm, rhs = _block_cases()["real"]
    for method in ("widlund", "gmres", "lgmres", "hss"):
        block = dk.krylov._solve_block(method, sysm, np.zeros_like(rhs), 1e-10, 250)
        assert np.all(block.iterations == 0) and np.all(block.converged), method
        assert not np.any(block.solution)


@pytest.mark.parametrize("method", ["widlund", "rapoport"])
def test_hlanczos_converged_solve_makes_one_product_with_a(method):
    # the residual is updated by recurrence; one true residual confirms the stop
    rng = np.random.default_rng(21)
    sysm, op = _counted(random_hs_system(rng, 40, cond_h=100.0, lam=1.5))
    b = rng.standard_normal(40)
    rep = dk.solve(method, sysm, b, tol=1e-10)
    assert rep.converged and rep.iterations > 5
    assert op.products == 1
    assert rep.residual_2norm[-1] == np.linalg.norm(b - op.a @ rep.solution)
    assert rep.residual_gap <= 1e-14


@pytest.mark.parametrize("method", ["widlund", "rapoport"])
def test_hlanczos_replaces_residual_when_true_residual_stagnates(method):
    # On this system the updated residual stagnates near 2e-16 ||b|| and the
    # true one near 4e-15 ||b||.  At tol 1e-15 the first confirmation fails,
    # so the true residual replaces the updated one, which then stays above
    # tol: without the replacement every later step would confirm again.
    rng = np.random.default_rng(41)
    sysm, op = _counted(random_hs_system(rng, 200, cond_h=100.0, lam=2.0))
    b = rng.standard_normal(200)
    bnorm = np.linalg.norm(b)
    tol, maxit = 1e-15, 150
    rep = dk.solve(method, sysm, b, tol=tol, maxit=maxit)
    assert not rep.converged and rep.iterations == maxit
    # a failed confirmation, its replacement (a second product for Widlund,
    # whose replacement is b - A x^R) and the confirmation at maxit
    assert op.products == (2 if method == "rapoport" else 3)
    assert rep.residual_gap > tol
    assert np.all(rep.residual_2norm > tol * bnorm)
    assert rep.residual_2norm[-1] == np.linalg.norm(b - op.a @ rep.solution)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["widlund", "rapoport", "gmres", "lgmres"]), st.floats(0.0, 4.0))
def test_residual_gap_at_confirmation_is_rounding_level(n, seed, complex_, method, lam):
    rng = np.random.default_rng(seed)
    sysm = random_hs_system(rng, n, cond_h=100.0, lam=lam, complex_=complex_)
    b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_ else 0)
    rep = dk.solve(method, sysm, b, tol=1e-10)
    bnorm = np.linalg.norm(b)
    growth = 1 + np.linalg.norm(sysm.a, 2) * np.linalg.norm(rep.solution) / bnorm
    assert rep.residual_gap <= 100 * n * EPS * growth
    assert rep.residual_2norm[-1] == np.linalg.norm(b - sysm.a @ rep.solution)


def test_residual_gap_only_for_one_dimensional_krylov_solves():
    rng = np.random.default_rng(5)
    sysm = random_hs_system(rng, 20, cond_h=10.0, lam=1.0)
    b = rng.standard_normal(20)
    for method in ("widlund", "rapoport", "gmres", "lgmres"):
        assert 0.0 <= dk.solve(method, sysm, b).residual_gap <= 1e-14, method
        assert dk.solve(method, sysm, np.zeros(20)).residual_gap is None, method
    assert dk.solve("hss", sysm, b).residual_gap is None
    block = dk.krylov._solve_hlanczos("rapoport", sysm, np.column_stack([b, b]), 1e-12, 250)
    assert block.residual_gap is None


def _criterion_five_basis(seed, k):
    """Solver basis and lanczos_advance basis on a criterion-5 system."""
    rng = np.random.default_rng(seed)
    sysm = uniform_spectrum_system(rng, 240, cond_h=1e3, lam=1.0)
    b = rng.standard_normal(240)
    rep = dk.solve_rapoport(sysm, b, tol=1e-30, maxit=k, collect_basis=True)
    apply_k, hin = _operators(sysm)
    state = lanczos_init(sysm.solve_h(b), hin)
    for _ in range(k):
        state = lanczos_advance(state, apply_k, hin)
    return sysm, rep.basis, state.basis_matrix(k)


def test_hlanczos_basis_h_orthonormal():
    for seed in range(3):
        sysm, v, _ = _criterion_five_basis(seed, 50)
        assert v.shape == (240, 50)
        gram = v.conj().T @ sysm.h @ v
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-8


def test_hlanczos_basis_matches_audit_recurrence():
    for seed in range(3):
        _, v, v_audit = _criterion_five_basis(seed, 30)
        assert np.max(np.abs(v - v_audit)) <= 1e-10


def test_rapoport_history_is_exact_hinv_residual():
    # |g_k| of the rotated right side against sqrt(r_k* H^{-1} r_k)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sysm = random_hs_system(rng, 50, cond_h=300.0, lam=0.9)
        b = rng.standard_normal(50)
        hist = dk.solve_rapoport(sysm, b, tol=1e-10, maxit=100).residual_hinv_norm
        for k in range(len(hist)):
            x = dk.solve_rapoport(sysm, b, tol=1e-30, maxit=k).solution if k else 0 * b
            r = b - sysm.a @ x
            exact = np.sqrt(np.vdot(r, sysm.solve_h(r)).real)
            assert abs(hist[k] - exact) <= 1e-10 * hist[0], (seed, k)


# ---------------------------------------------------------------------------
# Widlund
# ---------------------------------------------------------------------------

def test_widlund_identity_single_iteration():
    sysm = dk.HsSplitSystem.from_matrix(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    rep = dk.solve_widlund(sysm, b)
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(rep.solution, b)


def test_widlund_matches_dense_solve_on_rlc_midpoint():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    ms = dk.midpoint_system(sys, 0.01)
    b = np.random.default_rng(4).standard_normal(5)
    rep = dk.solve_widlund(ms.sys, b, tol=1e-13)
    x_ref = np.linalg.solve(ms.sys.a, b)
    assert rep.converged
    assert np.linalg.norm(rep.solution - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_widlund_even_iterate_error_bound():
    rng = np.random.default_rng(12)
    for seed in range(5):
        sysm = random_hs_system(np.random.default_rng(seed), 60, cond_h=100.0,
                                lam=1.0)
        b = rng.standard_normal(60)
        x_ref = np.linalg.solve(sysm.a, b)
        lam = dk.spectral_interval(sysm).lam
        rep = dk.solve_widlund(sysm, b, tol=1e-10, maxit=100, x_exact=x_ref)
        xnorm = np.sqrt(np.vdot(x_ref, sysm.h @ x_ref).real)
        for m in range(2, rep.iterations + 1, 2):
            ratio = rep.error_h_norm[m] / xnorm
            assert ratio <= dk.widlund_bound(lam, m // 2) * (1 + 1e-6)


def test_widlund_requires_pd_hermitian_part():
    sysm = dk.HsSplitSystem.from_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(DefinitenessError):
        dk.solve_widlund(sysm, np.ones(2))


def test_widlund_maxit_exceeded_reports_not_converged():
    rng = np.random.default_rng(2)
    sysm = random_hs_system(rng, 40, cond_h=100.0, lam=3.0)
    rep = dk.solve_widlund(sysm, rng.standard_normal(40), tol=1e-14, maxit=3)
    assert not rep.converged
    assert rep.iterations == 3


# ---------------------------------------------------------------------------
# Rapoport
# ---------------------------------------------------------------------------

def test_rapoport_identity_single_iteration():
    sysm = dk.HsSplitSystem.from_matrix(np.eye(3))
    rep = dk.solve_rapoport(sysm, np.array([2.0, 0.0, -1.0]))
    assert rep.iterations == 1
    assert rep.converged


def test_rapoport_hinv_residual_monotone_and_bounded():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sysm = random_hs_system(rng, 50, cond_h=300.0, lam=0.9)
        b = rng.standard_normal(50)
        lam = dk.spectral_interval(sysm).lam
        rep = dk.solve_rapoport(sysm, b, tol=1e-10, maxit=100)
        hist = rep.residual_hinv_norm
        for k in range(1, len(hist)):
            assert hist[k] <= hist[k - 1] * (1 + 1e-10) + 1e-14 * hist[0]
        for k in range(len(hist)):
            assert hist[k] / hist[0] <= dk.rapoport_bound(lam, k) * (1 + 1e-6)


def test_rapoport_matches_brute_force_minimizer():
    rng = np.random.default_rng(6)
    sysm = random_hs_system(rng, 30, cond_h=50.0, lam=1.0)
    b = rng.standard_normal(30)
    low = np.linalg.cholesky(sysm.h)
    bhat = sysm.solve_h(b)
    for k in (1, 3, 7, 12, 15):
        z = krylov_basis(lambda t: sysm.solve_h(sysm.s @ t), bhat, k)
        wm = scipy.linalg.solve_triangular(low, sysm.a @ z, lower=True)
        wb = scipy.linalg.solve_triangular(low, b, lower=True)
        c, *_ = np.linalg.lstsq(wm, wb, rcond=None)
        x_oracle = z @ c
        rep = dk.solve_rapoport(sysm, b, tol=1e-16, maxit=k)
        assert np.linalg.norm(rep.solution - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)


@pytest.mark.parametrize("complex_", [False, True])
def test_widlund_matches_brute_force_galerkin(complex_):
    # Widlund's condition V_k* r_k = 0 on K_k(K, b_hat): (Z* A Z) c = Z* b
    rng = np.random.default_rng(6)
    sysm = random_hs_system(rng, 30, cond_h=50.0, lam=1.0, complex_=complex_)
    b = rng.standard_normal(30)
    if complex_:
        b = b + 1j * rng.standard_normal(30)
    bhat = sysm.solve_h(b)
    for k in range(1, 16):
        z = krylov_basis(lambda t: sysm.solve_h(sysm.s @ t), bhat, k)
        c = np.linalg.solve(z.conj().T @ sysm.a @ z, z.conj().T @ b)
        x_oracle = z @ c
        rep = dk.solve_widlund(sysm, b, tol=1e-16, maxit=k)
        assert rep.iterations == k
        assert np.linalg.norm(rep.solution - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)


def test_rapoport_complex_system():
    rng = np.random.default_rng(8)
    sysm = random_hs_system(rng, 25, cond_h=50.0, lam=1.2, complex_=True)
    b = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    rep = dk.solve_rapoport(sysm, b, tol=1e-12, maxit=200)
    x_ref = np.linalg.solve(sysm.a, b)
    assert rep.converged
    assert np.linalg.norm(rep.solution - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


# ---------------------------------------------------------------------------
# GMRES / L-GMRES
# ---------------------------------------------------------------------------

def test_gmres_identity_single_iteration():
    rep = dk.solve_gmres(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert rep.iterations == 1
    assert rep.converged


def test_gmres_residual_monotone():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        sysm = random_hs_system(rng, 40, cond_h=500.0, lam=2.0)
        rep = dk.solve_gmres(sysm.a, rng.standard_normal(40), tol=1e-12, maxit=40)
        hist = rep.residual_2norm
        for k in range(1, len(hist)):
            assert hist[k] <= hist[k - 1] * (1 + 1e-10) + 1e-14 * hist[0]


def test_gmres_matches_brute_force_minimizer():
    rng = np.random.default_rng(7)
    sysm = random_hs_system(rng, 25, cond_h=50.0, lam=1.0)
    b = rng.standard_normal(25)
    for k in (1, 4, 9, 14):
        z = krylov_basis(lambda t: sysm.a @ t, b, k)
        c, *_ = np.linalg.lstsq(sysm.a @ z, b, rcond=None)
        x_oracle = z @ c
        rep = dk.solve_gmres(sysm.a, b, tol=1e-16, maxit=k)
        assert np.linalg.norm(rep.solution - x_oracle) <= 1e-8 * max(
            np.linalg.norm(x_oracle), 1e-15)


def test_gmres_happy_breakdown_returns_exact_solution():
    # minimal polynomial of degree 2: A has exactly two distinct eigenvalues
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    a = (q * np.array([2.0, 2.0, 2.0, 5.0, 5.0, 5.0])) @ q.T
    b = np.ones(6)
    rep = dk.solve_gmres(a, b, tol=1e-30, maxit=50)
    assert rep.breakdown == 2
    assert rep.final_relative_residual <= 1e-13


@pytest.mark.parametrize("a", [np.zeros((1, 1)), np.zeros((2, 2), complex),
                               np.array([[0.0, 1.0], [0.0, 0.0]])])
def test_gmres_singular_triangle_raises(a):
    # R y = g with r_kk = 0 has no solution; it must not return inf or nan
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        dk.solve_gmres(a, np.eye(a.shape[0])[0])


def test_lgmres_preconditioned_residual_monotone():
    rng = np.random.default_rng(5)
    sysm = random_hs_system(rng, 40, cond_h=1e3, lam=1.5)
    b = rng.standard_normal(40)
    rep = dk.solve(  # dispatcher route
        "lgmres", sysm, b, tol=1e-12, maxit=60
    )
    hist = rep.residual_precond_norm
    assert rep.converged
    for k in range(1, len(hist)):
        assert hist[k] <= hist[k - 1] * (1 + 1e-10) + 1e-14 * hist[0]


def test_widlund_rapoport_lgmres_share_search_spaces():
    rng = np.random.default_rng(13)
    sysm = random_hs_system(rng, 30, cond_h=100.0, lam=1.0)
    b = rng.standard_normal(30)
    k = 8
    rw = dk.solve("widlund", sysm, b, tol=1e-30, maxit=k, collect_basis=True)
    rr = dk.solve("rapoport", sysm, b, tol=1e-30, maxit=k, collect_basis=True)
    rl = dk.solve("lgmres", sysm, b, tol=1e-30, maxit=k, collect_basis=True)
    for basis in (rr.basis, rl.basis):
        angles = scipy.linalg.subspace_angles(rw.basis[:, :k], basis[:, :k])
        assert np.max(angles) <= 1e-8


def _gmres_parity_system(case):
    """(A, b, H) of a real or complex random system, or of criterion 10's Stokes system."""
    if case == "stokes":
        sysm = dk.midpoint_system(
            dk.assemble_stokes_like(12, viscosity=100.0, stabilization=0.005), 1e-3).sys
        return sysm.a.toarray(), np.random.default_rng(11).standard_normal(sysm.n), sysm
    kind, n = case.split("-")
    rng = np.random.default_rng([61, int(n)])
    sysm = random_hs_system(rng, int(n), cond_h=200.0, lam=2.0, complex_=kind == "complex")
    b = rng.standard_normal(int(n))
    if kind == "complex":
        b = b + 1j * rng.standard_normal(int(n))
    return sysm.a, b, sysm


@pytest.mark.parametrize("precond", [False, True])
@pytest.mark.parametrize("case", ["real-20", "complex-33", "real-47", "complex-60", "stokes"])
def test_gmres_matches_mgs_reference(case, precond):
    a, b, sysm = _gmres_parity_system(case)
    precond = sysm.solve_h if precond else None
    tol, maxit = 1e-12, 250
    x_ref, k_ref, conv_ref, res_ref = mgs_gmres_reference(a, b, tol, maxit, precond)
    rep = dk.solve_gmres(a, b, tol=tol, maxit=maxit, precond=precond)
    assert rep.iterations == k_ref and rep.converged == conv_ref
    if case == "stokes" and precond is None:
        # acceptance criterion 10: plain GMRES stalls for all 250 steps
        assert rep.iterations == 250 and not rep.converged
    assert np.linalg.norm(rep.solution - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    # a computed b - A x carries rounding of order eps ||A|| ||x||: the last
    # entries sit there, where the Arnoldi summation order shows
    floor = 1e3 * np.finfo(float).eps * np.linalg.norm(a, 2) * np.linalg.norm(x_ref)
    np.testing.assert_allclose(rep.residual_2norm, res_ref, rtol=1e-6, atol=floor)


def test_gmres_basis_capped_at_system_size():
    # a Krylov space in C^5 has dimension at most 5, whatever maxit says
    rng = np.random.default_rng(62)
    a = random_hs_system(rng, 5, cond_h=10.0, lam=1.0).a
    b = rng.standard_normal(5)
    rep = dk.solve_gmres(a, b, tol=1e-12, maxit=200000)
    assert rep.converged and rep.iterations <= 5
    assert rep.final_relative_residual <= 1e-12
    rep = dk.solve_gmres(a, b, tol=1e-30, maxit=200000)
    assert rep.iterations <= 5 and not rep.converged


def test_lgmres_makes_one_h_solve_per_step(monkeypatch):
    calls = []
    solve = dk.hs_core.HermitianFactor.solve

    def counted(self, b):
        calls.append(1)
        return solve(self, b)

    monkeypatch.setattr(dk.hs_core.HermitianFactor, "solve", counted)
    rng = np.random.default_rng(21)
    sysm = random_hs_system(rng, 40, cond_h=100.0, lam=1.5)
    rep = dk.solve("lgmres", sysm, rng.standard_normal(40), tol=1e-10)
    assert rep.converged and rep.iterations > 5
    assert len(calls) == rep.iterations + 1


def test_lgmres_makes_one_product_with_a_per_step_and_confirmation():
    # the basis products A v_j are kept, so the residual b - (A V_k) y of each
    # step needs no product; x_k = V_k y and b - A x_k only confirm the stop
    rng = np.random.default_rng(21)
    sysm, op = _counted(random_hs_system(rng, 40, cond_h=100.0, lam=1.5))
    b = rng.standard_normal(40)
    rep = dk.solve("lgmres", sysm, b, tol=1e-10)
    assert rep.converged and rep.iterations > 5
    assert op.products == rep.iterations + 1
    assert rep.residual_2norm[-1] == np.linalg.norm(b - op.a @ rep.solution)


@pytest.mark.parametrize("complex_", [False, True])
def test_lgmres_basis_stays_orthonormal_over_long_runs(complex_):
    rng = np.random.default_rng(63)
    sysm = random_hs_system(rng, 200, cond_h=1e3, lam=8.0, complex_=complex_)
    b = rng.standard_normal(200)
    rep = dk.solve("lgmres", sysm, b, tol=1e-30, maxit=160, collect_basis=True)
    assert rep.iterations == 160 and rep.breakdown is None
    v = rep.basis
    assert v.shape == (200, 160)
    assert np.max(np.abs(v.conj().T @ v - np.eye(160))) <= 1e-12


# ---------------------------------------------------------------------------
# HSS
# ---------------------------------------------------------------------------

def test_hss_contracts_on_hermitian_system():
    rng = np.random.default_rng(1)
    sysm = dk.HsSplitSystem.from_matrix(random_spd(rng, 10))
    rep = dk.solve_hss(sysm, rng.standard_normal(10), tol=1e-10, maxit=5000)
    assert rep.converged and rep.iterations == 35


def test_hss_converges_at_computed_shift():
    for seed, sweeps in zip(range(5), (81, 81, 77, 86, 72)):
        rng = np.random.default_rng(seed)
        sysm = random_hs_system(rng, 30, cond_h=100.0, lam=1.0)
        b = rng.standard_normal(30)
        rep = dk.solve_hss(sysm, b, tol=1e-10, maxit=5000)
        assert rep.converged and rep.iterations == sweeps
        x_ref = np.linalg.solve(sysm.a, b)
        assert np.linalg.norm(rep.solution - x_ref) <= 1e-7 * np.linalg.norm(x_ref)


def test_hss_slower_than_rapoport_on_mechanical_benchmark():
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 30, "seed": 9, "damping": 1.0}})
    ms = dk.midpoint_system(sys, 1e-2)
    b = np.random.default_rng(3).standard_normal(sys.n)
    rep_h = dk.solve_hss(ms.sys, b, tol=1e-10, maxit=5000)
    rep_r = dk.solve_rapoport(ms.sys, b, tol=1e-10, maxit=250)
    assert rep_h.converged and rep_r.converged
    assert rep_h.iterations == 33 > rep_r.iterations


def test_hss_sweep_solves_through_hermitian_factor(monkeypatch):
    # alpha I + H is a HermitianFactor: one vector H-solve per sweep, no potrs
    def refused(*args, **kwargs):
        raise AssertionError("cho_solve called")

    calls = []
    solve = dk.hs_core.HermitianFactor.solve

    def counted(self, b):
        calls.append(1)
        return solve(self, b)

    monkeypatch.setattr(scipy.linalg, "cho_solve", refused)
    monkeypatch.setattr(dk.hs_core.HermitianFactor, "solve", counted)
    rng = np.random.default_rng(2)
    sysm = random_hs_system(rng, 30, cond_h=100.0, lam=1.0)
    rep = dk.solve_hss(sysm, rng.standard_normal(30), tol=1e-10, maxit=5000)
    assert rep.converged and len(calls) == rep.iterations == 77


def test_hss_requires_pd_hermitian_part():
    sysm = dk.HsSplitSystem.from_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(DefinitenessError):
        dk.solve_hss(sysm, np.ones(2))


def test_hss_shift_is_geometric_mean_of_extreme_eigenvalues(monkeypatch):
    # alpha = sqrt(lambda_min lambda_max) minimizes the HSS contraction bound
    rng = np.random.default_rng(8)
    d = np.geomspace(0.5, 200.0, 12)
    g = rng.standard_normal((12, 12))
    sysm = dk.HsSplitSystem.from_matrix(np.diag(d) + (g - g.T) / 2)
    shifts = []
    cho_factor = scipy.linalg.cho_factor

    def recorded(a, *args, **kwargs):
        shifts.append(np.diagonal(a) - d)
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recorded)
    assert dk.solve_hss(sysm, rng.standard_normal(12), tol=1e-10, maxit=5000).converged
    assert len(shifts) == 1
    assert np.allclose(shifts[0], np.sqrt(d.min() * d.max()), rtol=1e-12, atol=0)


def test_hss_factors_once_per_system(monkeypatch):
    # alpha I + H and alpha I + S are factored by the first solve and kept
    rng = np.random.default_rng(2)
    sysm = random_hs_system(rng, 30, cond_h=100.0, lam=1.0)
    fresh = dk.HsSplitSystem.from_matrix(sysm.a)
    calls = []

    def counting(name):
        factor = getattr(scipy.linalg, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return factor(*args, **kwargs)
        return counted

    for name in ("cho_factor", "lu_factor"):
        monkeypatch.setattr(scipy.linalg, name, counting(name))
    b1, b2 = rng.standard_normal((2, 30))
    assert dk.solve_hss(sysm, b1, tol=1e-10, maxit=5000).converged
    rep = dk.solve_hss(sysm, b2, tol=1e-10, maxit=5000)
    assert rep.converged and calls == ["cho_factor", "lu_factor"]
    assert np.array_equal(rep.solution, dk.solve_hss(fresh, b2, tol=1e-10, maxit=5000).solution)


# ---------------------------------------------------------------------------
# Schur-complement path
# ---------------------------------------------------------------------------

def test_schur_path_zero_column_b_reduces_to_single_solve():
    rng = np.random.default_rng(0)
    sysm = random_hs_system(rng, 8, cond_h=10.0, lam=0.5)
    f = rng.standard_normal(8)
    rep = dk.solve_via_schur(sysm.a, np.zeros((8, 0)), f, np.zeros(0))
    assert rep.converged
    assert rep.p.shape == (0,)
    assert np.linalg.norm(sysm.a @ rep.v - f) <= 1e-9 * np.linalg.norm(f)


@pytest.mark.parametrize("inner", ["gmres", "lgmres", "hss"])
def test_schur_path_zero_column_b_solves_once(inner):
    # with no B, f - B dp is f: the column solve of [B | f] already gave v
    rng = np.random.default_rng(0)
    sysm = random_hs_system(rng, 8, cond_h=10.0, lam=0.5)
    f = rng.standard_normal(8)
    rep = dk.solve_via_schur(sysm.a, np.zeros((8, 0)), f, np.zeros(0), inner_solver=inner)
    single = dk.solve(inner, dk.HsSplitSystem.from_matrix(sysm.a), f, tol=1e-13)
    assert rep.converged and rep.refinements == 0
    assert rep.inner_iterations == single.iterations
    assert np.array_equal(rep.v, single.solution)


@pytest.mark.parametrize("inner", ["rapoport", "widlund", "gmres", "lgmres"])
def test_schur_path_full_saddle_residual(inner):
    sys = dk.assemble_stokes_like(4, stabilization=0.0)
    tau = 1e-3
    a11, b_block, (nv, n_p) = dk.midpoint_saddle_blocks(sys, tau)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(nv)
    g = rng.standard_normal(n_p)
    rep = dk.solve_via_schur(a11, b_block, f, g, inner_solver=inner, tol=1e-10)
    assert rep.converged
    assert rep.relative_residual <= 1e-10
    full = np.block([[a11, b_block], [-b_block.T, np.zeros((n_p, n_p))]])
    x = np.concatenate([rep.v, rep.p])
    rhs = np.concatenate([f, g])
    assert np.linalg.norm(full @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_schur_complement_operator_hermitian_part_positive_definite():
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    a11, b_block, _ = dk.midpoint_saddle_blocks(sys, 1e-2)
    rep = dk.solve_via_schur(a11, b_block, np.ones(a11.shape[0]),
                             np.zeros(b_block.shape[1]), inner_solver="rapoport",
                             tol=1e-10)
    s1 = rep.schur_matrix
    herm = (s1 + s1.conj().T) / 2
    assert np.linalg.eigvalsh(herm)[0] > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_schur_path_gmres_iterates_to_tolerance(seed):
    # unstabilized Stokes with convection: the outer GMRES takes dozens of steps
    sys = dk.assemble_stokes_like(12, convection=50.0, stabilization=0.0)
    tau = 1e-3
    a11, b_block, (nv, _) = dk.midpoint_saddle_blocks(sys, tau)
    rhs = np.random.default_rng([seed, 3]).standard_normal(sys.n)
    rep = dk.solve_via_schur(a11, b_block, rhs[:nv], rhs[nv:], inner_solver="gmres",
                             tol=1e-10)
    assert rep.converged
    assert rep.outer_iterations > 1
    full = sys.e + (tau / 2) * (sys.r - sys.j)
    x = np.concatenate([rep.v, rep.p])
    assert np.linalg.norm(full @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_schur_build_is_one_lockstep_run(method, monkeypatch):
    # the n_p + 1 inner solves of S1 and A^{-1} f share one H-solve per step
    # (of each lockstep group for GMRES); the outer HSS solve stalls at grid 12
    sys = dk.assemble_stokes_like(5 if method == "hss" else 12, convection=50.0,
                                  stabilization=0.0)
    a11, b_block, (nv, _) = dk.midpoint_saddle_blocks(sys, 1e-3)
    rhs = np.random.default_rng([0, 3]).standard_normal(sys.n)
    inner = dk.HsSplitSystem.from_matrix(a11)
    steps = np.array([dk.solve(method, inner, col, tol=1e-13).iterations
                      for col in np.column_stack([b_block, rhs[:nv]]).T])
    calls, groups, vector_solves = [], [], []
    solve_h, lockstep, solve = (dk.hs_core.HermitianFactor.solve, dk.krylov._gmres_lockstep,
                                dk.krylov.solve)

    def counted_h(self, b):
        if self.n == nv:  # the factor of H or, for HSS, of alpha I + H
            calls.append(np.ndim(b))
        return solve_h(self, b)

    def counted_group(*args):
        groups.append(args[-2].size)
        return lockstep(*args)

    def counted_solve(method, sysm, b, **kwargs):
        rep = solve(method, sysm, b, **kwargs)
        if sysm.n == nv:
            vector_solves.append(rep.iterations)
        return rep

    monkeypatch.setattr(dk.hs_core.HermitianFactor, "solve", counted_h)
    monkeypatch.setattr(dk.krylov, "_gmres_lockstep", counted_group)
    monkeypatch.setattr(dk.krylov, "solve", counted_solve)
    rep = dk.solve_via_schur(a11, b_block, rhs[:nv], rhs[nv:], inner_solver=method, tol=1e-10)
    assert rep.converged and rep.refinements == 0
    block = calls.count(2)
    assert block <= max(len(groups), 1) * (steps.max() + 1)
    assert block >= (0 if method == "gmres" else steps.max())
    assert (len(groups) > 1) == (method in ("gmres", "lgmres"))
    # Widlund and Rapoport correct by v = w - X dp, the others by one more vector solve
    assert len(vector_solves) == (0 if method in ("widlund", "rapoport") else 1)
    assert calls.count(1) <= sum(vector_solves) + len(vector_solves)
    assert rep.inner_iterations == steps.sum() + sum(vector_solves)


@pytest.mark.parametrize("method", ["gmres", "lgmres"])
def test_schur_build_gmres_groups_stay_within_the_memory_budget(method):
    # at tau 0.1 each inner GMRES column takes about 35 steps on n_v = 60, so
    # one lockstep group over all 36 columns of [B | f] would keep about 70
    # (n_v, n_p + 1) blocks; the groups keep at most _GMRES_BLOCKS of them
    sys = dk.assemble_stokes_like(6, convection=50.0, stabilization=0.0)
    a11, b_block, (nv, n_p) = dk.midpoint_saddle_blocks(sys, 0.1)
    rhs = np.random.default_rng([0, 3]).standard_normal(sys.n)
    inner = dk.HsSplitSystem.from_matrix(a11)
    cols = np.column_stack([b_block, rhs[:nv]])

    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rep, peak = traced_peak(lambda: dk.krylov._solve_block(method, inner, cols, 1e-13, 250))
    assert np.all(rep.converged)
    whole = dk.krylov._gmres_room(int(rep.iterations.max()), nv) * (n_p + 1)
    assert whole > 3 * dk.krylov._GMRES_BLOCKS * cols.size
    # the groups' budget, the report's solution and residual blocks and one more
    assert peak <= (dk.krylov._GMRES_BLOCKS + 3) * cols.nbytes
    # and no more than the lockstep H-Lanczos build holds, in the whole Schur solve
    peaks = {}
    for inner_solver in (method, "rapoport"):
        schur, peaks[inner_solver] = traced_peak(lambda: dk.solve_via_schur(
            a11, b_block, rhs[:nv], rhs[nv:], inner_solver=inner_solver, tol=1e-10))
        assert schur.converged
    assert peaks[method] <= peaks["rapoport"]


@pytest.mark.parametrize("grid_n, tol", [(3, 1e-12), (5, 1e-10)])
def test_schur_path_hss_converges(grid_n, tol):
    # alpha = sqrt(lambda_min lambda_max) of each H; alpha = 1 stalls near 1e-9
    sys = dk.assemble_stokes_like(grid_n, convection=50.0, stabilization=0.0)
    tau = 1e-3
    a11, b_block, (nv, _) = dk.midpoint_saddle_blocks(sys, tau)
    rhs = np.random.default_rng([1, 3]).standard_normal(sys.n)
    rep = dk.solve_via_schur(a11, b_block, rhs[:nv], rhs[nv:], inner_solver="hss", tol=tol)
    assert rep.converged
    assert rep.outer_iterations > 1
    full = sys.e + (tau / 2) * (sys.r - sys.j)
    x = np.concatenate([rep.v, rep.p])
    assert np.linalg.norm(full @ x - rhs) <= tol * np.linalg.norm(rhs)


@pytest.mark.parametrize("inner, maxit, failing", [
    ("rapoport", 1, "inner rapoport solve with A"),  # the lockstep block
    ("gmres", 5, "inner gmres solve with A"),  # one lockstep group
    ("hss", 10, "outer hss solve with S1"),
])
def test_schur_path_failure_names_steps_and_residual(inner, maxit, failing):
    sys = dk.assemble_stokes_like(3, convection=50.0, stabilization=0.0)
    a11, b_block, (nv, _) = dk.midpoint_saddle_blocks(sys, 1e-3)
    rhs = np.random.default_rng([7, 3]).standard_normal(sys.n)
    with pytest.raises(SolverError) as info:
        dk.solve_via_schur(a11, b_block, rhs[:nv], rhs[nv:], inner_solver=inner, tol=1e-10,
                           maxit=maxit)
    match = re.fullmatch(rf"{failing} stopped after {maxit} of maxit={maxit} steps at "
                         r"relative residual (\S+), above (\S+)", str(info.value))
    assert match is not None, str(info.value)
    reached, tol = (float(v) for v in match.groups())
    assert tol == (1e-13 if "inner" in failing else 1e-12) and reached > tol


def test_schur_path_rejects_bad_tol_and_maxit():
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    a11, b_block, (nv, n_p) = dk.midpoint_saddle_blocks(sys, 1e-2)
    for tol, maxit in ((-1e-10, 250), (np.nan, 250), (1e-10, -1), (1e-10, 2.5)):
        with pytest.raises(ParameterError):
            dk.solve_via_schur(a11, b_block, np.ones(nv), np.zeros(n_p),
                               tol=tol, maxit=maxit)


def test_schur_path_names_a_bad_b():
    # a 1-D B of length n_v once became a (1, n_v) row and failed on g
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    a11, b_block, (nv, n_p) = dk.midpoint_saddle_blocks(sys, 1e-2)
    nan_b = np.array(b_block)
    nan_b[0, 0] = np.nan
    for b, error, match in ((b_block[:, 0], DimensionError, r"B must be a 2-D .* got shape"),
                            (b_block[None], DimensionError, r"B must be a 2-D .* got shape"),
                            (b_block[1:], DimensionError, rf"B must have shape \({nv}, {n_p}\)"),
                            (nan_b, StructureError, "B has non-finite entries")):
        with pytest.raises(error, match=match):
            dk.solve_via_schur(a11, b, np.ones(nv), np.zeros(n_p))


def test_schur_path_names_a_bad_f_or_g():
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    a11, b_block, (nv, n_p) = dk.midpoint_saddle_blocks(sys, 1e-2)
    f, g = np.ones(nv), np.zeros(n_p)
    for bad_f, bad_g, error, match in (
            (np.ones(nv + 1), g, DimensionError,
             rf"f must have shape \({nv},\), got \({nv + 1},\)"),
            (f, np.zeros(n_p + 1), DimensionError,
             rf"g must have shape \({n_p},\), got \({n_p + 1},\)"),
            (np.full(nv, np.nan), g, StructureError, "f has non-finite entries")):
        with pytest.raises(error, match=match):
            dk.solve_via_schur(a11, b_block, bad_f, bad_g)


# ---------------------------------------------------------------------------
# dispatch, reports, CSV
# ---------------------------------------------------------------------------

def test_all_solvers_agree_with_dense_solve():
    rng = np.random.default_rng(100)
    sysm = random_hs_system(rng, 35, cond_h=200.0, lam=0.8)
    b = rng.standard_normal(35)
    x_ref = np.linalg.solve(sysm.a, b)
    kappa = np.linalg.cond(sysm.a)
    tol = 1e-12
    for method in dk.krylov.SOLVER_NAMES:
        rep = dk.solve(method, sysm, b, tol=tol, maxit=5000)
        assert rep.converged, method
        assert rep.solution.dtype == np.float64, method  # real data, real arithmetic
        err = np.linalg.norm(rep.solution - x_ref) / np.linalg.norm(x_ref)
        assert err <= tol * kappa * 10, (method, err)


def test_all_solvers_complex_arithmetic():
    rng = np.random.default_rng(55)
    sysm = random_hs_system(rng, 20, cond_h=30.0, lam=0.8, complex_=True)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x_ref = np.linalg.solve(sysm.a, b)
    for method in dk.krylov.SOLVER_NAMES:
        rep = dk.solve(method, sysm, b, tol=1e-11, maxit=3000)
        assert rep.converged, method
        err = np.linalg.norm(rep.solution - x_ref) / np.linalg.norm(x_ref)
        assert err <= 1e-8, (method, err)
    # T diagonal purely imaginary in complex arithmetic
    hin = lambda x, y: np.vdot(y, sysm.h @ x)
    apply_k = lambda x: sysm.solve_h(sysm.s @ x)
    state = lanczos_init(sysm.solve_h(b), hin)
    for _ in range(10):
        state = lanczos_advance(state, apply_k, hin)
    diag = np.diag(state.tridiagonal(10))
    assert np.max(np.abs(diag.real)) <= 1e-12 * np.max(np.abs(diag.imag))


def test_unknown_solver_name():
    sysm = dk.HsSplitSystem.from_matrix(np.eye(2))
    with pytest.raises(ParameterError):
        dk.solve("sor", sysm, np.ones(2))


@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_bad_rhs_raises_typed_errors(method):
    sysm = random_hs_system(np.random.default_rng(4), 5, cond_h=10.0, lam=0.5)
    for b in (np.ones(4), np.ones((5, 1)), np.ones(6)):
        with pytest.raises(DimensionError):
            dk.solve(method, sysm, b)
    for bad in (np.nan, np.inf):
        b = np.ones(5)
        b[2] = bad
        with pytest.raises(StructureError):
            dk.solve(method, sysm, b)


@pytest.mark.parametrize("method", ["widlund", "rapoport"])
def test_bad_x_exact_raises_typed_errors(method):
    sysm = random_hs_system(np.random.default_rng(4), 5, cond_h=10.0, lam=0.5)
    b = np.ones(5)
    for x_exact in (np.ones(4), np.ones((5, 1)), np.ones(6)):
        with pytest.raises(DimensionError):
            dk.solve(method, sysm, b, x_exact=x_exact)
    for bad in (np.nan, np.inf):
        x_exact = np.ones(5)
        x_exact[2] = bad
        with pytest.raises(StructureError):
            dk.solve(method, sysm, b, x_exact=x_exact)


@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_bad_tol_and_maxit_raise_typed_errors(method):
    sysm = random_hs_system(np.random.default_rng(4), 5, cond_h=10.0, lam=0.5)
    b = np.ones(5)
    bad = [(-1e-12, 10), (np.nan, 10), (np.inf, 10), ("1e-12", 10),
           (1e-12, -1), (1e-12, 2.5), (1e-12, 10.0), (1e-12, True)]
    for tol, maxit in bad:
        with pytest.raises(ParameterError):
            dk.solve(method, sysm, b, tol=tol, maxit=maxit)
    # the edges stay valid: tol 0 never stops early, maxit 0 returns x_0 = 0
    rep = dk.solve(method, sysm, b, tol=0.0, maxit=0)
    assert rep.iterations == 0 and not rep.converged
    assert np.array_equal(rep.solution, np.zeros(5))


def test_zero_rhs_short_circuits():
    sysm = dk.HsSplitSystem.from_matrix(np.eye(3))
    rep = dk.solve_rapoport(sysm, np.zeros(3))
    assert rep.converged
    assert rep.iterations == 0
    assert np.array_equal(rep.solution, np.zeros(3))


def test_residual_history_csv_schema(tmp_path):
    rng = np.random.default_rng(0)
    sysm = random_hs_system(rng, 12, cond_h=10.0, lam=0.5)
    b = rng.standard_normal(12)
    x_ref = np.linalg.solve(sysm.a, b)
    rep = dk.solve_rapoport(sysm, b, tol=1e-12, x_exact=x_ref)
    path = tmp_path / "hist.csv"
    dk.residual_history_csv(path, rep, lam=0.5)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "res_2norm", "res_hinv_norm", "err_hnorm",
                       "bound_widlund", "bound_rapoport"]
    assert len(rows) == len(rep.residual_2norm) + 1
    assert rows[1][4] == ""  # no Widlund bound at k = 0
    assert float(rows[1][5]) == 2.0  # Rapoport bound at k = 0
    if len(rows) > 3:
        assert float(rows[3][4]) == dk.widlund_bound(0.5, 1)


# ---------------------------------------------------------------------------
# Ritz estimate of the half-width
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["widlund", "rapoport"])
@pytest.mark.parametrize("complex_", [False, True])
def test_ritz_half_width_is_the_extreme_ritz_value(method, complex_):
    # max |eig(V_k* S V_k)| of the kept basis, and never above lam
    rng = np.random.default_rng(43)
    sysm = random_hs_system(rng, 60, cond_h=50.0, lam=1.5, complex_=complex_)
    lam = dk.spectral_interval(sysm).lam
    b = rng.standard_normal(60)
    for maxit in (1, 2, 7, 15):
        rep = dk.krylov.solve(method, sysm, b, tol=1e-14, maxit=maxit, collect_basis=True)
        assert rep.iterations == maxit
        v = rep.basis
        ritz = np.max(np.abs(np.linalg.eigvals(v.conj().T @ sysm.s @ v)))
        assert rep.ritz_half_width == pytest.approx(ritz, rel=1e-12)
        assert rep.ritz_half_width <= lam * (1 + 1e-12)


def test_ritz_half_width_computed_on_first_read_only(monkeypatch):
    calls = []
    tridiagonal = scipy.linalg.eigvalsh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(1)
        return tridiagonal(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counted)
    sysm = random_hs_system(np.random.default_rng(44), 30, lam=0.8)
    rep = dk.solve_rapoport(sysm, np.ones(30))
    assert calls == []
    first = rep.ritz_half_width
    assert first > 0 and rep.ritz_half_width == first
    assert calls == [1]


def test_ritz_half_width_only_for_single_hlanczos_solves():
    rng = np.random.default_rng(45)
    sysm = random_hs_system(rng, 20, lam=0.8)
    b = rng.standard_normal(20)
    for method in ("gmres", "lgmres", "hss"):
        assert dk.krylov.solve(method, sysm, b).ritz_half_width is None
    assert dk.solve_widlund(sysm, np.zeros(20)).ritz_half_width is None
    assert dk.solve_widlund(sysm, b, maxit=0).ritz_half_width is None
    block = dk.krylov._solve_hlanczos("rapoport", sysm, np.column_stack([b, 2 * b]), 1e-12, 250)
    assert block.ritz_half_width is None


# ---------------------------------------------------------------------------
# Warm starts (x0, r0) and the reported true residual
# ---------------------------------------------------------------------------

def _rounding(sysm, b, x):
    """A bound on the rounding of one evaluation of b - A x."""
    return 10 * sysm.n * EPS * (np.linalg.norm(b) + np.linalg.norm(sysm.a, 2) * np.linalg.norm(x))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("start", ["cold", "formed", "exact", "stale"])
@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_warm_start_meets_tol_and_reports_the_true_residual(method, start, complex_):
    rng = np.random.default_rng(61)
    sysm = random_hs_system(rng, 40, cond_h=50.0, lam=1.0, complex_=complex_)
    b, x0 = rng.standard_normal(40), rng.standard_normal(40)
    # r0 formed by the solver, exact, or stale: the residual of x = 0, not of x0
    kwargs = {"cold": {}, "formed": {"x0": x0}, "exact": {"x0": x0, "r0": b - sysm.a @ x0},
              "stale": {"x0": x0, "r0": b}}[start]
    rep = dk.solve(method, sysm, b, tol=1e-10, maxit=400, **kwargs)
    r = b - sysm.a @ rep.solution
    assert rep.converged and np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(rep.residual - r) <= _rounding(sysm, b, rep.solution)
    assert rep.residual_2norm[-1] == np.linalg.norm(rep.residual)
    assert len(rep.residual_2norm) == rep.iterations + 1


@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_warm_start_meeting_tol_takes_no_step(method):
    rng = np.random.default_rng(62)
    sysm = random_hs_system(rng, 30, cond_h=20.0, lam=0.8)
    b = rng.standard_normal(30)
    x = np.linalg.solve(sysm.a, b)
    rep = dk.solve(method, sysm, b, tol=1e-10, x0=x)
    assert rep.converged and rep.iterations == 0
    assert np.array_equal(rep.solution, x)
    assert np.array_equal(rep.residual, b - sysm.a @ x)
    # an r0 that claims tol is checked: the true residual of x0 replaces it
    x0 = rng.standard_normal(30)
    rep = dk.solve(method, sysm, b, tol=1e-10, maxit=400, x0=x0, r0=np.zeros(30))
    assert rep.converged and rep.iterations > 0
    assert np.linalg.norm(b - sysm.a @ rep.solution) <= 1e-10 * np.linalg.norm(b)
    # maxit 0 returns x0 with its true residual
    rep = dk.solve(method, sysm, b, maxit=0, x0=x0, r0=b)
    assert rep.iterations == 0 and not rep.converged
    assert np.array_equal(rep.solution, x0)
    assert np.array_equal(rep.residual, b - sysm.a @ x0)


@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_zero_rhs_is_solved_by_zero_from_any_start(method):
    sysm = random_hs_system(np.random.default_rng(63), 8, cond_h=10.0, lam=0.5)
    rep = dk.solve(method, sysm, np.zeros(8), x0=np.ones(8), r0=-sysm.a @ np.ones(8))
    assert rep.converged and rep.iterations == 0 and rep.rhs_norm == 0.0
    assert not np.any(rep.solution) and not np.any(rep.residual)
    assert rep.final_relative_residual == 0.0


@pytest.mark.parametrize("method", SOLVER_NAMES)
def test_bad_warm_start_raises_typed_errors(method):
    sysm = random_hs_system(np.random.default_rng(4), 5, cond_h=10.0, lam=0.5)
    b = np.ones(5)
    with pytest.raises(ParameterError, match="x0 is missing"):
        dk.solve(method, sysm, b, r0=b)
    for bad in (np.ones(4), np.ones((5, 1))):
        with pytest.raises(DimensionError, match="x0"):
            dk.solve(method, sysm, b, x0=bad)
        with pytest.raises(DimensionError, match="r0"):
            dk.solve(method, sysm, b, x0=np.ones(5), r0=bad)
    x0 = np.ones(5)
    x0[1] = np.nan
    with pytest.raises(StructureError, match="x0"):
        dk.solve(method, sysm, b, x0=x0)


def test_block_report_carries_each_columns_true_residual():
    rng = np.random.default_rng(64)
    sysm = random_hs_system(rng, 30, cond_h=50.0, lam=1.0)
    b = np.column_stack([rng.standard_normal(30), np.zeros(30), rng.standard_normal(30)])
    rep = dk.krylov._solve_hlanczos("rapoport", sysm, b, 1e-10, 250)
    r = b - sysm.a @ rep.solution
    assert rep.residual.shape == b.shape
    assert np.max(np.abs(rep.residual - r)) <= _rounding(sysm, b[:, 0], rep.solution[:, 0])
    assert np.array_equal(np.linalg.norm(rep.residual, axis=0), rep.residual_2norm)


# ---------------------------------------------------------------------------
# CSR product operators against dense products
# ---------------------------------------------------------------------------

def _dense_products(sysm):
    """``sysm`` with ``a``, ``h`` and ``s`` behind pass-through operators: dense products."""
    dense = dataclasses.replace(sysm, **{f: _CountingOperator(getattr(sysm, f)) for f in "ahs"})
    # the HSS shifts factor the dense fields, which the pass-through hides
    vars(dense)["hss_factors"] = sysm.hss_factors
    return dense


def _complex_variant(a):
    """A + i |S| / 2, whose Hermitian part is that of A: complex data on the same pattern."""
    return a + 0.5j * np.abs(a - a.T)


def _assert_same_solves(method, csr, dense):
    """Equal steps and ``converged``, and solutions within 1e-12 relative per column.

    Plain GMRES runs on A itself (kappa = 1.7e5 at Stokes grid 16, tau
    1e-4): on dense products alone, a 1e-16 relative change of b moves its
    tol-1e-10 solution by 2.6e-12 to 7.3e-12, and CSR products by 1.9e-12
    to 6.5e-12.  Its solutions are held to 1e-10, the tolerance.  The
    reports may be blocks.
    """
    assert np.array_equal(csr.iterations, dense.iterations), method
    assert np.array_equal(csr.converged, dense.converged), method
    x, y = csr.solution, dense.solution
    rel = np.linalg.norm(x - y, axis=0) / np.linalg.norm(y, axis=0)
    assert np.all(rel <= (1e-10 if method == "gmres" else 1e-12)), (method, rel)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("tau", [1e-3, 1e-4])
def test_csr_products_match_dense_products_on_stokes(tau, complex_):
    model = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 16, "viscosity": 100.0, "stabilization": 0.005}})
    sysm = dk.midpoint_system(model, tau).sys
    rng = np.random.default_rng(5)
    b = rng.standard_normal(sysm.n)
    if complex_:
        sysm = dk.HsSplitSystem.from_matrix(_complex_variant(sysm.a))
        b = b + 1j * rng.standard_normal(sysm.n)
    assert isinstance(sysm.ops[0], scipy.sparse.csr_array)
    dense = _dense_products(sysm)
    for method in SOLVER_NAMES:
        csr = dk.solve(method, sysm, b, tol=1e-10)
        _assert_same_solves(method, csr, dk.solve(method, dense, b, tol=1e-10))
        if method in ("widlund", "rapoport"):
            # the H-norm error history runs its products with H on the operators too
            x_ref = csr.solution
            errs = [dk.solve(method, sys_, b, tol=1e-10, x_exact=x_ref).error_h_norm
                    for sys_ in (sysm, dense)]
            assert np.allclose(errs[0], errs[1], rtol=1e-10, atol=1e-14 * errs[1][0])


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_csr_products_match_dense_products_on_schur_block(complex_):
    # the lockstep block of the Schur path: unstabilized Stokes, [B | f]
    a11, b_block, _ = dk.midpoint_saddle_blocks(dk.assemble_stokes_like(12, convection=50.0),
                                                1e-3)
    f = np.random.default_rng(6).standard_normal(a11.shape[0])
    if complex_:
        a11, f = _complex_variant(a11), f + 1j * f[::-1]
    sysm = dk.HsSplitSystem.from_matrix(np.array(a11))
    assert isinstance(sysm.ops[0], scipy.sparse.csr_array)
    dense = _dense_products(sysm)
    rhs = np.column_stack([b_block, f])
    for method in SOLVER_NAMES:
        csr = dk.krylov._solve_block(method, sysm, rhs, 1e-13, 250)
        assert np.all(csr.converged), method
        _assert_same_solves(method, csr, dk.krylov._solve_block(method, dense, rhs, 1e-13, 250))


@pytest.mark.parametrize("inner", ["rapoport", "lgmres"])
def test_schur_path_on_csr_products_matches_dense_products(inner, monkeypatch):
    # A11 of unstabilized Stokes at grid 12 (n_v = 264) is sparse; raising
    # the size threshold keeps every product with A11 on the dense array
    a11, b_block, (n_v, n_p) = dk.midpoint_saddle_blocks(
        dk.assemble_stokes_like(12, convection=50.0), 1e-3)
    rhs = np.random.default_rng(8).standard_normal(n_v + n_p)
    reps = []
    for min_n in (dk.hs_core._CSR_MIN_N, n_v + 1):
        monkeypatch.setattr(dk.hs_core, "_CSR_MIN_N", min_n)
        reps.append(dk.solve_via_schur(a11, b_block, rhs[:n_v], rhs[n_v:], inner_solver=inner,
                                       tol=1e-10))
    csr, dense = reps
    assert (csr.inner_iterations, csr.outer_iterations, csr.refinements) == \
        (dense.inner_iterations, dense.outer_iterations, dense.refinements)
    assert csr.converged and dense.converged
    for x, y in ((csr.v, dense.v), (csr.p, dense.p)):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


# ---------------------------------------------------------------------------
# Band Cholesky factor of H against the dense factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [1e-3, 1e-4])
def test_band_factor_matches_dense_factor_on_stokes(tau, monkeypatch):
    # stabilized Stokes at grid 16 (n = 735, kd = 16) takes the band factor;
    # raising the size threshold gives the same H its dense potrf factor
    model = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 16, "viscosity": 100.0, "stabilization": 0.005}})
    b = np.random.default_rng(5).standard_normal(model.n)
    methods = ("widlund", "rapoport", "lgmres")
    runs = []
    for min_n in (dk.hs_core._BAND_MIN_N, model.n + 1):
        monkeypatch.setattr(dk.hs_core, "_BAND_MIN_N", min_n)
        sysm = dk.midpoint_system(model, tau).sys
        runs.append((sysm.h_factor, dk.spectral_interval(sysm).lam,
                     [dk.solve(method, sysm, b, tol=1e-10) for method in methods]))
    (band, band_lam, band_reps), (dense, dense_lam, dense_reps) = runs
    assert band.band.shape == (17, 735) and dense.band is None
    assert band_lam == pytest.approx(dense_lam, rel=1e-12, abs=0)
    for method, rep, ref in zip(methods, band_reps, dense_reps):
        assert rep.converged, method
        _assert_same_solves(method, rep, ref)


@pytest.mark.parametrize("inner", ["widlund", "rapoport", "lgmres"])
def test_schur_path_on_band_factor_keeps_step_counts(inner, monkeypatch):
    # A11 of unstabilized Stokes at grid 12 (n_v = 264, kd = 12) takes the
    # band factor; its wide lockstep blocks of [B | f] go through the blocked
    # sweep over the row slabs of L, and its vectors through pbtrs
    a11, b_block, (n_v, n_p) = dk.midpoint_saddle_blocks(
        dk.assemble_stokes_like(12, convection=50.0), 1e-3)
    assert dk.HsSplitSystem.from_matrix(a11).h_factor.band.shape == (13, n_v)
    rhs = np.random.default_rng(8).standard_normal(n_v + n_p)
    reps = []
    for min_n in (dk.hs_core._BAND_MIN_N, n_v + 1):
        monkeypatch.setattr(dk.hs_core, "_BAND_MIN_N", min_n)
        reps.append(dk.solve_via_schur(a11, b_block, rhs[:n_v], rhs[n_v:], inner_solver=inner,
                                       tol=1e-10))
    band, dense = reps
    assert (band.inner_iterations, band.outer_iterations, band.refinements) == \
        (dense.inner_iterations, dense.outer_iterations, dense.refinements)
    assert band.converged and dense.converged
    for x, y in ((band.v, dense.v), (band.p, dense.p)):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)
