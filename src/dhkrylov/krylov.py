"""Krylov solvers for A = H + S with positive definite Hermitian part.

Preconditioning A x = b by its Hermitian part gives (I + K) x = b_hat with
K = H^{-1} S and b_hat = H^{-1} b.  K is skew-adjoint in the H-inner
product (its H-adjoint is -K), so an H-orthonormal basis of the Krylov
spaces K_k(K, b_hat) is generated by a genuine three-term recurrence

    K V_k = V_{k+1} T_{k+1,k},      V_k* H V_k = I_k,

with T tridiagonal and skew-Hermitian (V_k* S V_k = T_{k,k}).  On top of
this engine:

* Widlund's method: oblique projection, x_k = V_k y_k with
  (I_k + T_{k,k}) y_k = ||b_hat||_H e_1 (the Euclidean orthogonality
  V_k* r_k = 0); I + skew-Hermitian is always nonsingular.
* Rapoport's method: minimal residual in the H^{-1} norm; y_k solves the
  tridiagonal least squares min || ||b_hat||_H e_1 - T~_{k+1,k} y ||_2.
  Both iterates come from one QR of T~ = [I + T_{k,k}; t_{k+1,k} e_k*],
  updated by one plane rotation per step as in MINRES, with O(n) vector
  updates and no rebuild of V_k y_k.
* GMRES (classical Gram-Schmidt done twice, no restarts, basis capped at
  min(maxit, n) vectors), optionally applied to the left-preconditioned
  system H^{-1} A x = b_hat, which searches the same Krylov spaces as the
  two methods above.
* The HSS iteration alternating shifted solves with alpha*I + H and
  alpha*I + S (exact inner solves via upfront factorizations), at the shift
  alpha = sqrt(lambda_min lambda_max) of H that minimizes its contraction
  bound.
* A Schur-complement driver for saddle systems [[A, B], [-B*, 0]] whose
  Hermitian part is singular only in the trailing block.  It forms
  A^{-1} [B | f] from inner solves with A, builds S1 = B* A^{-1} B and runs
  the same method on S1, whose Hermitian part is positive definite.  For
  Widlund and Rapoport the inner solves are one lockstep block run of the
  recurrence over all columns of [B | f].

All solvers start from x_0 = 0 and stop when the relative 2-norm residual
of the *original* system drops below ``tol``.  A Widlund or Rapoport step
costs one H-solve and one multiplication with S for the recurrence, and one
multiplication with A for that true residual, plus O(n) vector work; in a
block run each of these takes all running columns at once.  An L-GMRES step
makes one H-solve and two multiplications with A, plus five products of the
k-vector basis with a vector.
Residual histories are kept per iteration for comparison plots.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .bounds import rapoport_bound, widlund_bound
from .errors import (DefinitenessError, DimensionError, ParameterError, SolverError,
                     StructureError)
from .hs_core import Definiteness, HsSplitSystem

#: Lucky-breakdown threshold for the Lanczos subdiagonal, relative to ||b_hat||_H.
BREAKDOWN_REL = 1e-14

SOLVER_NAMES = ("widlund", "rapoport", "gmres", "lgmres", "hss")


# ---------------------------------------------------------------------------
# H-Lanczos engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LanczosState:
    """State of the H-orthonormal three-term recurrence.

    ``basis`` holds v_1 .. v_m (m = k or k+1 after k advances, depending on
    breakdown); ``t_diag`` the purely imaginary diagonal entries of T
    (numerically tiny real parts in real arithmetic), ``t_sub`` the real
    nonnegative subdiagonal entries t_{k+1,k}.
    """

    basis: tuple
    t_diag: tuple
    t_sub: tuple
    bhat_norm: float
    breakdown: bool = False
    breakdown_step: int | None = None

    @property
    def k(self):
        return len(self.basis)

    @property
    def v_curr(self):
        return self.basis[-1]

    @property
    def v_prev(self):
        return self.basis[-2] if len(self.basis) > 1 else None

    def basis_matrix(self, k=None):
        cols = self.basis if k is None else self.basis[:k]
        return np.column_stack(cols)

    def tridiagonal(self, k):
        """Dense T_{k,k} from the recurrence coefficients."""
        vals = self.t_diag[:k]
        dtype = np.result_type(*(np.asarray(v).dtype for v in vals)) if vals else float
        t = np.zeros((k, k), dtype=dtype)
        for i, v in enumerate(vals):
            t[i, i] = v
        for i in range(k - 1):
            t[i + 1, i] = self.t_sub[i]
            t[i, i + 1] = -np.conj(self.t_sub[i])
        return t


def lanczos_init(bhat, h_inner_fn) -> LanczosState:
    """Start the recurrence with v_1 = b_hat / ||b_hat||_H."""
    bhat = np.asarray(bhat)
    beta = float(np.sqrt(max(h_inner_fn(bhat, bhat).real, 0.0)))
    if beta == 0.0:
        raise SolverError("cannot start Lanczos from a zero right-hand side")
    return LanczosState(
        basis=(bhat / beta,),
        t_diag=(),
        t_sub=(),
        bhat_norm=beta,
    )


def lanczos_advance(state: LanczosState, apply_k, h_inner_fn) -> LanczosState:
    """Extend the recurrence by one step.

    Appends t_{k,k} and t_{k+1,k}; on lucky breakdown (subdiagonal at or
    below ``BREAKDOWN_REL * ||b_hat||_H``) the state is flagged and no new
    basis vector is added: the Krylov space is K-invariant and contains the
    solution of (I + K) x = b_hat.
    """
    if state.breakdown:
        raise SolverError("Lanczos recurrence already broke down")
    v = state.v_curr
    u = apply_k(v)
    t_kk = h_inner_fn(u, v)
    w = u - t_kk * v
    if state.v_prev is not None:
        w = w + state.t_sub[-1] * state.v_prev
    beta = float(np.sqrt(max(h_inner_fn(w, w).real, 0.0)))
    t_diag = state.t_diag + (t_kk,)
    t_sub = state.t_sub + (beta,)
    if beta <= BREAKDOWN_REL * state.bhat_norm:
        return replace(state, t_diag=t_diag, t_sub=t_sub,
                       breakdown=True, breakdown_step=len(t_diag))
    return replace(state, basis=state.basis + (w / beta,), t_diag=t_diag, t_sub=t_sub)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    """Outcome of one iterative solve.

    Residual histories are absolute norms indexed by iteration, starting at
    k = 0 (the zero iterate).  ``error_h_norm`` is filled only when a
    reference solution was supplied.  ``breakdown`` is the step index of a
    lucky Lanczos/Arnoldi breakdown, or None.  A 1-D Widlund or Rapoport
    solve keeps the recurrence coefficients t_kk and t_{k+1,k} of each step
    in ``t_diag`` and ``t_sub``, from which :attr:`ritz_half_width` is
    computed on first read.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual_2norm: np.ndarray
    residual_hinv_norm: np.ndarray | None = None
    residual_precond_norm: np.ndarray | None = None
    error_h_norm: np.ndarray | None = None
    breakdown: int | None = None
    wall_time: float = 0.0
    method: str = ""
    basis: np.ndarray | None = None
    rhs_norm: float = 0.0
    t_diag: list | None = None
    t_sub: list | None = None

    @property
    def final_relative_residual(self):
        if self.rhs_norm == 0.0:
            return 0.0
        return float(self.residual_2norm[-1] / self.rhs_norm)

    @functools.cached_property
    def ritz_half_width(self):
        """Largest |eigenvalue| of T_k = V_k* S V_k: a Ritz lower bound on ``lam``.

        -i T_k is Hermitian tridiagonal with diagonal Im t_kk and
        off-diagonal moduli t_{k+1,k}, so a diagonal unitary scaling makes
        it real symmetric.  None when the solve kept no coefficients (other
        methods, blocks, k = 0).
        """
        if not self.t_diag:
            return None
        k = len(self.t_diag)
        theta = scipy.linalg.eigvalsh_tridiagonal(np.imag(self.t_diag), self.t_sub[:k - 1])
        return float(np.max(np.abs(theta)))


def _as_rhs(b, *shape, name="right-hand side"):
    """``b`` as an array, checked to have ``shape`` and finite entries."""
    b = np.asarray(b)
    if b.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise StructureError(f"{name} has non-finite entries")
    return b


def _as_x_exact(x_exact, n):
    return None if x_exact is None else _as_rhs(x_exact, n, name="x_exact")


def check_tol_maxit(tol, maxit):
    """Reject a negative or non-finite ``tol`` and a negative or non-integer ``maxit``."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
            or not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be a finite nonnegative number, got {tol!r}")
    if isinstance(maxit, bool) or not isinstance(maxit, numbers.Integral) or maxit < 0:
        raise ParameterError(f"maxit must be a nonnegative integer, got {maxit!r}")


def _zero_rhs_report(n, dtype, method):
    return SolveReport(
        solution=np.zeros(n, dtype=dtype),
        iterations=0,
        converged=True,
        residual_2norm=np.zeros(1),
        wall_time=0.0,
        method=method,
        rhs_norm=0.0,
    )


def _rotation(a, b):
    """Unitary 2x2 rotation G with G [a, b]^T = [r, 0]^T for a != 0; returns (c, s, r).

    Branch-free, so it applies elementwise to arrays of pairs (a, b).
    """
    absa = abs(a)
    alpha = a / absa
    norm = np.sqrt(absa * absa + abs(b) * abs(b))
    return absa / norm, alpha * np.conj(b) / norm, alpha * norm


def _givens(a, b):
    """:func:`_rotation` for a Python scalar a and a real b >= 0, extended to a == 0 or b == 0.

    Returns Python scalars, so the GMRES loop never touches numpy scalars.
    """
    if b == 0:
        return 1.0, 0.0, a
    if a == 0:
        return 0.0, 1.0, b
    absa = abs(a)
    alpha = a / absa
    norm = math.sqrt(absa * absa + b * b)
    return absa / norm, alpha * b / norm, alpha * norm


# Column-wise kernels of the H-Lanczos driver: a vector gets np.vdot and Python
# floats, an (n, m) block gets length-m arrays, one entry per column.

def _cdot(x, y):
    """x* y of each column."""
    if x.ndim == 1:
        return np.vdot(x, y)
    return np.einsum("ij,ij->j", x.conj(), y)


def _cnorm(x):
    """2-norm of each column."""
    if x.ndim == 1:
        return float(np.linalg.norm(x))
    return np.linalg.norm(x, axis=0)


def _hnorm(x, hx):
    """H-norm of each column of ``x``, given ``hx`` = H x."""
    z = _cdot(x, hx)
    if x.ndim == 1:
        return float(np.sqrt(max(z.real, 0.0)))
    return np.sqrt(np.maximum(z.real, 0.0))


def _keep(a, keep):
    """The columns ``keep`` of a block or of a per-column array; scalars pass through."""
    return a[..., keep] if np.ndim(a) else a


# ---------------------------------------------------------------------------
# Widlund's and Rapoport's methods: one driver over the H-Lanczos recurrence
# ---------------------------------------------------------------------------

def _solve_hlanczos(method, sys, b, tol, maxit, x_exact=None,
                    collect_basis=False) -> SolveReport:
    """Widlund or Rapoport iterate from one rotated QR of T~_{k+1,k}.

    The recurrence carries H v next to v, as preconditioned MINRES does, so
    step k makes one H-solve and no product with H: with s = S v_k,

        w   = H^{-1} s - t_kk v_k  + t_{k,k-1} v_{k-1},   t_kk = v_k* s,
        H w = s        - t_kk Hv_k + t_{k,k-1} Hv_{k-1},  t_{k+1,k} = sqrt(w* H w).

    It starts from H v_1 = b / ||b_hat||_H, where ||b_hat||_H^2 = b_hat* b.

    Step k turns column k of T~ = [I + T_{k,k}; t_{k+1,k} e_k*] into
    (r_{k-2,k}, r_{k-1,k}, mu_k, t_{k+1,k}) with the last two plane
    rotations; a new rotation G_k = (c_k, s_k) maps (mu_k, t_{k+1,k}) to
    (r_kk, 0).  With g_k the k-th entry of the rotated right side
    ||b_hat||_H e_1 before G_k and the unscaled direction
    p_k = v_k - r_{k-2,k} d_{k-2} - r_{k-1,k} d_{k-1}, where d = V R^{-1}:

        Rapoport:  x^R_k = x^R_{k-1} + (c_k g_k / r_kk) p_k
        Widlund:   x^W_k = x^R_{k-1} + (g_k / mu_k) p_k

    The Widlund line holds because G_1 .. G_{k-1} act on rows 1..k only, so
    Q_{k-1}* (I + T_{k,k}) = U_k is R_{k-1} bordered by the column
    (r_{k-2,k}, r_{k-1,k}, mu_k), and V_k U_k^{-1} Q_{k-1}* ||b_hat||_H e_1 is
    x^R_{k-1} + (g_k / mu_k) p_k.  mu_k != 0 since I + T_{k,k}, identity plus
    skew, is nonsingular.

    As ||b - A x||_{H^{-1}} = || ||b_hat||_H e_1 - T~ y ||_2 for x = V_k y,
    the Rapoport residual in the H^{-1} norm is |g_{k+1}|.  Only the last
    two rotations, directions and basis vectors are kept.  Each step
    computes the true residual b - A x_k, which decides stopping.

    ``b`` is one checked right side of shape (n,) or a block of m of shape
    (n, m).  A block runs the m recurrences in lockstep: every vector above
    becomes an (n, m) block and every scalar a length-m array, so a step
    makes one H-solve, one S-product and one A-product with m right sides.
    A column leaves the working block at its own stopping step; a zero
    column is solved by x = 0 in 0 steps.  The report of a block holds
    per-column arrays: ``iterations``, ``converged``, ``breakdown`` (0 for
    none), ``rhs_norm`` and, in ``residual_2norm``, the final true residual.
    ``x_exact`` and ``collect_basis`` apply to a single right side.
    """
    start = time.perf_counter()
    if sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise DefinitenessError("this method requires a positive definite Hermitian part")
    check_tol_maxit(tol, maxit)
    block = b.ndim == 2
    bnorm = _cnorm(b)
    dtype = np.result_type(sys.a.dtype, b.dtype)
    if block:
        # per-column outcome, filled in as columns leave the working block
        rhs_norm, m = bnorm, b.shape[1]
        solution = np.zeros(b.shape, dtype=dtype)
        iterations, breakdowns = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
        converged_cols, final_res = bnorm == 0.0, np.zeros(m)
        cols = np.flatnonzero(bnorm)
        b, bnorm = b[:, cols], bnorm[cols]
    elif bnorm == 0.0:
        return _zero_rhs_report(sys.n, sys.a.dtype, method)
    bhat = sys.solve_h(b)
    beta0 = _hnorm(bhat, b)
    if np.count_nonzero(beta0 == 0.0):
        raise SolverError("cannot start Lanczos from a zero right-hand side")
    rapoport = method == "rapoport"

    res_hist = [bnorm]
    rhi_hist = [beta0] if rapoport else None
    err_hist = None if x_exact is None else [_h_norm_of(sys, x_exact)]
    x = x_r = np.zeros(b.shape, dtype=dtype)
    v, hv = bhat / beta0, b / beta0
    v_prev = hv_prev = 0.0
    beta = 0.0
    basis, t_diag, t_sub = [], [], []
    g = beta0
    # rotations and directions of steps k-1 and k-2: identity and zero at first
    rot1 = rot2 = (1.0, 0.0)
    d1 = d2 = 0.0
    converged = broke = False
    k = 0
    for k in range(1, maxit + 1):
        if collect_basis:
            basis.append(v)
        sv = sys.s @ v
        t_kk = _cdot(v, sv)
        top = -beta
        w = sys.solve_h(sv) - t_kk * v + beta * v_prev
        hw = sv - t_kk * hv + beta * hv_prev
        beta = _hnorm(w, hw)
        broke = beta <= BREAKDOWN_REL * beta0
        t_diag.append(t_kk)
        t_sub.append(beta)

        mu = 1.0 + t_kk
        (c2, s2), (c1, s1) = rot2, rot1
        r2, r1 = s2 * top, c1 * (c2 * top) + s1 * mu
        mu = -np.conj(s1) * (c2 * top) + c1 * mu
        p = v - r2 * d2 - r1 * d1
        c, s, r_kk = _rotation(mu, beta)
        x_w = x_r + (g / mu) * p
        rot2, rot1, d2, d1 = rot1, (c, s), d1, p / r_kk
        x_r = x_r + (c * g) * d1
        g = -np.conj(s) * g
        x = x_r if rapoport else x_w
        r = b - sys.a @ x
        rn = _cnorm(r)
        res_hist.append(rn)
        if rapoport:
            rhi_hist.append(abs(g))
        if err_hist is not None:
            err_hist.append(_h_norm_of(sys, x_exact - x))
        converged = rn <= tol * bnorm
        stop = converged | broke | (k == maxit)
        if not block:
            if stop:
                break
        elif stop.any() or not stop.size:
            done = cols[stop]
            solution[:, done] = x[:, stop]
            iterations[done], converged_cols[done] = k, converged[stop]
            breakdowns[done], final_res[done] = np.where(broke[stop], k, 0), rn[stop]
            keep = ~stop
            cols = cols[keep]
            if not cols.size:
                break
            (b, bnorm, beta0, beta, g, x_r, v, hv, w, hw, d1, d2) = (
                _keep(a, keep) for a in (b, bnorm, beta0, beta, g, x_r, v, hv, w, hw, d1, d2))
            rot1, rot2 = (tuple(_keep(a, keep) for a in rot) for rot in (rot1, rot2))
        v_prev, hv_prev, v, hv = v, hv, w / beta, hw / beta
    if block:
        return SolveReport(
            solution=solution, iterations=iterations, converged=converged_cols,
            residual_2norm=final_res, breakdown=breakdowns,
            wall_time=time.perf_counter() - start, method=method, rhs_norm=rhs_norm,
        )
    return SolveReport(
        solution=x,
        iterations=k,
        converged=converged,
        residual_2norm=np.asarray(res_hist),
        residual_hinv_norm=np.asarray(rhi_hist) if rapoport else None,
        error_h_norm=np.asarray(err_hist) if err_hist is not None else None,
        breakdown=k if broke else None,
        wall_time=time.perf_counter() - start,
        method=method,
        basis=np.column_stack(basis) if basis else None,
        rhs_norm=bnorm,
        t_diag=t_diag,
        t_sub=t_sub,
    )


def _h_norm_of(sys, v):
    return float(np.sqrt(max(np.vdot(v, sys.h @ v).real, 0.0)))


def solve_widlund(sys: HsSplitSystem, b, tol=1e-12, maxit=250, x_exact=None,
                  collect_basis=False) -> SolveReport:
    """Oblique-projection method on (I + K) x = b_hat built on H-Lanczos.

    The k-th iterate is x_k = V_k y_k with (I_k + T_{k,k}) y_k =
    ||b_hat||_H e_1; the small system is skew-Hermitian plus identity and
    therefore always nonsingular.
    """
    return _solve_hlanczos("widlund", sys, _as_rhs(b, sys.n), tol, maxit,
                           _as_x_exact(x_exact, sys.n), collect_basis)


def solve_rapoport(sys: HsSplitSystem, b, tol=1e-12, maxit=250, x_exact=None,
                   collect_basis=False) -> SolveReport:
    """Minimal residual method in the H^{-1} norm on the same Krylov spaces.

    Solves min_y || ||b_hat||_H e_1 - T~_{k+1,k} y ||_2 with the tridiagonal
    extended matrix T~ = [I + T_{k,k}; t_{k+1,k} e_k*], updated by plane
    rotations.  ``residual_hinv_norm`` records that minimum, the last entry
    of the rotated right side; in exact arithmetic it equals the H^{-1}-norm
    of the true residual b - A x_k, the quantity the Rapoport bound bounds.
    """
    return _solve_hlanczos("rapoport", sys, _as_rhs(b, sys.n), tol, maxit,
                           _as_x_exact(x_exact, sys.n), collect_basis)


# ---------------------------------------------------------------------------
# GMRES (classical Gram-Schmidt twice, no restarts), plain or left-preconditioned
# ---------------------------------------------------------------------------

def solve_gmres(a, b, tol=1e-12, maxit=250, precond=None, x_exact=None,
                collect_basis=False, h_for_metrics=None) -> SolveReport:
    """GMRES by classical Gram-Schmidt done twice; optional left preconditioning by an HPD solve.

    Without ``precond`` the iterates minimize ||b - A z||_2 over K_k(A, b).
    With ``precond`` (a callable applying H^{-1}) they minimize the
    preconditioned residual ||b_hat - H^{-1} A z||_2 over K_k(H^{-1}A,
    b_hat), the same search spaces as the Widlund/Rapoport methods.
    Stopping still tests the original-system relative residual.

    The Arnoldi basis is the rows of one (m + 1, n) array with
    m = min(maxit, n), since a Krylov space in C^n has dimension at most n.
    Each new vector is orthogonalized against all rows by two block passes
    of classical Gram-Schmidt ("twice is enough": Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50 (2005) 1069-1075), and only the new
    Hessenberg column is rotated, so a step costs four GEMVs, one triangular
    solve and one GEMV for x_k = V_k y beyond its operator products.
    """
    start = time.perf_counter()
    a = np.asarray(a)
    n = a.shape[0]
    check_tol_maxit(tol, maxit)
    b = _as_rhs(b, n)
    x_exact = _as_x_exact(x_exact, n)
    bnorm = float(np.linalg.norm(b))
    method = "lgmres" if precond is not None else "gmres"
    if bnorm == 0.0:
        return _zero_rhs_report(n, a.dtype, method)
    if precond is None:
        apply_op = lambda z: a @ z
        r0 = b
    else:
        apply_op = lambda z: precond(a @ z)
        r0 = precond(b)
    beta = float(np.linalg.norm(r0))
    m = min(maxit, n)
    v0 = np.asarray(r0) / beta
    # The first operator product fixes the arithmetic: real data stay real.
    w = apply_op(v0)
    dtype = np.result_type(a.dtype, b.dtype, v0.dtype, w.dtype)
    basis = np.zeros((m + 1, n), dtype=dtype)
    basis[0] = v0
    r_mat = np.zeros((m, m), dtype=dtype)
    g = [beta]
    rotations = []

    res_hist = [bnorm]
    pre_hist = [beta]
    err_hist = None
    if x_exact is not None and h_for_metrics is not None:
        err_hist = [float(np.sqrt(max(np.vdot(x_exact, h_for_metrics @ x_exact).real, 0.0)))]
    x = np.zeros(n, dtype=dtype)
    converged = happy = False
    k = 0
    for k in range(1, m + 1):
        if k > 1:
            w = apply_op(basis[k - 1])
        v_k = basis[:k]
        h = (v_k @ w.conj()).conj()
        w = w - h @ v_k
        h2 = (v_k @ w.conj()).conj()
        w -= h2 @ v_k
        hnorm = float(np.linalg.norm(w))
        happy = hnorm <= 1e-14 * beta
        if not happy:
            basis[k] = w / hnorm
        # rotate the new column and update the rotated right side
        col = (h + h2).tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], \
                -s.conjugate() * col[i] + c * col[i + 1]
        c, s, col[k - 1] = _givens(col[k - 1], hnorm)
        rotations.append((c, s))
        r_mat[:k, k - 1] = col
        g[k - 1:] = c * g[k - 1], -s.conjugate() * g[k - 1]

        y = scipy.linalg.solve_triangular(r_mat[:k, :k], g[:k], check_finite=False)
        x = y @ v_k
        rn = float(np.linalg.norm(b - a @ x))
        res_hist.append(rn)
        pre_hist.append(abs(g[k]))
        if err_hist is not None:
            d = x_exact - x
            err_hist.append(float(np.sqrt(max(np.vdot(d, h_for_metrics @ d).real, 0.0))))
        converged = rn <= tol * bnorm
        if converged or happy:
            break
    return SolveReport(
        solution=x,
        iterations=k,
        converged=converged,
        residual_2norm=np.asarray(res_hist),
        residual_precond_norm=np.asarray(pre_hist),
        error_h_norm=np.asarray(err_hist) if err_hist is not None else None,
        breakdown=k if happy and not converged else None,
        wall_time=time.perf_counter() - start,
        method=method,
        basis=basis[:k].T.copy() if collect_basis and k else None,
        rhs_norm=bnorm,
    )


# ---------------------------------------------------------------------------
# HSS iteration
# ---------------------------------------------------------------------------

def solve_hss(sys: HsSplitSystem, b, tol=1e-12, maxit=250) -> SolveReport:
    """Alternating shifted Hermitian/skew-Hermitian solves.

    (alpha I + H) x^{k+1/2} = (alpha I - S) x^k + b
    (alpha I + S) x^{k+1}   = (alpha I - H) x^{k+1/2} + b

    With exact inner solves (upfront factorizations, reused every sweep)
    the iteration converges for every alpha > 0 when H is positive
    definite.  It runs at alpha = sqrt(lambda_min lambda_max) of H, which
    minimizes its contraction bound (Bai, Golub & Ng, SIMAX 24 (2003)
    603-626).
    """
    if sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise DefinitenessError("hss requires a positive definite Hermitian part")
    check_tol_maxit(tol, maxit)
    start = time.perf_counter()
    b = _as_rhs(b, sys.n)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return _zero_rhs_report(sys.n, sys.a.dtype, "hss")
    eigs = sys.h_eigenvalues
    alpha = float(np.sqrt(eigs[0] * eigs[-1]))
    n = sys.n
    eye = np.eye(n, dtype=sys.a.dtype)
    ch = scipy.linalg.cho_factor(alpha * eye + sys.h, lower=True)
    lus = scipy.linalg.lu_factor(alpha * eye + sys.s)

    x = np.zeros(n, dtype=np.result_type(sys.a.dtype, b.dtype))
    res_hist = [bnorm]
    converged = False
    k_done = 0
    for k in range(1, maxit + 1):
        x_half = scipy.linalg.cho_solve(ch, alpha * x - sys.s @ x + b)
        x = scipy.linalg.lu_solve(lus, alpha * x_half - sys.h @ x_half + b)
        rn = float(np.linalg.norm(b - sys.a @ x))
        res_hist.append(rn)
        k_done = k
        if rn <= tol * bnorm:
            converged = True
            break
    return SolveReport(
        solution=x,
        iterations=k_done,
        converged=converged,
        residual_2norm=np.asarray(res_hist),
        wall_time=time.perf_counter() - start,
        method="hss",
        rhs_norm=bnorm,
    )


# ---------------------------------------------------------------------------
# Schur-complement path for saddle systems
# ---------------------------------------------------------------------------

@dataclass
class SchurSolveReport:
    """Combined outcome of the Schur-complement solve of a saddle system."""

    v: np.ndarray
    p: np.ndarray
    relative_residual: float
    converged: bool
    inner_iterations: int
    outer_iterations: int
    refinements: int
    wall_time: float = 0.0
    schur_matrix: np.ndarray | None = None


#: Inner methods that build A^{-1} [B | f] as one lockstep block run.  Their
#: short recurrence holds a fixed handful of (n_v, n_p + 1) blocks; a lockstep
#: GMRES would hold k (n_p + 1) basis vectors (13 MB more peak memory on Stokes
#: grid 12, n_p = 143, k = 21), so gmres, lgmres and hss solve column by column.
_LOCKSTEP_SOLVERS = ("widlund", "rapoport")


def solve_via_schur(a11, b_block, f, g, inner_solver="rapoport", tol=1e-10,
                    maxit=250) -> SchurSolveReport:
    """Solve [[A, B], [-B*, 0]] [v; p] = [f; g] via the Schur complement.

    X = A^{-1} B and w = A^{-1} f are formed together from the n_p + 1
    columns of [B | f] at tolerance max(tol * 1e-3, 1e-15).  Widlund and
    Rapoport run them as one lockstep block (:func:`_solve_hlanczos`), the
    other methods one column at a time.  The reduced system
    S1 p = g + B* w with S1 = B* X is solved by the same method on
    ``HsSplitSystem.from_matrix(S1)``.  Then v = w - X p for Widlund and
    Rapoport, and for every method when n_p = 0; the other methods solve
    A v = f - B p once more.  A is required to have positive definite
    Hermitian part and B full column rank, which makes S1 positive definite
    as well.  Up to two
    residual-based refinement passes are applied if needed.
    ``inner_iterations`` sums the steps of every inner column.
    """
    check_tol_maxit(tol, maxit)
    start = time.perf_counter()
    a11 = np.asarray(a11)
    b_block = np.atleast_2d(np.asarray(b_block))
    n_v, n_p = b_block.shape
    f = _as_rhs(f, n_v)
    g = _as_rhs(g, n_p)
    inner_tol = max(tol * 1e-3, 1e-15)
    inner_sys = HsSplitSystem.from_matrix(a11)
    inner_count = 0
    outer_count = 0

    def inner_solve(rhs):
        nonlocal inner_count
        if rhs.ndim == 2:
            rep = _solve_hlanczos(inner_solver, inner_sys, rhs, inner_tol, maxit)
        else:
            rep = solve(inner_solver, inner_sys, rhs, tol=inner_tol, maxit=maxit)
        inner_count += int(np.sum(rep.iterations))
        if not np.all(rep.converged):
            raise SolverError(
                f"inner {inner_solver} solve with A failed to reach {inner_tol}"
            )
        return rep.solution

    rhs = _as_rhs(np.column_stack([b_block, f]), inner_sys.n, n_p + 1)
    lockstep = inner_solver in _LOCKSTEP_SOLVERS
    sol = inner_solve(rhs) if lockstep else np.column_stack([inner_solve(c) for c in rhs.T])
    x_b, w = sol[:, :n_p], sol[:, n_p]

    s1 = b_block.conj().T @ x_b
    outer_sys = HsSplitSystem.from_matrix(s1)

    def outer_solve(rhs):
        nonlocal outer_count
        rep = solve(inner_solver, outer_sys, rhs, tol=max(tol * 1e-2, 1e-15), maxit=maxit)
        outer_count += rep.iterations
        if not rep.converged:
            raise SolverError(f"outer {inner_solver} solve with S1 failed")
        return rep.solution

    fnorm = float(np.sqrt(np.linalg.norm(f) ** 2 + np.linalg.norm(g) ** 2))
    v = np.zeros(n_v, dtype=np.result_type(a11.dtype, f.dtype))
    p = np.zeros(n_p, dtype=v.dtype)
    refinements = 0
    # the assembled residual [rf; rg] of (v, p), starting from v = p = 0
    rf, rg = f, g
    for sweep in range(3):
        if sweep > 0:
            w = inner_solve(rf)
        dp = outer_solve(rg + b_block.conj().T @ w)
        v = v + (w - x_b @ dp if lockstep or not n_p else inner_solve(rf - b_block @ dp))
        p = p + dp
        rf = f - (a11 @ v + b_block @ p)
        rg = g + b_block.conj().T @ v
        rel = float(np.sqrt(np.linalg.norm(rf) ** 2 + np.linalg.norm(rg) ** 2)
                    / (fnorm if fnorm > 0 else 1.0))
        if sweep > 0:
            refinements += 1
        if rel <= tol:
            break
    return SchurSolveReport(
        v=v, p=p, relative_residual=rel, converged=rel <= tol,
        inner_iterations=inner_count, outer_iterations=outer_count,
        refinements=refinements, wall_time=time.perf_counter() - start,
        schur_matrix=s1,
    )


# ---------------------------------------------------------------------------
# Dispatch and CSV export
# ---------------------------------------------------------------------------

def solve(method: str, sys: HsSplitSystem, b, tol=1e-12, maxit=250, **kwargs) -> SolveReport:
    """Dispatch to one of the named solvers on an HsSplitSystem."""
    if method == "widlund":
        return solve_widlund(sys, b, tol=tol, maxit=maxit, **kwargs)
    if method == "rapoport":
        return solve_rapoport(sys, b, tol=tol, maxit=maxit, **kwargs)
    if method == "gmres":
        return solve_gmres(sys.a, b, tol=tol, maxit=maxit, **kwargs)
    if method == "lgmres":
        if sys.h_factor is None:
            raise DefinitenessError("lgmres requires a positive definite Hermitian part")
        return solve_gmres(sys.a, b, tol=tol, maxit=maxit, precond=sys.solve_h,
                           h_for_metrics=sys.h, **kwargs)
    if method == "hss":
        return solve_hss(sys, b, tol=tol, maxit=maxit, **kwargs)
    raise ParameterError(f"unknown solver {method!r}; known: {SOLVER_NAMES}")


def residual_history_csv(path, report: SolveReport, lam=None):
    """Write the per-iteration history in the comparison CSV schema.

    Columns: k,res_2norm,res_hinv_norm,err_hnorm,bound_widlund,bound_rapoport
    (absolute residual norms; bounds are the relative closed forms evaluated
    at ``lam`` when given; missing metrics stay empty).
    """
    n_rows = len(report.residual_2norm)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "res_2norm", "res_hinv_norm", "err_hnorm",
                         "bound_widlund", "bound_rapoport"])
        for k in range(n_rows):
            row = [str(k), repr(float(report.residual_2norm[k]))]
            if report.residual_hinv_norm is not None and k < len(report.residual_hinv_norm):
                row.append(repr(float(report.residual_hinv_norm[k])))
            else:
                row.append("")
            if report.error_h_norm is not None and k < len(report.error_h_norm):
                row.append(repr(float(report.error_h_norm[k])))
            else:
                row.append("")
            if lam is not None and k >= 2 and k % 2 == 0:
                row.append(repr(widlund_bound(lam, k // 2)))
            else:
                row.append("")
            if lam is not None:
                row.append(repr(rapoport_bound(lam, k)))
            else:
                row.append("")
            writer.writerow(row)
