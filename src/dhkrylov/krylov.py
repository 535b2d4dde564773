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
  the same method on S1, whose Hermitian part is positive definite.  The
  inner solves are one lockstep block run of the method over all columns
  of [B | f] (:func:`_solve_block`); GMRES and L-GMRES run the block in
  groups under a memory budget.

``lanczos_init`` and ``lanczos_advance`` (on ``LanczosState``) spell out the
recurrence step by step with an explicit H-inner product.  No solver runs on
them; they are the reference that the solver bases are tested against.

All solvers start from x_0 = 0, or from a caller's x0 together with its
residual r0 = b - A x0, and stop when the relative 2-norm residual
||b - A x|| / ||b|| of the *original* system drops below ``tol``.  The
caller may form r0 cheaply and need not form it exactly: Widlund, Rapoport
and GMRES carry the residual from r0 by recurrence and test it each step;
when it meets ``tol`` (or at breakdown or ``maxit``) one true residual
b - A x confirms the stop.  If the true residual misses ``tol``, it
replaces the updated one and the run goes on (residual replacement: van
der Vorst & Ye, SISC 22 (2000) 835-852); from a warm start the recurrence
restarts from it, so a stale r0 costs steps, never accuracy.  Every report
carries that last true residual vector (``SolveReport.residual``).  A
Widlund or Rapoport step costs one H-solve and one multiplication with S,
plus O(n) vector work, and no product with A; in a
block run each of these takes all running columns at once.  Every product
with A, H or S runs on the system's ``ops``
(:attr:`~dhkrylov.hs_core.HsSplitSystem.ops`), CSR copies when the pattern
of A + A* is sparse: then a product costs O(nnz), 6-11 us against 230 us
dense for S at Stokes grid 16 (n = 735).  The H-solve runs on the
Cholesky factor of H (:meth:`HermitianFactor.solve`).  On the band factor
of a narrow-band, diagonally dominant H (Stokes) a vector takes one LAPACK
``pbtrs`` call in O(n kd), 25-31 us against 150-220 us dense at grid 16,
so a step there costs about one band H-solve plus one CSR product with S.
A block there takes two blocked sweeps of BLAS-3 calls over row slabs of
L: a (264, 144) block of the grid-12 Schur build takes 0.26 ms against
1.25 ms for ``pbtrs``, which solves it column by column.  On a dense
factor a vector takes two BLAS-2 triangular solves and a block one
``potrs`` call over all its columns.  An L-GMRES step makes one H-solve and one
multiplication with A, plus five products of a k-row basis with a vector
and one k x k triangular solve; in a block run the H-solve and the product
take all running columns at once.  Residual histories are kept per iteration
for comparison plots; every entry but the last may be an updated residual,
and the last is always a true one.
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
from .hs_core import Definiteness, HsSplitSystem, as_square_matrix

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

    Entries of ``residual_2norm`` before the last may come from the
    residual recurrence; the last is a true residual ||b - A x||, and
    ``residual`` is that vector b - A x (a block of them for a block solve).
    For a 1-D Widlund, Rapoport or GMRES solve, ``residual_gap`` is the
    largest | ||b - A x|| - ||r_rec|| | / ||b|| over the steps where a true
    residual confirmed the recurrence one r_rec; it is None for blocks, HSS
    and a solve that takes no step.
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
    residual_gap: float | None = None
    residual: np.ndarray | None = None

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


def _report_at_start(x, r, bnorm, converged, method):
    """Report of a solve that takes no step: iterate ``x`` with true residual ``r``."""
    return SolveReport(
        solution=x,
        iterations=0,
        converged=converged,
        residual_2norm=np.array([_cnorm(r)]),
        wall_time=0.0,
        method=method,
        rhs_norm=bnorm,
        residual=r,
    )


def _start(a, b, bnorm, x0, r0, tol, maxit, method):
    """The checked start ``(x0, r0, report)`` of a 1-D solve of A x = b.

    From zero, x0 is None and r0 is b.  A warm start takes ``x0`` with its
    residual ``r0`` = b - A x0, formed here when None.  A given r0 is
    trusted until the first confirmation, except when it already meets
    ``tol`` or ``maxit`` is 0: then one product with A replaces it by the
    true residual.  ``report`` is the outcome of a solve that takes no step,
    else None: b = 0 is solved by x = 0 from any start, and a warm start
    that meets ``tol`` (or has no step to take) is its own solution.
    """
    n = b.shape[0]
    if x0 is None:
        if r0 is not None:
            raise ParameterError("r0 is the residual of a start x0, and x0 is missing")
    else:
        x0 = _as_rhs(x0, n, name="x0")
        r0 = None if r0 is None else _as_rhs(r0, n, name="r0")
    if bnorm == 0.0:
        zero = np.zeros(n, dtype=a.dtype)
        return None, b, _report_at_start(zero, zero, 0.0, True, method)
    if x0 is None:
        return None, b, None
    rn = None if r0 is None else _cnorm(r0)
    if rn is None or maxit == 0 or rn <= tol * bnorm:
        r0 = b - a @ x0
        rn = _cnorm(r0)
    dtype = np.result_type(x0, r0)
    x0, r0 = x0.astype(dtype, copy=False), r0.astype(dtype, copy=False)
    if maxit == 0 or rn <= tol * bnorm:
        return x0, r0, _report_at_start(x0.copy(), r0, bnorm, rn <= tol * bnorm, method)
    return x0, r0, None


def _restarted(head, tail):
    """One report for a solve that took ``head``'s steps and went on as ``tail``.

    ``tail`` started from head's iterate and its true residual, so the first
    entry of each of its histories stands for head's last and is dropped.
    The basis and Ritz coefficients are tail's.
    """
    def cat(h, t):
        return None if h is None or t is None else np.concatenate([h, t[1:]])

    return replace(
        tail,
        iterations=head.iterations + tail.iterations,
        residual_2norm=cat(head.residual_2norm, tail.residual_2norm),
        residual_hinv_norm=cat(head.residual_hinv_norm, tail.residual_hinv_norm),
        residual_precond_norm=cat(head.residual_precond_norm, tail.residual_precond_norm),
        error_h_norm=cat(head.error_h_norm, tail.error_h_norm),
        breakdown=None if tail.breakdown is None else head.iterations + tail.breakdown,
        wall_time=head.wall_time + tail.wall_time,
        residual_gap=max(head.residual_gap, tail.residual_gap),
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


class _Columns:
    """Per-column outcome of a lockstep solve of the (n, m) block ``b``.

    Filled in as columns leave the working block at their own stopping step.
    A column that takes no step keeps x = 0 and the residual b, so a zero
    column is solved by x = 0 in 0 steps.
    """

    def __init__(self, b, dtype):
        m = b.shape[1]
        self.rhs_norm = _cnorm(b)
        self.solution = np.zeros(b.shape, dtype=dtype)
        self.residual = b.copy()
        self.iterations, self.breakdown = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
        self.converged, self.final_res = self.rhs_norm == 0.0, self.rhs_norm.copy()

    def stop(self, cols, done, k, x, r, rn, converged, broke=False):
        """Record the running columns ``cols[done]`` as stopped at step k.

        ``x`` and ``r`` hold their iterates and true residuals as columns,
        ``rn``, ``converged`` and ``broke`` one entry per column.  Returns the
        mask of the running columns that go on, and their indices.
        """
        at = cols[done]
        self.solution[:, at], self.residual[:, at] = x, r
        self.iterations[at], self.final_res[at], self.converged[at] = k, rn, converged
        self.breakdown[at] = np.where(broke, k, 0)
        keep = np.ones(cols.size, dtype=bool)
        keep[done] = False
        return keep, cols[keep]

    def report(self, method, start):
        """The block :class:`SolveReport`: per-column arrays, ``breakdown`` 0 for none."""
        return SolveReport(
            solution=self.solution, iterations=self.iterations, converged=self.converged,
            residual_2norm=self.final_res, breakdown=self.breakdown,
            wall_time=time.perf_counter() - start, method=method, rhs_norm=self.rhs_norm,
            residual=self.residual,
        )


# ---------------------------------------------------------------------------
# Widlund's and Rapoport's methods: one driver over the H-Lanczos recurrence
# ---------------------------------------------------------------------------

def _solve_hlanczos(method, sys, b, tol, maxit, x_exact=None,
                    collect_basis=False, x0=None, r0=None) -> SolveReport:
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
    two rotations, directions and basis vectors are kept.

    The 2-norm residual is updated, not recomputed.  Since A v_k = H v_k +
    S v_k is at hand, A p_k = A v_k - r_{k-2,k} A d_{k-2} - r_{k-1,k} A d_{k-1}
    follows with O(n) work from the kept products A d, and

        Rapoport:  r^R_k = r^R_{k-1} - (c_k g_k / r_kk) A p_k
        Widlund:   r^W_k = r^R_{k-1} - (g_k / mu_k) A p_k.

    Widlund forms x^W_k only to confirm a stop (or for ``x_exact``).  A stop
    is confirmed by one true residual b - A x_k; when that misses ``tol``
    before breakdown or ``maxit``, b - A x^R_k replaces r^R_k.  The report's
    ``residual_gap`` is the largest relative difference of the two norms at
    a confirmation.

    A warm start (:func:`_start`) runs the same recurrence from r0 in place
    of b, with x_0 = x0 and r^R_0 = r0; the stop test stays
    ||r_k|| <= tol ||b||.  Its confirmations form b - A x_k of the whole
    iterate, so a stale r0 cannot end a solve that misses ``tol``.  A
    Krylov space built from a stale r0 holds no correction for the
    staleness, so a confirmation that misses ``tol`` before ``maxit``
    restarts the recurrence from x_k and its true residual instead of
    replacing r^R_k.

    ``b`` is one checked right side of shape (n,) or a block of m of shape
    (n, m).  A block runs the m recurrences in lockstep: every vector above
    becomes an (n, m) block and every scalar a length-m array, so a step
    makes one H-solve and one S-product with m right sides.  Only the
    columns whose updated residual meets ``tol`` get a true residual, and a
    column leaves the working block at its own stopping step; a zero
    column is solved by x = 0 in 0 steps.  The report of a block holds
    per-column arrays: ``iterations``, ``converged``, ``breakdown`` (0 for
    none), ``rhs_norm`` and, in ``residual_2norm``, the final true residual.
    ``x_exact``, ``collect_basis`` and a warm start apply to a single right
    side.
    """
    start = time.perf_counter()
    if sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise DefinitenessError("this method requires a positive definite Hermitian part")
    check_tol_maxit(tol, maxit)
    block = b.ndim == 2
    bnorm = _cnorm(b)
    dtype = np.result_type(sys.a.dtype, b.dtype)
    a_op, _, s_op = sys.ops
    if block:
        out = _Columns(b, dtype)
        cols = np.flatnonzero(bnorm)
        b, bnorm = b[:, cols], bnorm[cols]
        r0 = b
    else:
        x0, r0, done = _start(a_op, b, bnorm, x0, r0, tol, maxit, method)
        if done:
            return done
        dtype = np.result_type(dtype, r0.dtype)
    warm = x0 is not None
    bhat = sys.solve_h(r0)
    beta0 = _hnorm(bhat, r0)
    if np.count_nonzero(beta0 == 0.0):
        raise SolverError("cannot start Lanczos from a zero right-hand side")
    rapoport = method == "rapoport"

    res_hist = [_cnorm(r0) if warm else bnorm]
    rhi_hist = [beta0] if rapoport else None
    err_hist = None if x_exact is None else [_h_norm_of(sys, x_exact - x0 if warm else x_exact)]
    x = x_r = x0 if warm else np.zeros(b.shape, dtype=dtype)
    r = res_r = r0  # b - A x_r, carried by the recurrence
    v, hv = bhat / beta0, r0 / beta0
    v_prev = hv_prev = 0.0
    beta = 0.0
    basis, t_diag, t_sub = [], [], []
    g = beta0
    # rotations of steps k-1 and k-2, directions d and their products A d:
    # identity and zero at first
    rot1 = rot2 = (1.0, 0.0)
    d1 = d2 = ad1 = ad2 = 0.0
    converged = broke = restart = False
    gap = 0.0
    k = 0
    for k in range(1, maxit + 1):
        if collect_basis:
            basis.append(v)
        sv = s_op @ v
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
        # A v_k = H v_k + S v_k, so A p_k costs no product with A
        ap = hv + sv - r2 * ad2 - r1 * ad1
        c, s, r_kk = _rotation(mu, beta)
        x_prev, g_w = x_r, g / mu
        res_w = None if rapoport else res_r - g_w * ap
        rot2, rot1, d2, d1, ad2, ad1 = rot1, (c, s), d1, p / r_kk, ad1, ap / r_kk
        x_r = x_r + (c * g) * d1
        res_r = res_r - (c * g) * ad1
        g = -np.conj(s) * g
        rn = _cnorm(res_r if rapoport else res_w)
        # a stop is confirmed by the true residual b - A x of the iterate
        confirm = (rn <= tol * bnorm) | broke | (k == maxit)
        if not block:
            converged = False
            if confirm or err_hist is not None:
                x = x_r if rapoport else x_prev + g_w * p
            if confirm:
                r = b - a_op @ x
                rn, rec = _cnorm(r), rn
                gap = max(gap, abs(rn - rec) / bnorm)
                converged = rn <= tol * bnorm
                restart = warm and not converged and k < maxit
                if not (converged or broke or k == maxit or restart):
                    # residual replacement: the true residual restarts the update
                    res_r = r if rapoport else b - a_op @ x_r
            res_hist.append(rn)
            if rapoport:
                rhi_hist.append(abs(g))
            if err_hist is not None:
                err_hist.append(_h_norm_of(sys, x_exact - x))
            if converged or broke or k == maxit or restart:
                break
        elif confirm.any() or not confirm.size:
            at = np.flatnonzero(confirm)
            xc = x_r[:, at] if rapoport else x_prev[:, at] + g_w[at] * p[:, at]
            r = b[:, at] - a_op @ xc
            rn = _cnorm(r)
            converged = rn <= tol * bnorm[at]
            stop = converged | broke[at] | (k == maxit)
            done, again = at[stop], at[~stop]
            keep, cols = out.stop(cols, done, k, xc[:, stop], r[:, stop], rn[stop],
                                  converged[stop], broke[done])
            if again.size:
                res_r[:, again] = r[:, ~stop] if rapoport else b[:, again] - a_op @ x_r[:, again]
            if not cols.size:
                break
            if done.size:
                (b, bnorm, beta0, beta, g, x_r, res_r, v, hv, w, hw, d1, d2, ad1, ad2) = (
                    _keep(a, keep) for a in (b, bnorm, beta0, beta, g, x_r, res_r, v, hv, w,
                                             hw, d1, d2, ad1, ad2))
                rot1, rot2 = (tuple(_keep(a, keep) for a in rot) for rot in (rot1, rot2))
        v_prev, hv_prev, v, hv = v, hv, w / beta, hw / beta
    if block:
        return out.report(method, start)
    report = SolveReport(
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
        residual_gap=gap,
        residual=r,
    )
    if restart:
        return _restarted(report, _solve_hlanczos(method, sys, b, tol, maxit - k, x_exact,
                                                  collect_basis, x, r))
    return report


def _h_norm_of(sys, v):
    return float(np.sqrt(max(np.vdot(v, sys.ops[1] @ v).real, 0.0)))


def solve_widlund(sys: HsSplitSystem, b, tol=1e-12, maxit=250, x_exact=None,
                  collect_basis=False, x0=None, r0=None) -> SolveReport:
    """Oblique-projection method on (I + K) x = b_hat built on H-Lanczos.

    The k-th iterate is x_k = V_k y_k with (I_k + T_{k,k}) y_k =
    ||b_hat||_H e_1; the small system is skew-Hermitian plus identity and
    therefore always nonsingular.
    """
    return _solve_hlanczos("widlund", sys, _as_rhs(b, sys.n), tol, maxit,
                           _as_x_exact(x_exact, sys.n), collect_basis, x0, r0)


def solve_rapoport(sys: HsSplitSystem, b, tol=1e-12, maxit=250, x_exact=None,
                   collect_basis=False, x0=None, r0=None) -> SolveReport:
    """Minimal residual method in the H^{-1} norm on the same Krylov spaces.

    Solves min_y || ||b_hat||_H e_1 - T~_{k+1,k} y ||_2 with the tridiagonal
    extended matrix T~ = [I + T_{k,k}; t_{k+1,k} e_k*], updated by plane
    rotations.  ``residual_hinv_norm`` records that minimum, the last entry
    of the rotated right side; in exact arithmetic it equals the H^{-1}-norm
    of the true residual b - A x_k, the quantity the Rapoport bound bounds.
    """
    return _solve_hlanczos("rapoport", sys, _as_rhs(b, sys.n), tol, maxit,
                           _as_x_exact(x_exact, sys.n), collect_basis, x0, r0)


# ---------------------------------------------------------------------------
# GMRES (classical Gram-Schmidt twice, no restarts), plain or left-preconditioned
# ---------------------------------------------------------------------------

def solve_gmres(a, b, tol=1e-12, maxit=250, precond=None, collect_basis=False,
                x0=None, r0=None) -> SolveReport:
    """GMRES by classical Gram-Schmidt done twice; optional left preconditioning by an HPD solve.

    Without ``precond`` the iterates minimize ||b - A z||_2 over K_k(A, b).
    With ``precond`` (a callable applying H^{-1}) they minimize the
    preconditioned residual ||b_hat - H^{-1} A z||_2 over K_k(H^{-1}A,
    b_hat), the same search spaces as the Widlund/Rapoport methods.
    Stopping still tests the original-system residual; no error history is kept.

    The Arnoldi basis is the rows of one (m + 1, n) array with
    m = min(maxit, n), since a Krylov space in C^n has dimension at most n.
    Each new vector is orthogonalized against all rows by two block passes
    of classical Gram-Schmidt ("twice is enough": Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50 (2005) 1069-1075), and only the new
    Hessenberg column is rotated.  The products A v_j that build the basis
    are kept as the rows of a second (m, n) array, so the residual
    b - (A V_k) y of x_k = V_k y is one GEMV.  A step thus costs one
    product with A (and one ``precond`` call), five GEMVs and one
    triangular solve.  x_k and its true residual b - A x_k are formed only
    to confirm a stop (see the module docstring).  ``a`` is an array or
    any operator with ``shape``, ``dtype`` and ``@``.

    A warm start (:func:`_start`) searches x0 + K_k from r0; a confirmation
    that misses ``tol`` before ``maxit`` restarts it from x_k and its true
    residual, since a stale r0 would keep the updated residual wrong.
    """
    start = time.perf_counter()
    a = a if hasattr(a, "__matmul__") else np.asarray(a)
    n = a.shape[0]
    check_tol_maxit(tol, maxit)
    b = _as_rhs(b, n)
    bnorm = float(np.linalg.norm(b))
    method = "lgmres" if precond is not None else "gmres"
    x0, r0, done = _start(a, b, bnorm, x0, r0, tol, maxit, method)
    if done:
        return done
    z0 = r0 if precond is None else precond(r0)
    beta = float(np.linalg.norm(z0))
    m = min(maxit, n)
    v0 = np.asarray(z0) / beta
    # The first operator product fixes the arithmetic: real data stay real.
    av = a @ v0
    w = av if precond is None else precond(av)
    dtype = np.result_type(a.dtype, b.dtype, v0.dtype, w.dtype)
    # every entry is written before it is read, and trsv reads only the upper
    # triangle of R, so no array is zero-filled
    basis = np.empty((m + 1, n), dtype=dtype)
    basis[0] = v0
    a_basis = np.empty((m, n), dtype=dtype)  # rows A v_j, so that A x_k = y @ a_basis
    # Fortran order: the k x k block that trsv copies each step is k contiguous runs
    r_mat = np.empty((m, m), dtype=dtype, order="F")
    trsv, = scipy.linalg.get_blas_funcs(("trsv",), (r_mat,))
    g = [beta]
    rotations = []

    res_hist = [bnorm if x0 is None else float(np.linalg.norm(r0))]
    pre_hist = [beta]
    x = np.zeros(n, dtype=dtype) if x0 is None else x0
    r = r0
    converged = happy = restart = False
    gap = 0.0
    k = 0
    for k in range(1, m + 1):
        if k > 1:
            av = a @ basis[k - 1]
            w = av if precond is None else precond(av)
        a_basis[k - 1] = av
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

        if col[k - 1] == 0:
            # trsv would divide by the zero diagonal of R without a word
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {k - 1}")
        y = trsv(r_mat[:k, :k], g[:k])
        rn = float(np.linalg.norm(r0 - y @ a_basis[:k]))
        converged = False
        if rn <= tol * bnorm or happy or k == m:
            # confirm the stop by the true residual of x_k = x0 + V_k y
            x = y @ v_k if x0 is None else x0 + y @ v_k
            r = b - a @ x
            rn, rec = float(np.linalg.norm(r)), rn
            gap = max(gap, abs(rn - rec) / bnorm)
            converged = rn <= tol * bnorm
            restart = x0 is not None and not converged and k < maxit
        res_hist.append(rn)
        pre_hist.append(abs(g[k]))
        if converged or happy or restart:
            break
    report = SolveReport(
        solution=x,
        iterations=k,
        converged=converged,
        residual_2norm=np.asarray(res_hist),
        residual_precond_norm=np.asarray(pre_hist),
        breakdown=k if happy and not converged else None,
        wall_time=time.perf_counter() - start,
        method=method,
        basis=basis[:k].T.copy() if collect_basis and k else None,
        rhs_norm=bnorm,
        residual_gap=gap,
        residual=r,
    )
    if restart:
        return _restarted(report, solve_gmres(a, b, tol, maxit - k, precond, collect_basis,
                                              x, r))
    return report


#: Memory budget of the groups of a lockstep GMRES over an (n, m) block, in
#: (n, m) blocks.  Under ``tracemalloc`` the lockstep H-Lanczos run on the same
#: block peaks at 24.9-26.5 of them (unstabilized Stokes [B | f], grids 12 and
#: 16, tau 1e-3 and 1e-2), and a grouped GMRES or L-GMRES call at 23.0-24.5.
_GMRES_BLOCKS = 22


def _gmres_room(steps, n):
    """Entries a lockstep GMRES column holds with room for ``steps`` steps.

    steps + 1 basis vectors, ``steps`` products with A, eight working
    vectors (right side, new basis vector, Gram-Schmidt update, and at a
    confirmation the iterates, their products with A and residuals), and
    the (steps + 1)-square Q* and R^{-1}.
    """
    return (2 * steps + 9) * n + 2 * (steps + 1) ** 2


def _solve_gmres_block(a, b, tol, maxit, precond) -> SolveReport:
    """GMRES of :func:`solve_gmres` on each column of the (n, m) block ``b``, in lockstep groups.

    A group of g columns with room for s steps holds g :func:`_gmres_room`
    (s, n) entries, and takes as many columns as keep this within
    ``_GMRES_BLOCKS`` (n, m) blocks, but at least one.  The first group gets
    room for min(maxit, n) steps, the most a column can take; each later one
    for 1.5 times the most steps a column has taken so far.  A column still
    running when its group's room is used up is rerun from its start in the
    next group, with twice that room.  The report's solution and residual
    add two more blocks.  On the unstabilized Stokes [B | f] of grid 12
    (n = 264, m = 144, tau 1e-3), where every L-GMRES column takes 20
    steps, the groups take 3, 41, 41, 41 and 18 columns.
    """
    start = time.perf_counter()
    check_tol_maxit(tol, maxit)
    n, m = b.shape
    out = _Columns(b, np.result_type(a.dtype, b.dtype))
    method = "lgmres" if precond is not None else "gmres"
    todo, room = np.flatnonzero(out.rhs_norm), min(maxit, n)
    while todo.size and room:
        size = max(1, _GMRES_BLOCKS * n * m // _gmres_room(room, n))
        outran = _gmres_lockstep(a, b, tol, maxit, precond, out, todo[:size], room)
        todo = np.concatenate([outran, todo[size:]])
        most = int(out.iterations.max())
        room = min(maxit, n, 2 * room if outran.size else most + most // 2)
    return out.report(method, start)


def _compact(arr, keep):
    """Move the slabs ``arr[keep]`` to the front of ``arr`` in place; a view of them.

    A fancy index would hold a copy of them next to ``arr``.
    """
    kept = np.flatnonzero(keep)
    for dst, src in enumerate(kept):
        if dst != src:
            arr[dst] = arr[src]
    return arr[:kept.size]


def _gmres_lockstep(a, b, tol, maxit, precond, out, cols, steps):
    """Lockstep GMRES over the columns ``cols`` of ``b``, for at most ``steps`` steps.

    Each column keeps its own Arnoldi basis and runs :func:`solve_gmres`
    from x_0 = 0, with its vectors as the rows of (g, n) and (g, k, n)
    arrays and its scalars as length-g arrays: a step makes one product
    with A (and one ``precond`` call) over all running columns and batched
    Gram-Schmidt passes.  In place of the rotation loop and the triangular
    solve, each column keeps Q*, the product of its rotations, and R^{-1},
    both extended by one row and column per step: with h_k the new
    Hessenberg column, the new column of R is Q*_{k-1} h_k and

        y_k = [y_{k-1}; 0] + g_k R_k^{-1} e_k,   g_k = ||z_0|| (Q*_k)_{k,1},

    where z_0 is the start vector (r_0, or H^{-1} r_0 when preconditioned)
    and (Q*_k)_{k,1} the k-th entry of its first column.  A column leaves
    at its own stopping step, confirmed by its own true residual, and is
    recorded in ``out``; the rest move up in place.  Returns the columns
    still running after ``steps`` < min(maxit, n) steps.
    """
    n = b.shape[0]
    m = min(maxit, n)
    rhs = np.ascontiguousarray(b[:, cols].T)
    bnorm = out.rhs_norm[cols]
    w = rhs if precond is None else precond(rhs.T).T
    beta = np.linalg.norm(w, axis=1)
    dtype = np.result_type(a.dtype, b.dtype, w.dtype)
    basis = np.empty((cols.size, steps + 1, n), dtype=dtype)
    a_basis = np.empty((cols.size, steps, n), dtype=dtype)
    basis[:, 0] = w
    basis[:, 0] /= beta[:, None]
    # Q* is lower Hessenberg and R^{-1} upper triangular: each step writes
    # its new row and column, zeros included, so the arrays start unfilled
    q = np.empty((cols.size, steps + 1, steps + 1), dtype=dtype)
    q[:, 0, 0] = 1.0
    r_inv = np.empty((cols.size, steps, steps), dtype=dtype)
    y = np.empty((cols.size, steps), dtype=dtype)
    for k in range(1, steps + 1):
        w = (a @ basis[:, k - 1].T).T
        a_basis[:, k - 1] = w
        if precond is not None:
            w = precond(w.T).T
        v_k = basis[:, :k]
        h = np.matmul(v_k, w.conj()[:, :, None])[:, :, 0].conj()
        w -= np.matmul(h[:, None, :], v_k)[:, 0]
        h2 = np.matmul(v_k, w.conj()[:, :, None])[:, :, 0].conj()
        w -= np.matmul(h2[:, None, :], v_k)[:, 0]
        hnorm = np.linalg.norm(w, axis=1)
        happy = hnorm <= 1e-14 * beta
        basis[:, k] = w / np.where(happy, 1.0, hnorm)[:, None]
        col = np.matmul(q[:, :k, :k], (h + h2)[:, :, None])[:, :, 0]
        c, s, rho = _givens_columns(col[:, k - 1], hnorm)
        if not np.all(rho):
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {k - 1}")
        # the new rotation acts on rows k-1 and k (= e_k) of Q*
        q[:, k, :k] = -s.conj()[:, None] * q[:, k - 1, :k]
        q[:, k - 1, :k] *= c[:, None]
        q[:, :k - 1, k] = 0.0
        q[:, k - 1, k], q[:, k, k] = s, c
        u = -np.matmul(r_inv[:, :k - 1, :k - 1], col[:, :k - 1, None])[:, :, 0] / rho[:, None]
        r_inv[:, k - 1, :k - 1] = 0.0
        r_inv[:, :k - 1, k - 1], r_inv[:, k - 1, k - 1] = u, 1.0 / rho
        g_k = beta * q[:, k - 1, 0]
        y[:, :k - 1] += g_k[:, None] * u
        y[:, k - 1] = g_k / rho
        rn = np.linalg.norm(rhs - np.matmul(y[:, None, :k], a_basis[:, :k])[:, 0], axis=1)
        at = np.flatnonzero((rn <= tol * bnorm) | happy | (k == m))
        if not at.size:
            continue
        # confirm the stops by the true residuals of x_k = V_k y; v_k[at] would copy the basis
        x = np.matmul(y[:, None, :k], v_k)[at, 0]
        r = rhs[at] - (a @ x.T).T
        rn = np.linalg.norm(r, axis=1)
        converged = rn <= tol * bnorm[at]
        stop = converged | happy[at] | (k == m)
        if not stop.any():
            continue
        keep, cols = out.stop(cols, at[stop], k, x[stop].T, r[stop].T, rn[stop],
                              converged[stop], happy[at[stop]] & ~converged[stop])
        if not cols.size:
            break
        basis, a_basis, q, r_inv = (_compact(v, keep) for v in (basis, a_basis, q, r_inv))
        rhs, bnorm, beta, y = rhs[keep], bnorm[keep], beta[keep], y[keep]
    return cols


def _givens_columns(a, b):
    """:func:`_givens` of each pair (a_j, b_j), b_j real and nonnegative."""
    zero = a == 0
    c, s, r = _rotation(np.where(zero, 1.0, a), b)
    return np.where(zero, 0.0, c), np.where(zero, 1.0, s), np.where(zero, b, r)


# ---------------------------------------------------------------------------
# HSS iteration
# ---------------------------------------------------------------------------

def solve_hss(sys: HsSplitSystem, b, tol=1e-12, maxit=250, x0=None, r0=None) -> SolveReport:
    """Alternating shifted Hermitian/skew-Hermitian solves.

    (alpha I + H) x^{k+1/2} = (alpha I - S) x^k + b
    (alpha I + S) x^{k+1}   = (alpha I - H) x^{k+1/2} + b

    With exact inner solves the iteration converges for every alpha > 0
    when H is positive definite.  It runs at alpha = sqrt(lambda_min
    lambda_max) of H, which minimizes its contraction bound (Bai, Golub &
    Ng, SIMAX 24 (2003) 603-626).  The two shifted factorizations are
    :attr:`HsSplitSystem.hss_factors`, made by the first HSS solve on a
    system and reused by every later one.  A warm start (:func:`_start`)
    sweeps from x0; every sweep forms its true residual, so r0 serves only
    to skip a start that already meets ``tol``.
    """
    return _solve_hss(sys, _as_rhs(b, sys.n), tol, maxit, x0, r0)


def _solve_hss(sys, b, tol, maxit, x0=None, r0=None) -> SolveReport:
    """:func:`solve_hss` of one checked right side (n,) or of a block (n, m).

    A block sweeps all running columns at once: one shifted H-solve
    (``potrs``), one shifted skew solve and three products per sweep.  A
    column leaves at the first sweep whose true residual meets ``tol``, or
    at ``maxit``; the report is that of :func:`_solve_hlanczos` for a block.
    A warm start applies to a single right side.
    """
    if sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise DefinitenessError("hss requires a positive definite Hermitian part")
    check_tol_maxit(tol, maxit)
    start = time.perf_counter()
    block = b.ndim == 2
    bnorm = _cnorm(b)
    dtype = np.result_type(sys.a.dtype, b.dtype)
    a_op, h_op, s_op = sys.ops
    if block:
        out = _Columns(b, dtype)
        cols = np.flatnonzero(bnorm)
        if not (cols.size and maxit):
            return out.report("hss", start)
        b, bnorm = b[:, cols], bnorm[cols]
        x = np.zeros(b.shape, dtype=dtype)
    else:
        x0, r, done = _start(a_op, b, bnorm, x0, r0, tol, maxit, "hss")
        if done:
            return done
        x = np.zeros(sys.n, dtype=dtype) if x0 is None else x0
        res_hist = [bnorm if x0 is None else float(np.linalg.norm(r))]
    alpha, ch, lus = sys.hss_factors
    converged = False
    k_done = 0
    for k in range(1, maxit + 1):
        x_half = ch.solve(alpha * x - s_op @ x + b)
        x = scipy.linalg.lu_solve(lus, alpha * x_half - h_op @ x_half + b)
        r = b - a_op @ x
        rn = _cnorm(r)
        if block:
            stop = (rn <= tol * bnorm) | (k == maxit)
            if stop.any():
                keep, cols = out.stop(cols, stop, k, x[:, stop], r[:, stop], rn[stop],
                                      rn[stop] <= tol * bnorm[stop])
                if not cols.size:
                    return out.report("hss", start)
                b, bnorm, x = b[:, keep], bnorm[keep], x[:, keep]
            continue
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
        residual=r,
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


def _shortfall(what, rep, tol, maxit):
    """``SolverError`` for a solve that missed ``tol``: its steps and residual.

    A block report is summarized by its most steps and its largest relative
    residual over the columns.
    """
    rhs_norm = np.atleast_1d(rep.rhs_norm)
    final = np.atleast_1d(rep.residual_2norm)[-rhs_norm.size:]
    rel = float(np.max(final / np.where(rhs_norm > 0, rhs_norm, 1.0)))
    return SolverError(f"{what} stopped after {int(np.max(rep.iterations))} of "
                       f"maxit={maxit} steps at relative residual {rel:.3e}, above {tol:.1e}")


#: Inner methods whose correction is v = w - X dp.  The other methods make one
#: more inner solve A v = f - B dp: plain GMRES with w - X dp needed a
#: refinement sweep on 6 of 8 right sides of unstabilized Stokes at grid 12.
_CORRECT_BY_X = ("widlund", "rapoport")


def _solve_block(method, sys, b, tol, maxit) -> SolveReport:
    """Lockstep solve of each column of the checked (n, m) block ``b`` by ``method``.

    Every column runs its own solve from x_0 = 0 and leaves at its own
    stopping step, confirmed by its own true residual, while each step takes
    all running columns at once.  The report holds per-column arrays, as
    described in :func:`_solve_hlanczos`.
    """
    if method in ("widlund", "rapoport"):
        return _solve_hlanczos(method, sys, b, tol, maxit)
    if method == "hss":
        return _solve_hss(sys, b, tol, maxit)
    if method in ("gmres", "lgmres"):
        return _solve_gmres_block(sys.ops[0], b, tol, maxit,
                                  sys.solve_h if method == "lgmres" else None)
    raise ParameterError(f"unknown solver {method!r}; known: {SOLVER_NAMES}")


def solve_via_schur(a11, b_block, f, g, inner_solver="rapoport", tol=1e-10,
                    maxit=250) -> SchurSolveReport:
    """Solve [[A, B], [-B*, 0]] [v; p] = [f; g] via the Schur complement.

    X = A^{-1} B and w = A^{-1} f are formed together from the n_p + 1
    columns of [B | f] at tolerance max(tol * 1e-3, 1e-15), by one lockstep
    block solve of the method (:func:`_solve_block`; GMRES and L-GMRES run
    it in groups under a memory budget); with n_p = 0 that is one vector
    solve of A w = f.  The reduced system
    S1 p = g + B* w with S1 = B* X is solved by the same method on
    ``HsSplitSystem.from_matrix(S1)``.  Then v = w - X p for Widlund and
    Rapoport, and for every method when n_p = 0; the other methods solve
    A v = f - B p once more.  A is required to have positive definite
    Hermitian part and B full column rank, which makes S1 positive definite
    as well.  B must be a finite 2-D block whose n_v rows match the order
    of A; otherwise ``DimensionError`` or ``StructureError`` names it, and
    so names a wrong-length or non-finite f or g.  Up
    to two residual-based refinement passes are applied if needed.
    ``inner_iterations`` sums the steps of every inner column.  An inner or
    outer solve that misses its tolerance raises ``SolverError`` with the
    method, the steps taken against ``maxit`` and the relative residual
    reached.
    """
    check_tol_maxit(tol, maxit)
    start = time.perf_counter()
    a11 = as_square_matrix(a11, "A11")
    b_block = np.asarray(b_block)
    if b_block.ndim != 2:
        raise DimensionError(f"B must be a 2-D (n_v, n_p) block, got shape {b_block.shape}")
    n_v, n_p = len(a11), b_block.shape[1]
    _as_rhs(b_block, n_v, n_p, name="B")
    f = _as_rhs(f, n_v, name="f")
    g = _as_rhs(g, n_p, name="g")
    inner_tol = max(tol * 1e-3, 1e-15)
    inner_sys = HsSplitSystem.from_matrix(a11)
    inner_count = 0
    outer_count = 0

    def inner_solve(rhs):
        nonlocal inner_count
        if rhs.ndim == 2:
            rep = _solve_block(inner_solver, inner_sys, rhs, inner_tol, maxit)
        else:
            rep = solve(inner_solver, inner_sys, rhs, tol=inner_tol, maxit=maxit)
        inner_count += int(np.sum(rep.iterations))
        if not np.all(rep.converged):
            raise _shortfall(f"inner {inner_solver} solve with A", rep, inner_tol, maxit)
        return rep.solution

    if n_p:
        sol = inner_solve(np.column_stack([b_block, f]))
        x_b, w = sol[:, :n_p], sol[:, n_p]
    else:
        x_b, w = b_block, inner_solve(f)

    s1 = b_block.conj().T @ x_b
    outer_sys = HsSplitSystem.from_matrix(s1)

    def outer_solve(rhs):
        nonlocal outer_count
        outer_tol = max(tol * 1e-2, 1e-15)
        rep = solve(inner_solver, outer_sys, rhs, tol=outer_tol, maxit=maxit)
        outer_count += rep.iterations
        if not rep.converged:
            raise _shortfall(f"outer {inner_solver} solve with S1", rep, outer_tol, maxit)
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
        v = v + (w - x_b @ dp if inner_solver in _CORRECT_BY_X or not n_p
                 else inner_solve(rf - b_block @ dp))
        p = p + dp
        rf = f - (inner_sys.ops[0] @ v + b_block @ p)
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
    """Dispatch to one of the named solvers on an HsSplitSystem.

    Every method takes the warm start ``x0=``, ``r0=`` of :func:`_start`.
    """
    if method == "widlund":
        return solve_widlund(sys, b, tol=tol, maxit=maxit, **kwargs)
    if method == "rapoport":
        return solve_rapoport(sys, b, tol=tol, maxit=maxit, **kwargs)
    if method == "gmres":
        return solve_gmres(sys.ops[0], b, tol=tol, maxit=maxit, **kwargs)
    if method == "lgmres":
        if sys.h_factor is None:
            raise DefinitenessError("lgmres requires a positive definite Hermitian part")
        return solve_gmres(sys.ops[0], b, tol=tol, maxit=maxit, precond=sys.solve_h, **kwargs)
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
