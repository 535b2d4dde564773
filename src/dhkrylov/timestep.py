"""Implicit midpoint discretization of dHDAE systems.

One step of the midpoint rule on E x' = (J - R) x + f(t) solves

    (E + tau/2 (R - J)) x_{k+1} = (E - tau/2 (R - J)) x_k + tau f(t_k + tau/2),

so the step matrix A = E + tau/2 (R - J) carries the natural split
A = H + S with H = E + tau/2 R and S = -tau/2 J.  H inherits positive
semidefiniteness from the model; one Hermitian factorization per (system,
tau) pair is reused across all steps.

Every step solves with the same A and a new right side.  The Krylov
solvers of :func:`integrate` therefore start each step from the best
combination of the last ``HISTORY`` states in the 2-norm of the residual;
on a damped mechanical model with N = 400 this cuts the Krylov steps of
150 time steps from 1050 to 167.  Most steps then take one Krylov step,
and such a Widlund or Rapoport step makes six passes over an N x N
matrix: two H-solves and one product each with S, A, R and E.

The scheme is second order and reproduces the energy balance of the model
exactly: with midpoint state m_k = (x_k + x_{k+1})/2 and step residual
rho_k = b_k - A x_{k+1},

    Ha(x_{k+1}) - Ha(x_k) = -tau m_k* R m_k + tau Re m_k* f(t_k + tau/2) - Re m_k* rho_k,

which :class:`Trajectory` books term by term.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .dhdae import DhDaeSystem, nullspace_of_e
from .errors import (
    ConsistencyError,
    DimensionError,
    ParameterError,
    SingularHermitianPartError,
    SolverError,
)
from .hs_core import Definiteness, HsSplitSystem, _freeze, as_dense, csr_copy, saddle_blocks

#: Relative tolerance for the algebraic-constraint residual of initial values.
CONSISTENCY_TOL = 1e-8

#: Number of past states whose span gives the starting guess of a Krylov step
#: in :func:`integrate`.
HISTORY = 8


@dataclass(frozen=True)
class MidpointSystem:
    """The time-discrete linear system of one midpoint step.

    ``sys`` holds A = E + tau/2 (R - J) and its split in the form of the
    model: CSR when E, J and R are, else dense.
    """

    sys: HsSplitSystem
    tau: float
    source: DhDaeSystem

    @property
    def n(self):
        return self.sys.n

    @functools.cached_property
    def model_ops(self):
        """``(e, r)`` of the model for products: CSR when ``sys.ops`` are, else the arrays.

        A CSR model (Stokes) serves as it is.  A dense model whose step
        matrix keeps dense products (mechanical, poroelastic) keeps its
        arrays, and no pattern of E or R is read; one whose step matrix gets
        CSR products gets CSR copies of E and R.  At Stokes grid 16
        (n = 735) a product with E or R takes 172-175 us dense and 6-11 us
        in CSR.
        """
        e, r = self.source.e, self.source.r
        if scipy.sparse.issparse(e) or not scipy.sparse.issparse(self.sys.ops[0]):
            return e, r
        return csr_copy(e), csr_copy(r)


def check_tau(tau):
    """Raise ``ParameterError`` unless the step size is a positive finite number."""
    if not (isinstance(tau, numbers.Real) and tau > 0 and math.isfinite(tau)):
        raise ParameterError(f"tau must be a positive finite number, got {tau!r}")


def _midpoint_matrix(sys: DhDaeSystem, tau: float):
    check_tau(tau)
    return sys.e + (tau / 2.0) * (sys.r - sys.j)


def midpoint_system(sys: DhDaeSystem, tau: float) -> MidpointSystem:
    """Assemble A = E + tau/2 (R - J) with its Hermitian/skew split, in CSR for a CSR model."""
    # frozen as built, so from_matrix keeps it without a copy
    a = _freeze(_midpoint_matrix(sys, tau), copy=False)
    return MidpointSystem(sys=HsSplitSystem.from_matrix(a), tau=tau, source=sys)


def midpoint_rhs(msys: MidpointSystem, x_k, t_k: float):
    """Right side b = (E - tau/2 (R - J)) x_k + tau f(t_k + tau/2).

    The matrix term is formed as 2 E x_k - A x_k, which equals it because
    A = E + tau/2 (R - J), so no matrix is built per step.  The source is
    sampled at the interval midpoint, which is what keeps the rule second
    order.
    """
    x_k = np.asarray(x_k)
    model = msys.source
    if x_k.shape[0] != model.n:
        raise DimensionError("x_k has wrong length")
    tau = msys.tau
    b = 2.0 * (msys.model_ops[0] @ x_k) - msys.sys.ops[0] @ x_k
    return b + tau * np.asarray(model.f(t_k + tau / 2.0))


@dataclass(frozen=True)
class Trajectory:
    """Midpoint trajectory with per-step energy accounting.

    ``hamiltonians[k] = 1/2 x_k* E x_k``.  The other arrays describe the
    step arriving at ``times[k]`` and are zero at k = 0.  With m the
    midpoint state of that step:

    * ``dissipation[k]`` is the energy removed, ``tau m* R m``;
    * ``supply[k]`` is the energy supplied by the source,
      ``tau Re m* f(t + tau/2)``;
    * ``solver_defect[k]`` is ``Re m* rho`` for the step's residual
      rho = b - A x_{k+1}, the energy the inexact solve leaves out;
    * ``iterations[k]`` is the number of Krylov steps of the step's solve:
      zero for the "direct" solver and when the starting guess already met
      the tolerance.

    ``to_csv`` writes only the times, states, Hamiltonians and dissipation.
    """

    times: np.ndarray
    states: np.ndarray
    hamiltonians: np.ndarray
    dissipation: np.ndarray
    iterations: np.ndarray
    supply: np.ndarray
    solver_defect: np.ndarray

    @property
    def ledger_gaps(self):
        """Per step, ``dH + dissipation - supply + solver_defect``: zero up to rounding."""
        return (np.diff(self.hamiltonians) + self.dissipation[1:] - self.supply[1:]
                + self.solver_defect[1:])

    def to_csv(self, path):
        n = self.states.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                            + ["hamiltonian", "dissipation"])
            for k in range(len(self.times)):
                row = [repr(float(self.times[k]))]
                row += [repr(complex(v)) if np.iscomplexobj(self.states) else repr(float(v))
                        for v in self.states[k]]
                row += [repr(float(self.hamiltonians[k])), repr(float(self.dissipation[k]))]
                writer.writerow(row)


def check_consistency(sys: DhDaeSystem, x0, t0=0.0):
    """Residual of the algebraic constraints at the initial value.

    After splitting off ker(E) at ``hs_core.RANK_TOL``, the algebraic block
    demands V2* ((J - R) x0 + f(t0)) = 0, scaled by ``sqrt(||J - R||_1 ||J - R||_inf)
    >= ||J - R||_2`` (Golub & Van Loan, sec. 2.3) in place of an SVD.  Raises
    ``ConsistencyError`` when the relative residual exceeds ``CONSISTENCY_TOL``.
    A sparse J - R is densified first.
    """
    v_null = nullspace_of_e(sys)
    if v_null.shape[1] == 0:
        return 0.0
    x0 = np.asarray(x0)
    jr = as_dense(sys.operator())
    f0 = np.asarray(sys.f(t0))
    g = v_null.conj().T @ (jr @ x0 + f0)
    norm_jr = math.sqrt(np.linalg.norm(jr, 1) * np.linalg.norm(jr, np.inf))
    scale = float(norm_jr * np.linalg.norm(x0) + np.linalg.norm(f0))
    resid = float(np.linalg.norm(g))
    rel = resid / scale if scale > 0 else resid
    if rel > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"initial value violates the algebraic constraints: relative residual {rel:.3e}"
        )
    return rel


class _History:
    """The last ``HISTORY`` states X, with a thin QR A X = Q R of their products.

    Fischer's projection (CMAME 163 (1998) 193-204) on kept products only:
    :meth:`guess` gives g = X c with c = R^{-1} Q* b, which minimizes
    ||b - A X c||_2, and its residual r0 = b - Q Q* b, which equals
    b - (A X) c, with no product with A.  :meth:`add` appends a state by
    Gram-Schmidt done twice and drops the oldest by ``scipy.linalg.qr_delete``.
    The arrays hold one column more than ``HISTORY`` so that the new column
    goes in before the oldest goes out.
    """

    def __init__(self, n, dtype):
        cap = HISTORY + 1
        self.x = np.zeros((n, cap), dtype=dtype, order="F")
        self.q = np.zeros((n, cap), dtype=dtype, order="F")
        self.r = np.zeros((cap, cap), dtype=dtype, order="F")
        self.size = 0

    def guess(self, b):
        """``(g, r0)``: the best combination of the kept states, and b - A g."""
        p = self.size
        if not p:
            return np.zeros_like(b), b
        q = self.q[:, :p]
        qb = q.conj().T @ b
        trsv, = scipy.linalg.get_blas_funcs(("trsv",), (self.r, qb))
        c = trsv(self.r[:p, :p], qb)
        return self.x[:, :p] @ c, b - q @ qb

    def add(self, x, ax):
        """Keep state ``x`` with ``ax`` = A x, unless ``ax`` depends on the kept products.

        ``ax`` counts as dependent when its part orthogonal to them is below
        1e-13 of its norm, as for a circuit at rest or a zero state.
        """
        dtype = np.result_type(self.q, x, ax)
        if dtype != self.q.dtype:
            # a complex source can turn real states complex
            self.x, self.q, self.r = (m.astype(dtype, order="F") for m in (self.x, self.q, self.r))
        p = self.size
        q = self.q[:, :p]
        h = q.conj().T @ ax
        w = ax - q @ h
        h2 = q.conj().T @ w
        w -= q @ h2
        wnorm = np.linalg.norm(w)
        if not wnorm > 1e-13 * np.linalg.norm(ax):
            return
        self.x[:, p], self.q[:, p] = x, w / wnorm
        self.r[:p, p], self.r[p, :p], self.r[p, p] = h + h2, 0.0, wnorm
        p += 1
        if p > HISTORY:
            q, r = scipy.linalg.qr_delete(self.q, self.r, 0, which="col", overwrite_qr=True,
                                          check_finite=False)
            p = HISTORY
            self.q[:, :p], self.r[:p, :p], self.x[:, :p] = q, r, self.x[:, 1:]
        self.size = p


def integrate(sys: DhDaeSystem, x0, tau: float, n_steps: int, solver="direct",
              tol=1e-12, t0=0.0) -> Trajectory:
    """Integrate with the implicit midpoint rule on a uniform grid.

    ``solver`` selects how each step's linear system is solved: "direct"
    (LU of A, factored once) or one of the Krylov methods "widlund",
    "rapoport", "gmres", "lgmres", "hss"; any other name raises
    ``ParameterError`` before the step matrix is assembled, and so do an
    ``n_steps`` that is not a nonnegative integer and a negative or
    non-finite ``tol``; an ``x0`` of the wrong shape raises
    ``DimensionError`` and one with non-finite entries ``StructureError``,
    before assembly too.  The Hermitian
    part of the step matrix must be positive definite; singular-H systems
    (index two) go through the Schur path of :mod:`dhkrylov.krylov` instead.

    The right side b = 2 E x_k - A x_k + tau f(t_k + tau/2) reuses the
    products E x_k and A x_k of the previous step.  A Krylov step starts
    from the combination g = X c of the last ``HISTORY`` states X that
    minimizes ||b - (A X) c||_2; c = 0 is allowed, so ||b - A g|| <= ||b||.
    Its residual r0 = b - A g comes from the kept products (see
    :class:`_History`), not from a product with A.  When ||r0|| <= tol ||b||
    the step forms A g and takes g if the true residual b - A g meets tol
    too, without calling a solver.  Otherwise the solver runs from
    (x0, r0) = (g, r0) to ||b - A x|| <= tol ||b|| and returns x_{k+1} with
    its true residual rho, formed by a product with A inside the solver;
    A x_{k+1} = b - rho is kept for the next step.  So at most one of r0 and
    A x_{k+1} comes from kept products: with both, the rounding of the
    coefficients c compounds from step to step.  A step whose residual
    exceeds max(tol, 1e-10) ||b|| raises ``SolverError``.
    """
    from . import krylov  # local import to avoid a cycle

    if solver != "direct" and solver not in krylov.SOLVER_NAMES:
        raise ParameterError(
            f"unknown solver {solver!r}; known: {('direct',) + krylov.SOLVER_NAMES}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ParameterError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    krylov.check_tol_maxit(tol, 0)  # integrate takes no maxit
    x0 = krylov._as_rhs(x0, sys.n, name="x0")
    x0 = x0.astype(np.result_type(sys.e.dtype, x0.dtype))
    msys = midpoint_system(sys, tau)
    if msys.sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise SingularHermitianPartError(
            "Hermitian part E + tau/2 R is singular; use the Schur-complement "
            "path (krylov.solve_via_schur) for this system"
        )
    check_consistency(sys, x0, t0)

    # products run on these: CSR copies when A is sparse
    a, a_op, (e_op, r_op) = msys.sys.a, msys.sys.ops[0], msys.model_ops
    lu = scipy.linalg.lu_factor(as_dense(a)) if solver == "direct" else None

    x = x0
    t = t0
    ex, ax = e_op @ x, a_op @ x
    history = None if solver == "direct" else _History(sys.n, np.result_type(a, x))
    if history is not None:
        history.add(x, ax)
    times = [t0]
    states = [x0]
    hams = [0.5 * float(np.vdot(x, ex).real)]
    diss, supply, defect, iters = [0.0], [0.0], [0.0], [0]
    for step in range(1, n_steps + 1):
        f_mid = np.asarray(sys.f(t + tau / 2.0))
        # the midpoint_rhs formula on the kept products
        b = 2.0 * ex - ax + tau * f_mid
        bnorm = np.linalg.norm(b)
        k_steps = 0
        if solver == "direct":
            x_next = scipy.linalg.lu_solve(lu, b)
            ax = a_op @ x_next
            rho = b - ax
            resid = np.linalg.norm(rho)
        else:
            x_next, rho = history.guess(b)
            resid = np.linalg.norm(rho)
            if resid <= tol * bnorm:
                ax = a_op @ x_next
                rho = b - ax
                resid = np.linalg.norm(rho)
            if resid > tol * bnorm:
                report = krylov.solve(solver, msys.sys, b, tol=tol, x0=x_next, r0=rho)
                x_next, rho, k_steps = report.solution, report.residual, report.iterations
                ax = b - rho
                resid = report.residual_2norm[-1]
            history.add(x_next, ax)
        if bnorm > 0 and resid > max(tol, 1e-10) * bnorm:
            raise SolverError(
                f"{solver} solve of step {step} (t = {t + tau:g}) left relative "
                f"residual {resid / bnorm:.3e}, above tolerance"
            )
        m = (x + x_next) / 2.0
        diss.append(tau * float(np.vdot(m, r_op @ m).real))
        supply.append(tau * float(np.vdot(m, f_mid).real))
        defect.append(float(np.vdot(m, rho).real))
        x = x_next
        t += tau
        ex = e_op @ x
        times.append(t)
        states.append(x)
        hams.append(0.5 * float(np.vdot(x, ex).real))
        iters.append(k_steps)
    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        hamiltonians=np.asarray(hams),
        dissipation=np.asarray(diss),
        iterations=np.asarray(iters),
        supply=np.asarray(supply),
        solver_defect=np.asarray(defect),
    )


def midpoint_saddle_blocks(sys: DhDaeSystem, tau: float):
    """:func:`~dhkrylov.hs_core.saddle_blocks` of the midpoint matrix A = E + tau/2 (R - J)."""
    return saddle_blocks(_midpoint_matrix(sys, tau))
