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
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dhdae import DhDaeSystem, nullspace_of_e
from .errors import (
    ConsistencyError,
    DimensionError,
    ParameterError,
    SingularHermitianPartError,
    SolverError,
)
from .hs_core import Definiteness, HsSplitSystem

#: Relative tolerance for the algebraic-constraint residual of initial values.
CONSISTENCY_TOL = 1e-8

#: Number of past states whose span gives the starting guess of a Krylov step
#: in :func:`integrate`.
HISTORY = 8


@dataclass(frozen=True)
class MidpointSystem:
    """The time-discrete linear system of one midpoint step."""

    sys: HsSplitSystem
    tau: float
    source: DhDaeSystem

    @property
    def n(self):
        return self.sys.n


def check_tau(tau):
    """Raise ``ParameterError`` unless the step size is positive and finite."""
    if not (tau > 0 and math.isfinite(tau)):
        raise ParameterError(f"tau must be positive and finite, got {tau}")


def _midpoint_matrix(sys: DhDaeSystem, tau: float):
    check_tau(tau)
    return sys.e + (tau / 2.0) * (sys.r - sys.j)


def midpoint_system(sys: DhDaeSystem, tau: float) -> MidpointSystem:
    """Assemble A = E + tau/2 (R - J) with its Hermitian/skew split."""
    a = _midpoint_matrix(sys, tau)
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
    b = 2.0 * (model.e @ x_k) - msys.sys.a @ x_k
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
    demands V2* ((J - R) x0 + f(t0)) = 0.  Raises ``ConsistencyError`` when
    the relative residual exceeds ``CONSISTENCY_TOL``.
    """
    v_null = nullspace_of_e(sys)
    if v_null.shape[1] == 0:
        return 0.0
    x0 = np.asarray(x0)
    jr = sys.operator()
    g = v_null.conj().T @ (jr @ x0 + np.asarray(sys.f(t0)))
    scale = float(np.linalg.norm(jr, 2) * np.linalg.norm(x0) + np.linalg.norm(sys.f(t0)))
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
    ``ParameterError`` before the step matrix is assembled.  The Hermitian
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
    x0 = np.asarray(x0)
    x0 = x0.astype(np.result_type(sys.e.dtype, x0.dtype))
    if x0.shape[0] != sys.n:
        raise DimensionError("x0 has wrong length")
    msys = midpoint_system(sys, tau)
    if msys.sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise SingularHermitianPartError(
            "Hermitian part E + tau/2 R is singular; use the Schur-complement "
            "path (krylov.solve_via_schur) for this system"
        )
    check_consistency(sys, x0, t0)

    a = msys.sys.a
    lu = scipy.linalg.lu_factor(a) if solver == "direct" else None

    x = x0
    t = t0
    ex, ax = sys.e @ x, a @ x
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
            ax = a @ x_next
            rho = b - ax
            resid = np.linalg.norm(rho)
        else:
            x_next, rho = history.guess(b)
            resid = np.linalg.norm(rho)
            if resid <= tol * bnorm:
                ax = a @ x_next
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
        diss.append(tau * float(np.vdot(m, sys.r @ m).real))
        supply.append(tau * float(np.vdot(m, f_mid).real))
        defect.append(float(np.vdot(m, rho).real))
        x = x_next
        t += tau
        ex = sys.e @ x
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
    """Saddle blocks (a11, b) of a midpoint matrix A = [[A11, B], [-B*, 0]].

    The split is read from H = E + tau/2 R: a zero diagonal entry of the
    semidefinite H zeroes its whole row and column, so the singular
    coordinates are those with Re A_ii <= 1e-12 max|A|.  They must be some
    but not all coordinates, and come last.  Returns ``(a11, b)`` with the
    block sizes; raises ``DimensionError`` when A does not have this form
    or is empty.
    """
    if sys.n == 0:
        raise DimensionError("the Schur path needs a nonempty system")
    a = _midpoint_matrix(sys, tau)
    scale = float(np.max(np.abs(a)))
    singular = np.flatnonzero(np.diagonal(a).real <= 1e-12 * scale)
    n1 = sys.n - singular.size
    if not 0 < n1 < sys.n:
        raise DimensionError(f"H = E + tau/2 R has {singular.size} singular coordinates "
                             f"of {sys.n}; the Schur path needs some but not all")
    if singular[0] != n1:
        raise DimensionError("the singular coordinates of H = E + tau/2 R must come last")
    a11 = a[:n1, :n1]
    b = a[:n1, n1:]
    lower = a[n1:, :n1]
    corner = a[n1:, n1:]
    if float(np.max(np.abs(lower + b.conj().T))) > 1e-12 * scale:
        raise DimensionError("midpoint matrix is not in [[A, B], [-B*, 0]] form")
    if float(np.max(np.abs(corner))) > 1e-12 * scale:
        raise DimensionError("trailing diagonal block is not zero; Schur path not applicable")
    return a11, b, (n1, singular.size)
