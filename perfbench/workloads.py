"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Every workload drives the package through its public functions only.  A
*pass* is one complete execution of the workload, from inputs to all
solutions at the stated tolerance; its wall time is one ``total_s`` sample.
``setup`` is the part of a pass that turns inputs into a split, classified,
factored system; it is also timed on its own for ``setup_s``.  Per-solve
times are recorded under the metric names of :data:`SOLVE_METRICS`.

The benchmark's own output checks (numpy residuals, energy identity,
reference trajectory) are timed separately by :class:`Checker` and taken
out of the pass time.
"""

from __future__ import annotations

import math
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from dhkrylov import cli, dhdae, hs_core, krylov, timestep

from spans import CHECK

#: Solve-time metrics; each workload says which of its solves feeds which.
SOLVE_METRICS = ("widlund_ms", "rapoport_ms", "gmres_ms")


class Checker:
    """Counts checked solves and failed checks; times itself."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.messages = []

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._idx = self.tracer.begin(CHECK) if self.tracer else None
        return self

    def __exit__(self, *exc):
        if self._idx is not None:
            self.tracer.end(self._idx)
        self.seconds += time.perf_counter() - self._t0
        return False

    def record(self, label, ok, detail=""):
        """One checked solve; ``ok`` False counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {detail}")

    def record_error(self, label, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{label}: raised {type(exc).__name__}: {exc}")
            self.messages.append("".join(traceback.format_exception(exc)).strip())


def rel_residual(a, x, b):
    """``||b - A x|| / ||b||`` computed with numpy (A dense or sparse)."""
    return float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))


def _dense(a):
    return a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)


class Workload:
    """Base class: subclasses define inputs, setup, one pass and the checks."""

    name = ""
    tol = 1e-12

    def __init__(self, seed, work_dir: Path, checker: Checker):
        self.seed = seed
        self.work_dir = work_dir
        self.checker = checker
        self.samples = {m: [] for m in ("setup_s",) + SOLVE_METRICS}

    def setup(self):
        raise NotImplementedError

    def warm_up(self):
        """Set up once and run every solver for a few steps, untimed."""
        raise NotImplementedError

    def run_pass(self, index):
        raise NotImplementedError

    def operator(self):
        """(a, h, s) of the workload's main system, for the floor probe."""
        raise NotImplementedError

    def artifact_bytes(self):
        return 0

    def close(self):
        pass

    def timed_setup(self):
        t0 = time.perf_counter()
        result = self.setup()
        self.samples["setup_s"].append(time.perf_counter() - t0)
        return result

    def _timed(self, metric, per, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples[metric].append(1e3 * (time.perf_counter() - t0) / per)
        return result


# ---------------------------------------------------------------------------
# stokes-pipeline: the `dhkrylov bench` path
# ---------------------------------------------------------------------------

class StokesPipeline(Workload):
    """``cli.run_scenario`` on stabilized Stokes, grid_n=16 (n=735), two time steps."""

    name = "stokes-pipeline"
    model = {"name": "stokes", "params": {"grid_n": 16, "viscosity": 100.0,
                                          "stabilization": 0.005}}
    taus = (1e-3, 1e-4)
    solvers = ("widlund", "rapoport", "lgmres")
    metric_of = {"widlund": "widlund_ms", "rapoport": "rapoport_ms", "lgmres": "gmres_ms"}

    def __init__(self, seed, work_dir, checker):
        super().__init__(seed, work_dir, checker)
        self.scenario = cli.Scenario(
            name=self.name, model=self.model, tau_list=list(self.taus),
            solvers=list(self.solvers), tol=self.tol, maxit=250,
            rhs={"kind": "random", "seed": int(seed)},
        )
        self.out = work_dir / "scenario"
        self._solve_ok = []
        self._msys = None
        self._bytes = 0
        # Every solve of the scenario is checked with numpy as it returns.
        self._solve = krylov.solve
        krylov.solve = self._checked_solve

    def close(self):
        krylov.solve = self._solve

    def _checked_solve(self, method, sys, b, *args, **kwargs):
        rep = self._solve(method, sys, b, *args, **kwargs)
        with self.checker:
            tol = kwargs.get("tol", args[0] if args else self.tol)
            self._solve_ok.append(rel_residual(sys.a, rep.solution, b) <= tol)
        return rep

    def setup(self):
        model = dhdae.from_descriptor(self.model)
        self._msys = timestep.midpoint_system(model, self.taus[0])
        return self._msys

    def warm_up(self):
        msys = self.setup()
        b = np.random.default_rng(self.seed).standard_normal(msys.n)
        for s in self.solvers:
            self._solve(s, msys.sys, b, tol=self.tol, maxit=3)

    def operator(self):
        return self._msys.sys.a, self._msys.sys.h, self._msys.sys.s

    def run_pass(self, index):
        self._solve_ok = []
        table = cli.run_scenario(self.scenario, self.out)
        with self.checker:
            self._check(table)

    def _check(self, table):
        expected = [(t, s) for t in self.taus for s in self.solvers]
        rows = table.rows
        b = np.random.default_rng(self.seed).standard_normal(self._msys.n)
        shared = [f for f in ("table.json", "table.txt", "manifest.json")
                  if not (self.out / f).is_file()]
        self._bytes = sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())
        for i, (tau, solver) in enumerate(expected):
            label = f"tau={tau:g} {solver}"
            if i >= len(rows) or (rows[i]["tau"], rows[i]["solver"]) != (tau, solver):
                self.checker.record(label, False, "row missing from the table")
                continue
            row = rows[i]
            problems = list(shared)
            if i >= len(self._solve_ok) or not self._solve_ok[i]:
                problems.append("numpy residual above tol")
            if not row["converged"] or not row["final_rel_res"] <= self.tol:
                problems.append(f"row reports {row['final_rel_res']}")
            if not (row["lambda"] is not None and 0 < row["lambda"] < math.inf):
                problems.append("no spectral half-width")
            problems += _check_residual_csv(
                self.out / f"{self.model['name']}_tau{tau:g}_{solver}.csv",
                row["iterations"], float(np.linalg.norm(b)))
            self.checker.record(label, not problems, "; ".join(problems))
            self.samples[self.metric_of[solver]].append(1e3 * row["wall_time_s"])

    def artifact_bytes(self):
        return self._bytes


def _check_residual_csv(path, iterations, bnorm):
    """The history CSV has one row per iterate and starts at ||b||."""
    if not path.is_file():
        return [f"{path.name} missing"]
    lines = path.read_text().splitlines()
    if lines[0] != "k,res_2norm,res_hinv_norm,err_hnorm,bound_widlund,bound_rapoport":
        return [f"{path.name} has header {lines[0]!r}"]
    if len(lines) != iterations + 2:
        return [f"{path.name} has {len(lines) - 1} rows for {iterations} iterations"]
    first = float(lines[1].split(",")[1])
    if abs(first - bnorm) > 1e-12 * bnorm:
        return [f"{path.name} starts at {first}, not ||b|| = {bnorm}"]
    return []


# ---------------------------------------------------------------------------
# hs-iterate: long H-Lanczos solves on a synthetic A = H + S
# ---------------------------------------------------------------------------

def synthetic_hs_matrix(seed, n, cond=100.0, lam=8.0):
    """A = H + S with kappa(H) = ``cond`` and spec(H^-1 S) = i[-lam, lam].

    H = Q D Q^T with D geometric in [1, cond]; with L = Q D^(1/2) the skew
    part is S = L M L^T, where M = Z blkdiag([[0, t], [-t, 0]]) Z^T has the
    eigenvalues +-i t_j, t_j = lam * sqrt(j / (n/2)).  Since L^-1 S L^-T = M,
    the half-width is ``lam`` by construction.  Numpy only.
    """
    rng = np.random.default_rng([seed, 0])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.geomspace(1.0, cond, n)
    h = (q * d) @ q.T
    low = q * np.sqrt(d)
    z, _ = np.linalg.qr(rng.standard_normal((n, n)))
    theta = lam * np.sqrt(np.arange(1, n // 2 + 1) / (n // 2))
    m = (z[:, 0::2] * theta) @ z[:, 1::2].T
    s = low @ (m - m.T) @ low.T
    return (h + h.T) / 2 + (s - s.T) / 2


class HsIterate(Workload):
    """Widlund, Rapoport and L-GMRES to 1e-12 on n=800, lam=8, two rhs per pass."""

    name = "hs-iterate"
    n = 800
    solvers = (("widlund", "widlund_ms"), ("rapoport", "rapoport_ms"),
               ("lgmres", "gmres_ms"))

    def __init__(self, seed, work_dir, checker):
        super().__init__(seed, work_dir, checker)
        self.a = synthetic_hs_matrix(seed, self.n)
        self.sys = None

    def rhs(self, index):
        return np.random.default_rng([self.seed, 1, index]).standard_normal(self.n)

    def setup(self):
        self.sys = hs_core.HsSplitSystem.from_matrix(self.a)
        return self.sys

    def warm_up(self):
        sys = self.setup()
        for solver, _ in self.solvers:
            krylov.solve(solver, sys, self.rhs(0), tol=self.tol, maxit=3)

    def operator(self):
        return self.sys.a, self.sys.h, self.sys.s

    def run_pass(self, index):
        sys = self.timed_setup()
        # Two right-hand sides per pass: L-GMRES times alternate between
        # consecutive solves in one process, so a pass holds one of each.
        for k in (2 * index, 2 * index + 1):
            b = self.rhs(k)
            for solver, metric in self.solvers:
                label = f"rhs {k} {solver}"
                try:
                    rep = self._timed(metric, 1, krylov.solve, solver, sys, b, tol=self.tol)
                except Exception as exc:  # counted, the run goes on
                    self.checker.record_error(label, exc)
                    continue
                with self.checker:
                    rel = rel_residual(self.a, rep.solution, b)
                    self.checker.record(label, rel <= self.tol,
                                        f"residual {rel:.3e} after {rep.iterations} iterations")


# ---------------------------------------------------------------------------
# mech-integrate: many short solves inside the midpoint integrator
# ---------------------------------------------------------------------------

class MechIntegrate(Workload):
    """``timestep.integrate`` on mechanical n=200 (N=400), tau=0.02."""

    name = "mech-integrate"
    n = 200
    tau = 0.02
    steps = 150
    energy_tol = 1e-10
    final_tol = 1e-9
    solvers = (("widlund", "widlund_ms"), ("rapoport", "rapoport_ms"),
               ("lgmres", "gmres_ms"))

    def __init__(self, seed, work_dir, checker):
        super().__init__(seed, work_dir, checker)
        self.model_desc = {"name": "mechanical",
                           "params": {"n": self.n, "damping": 1.0, "seed": int(seed)}}
        self.x0 = np.random.default_rng([seed, 2]).standard_normal(2 * self.n)
        self.model = None
        self._msys = None
        self._reference = None

    def setup(self):
        self.model = dhdae.from_descriptor(self.model_desc)
        self._msys = timestep.midpoint_system(self.model, self.tau)
        return self._msys

    def warm_up(self):
        self.setup()
        for solver, _ in self.solvers:
            timestep.integrate(self.model, self.x0, self.tau, 2, solver=solver, tol=self.tol)
        with self.checker:
            ref = timestep.integrate(self.model, self.x0, self.tau, self.steps, solver="direct")
            self._reference = ref.states[-1]
            e, j, r = (_dense(m) for m in (self.model.e, self.model.j, self.model.r))
            self._a = e + (self.tau / 2) * (r - j)
            self._b = e - (self.tau / 2) * (r - j)
            self._e, self._r = e, r

    def operator(self):
        return self._msys.sys.a, self._msys.sys.h, self._msys.sys.s

    def run_pass(self, index):
        model = dhdae.from_descriptor(self.model_desc)
        for solver, metric in self.solvers:
            try:
                traj = self._timed(metric, self.steps, timestep.integrate, model, self.x0,
                                   self.tau, self.steps, solver=solver, tol=self.tol)
            except Exception as exc:  # counted, the run goes on
                self.checker.record_error(f"{solver} trajectory", exc)
                continue
            with self.checker:
                self._check(solver, np.asarray(traj.states))

    def _check(self, solver, x):
        """Step residuals, the energy identity and the final state, per step."""
        prev, nxt = x[:-1], x[1:]
        rhs = prev @ self._b.T
        res = np.linalg.norm(nxt @ self._a.T - rhs, axis=1) / np.linalg.norm(rhs, axis=1)
        ham = 0.5 * np.einsum("ki,ij,kj->k", x, self._e, x)
        mid = (prev + nxt) / 2
        diss = self.tau * np.einsum("ki,ij,kj->k", mid, self._r, mid)
        energy = np.abs(ham[1:] - ham[:-1] + diss) / ham[0]
        ok = (res <= self.tol) & (energy <= self.energy_tol)
        final = float(np.linalg.norm(x[-1] - self._reference) / np.linalg.norm(self._reference))
        ok[-1] &= final <= self.final_tol
        for k in range(len(ok)):
            self.checker.record(
                f"{solver} step {k + 1}", bool(ok[k]),
                f"residual {res[k]:.3e}, energy defect {energy[k]:.3e}, "
                f"final-state deviation {final:.3e}")


# ---------------------------------------------------------------------------
# stokes-schur: nested solves for singular H
# ---------------------------------------------------------------------------

class StokesSchur(Workload):
    """``krylov.solve_via_schur`` on unstabilized Stokes with convection 50."""

    name = "stokes-schur"
    tol = 1e-10
    tau = 1e-3
    model = {"name": "stokes", "params": {"grid_n": 12, "viscosity": 1.0,
                                          "convection": 50.0, "stabilization": 0.0}}
    solvers = (("widlund", "widlund_ms"), ("rapoport", "rapoport_ms"),
               ("lgmres", "gmres_ms"))

    def __init__(self, seed, work_dir, checker):
        super().__init__(seed, work_dir, checker)
        self.blocks = None
        self.rhs = None
        self._full = None

    def setup(self):
        model = dhdae.from_descriptor(self.model)
        self.blocks = timestep.midpoint_saddle_blocks(model, self.tau)
        if self._full is None:
            e, j, r = (_dense(m) for m in (model.e, model.j, model.r))
            self._full = e + (self.tau / 2) * (r - j)
            self.rhs = np.random.default_rng([self.seed, 3]).standard_normal(model.n)
        return self.blocks

    def warm_up(self):
        a11, _, (n_v, _) = self.setup()
        inner = hs_core.HsSplitSystem.from_matrix(a11)
        for solver, _ in self.solvers:
            krylov.solve(solver, inner, self.rhs[:n_v], tol=self.tol, maxit=3)

    def operator(self):
        a11 = _dense(self.blocks[0])
        return a11, (a11 + a11.conj().T) / 2, (a11 - a11.conj().T) / 2

    def run_pass(self, index):
        a11, b_block, (n_v, _) = self.timed_setup()
        f, g = self.rhs[:n_v], self.rhs[n_v:]
        for solver, metric in self.solvers:
            label = f"schur {solver}"
            try:
                rep = self._timed(metric, 1, krylov.solve_via_schur, a11, b_block, f, g,
                                  inner_solver=solver, tol=self.tol)
            except Exception as exc:  # counted, the run goes on
                self.checker.record_error(label, exc)
                continue
            with self.checker:
                rel = rel_residual(self._full, np.concatenate([rep.v, rep.p]), self.rhs)
                self.checker.record(label, rel <= self.tol,
                                    f"assembled residual {rel:.3e}")


WORKLOADS = {w.name: w for w in (StokesPipeline, HsIterate, MechIntegrate, StokesSchur)}


def floor_probe(a, h, s, reps=60):
    """Median ms of one H-solve, one S matvec and one A matvec, with scipy.

    H is factored here (dense Cholesky, or sparse LU for a sparse H), so the
    probe measures the kernels an iteration cannot avoid, without the
    package's own wrappers.
    """
    if scipy.sparse.issparse(h):
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(h))
        hsolve = lu.solve
    else:
        c = scipy.linalg.cho_factor(np.asarray(h), lower=True)
        hsolve = lambda v: scipy.linalg.cho_solve(c, v)
    v = np.random.default_rng(0).standard_normal(np.shape(a)[0])
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        hsolve(v)
        s @ v
        a @ v
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))
