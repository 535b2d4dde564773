"""Command-line bench harness: scenario runs, solver comparisons, audits.

Subcommands
-----------
solve       solve one linear system (from a model + tau, or a Matrix Market
            file) with one iterative method, through the Schur path when
            its Hermitian part is singular; writes a residual-history CSV
            and a JSON report
integrate   midpoint time integration of a model; writes a trajectory CSV
bench       run a scenario (model x tau_list x solvers) and emit a
            comparison table (text + JSON) plus one residual CSV per cell
staircase   staircase/Schur audit of a matrix or of a model's midpoint matrix
bounds      spectral half-width and bound curves for a system
models      list the registered model generators

Scenarios are JSON files; every flag can override the file.  All outputs of
a run land in one directory with a manifest; random right sides are seeded
and the seed is recorded, so re-running a scenario reproduces the CSV
bodies bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import bounds as bounds_mod
from . import dhdae, hs_core, krylov, staircase, timestep
from .errors import DhKrylovError, ModelError, ParameterError
from .hs_core import RANK_TOL, Definiteness, HsSplitSystem, read_matrix, split_hs, write_matrix


@dataclass
class Scenario:
    """One bench configuration; x0 is always zero, matching the protocol."""

    model: dict
    tau_list: list
    solvers: list
    tol: float = 1e-12
    maxit: int = 250
    rhs: dict = field(default_factory=lambda: {"kind": "random", "seed": 0})
    name: str = "scenario"

    def validate(self):
        for key, kind in (("tau_list", "list"), ("solvers", "list"), ("rhs", "dict")):
            value = getattr(self, key)
            if not (isinstance(value, dict if kind == "dict" else (list, tuple)) and value):
                raise DhKrylovError(f"scenario {key} must be a nonempty {kind}, got {value!r}")
        for tau in self.tau_list:
            timestep.check_tau(tau)
        for s in self.solvers:
            if not isinstance(s, str) or s not in krylov.SOLVER_NAMES:
                raise DhKrylovError(f"unknown solver {s!r}")
        if self.rhs.get("kind") not in ("random", "from-model", "file"):
            raise DhKrylovError("rhs kind must be one of random|from-model|file")
        if self.rhs["kind"] == "file" and not isinstance(self.rhs.get("path"), str):
            raise DhKrylovError("a file rhs needs a \"path\" string")
        seed = self.rhs.get("seed", 0)
        if self.rhs["kind"] == "random" and not (isinstance(seed, (int, np.integer)) and seed >= 0):
            raise DhKrylovError(f"a random rhs needs a nonnegative integer seed, got {seed!r}")
        krylov.check_tol_maxit(self.tol, self.maxit)

    @classmethod
    def from_json(cls, path, overrides=None):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DhKrylovError(f"scenario {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise DhKrylovError(f"scenario is a JSON {type(data).__name__}, not an object")
        data.update(overrides or {})
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        missing = sorted({"model", "tau_list", "solvers"} - set(data))
        if unknown or missing:
            raise DhKrylovError(f"scenario keys unknown: {unknown}, missing: {missing}")
        sc = cls(**data)
        sc.validate()
        return sc


@dataclass
class ComparisonTable:
    rows: list

    def to_json(self):
        return [dict(r) for r in self.rows]

    def to_text(self):
        header = f"{'model':<14}{'tau':>10}  {'solver':<10}{'iters':>6}  " \
                 f"{'final_rel_res':>14}  {'conv':>5}  {'lambda':>12}  {'time_s':>8}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lam = f"{r['lambda']:.4e}" if r["lambda"] is not None else "-"
            res = f"{r['final_rel_res']:.3e}" if r["final_rel_res"] is not None else "-"
            lines.append(
                f"{r['model']:<14}{r['tau']:>10.1e}  {r['solver']:<10}"
                f"{r['iterations']:>6d}  {res:>14}  {str(r['converged']):>5}  "
                f"{lam:>12}  {r['wall_time_s']:>8.3f}"
            )
            if "error" in r:
                lines.append(f"  error: {r['error']}")
        return "\n".join(lines)


def _make_rhs(spec, msys, n, rng_meta):
    kind = spec.get("kind", "random")
    if kind == "random":
        seed = int(spec.get("seed", 0))
        rng_meta["rhs_seed"] = seed
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        if np.iscomplexobj(msys.sys.a):
            b = b + 1j * rng.standard_normal(n)
        return b
    if kind == "from-model":
        b = timestep.midpoint_rhs(msys, np.zeros(n), 0.0)
        if np.linalg.norm(b) == 0:
            raise DhKrylovError(
                "from-model rhs is zero (model has no forcing); use a random rhs"
            )
        return b
    if kind == "file":
        return read_matrix(spec["path"]).reshape(-1)
    raise DhKrylovError(f"unknown rhs kind {kind!r}")


def _blank_row(model_name, tau, solver, lam=None):
    return {"model": model_name, "tau": float(tau), "solver": solver, "iterations": 0,
            "final_rel_res": None, "converged": False, "lambda": lam, "ritz_lambda": None,
            "residual_gap": None, "wall_time_s": 0.0}


def _factor_record(factor):
    """The manifest's account of a Cholesky factor of H: its kind, and kd for a band one."""
    if factor is None:
        return {"factor": None}
    if factor.band is None:
        return {"factor": "dense"}
    return {"factor": "band", "kd": factor.band.shape[0] - 1}


def _reference_solution(sysm, b):
    """A^{-1} b by ``splu`` of a CSR ``sysm.ops`` A, else by ``scipy.linalg.solve``."""
    a = sysm.ops[0]
    if not scipy.sparse.issparse(a):
        return scipy.linalg.solve(a, b)
    a = a.tocsc().astype(np.result_type(a.dtype, b.dtype), copy=False)
    return scipy.sparse.linalg.splu(a).solve(b)


def run_scenario(scenario: Scenario, out_dir) -> ComparisonTable:
    """Run solver x tau cells of a scenario; write CSVs, table and manifest.

    The manifest's ``operators`` list records, per tau, whether products
    with the midpoint matrix A ran on CSR copies or dense arrays
    (``HsSplitSystem.ops``), nnz(A), and the Cholesky factor of H:
    ``"band"`` with its half-bandwidth ``kd``, ``"dense"``, or null when H
    is not positive definite.
    """
    scenario.validate()
    model = dhdae.from_descriptor(scenario.model)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_name = scenario.model.get("name", "model")
    rows = []
    artifacts = []
    meta = {}
    operators = []
    for tau in scenario.tau_list:
        msys = timestep.midpoint_system(model, tau)
        h_pd = msys.sys.definiteness is Definiteness.POSITIVE_DEFINITE
        a_op = msys.sys.ops[0]
        csr = scipy.sparse.issparse(a_op)
        operators.append({"tau": float(tau), "products": "csr" if csr else "dense",
                          "nnz_a": int(a_op.nnz if csr else np.count_nonzero(a_op)),
                          **_factor_record(msys.sys.h_factor)})
        try:
            b = _make_rhs(scenario.rhs, msys, model.n, meta)
        except DhKrylovError as exc:
            rows += [{**_blank_row(model_name, tau, solver), "error": str(exc)}
                     for solver in scenario.solvers]
            continue
        lam = bounds_mod.spectral_interval(msys.sys).lam if h_pd else None
        # the reference solution feeds only the err_hnorm column of these two
        x_ref = None
        if h_pd and {"widlund", "rapoport"} & set(scenario.solvers):
            x_ref = _reference_solution(msys.sys, b)
        saddle = None  # the Schur blocks of this tau, shared by every solver
        for solver in scenario.solvers:
            csv_name = f"{model_name}_tau{tau:g}_{solver}.csv"
            row = _blank_row(model_name, tau, solver, lam)
            try:
                if not h_pd and saddle is None:
                    saddle = timestep.midpoint_saddle_blocks(model, tau)
                _solve_cell(row, msys.sys, b, solver, scenario.tol, scenario.maxit,
                            out / csv_name, lam, saddle, x_ref)
                artifacts.append(csv_name)
            except DhKrylovError as exc:
                row["error"] = str(exc)
            rows.append(row)
    table = ComparisonTable(rows=rows)
    (out / "table.json").write_text(json.dumps(table.to_json(), indent=2))
    (out / "table.txt").write_text(table.to_text() + "\n")
    manifest = {
        "scenario": {
            "name": scenario.name,
            "model": scenario.model,
            "tau_list": [float(t) for t in scenario.tau_list],
            "solvers": list(scenario.solvers),
            "tol": scenario.tol,
            "maxit": scenario.maxit,
            "rhs": scenario.rhs,
        },
        "rhs_metadata": meta,
        "operators": operators,
        "artifacts": artifacts + ["table.json", "table.txt"],
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return table


def _solve_cell(row, sysm, b, solver, tol, maxit, csv_path, lam=None, saddle=None,
                x_exact=None):
    """Solve A x = b with one method, write its residual CSV and return x.

    The one solve of a ``bench`` cell and of ``solve``.  A Krylov method
    runs on A when its Hermitian part is positive definite; otherwise
    :func:`krylov.solve_via_schur` runs on the blocks ``saddle``
    (``saddle_blocks(A)`` when None) at tolerance max(tol, 1e-14).  The
    solve's iterations, final_rel_res, converged, ritz_lambda,
    residual_gap, breakdown and wall_time_s fill those keys that ``row``
    has.  ``x_exact`` feeds the err_hnorm column of Widlund and Rapoport.
    The CSV's directory is made only after the solve has returned.
    """
    h_pd = sysm.definiteness is Definiteness.POSITIVE_DEFINITE
    if h_pd:
        kwargs = {"x_exact": x_exact} if solver in ("widlund", "rapoport") else {}
        rep = krylov.solve(solver, sysm, b, tol=tol, maxit=maxit, **kwargs)
        x = rep.solution
        got = {"iterations": rep.iterations, "final_rel_res": rep.final_relative_residual,
               "ritz_lambda": rep.ritz_half_width, "residual_gap": rep.residual_gap,
               "breakdown": rep.breakdown}
    else:
        a11, bb, (n1, _) = saddle if saddle is not None else hs_core.saddle_blocks(sysm.a)
        rep = krylov.solve_via_schur(a11, bb, b[:n1], b[n1:], inner_solver=solver,
                                     tol=max(tol, 1e-14), maxit=maxit)
        x = np.concatenate([rep.v, rep.p])
        got = {"iterations": rep.inner_iterations + rep.outer_iterations,
               "final_rel_res": rep.relative_residual}
    got.update(converged=bool(rep.converged), wall_time_s=rep.wall_time)
    row.update((key, val) for key, val in got.items() if key in row)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    if h_pd:
        krylov.residual_history_csv(csv_path, rep, lam=lam)
        return x
    # no per-iteration history of the assembled system exists on the Schur
    # path; record rhs norm and the final assembled residual in the same schema
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "res_2norm", "res_hinv_norm", "err_hnorm",
                         "bound_widlund", "bound_rapoport"])
        bn = float(np.linalg.norm(b))
        writer.writerow(["0", repr(bn), "", "", "", ""])
        writer.writerow(["1", repr(rep.relative_residual * bn), "", "", "", ""])
    return x


def audit_staircase(a, tol=RANK_TOL) -> dict:
    """Staircase + Schur audit of one matrix, as a JSON-ready dict; a sparse one is densified."""
    a = hs_core.as_dense(a)
    h, s = split_hs(a)
    sf = staircase.hs_staircase(h, s, tol=tol)
    report = staircase.staircase_report(sf)
    try:
        red = staircase.schur_block_diagonalize(sf)
        resid = float(np.linalg.norm(red.reconstruct() - (sf.h_t + sf.s_t), 2))
        scale = float(np.linalg.norm(a, 2)) if a.size else 0.0
        report["schur"] = {
            "block_orders": [int(bl.shape[0]) for bl in red.blocks],
            "hermitian_part_min_eigenvalues": [float(v) for v in red.herm_min_eigenvalues],
            "reconstruction_residual_relative": resid / scale if scale > 0 else 0.0,
        }
    except DhKrylovError as exc:
        report["schur"] = {"error": str(exc)}
    return report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _default_out(prefix):
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{prefix}-{stamp}"


def _make_out(args, prefix):
    """Create the output directory; called just before the first write."""
    out = Path(args.out) if args.out else _default_out(prefix)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model_arg(args):
    """``--model`` with the ``--param`` overrides; ``from_descriptor`` checks its shape."""
    try:
        if args.model.endswith(".json"):
            with open(args.model) as fh:
                desc = json.load(fh)
        else:
            desc = {"name": args.model, "params": {}}
        overrides = {key: json.loads(val)
                     for key, _, val in (kv.partition("=") for kv in args.param or ())}
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON in --model or --param: {exc}")
    if overrides and isinstance(desc, dict) and isinstance(desc.get("params", {}), dict):
        desc["params"] = {**desc.get("params", {}), **overrides}
    return desc


def _load_matrix(args):
    """A from ``--matrix``, or the ``--model`` midpoint matrix at ``--tau``."""
    if args.matrix:
        return read_matrix(args.matrix)
    return timestep._midpoint_matrix(dhdae.from_descriptor(_load_model_arg(args)), args.tau)


def _load_system(args):
    """The split system of :func:`_load_matrix`."""
    return HsSplitSystem.from_matrix(_load_matrix(args))


def _add_model_args(p, required=True, matrix=False):
    """``--model`` and ``--param``; with ``matrix``, exactly one of ``--matrix`` and ``--model``."""
    group = p.add_mutually_exclusive_group(required=True) if matrix else p
    if matrix:
        group.add_argument("--matrix", help="Matrix Market file with A")
    group.add_argument("--model", required=required and not matrix,
                       help="model descriptor JSON file, or a registered model name")
    p.add_argument("--param", action="append", metavar="KEY=JSONVALUE",
                   help="override one model parameter (repeatable)")


def cmd_models(args):
    if args.action == "list":
        payload = {
            name: {"params": entry["params"], "doc": entry["doc"]}
            for name, entry in dhdae.MODEL_REGISTRY.items()
        }
        print(json.dumps(payload, indent=2))
        return 0
    if args.action == "export":
        if not args.model:
            raise DhKrylovError("models export requires --model")
        model = dhdae.from_descriptor(_load_model_arg(args))
        out = _make_out(args, "model")
        for name, mat in (("e", model.e), ("j", model.j), ("r", model.r)):
            write_matrix(out / f"{name}.mtx", mat)
        print(f"wrote e.mtx, j.mtx, r.mtx (n={model.n}) to {out}")
        return 0
    raise DhKrylovError(f"unknown models action {args.action!r}")


def cmd_solve(args):
    krylov.check_tol_maxit(args.tol, args.maxit)
    sysm = _load_system(args)
    if args.rhs:
        b = read_matrix(args.rhs).reshape(-1)
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(sysm.n)
    lam = None
    if sysm.definiteness is Definiteness.POSITIVE_DEFINITE:
        lam = bounds_mod.spectral_interval(sysm).lam
    report = {"solver": args.solver, "n": sysm.n, "iterations": 0, "converged": False,
              "final_rel_res": None, "lambda": lam, "ritz_lambda": None,
              "wall_time_s": 0.0, "breakdown": None}
    out = Path(args.out) if args.out else _default_out("solve")
    x = _solve_cell(report, sysm, b, args.solver, args.tol, args.maxit,
                    out / "residuals.csv", lam)
    write_matrix(out / "solution.mtx", x.reshape(-1, 1))
    (out / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0 if report["converged"] else 1


def cmd_integrate(args):
    model = dhdae.from_descriptor(_load_model_arg(args))
    x0 = read_matrix(args.x0).reshape(-1) if args.x0 else np.zeros(model.n)
    traj = timestep.integrate(model, x0, args.tau, args.steps, solver=args.solver,
                              tol=args.tol)
    out = _make_out(args, "integrate")
    traj.to_csv(out / "trajectory.csv")
    summary = {
        "steps": args.steps,
        "tau": args.tau,
        "hamiltonian_initial": float(traj.hamiltonians[0]),
        "hamiltonian_final": float(traj.hamiltonians[-1]),
        "dissipated_total": float(np.sum(traj.dissipation)),
        "krylov_iterations_total": int(np.sum(traj.iterations)),
        "ledger_gap_max": float(np.max(np.abs(traj.ledger_gaps), initial=0.0)),
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def cmd_bench(args):
    overrides = {}
    if args.tau:
        try:
            overrides["tau_list"] = [float(t) for t in args.tau.split(",")]
        except ValueError:
            raise ParameterError(f"--tau must be comma-separated numbers, got {args.tau!r}")
    if args.solvers:
        overrides["solvers"] = args.solvers.split(",")
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.maxit is not None:
        overrides["maxit"] = args.maxit
    if args.seed is not None:
        overrides["rhs"] = {"kind": "random", "seed": args.seed}
    scenario = Scenario.from_json(args.scenario, overrides)
    out = Path(args.out) if args.out else _default_out("bench")
    table = run_scenario(scenario, out)
    print(table.to_text())
    print(f"\nartifacts in {out}")
    return 0 if all(r["converged"] for r in table.rows) else 1


def cmd_staircase(args):
    report = audit_staircase(_load_matrix(args), tol=args.tol)
    out = _make_out(args, "staircase")
    (out / "staircase.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0


def cmd_bounds(args):
    if args.kmax < 0:
        raise ParameterError(f"--kmax must be nonnegative, got {args.kmax}")
    sysm = _load_system(args)
    interval = bounds_mod.spectral_interval(sysm)
    kappa = bounds_mod.kappa_y_estimate(sysm)
    out = _make_out(args, "bounds")
    with open(out / "bounds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "bound_widlund", "bound_rapoport", "bound_lgmres_estimate"])
        for k in range(args.kmax + 1):
            bw = repr(bounds_mod.widlund_bound(interval.lam, k // 2)) \
                if k >= 2 and k % 2 == 0 else ""
            br = repr(bounds_mod.rapoport_bound(interval.lam, k))
            bl = repr(bounds_mod.lgmres_bound_estimate(interval.lam, k, kappa))
            writer.writerow([str(k), bw, br, bl])
    info = {
        "lambda": interval.lam,
        "max_real_part": interval.max_real_part,
        "kappa_y_estimate": kappa,
    }
    (out / "report.json").write_text(json.dumps(info, indent=2))
    print(json.dumps(info, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dhkrylov",
        description="dissipative-Hamiltonian DAE models and H+S Krylov solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="model registry operations")
    p.add_argument("action", choices=["list", "export"])
    _add_model_args(p, required=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("solve", help="solve one linear system")
    _add_model_args(p, matrix=True)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--rhs", help="Matrix Market file with b")
    p.add_argument("--seed", type=int, default=0, help="seed for a random rhs")
    p.add_argument("--solver", default="rapoport", choices=krylov.SOLVER_NAMES)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--maxit", type=int, default=250)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("integrate", help="implicit midpoint trajectory")
    _add_model_args(p)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--x0", help="Matrix Market file with the initial state")
    p.add_argument("--solver", default="direct", choices=("direct",) + krylov.SOLVER_NAMES)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("bench", help="run a scenario comparison")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--tau", help="comma-separated tau override")
    p.add_argument("--solvers", help="comma-separated solver override")
    p.add_argument("--tol", type=float)
    p.add_argument("--maxit", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("staircase", help="staircase/Schur audit")
    _add_model_args(p, matrix=True)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=RANK_TOL,
                   help="relative rank threshold of the staircase form (hs_staircase)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("bounds", help="spectral half-width and bound curves")
    _add_model_args(p, matrix=True)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DhKrylovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
