"""Command-line bench harness: scenario runs, solver comparisons, audits.

Subcommands
-----------
solve       solve one linear system (from a model + tau, or a Matrix Market
            file) with one iterative method; writes a residual-history CSV
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

from . import bounds as bounds_mod
from . import dhdae, krylov, staircase, timestep
from .errors import DhKrylovError, ModelError
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
        if not self.tau_list:
            raise DhKrylovError("tau_list must be nonempty")
        for tau in self.tau_list:
            timestep.check_tau(tau)
        if not self.solvers:
            raise DhKrylovError("at least one solver is required")
        for s in self.solvers:
            if s not in krylov.SOLVER_NAMES:
                raise DhKrylovError(f"unknown solver {s!r}")
        if self.rhs.get("kind") not in ("random", "from-model", "file"):
            raise DhKrylovError("rhs kind must be one of random|from-model|file")
        if self.rhs["kind"] == "file" and not isinstance(self.rhs.get("path"), str):
            raise DhKrylovError("a file rhs needs a \"path\" string")
        krylov.check_tol_maxit(self.tol, self.maxit)

    @classmethod
    def from_json(cls, path, overrides=None):
        with open(path) as fh:
            data = json.load(fh)
        data.update(overrides or {})
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise DhKrylovError(f"unknown scenario keys: {', '.join(unknown)}")
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


def run_scenario(scenario: Scenario, out_dir) -> ComparisonTable:
    """Run solver x tau cells of a scenario; write CSVs, table and manifest."""
    scenario.validate()
    model = dhdae.from_descriptor(scenario.model)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_name = scenario.model.get("name", "model")
    rows = []
    artifacts = []
    meta = {}
    for tau in scenario.tau_list:
        msys = timestep.midpoint_system(model, tau)
        h_pd = msys.sys.definiteness is Definiteness.POSITIVE_DEFINITE
        try:
            b = _make_rhs(scenario.rhs, msys, model.n, meta)
        except DhKrylovError as exc:
            for solver in scenario.solvers:
                rows.append({
                    "model": model_name, "tau": float(tau), "solver": solver,
                    "iterations": 0, "final_rel_res": None, "converged": False,
                    "lambda": None, "ritz_lambda": None, "residual_gap": None,
                    "wall_time_s": 0.0, "error": str(exc),
                })
            continue
        lam = bounds_mod.spectral_interval(msys.sys).lam if h_pd else None
        # the reference solution feeds only the err_hnorm column of these two
        x_ref = None
        if h_pd and {"widlund", "rapoport"} & set(scenario.solvers):
            x_ref = scipy.linalg.solve(msys.sys.a, b)
        saddle = None  # the Schur blocks of this tau, shared by every solver
        for solver in scenario.solvers:
            csv_name = f"{model_name}_tau{tau:g}_{solver}.csv"
            row = {
                "model": model_name,
                "tau": float(tau),
                "solver": solver,
                "iterations": 0,
                "final_rel_res": None,
                "converged": False,
                "lambda": lam,
                "ritz_lambda": None,
                "residual_gap": None,
                "wall_time_s": 0.0,
            }
            try:
                if not h_pd:
                    if saddle is None:
                        saddle = timestep.midpoint_saddle_blocks(model, tau)
                    a11, bb, (nv, _) = saddle
                    rep = krylov.solve_via_schur(
                        a11, bb, b[:nv], b[nv:], inner_solver=solver,
                        tol=max(scenario.tol, 1e-14), maxit=scenario.maxit,
                    )
                    row.update(
                        iterations=rep.inner_iterations + rep.outer_iterations,
                        final_rel_res=rep.relative_residual,
                        converged=bool(rep.converged),
                        wall_time_s=rep.wall_time,
                    )
                    _write_schur_csv(out / csv_name, b, rep)
                else:
                    kwargs = {"x_exact": x_ref} if solver in ("widlund", "rapoport") else {}
                    rep = krylov.solve(solver, msys.sys, b, tol=scenario.tol,
                                       maxit=scenario.maxit, **kwargs)
                    row.update(
                        iterations=rep.iterations,
                        final_rel_res=rep.final_relative_residual,
                        converged=bool(rep.converged),
                        ritz_lambda=rep.ritz_half_width,
                        residual_gap=rep.residual_gap,
                        wall_time_s=rep.wall_time,
                    )
                    krylov.residual_history_csv(out / csv_name, rep, lam=lam)
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
        "artifacts": artifacts + ["table.json", "table.txt"],
        "created": datetime.datetime.now().isoformat(timespec="seconds"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return table


def _write_schur_csv(path, b, rep):
    # no per-iteration history of the assembled system exists on this path;
    # record rhs norm and the final assembled residual in the same schema
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "res_2norm", "res_hinv_norm", "err_hnorm",
                         "bound_widlund", "bound_rapoport"])
        bn = float(np.linalg.norm(b))
        writer.writerow(["0", repr(bn), "", "", "", ""])
        writer.writerow(["1", repr(rep.relative_residual * bn), "", "", "", ""])


def audit_staircase(a, tol=RANK_TOL) -> dict:
    """Staircase + Schur audit of one matrix, as a JSON-ready dict."""
    a = np.asarray(a)
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


def _add_model_args(p, required=True):
    p.add_argument("--model", required=required,
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
    lam = None
    if args.matrix:
        a = read_matrix(args.matrix)
        sysm = HsSplitSystem.from_matrix(a)
    else:
        model = dhdae.from_descriptor(_load_model_arg(args))
        msys = timestep.midpoint_system(model, args.tau)
        sysm = msys.sys
    if args.rhs:
        b = read_matrix(args.rhs).reshape(-1)
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(sysm.n)
    if sysm.definiteness is Definiteness.POSITIVE_DEFINITE:
        lam = bounds_mod.spectral_interval(sysm).lam
    rep = krylov.solve(args.solver, sysm, b, tol=args.tol, maxit=args.maxit)
    out = _make_out(args, "solve")
    krylov.residual_history_csv(out / "residuals.csv", rep, lam=lam)
    write_matrix(out / "solution.mtx", rep.solution.reshape(-1, 1))
    report = {
        "solver": args.solver,
        "n": sysm.n,
        "iterations": rep.iterations,
        "converged": bool(rep.converged),
        "final_rel_res": rep.final_relative_residual,
        "lambda": lam,
        "ritz_lambda": rep.ritz_half_width,
        "wall_time_s": rep.wall_time,
        "breakdown": rep.breakdown,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0 if rep.converged else 1


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
        overrides["tau_list"] = [float(t) for t in args.tau.split(",")]
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
    if args.matrix:
        a = read_matrix(args.matrix)
    else:
        model = dhdae.from_descriptor(_load_model_arg(args))
        a = timestep.midpoint_system(model, args.tau).sys.a
    report = audit_staircase(a, tol=args.tol)
    out = _make_out(args, "staircase")
    (out / "staircase.json").write_text(json.dumps(report, indent=2))
    print(json.dumps(report, indent=2))
    return 0


def cmd_bounds(args):
    if args.matrix:
        sysm = HsSplitSystem.from_matrix(read_matrix(args.matrix))
    else:
        model = dhdae.from_descriptor(_load_model_arg(args))
        sysm = timestep.midpoint_system(model, args.tau).sys
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
    p.add_argument("--matrix", help="Matrix Market file with A")
    _add_model_args(p, required=False)
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
    p.add_argument("--matrix")
    _add_model_args(p, required=False)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=RANK_TOL,
                   help="relative rank threshold of the staircase form (hs_staircase)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("bounds", help="spectral half-width and bound curves")
    p.add_argument("--matrix")
    _add_model_args(p, required=False)
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--kmax", type=int, default=50)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("solve", "staircase", "bounds") and not args.matrix and not args.model:
        parser.error("either --matrix or --model is required")
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
