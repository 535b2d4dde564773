import csv
import json
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import dhkrylov as dk
from dhkrylov.cli import Scenario, audit_staircase, main, run_scenario

from support import random_hs_system


@pytest.fixture
def mech_scenario(tmp_path):
    scn = {
        "name": "mech-test",
        "model": {"name": "mechanical", "params": {"n": 10, "seed": 3, "damping": 1.0}},
        "tau_list": [1e-3],
        "solvers": ["widlund", "rapoport", "gmres"],
        "tol": 1e-12,
        "maxit": 250,
        "rhs": {"kind": "random", "seed": 7},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    return path


def test_models_list(capsys):
    assert main(["models", "list"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mechanical", "rlc", "stokes", "poroelastic"}
    assert "params" in payload["rlc"]


def test_models_export_matrix_market(tmp_path):
    out = tmp_path / "rlc"
    assert main(["models", "export", "--model", "rlc", "--out", str(out)]) == 0
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    assert np.array_equal(dk.read_matrix(out / "e.mtx"), sys.e)
    assert np.array_equal(dk.read_matrix(out / "j.mtx"), sys.j)
    assert np.array_equal(dk.read_matrix(out / "r.mtx"), sys.r)


def test_models_export_writes_sparse_stokes_in_coordinate_format(tmp_path):
    # E, J and R of Stokes are CSR: their stored entries, not 12 MB dense files
    out = tmp_path / "stokes"
    assert main(["models", "export", "--model", "stokes", "--param", "grid_n=16",
                 "--out", str(out)]) == 0
    model = dk.from_descriptor({"name": "stokes", "params": {"grid_n": 16}})
    for name in ("e", "j", "r"):
        path = out / f"{name}.mtx"
        assert "coordinate" in path.read_text().splitlines()[0]
        assert path.stat().st_size < 200_000
        assert np.array_equal(dk.read_matrix(path), getattr(model, name).toarray())
    # a dense matrix still goes to array format
    dk.write_matrix(tmp_path / "dense.mtx", model.e.toarray())
    assert "array" in (tmp_path / "dense.mtx").read_text().splitlines()[0]


def test_bench_widlund_rapoport_iterations_nonincreasing_in_tau(tmp_path):
    # desk-scale analogue of the reported trend: smaller tau, fewer steps
    scn = Scenario(
        model={"name": "mechanical", "params": {"n": 20, "seed": 3, "damping": 1.0}},
        tau_list=[1e-3, 1e-4],
        solvers=["widlund", "rapoport"],
        rhs={"kind": "random", "seed": 7},
    )
    table = run_scenario(scn, tmp_path / "run")
    iters = {(r["solver"], r["tau"]): r["iterations"] for r in table.rows}
    for solver in ("widlund", "rapoport"):
        assert iters[(solver, 1e-4)] <= iters[(solver, 1e-3)]


def test_bench_rhs_from_file(tmp_path):
    b = np.arange(1.0, 41.0)
    bpath = tmp_path / "b.mtx"
    dk.write_matrix(bpath, b.reshape(-1, 1))
    scn = Scenario(
        model={"name": "mechanical", "params": {"n": 20, "seed": 3}},
        tau_list=[1e-3],
        solvers=["rapoport"],
        rhs={"kind": "file", "path": str(bpath)},
    )
    table = run_scenario(scn, tmp_path / "run")
    assert table.rows[0]["converged"]


def test_bench_run_table_and_artifacts(mech_scenario, tmp_path):
    out = tmp_path / "run"
    assert main(["bench", "--scenario", str(mech_scenario), "--out", str(out)]) == 0
    table = json.loads((out / "table.json").read_text())
    assert len(table) == 3  # full (solver, tau) cross product
    for row in table:
        assert set(row) >= {"model", "tau", "solver", "iterations", "final_rel_res",
                            "converged", "lambda", "wall_time_s"}
        if row["converged"]:
            assert row["final_rel_res"] <= 1e-12 * (1 + 1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rhs_metadata"]["rhs_seed"] == 7
    for name in manifest["artifacts"]:
        assert (out / name).exists()


def test_bench_rerun_identical_csv_bodies(mech_scenario, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["bench", "--scenario", str(mech_scenario), "--out", str(out_a)])
    main(["bench", "--scenario", str(mech_scenario), "--out", str(out_b)])
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_bench_schur_routing_for_index_two_model(tmp_path, monkeypatch):
    scn = {
        "name": "stokes-schur",
        "model": {"name": "stokes", "params": {"grid_n": 3, "stabilization": 0.0}},
        "tau_list": [1e-3],
        "solvers": ["rapoport"],
        "tol": 1e-11,
        "rhs": {"kind": "random", "seed": 1},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    out = tmp_path / "run"
    reports = []
    schur = dk.krylov.solve_via_schur

    def capture(*args, **kwargs):
        reports.append(schur(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(dk.krylov, "solve_via_schur", capture)
    assert main(["bench", "--scenario", str(path), "--out", str(out)]) == 0
    table = json.loads((out / "table.json").read_text())
    assert table[0]["converged"]
    assert table[0]["final_rel_res"] <= 1e-11
    # the saddle solution solves the assembled midpoint system for the seeded rhs
    model = dk.from_descriptor(scn["model"])
    a = model.e + (1e-3 / 2) * (model.r - model.j)
    b = np.random.default_rng(1).standard_normal(model.n)
    (rep,) = reports
    x = np.concatenate([rep.v, rep.p])
    assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_bench_schur_solvers_iterate_on_convective_index_two_model(tmp_path, monkeypatch):
    # with convection the inner and outer solves of every method really iterate
    scn = {
        "name": "stokes-schur-convective",
        "model": {"name": "stokes",
                  "params": {"grid_n": 5, "convection": 50.0, "stabilization": 0.0}},
        "tau_list": [1e-3],
        "solvers": ["widlund", "rapoport", "gmres", "lgmres"],
        "tol": 1e-11,
        "rhs": {"kind": "random", "seed": 2},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    reports = []
    schur = dk.krylov.solve_via_schur

    def capture(*args, **kwargs):
        reports.append(schur(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(dk.krylov, "solve_via_schur", capture)
    assert main(["bench", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 0
    table = json.loads((tmp_path / "run" / "table.json").read_text())
    assert [row["solver"] for row in table] == scn["solvers"]
    assert all(row["converged"] for row in table)
    model = dk.from_descriptor(scn["model"])
    a = model.e + (1e-3 / 2) * (model.r - model.j)
    b = np.random.default_rng(2).standard_normal(model.n)
    assert len(reports) == len(scn["solvers"])
    for rep in reports:
        assert rep.outer_iterations > 1
        assert rep.inner_iterations > 2 * rep.p.size
        x = np.concatenate([rep.v, rep.p])
        assert np.linalg.norm(a @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_bench_schur_blocks_built_once_per_tau_and_hss_converges(tmp_path, monkeypatch):
    scn = Scenario(
        name="schur-hss",
        model={"name": "stokes",
               "params": {"grid_n": 3, "convection": 50.0, "stabilization": 0.0}},
        tau_list=[1e-3, 1e-2], solvers=["rapoport", "hss"], tol=1e-12,
        rhs={"kind": "random", "seed": 3},
    )
    calls = []
    blocks = dk.timestep.midpoint_saddle_blocks

    def counted(*args, **kwargs):
        calls.append(args[1])
        return blocks(*args, **kwargs)

    monkeypatch.setattr(dk.timestep, "midpoint_saddle_blocks", counted)
    table = run_scenario(scn, tmp_path / "run")
    assert calls == [1e-3, 1e-2]
    assert [(row["solver"], row["converged"]) for row in table.rows] == \
        [("rapoport", True), ("hss", True)] * 2
    assert all(row["final_rel_res"] <= 1e-12 for row in table.rows)


def test_bench_incompatible_solver_reported_per_row(tmp_path):
    # unpreconditioned GMRES cannot reach tol on S1 within 20 steps; Rapoport can
    scn = {
        "name": "bad",
        "model": {"name": "stokes", "params": {"grid_n": 5, "convection": 50.0,
                                               "stabilization": 0.0}},
        "tau_list": [1e-3],
        "solvers": ["rapoport", "gmres"],
        "tol": 1e-10,
        "maxit": 20,
        "rhs": {"kind": "random", "seed": 1},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    out = tmp_path / "run"
    # the failed row sets the exit status, as a failed solve does
    assert main(["bench", "--scenario", str(path), "--out", str(out)]) == 1
    table = json.loads((out / "table.json").read_text())
    errors = [r for r in table if "error" in r]
    assert len(errors) == 1 and errors[0]["solver"] == "gmres"
    message = "outer gmres solve with S1 stopped after 20 of maxit=20 steps at relative residual "
    assert errors[0]["error"].startswith(message)
    assert len(table) == 2 and table[0]["converged"]  # the run continued
    text = (out / "table.txt").read_text().splitlines()
    assert text[-1] == "  error: " + errors[0]["error"]
    assert "error" not in "".join(text[:-1])


def test_bench_failed_row_shows_in_table_text_and_exit_code(tmp_path, capsys):
    # the unforced rlc circuit has a zero from-model rhs: the row fails, and
    # says why in table.txt too
    scn = {
        "name": "rlc-zero-rhs",
        "model": {"name": "rlc"},
        "tau_list": [1e-2],
        "solvers": ["rapoport"],
        "rhs": {"kind": "from-model"},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    out = tmp_path / "run"
    assert main(["bench", "--scenario", str(path), "--out", str(out)]) == 1
    (row,) = json.loads((out / "table.json").read_text())
    message = "from-model rhs is zero (model has no forcing); use a random rhs"
    assert not row["converged"] and row["error"] == message
    assert f"error: {message}" in (out / "table.txt").read_text()
    assert f"error: {message}" in capsys.readouterr().out


def test_bench_quasi_stationary_poroelastic_takes_schur_path(tmp_path):
    # H = blkdiag(M + tau/2 K, A, 0) is singular exactly on the trailing w block
    scn = {
        "name": "poro-qs",
        "model": {"name": "poroelastic",
                  "params": {"n": 20, "p": 10, "quasi_stationary": True}},
        "tau_list": [1e-2],
        "solvers": ["widlund", "rapoport", "lgmres"],
        "tol": 1e-10,
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    out = tmp_path / "run"
    assert main(["bench", "--scenario", str(path), "--out", str(out)]) == 0
    table = json.loads((out / "table.json").read_text())
    assert [row["solver"] for row in table] == scn["solvers"]
    assert all(row["converged"] and row["final_rel_res"] <= 1e-10 for row in table)


def test_bench_unknown_model_leaves_no_run_directory(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"model": {"name": "stokez"}, "tau_list": [1e-3],
                                "solvers": ["rapoport"]}))
    out = tmp_path / "run"
    assert main(["bench", "--scenario", str(path), "--out", str(out)]) == 2
    _single_error_line(capsys.readouterr().err)
    assert not out.exists()


REPORT_KEYS = ["solver", "n", "iterations", "converged", "final_rel_res", "lambda",
               "ritz_lambda", "wall_time_s", "breakdown"]


def test_solve_subcommand_with_matrix_file(tmp_path, capsys):
    rng = np.random.default_rng(2)
    sysm = random_hs_system(rng, 12, cond_h=20.0, lam=0.5)
    amtx = tmp_path / "a.mtx"
    dk.write_matrix(amtx, sysm.a)
    out = tmp_path / "out"
    code = main(["solve", "--matrix", str(amtx), "--solver", "rapoport",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"]
    assert list(report) == REPORT_KEYS
    with open(out / "residuals.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["k", "res_2norm", "res_hinv_norm", "err_hnorm",
                      "bound_widlund", "bound_rapoport"]
    x = dk.read_matrix(out / "solution.mtx").reshape(-1)
    b = np.random.default_rng(5).standard_normal(12)
    assert np.linalg.norm(sysm.a @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_solve_rhs_of_wrong_length_is_usage_error(tmp_path, capsys):
    bpath = tmp_path / "b.mtx"
    dk.write_matrix(bpath, np.ones((4, 1)))
    code = main(["solve", "--model", "rlc", "--rhs", str(bpath),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines()), err
    assert "Traceback" not in err


def test_solve_quasi_stationary_poroelastic_takes_schur_path(tmp_path):
    # H = blkdiag(M + tau/2 K, A, 0) is singular on the trailing w block
    out = tmp_path / "out"
    code = main(["solve", "--model", "poroelastic", "--param", "quasi_stationary=true",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report) == REPORT_KEYS
    assert report["converged"] and report["final_rel_res"] <= 1e-12
    assert report["lambda"] is None and report["breakdown"] is None


@pytest.mark.parametrize("solver", ["widlund", "rapoport", "lgmres", "gmres"])
def test_solve_matrix_file_of_unstabilized_stokes(tmp_path, solver):
    # the pressure coordinates come last, so the saddle rule reads the split from A
    model = dk.from_descriptor({"name": "stokes",
                                "params": {"grid_n": 6, "stabilization": 0.0}})
    a = dk.midpoint_system(model, 1e-3).sys.a
    amtx = tmp_path / "a.mtx"
    dk.write_matrix(amtx, a)
    out = tmp_path / "out"
    code = main(["solve", "--matrix", str(amtx), "--solver", solver, "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report) == REPORT_KEYS and report["converged"]
    x = dk.read_matrix(out / "solution.mtx").reshape(-1)
    b = np.random.default_rng(4).standard_normal(a.shape[0])
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("model", [{"name": "mechanical", "params": {"n": 6}},
                                   {"name": "stokes",
                                    "params": {"grid_n": 3, "stabilization": 0.0}}])
def test_solve_and_one_cell_bench_take_the_same_route(tmp_path, model):
    tau, seed = 1e-2, 5
    scn = Scenario(model=model, tau_list=[tau], solvers=["lgmres"],
                   rhs={"kind": "random", "seed": seed})
    row, = run_scenario(scn, tmp_path / "bench").rows
    out = tmp_path / "solve"
    argv = ["solve", "--model", model["name"], "--tau", str(tau), "--solver", "lgmres",
            "--seed", str(seed), "--out", str(out)]
    for key, val in model["params"].items():
        argv += ["--param", f"{key}={json.dumps(val)}"]
    assert main(argv) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("iterations", "converged", "final_rel_res"):
        assert report[key] == row[key], key

    def res_2norm(path):
        with open(path) as fh:
            return [r["res_2norm"] for r in csv.DictReader(fh)]

    bench_csv = tmp_path / "bench" / f"{model['name']}_tau{tau:g}_lgmres.csv"
    assert res_2norm(out / "residuals.csv") == res_2norm(bench_csv)


@pytest.mark.parametrize("command", ["solve", "staircase", "bounds"])
def test_matrix_and_model_together_is_usage_error(tmp_path, capsys, command):
    amtx = tmp_path / "a.mtx"
    dk.write_matrix(amtx, np.eye(3))
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "rlc", "--matrix", str(amtx),
              "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert "--matrix" in lines[-1] and "--model" in lines[-1]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("solver, solves_per_tau", [("lgmres", 0), ("widlund", 1)])
def test_bench_reference_solve_only_for_error_columns(tmp_path, monkeypatch, solver,
                                                      solves_per_tau):
    # the dense reference solution feeds only the err_hnorm column
    calls = []
    solve = scipy.linalg.solve

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve", counted_solve)
    scn = Scenario(
        model={"name": "mechanical", "params": {"n": 6, "seed": 3, "damping": 1.0}},
        tau_list=[1e-3, 1e-4],
        solvers=[solver],
        rhs={"kind": "random", "seed": 7},
    )
    out = tmp_path / "run"
    table = run_scenario(scn, out)
    assert len(calls) == solves_per_tau * len(scn.tau_list)
    for row in table.rows:
        assert row["converged"]
        with open(out / f"mechanical_tau{row['tau']:g}_{solver}.csv") as fh:
            err_column = [r["err_hnorm"] for r in csv.DictReader(fh)]
        assert all(err_column) if solves_per_tau else not any(err_column)


@pytest.mark.parametrize("model, products", [
    ({"name": "stokes", "params": {"grid_n": 12, "viscosity": 100.0, "stabilization": 0.005}},
     "csr"),
    ({"name": "mechanical", "params": {"n": 10, "seed": 3, "damping": 1.0}}, "dense"),
])
def test_manifest_records_product_operators_and_sparse_reference(tmp_path, monkeypatch, model,
                                                                  products):
    # a CSR midpoint matrix takes its reference solution from splu, a dense
    # one from scipy.linalg.solve; the manifest says which products ran and
    # which Cholesky factor of H served the H-solves: the band one of the
    # Stokes H (kd = 12 at grid 12), the dense one of the mechanical H
    factor = {"factor": "band", "kd": 12} if products == "csr" else {"factor": "dense"}
    calls = []
    for mod, name in ((scipy.linalg, "solve"), (scipy.sparse.linalg, "splu")):
        def counted(*args, _f=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    taus = [1e-3, 1e-4]
    scn = Scenario(model=model, tau_list=taus, solvers=["widlund"],
                   rhs={"kind": "random", "seed": 7})
    out = tmp_path / "run"
    table = run_scenario(scn, out)
    assert calls == ["splu" if products == "csr" else "solve"] * len(taus)
    manifest = json.loads((out / "manifest.json").read_text())
    system = dk.from_descriptor(model)
    expected = []
    for tau in taus:
        a = dk.as_dense(dk.midpoint_system(system, tau).sys.a)
        expected.append({"tau": tau, "products": products, "nnz_a": int(np.count_nonzero(a)),
                         **factor})
        b = np.random.default_rng(7).standard_normal(a.shape[0])
        with open(out / f"{model['name']}_tau{tau:g}_widlund.csv") as fh:
            err0 = float(next(csv.DictReader(fh))["err_hnorm"])
        # the first entry is ||x_ref||_H of the reference solution
        x = np.linalg.solve(a, b)
        h = (a + a.T) / 2
        assert err0 == pytest.approx(np.sqrt(x @ h @ x), rel=1e-10)
    assert manifest["operators"] == expected
    assert all(row["converged"] for row in table.rows)


def _count_densify(monkeypatch):
    """Log the shape of each matrix that ``hs_core.as_dense`` converts, wherever it is bound."""
    calls, as_dense = [], dk.hs_core.as_dense

    def counted(m):
        calls.append(m.shape)
        return as_dense(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dhkrylov" and getattr(module, "as_dense", None) is as_dense:
            monkeypatch.setattr(module, "as_dense", counted)
    return calls


def test_stokes_bench_path_makes_no_dense_matrix(tmp_path, monkeypatch):
    # the stokes-pipeline scenario of the benchmark: model, midpoint split,
    # lam, three solvers, the splu reference and the CSVs, all on CSR
    model = {"name": "stokes", "params": {"grid_n": 16, "viscosity": 100.0,
                                          "stabilization": 0.005}}
    scn = Scenario(model=model, tau_list=[1e-3, 1e-4],
                   solvers=["widlund", "rapoport", "lgmres"], tol=1e-12, maxit=250,
                   rhs={"kind": "random", "seed": 1})
    calls = _count_densify(monkeypatch)
    table = run_scenario(scn, tmp_path / "run")
    assert all(row["converged"] for row in table.rows) and len(table.rows) == 6
    assert calls == []
    # the counter sees the conversions that do happen: HSS needs dense H and S
    dk.midpoint_system(dk.from_descriptor(model), 1e-3).sys.hss_factors
    assert calls and all(shape == (735, 735) for shape in calls)


def test_integrate_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(["integrate", "--model", "mechanical", "--param", "n=4",
                 "--param", "damping=0.5", "--tau", "0.05", "--steps", "10",
                 "--out", str(out)])
    assert code == 0
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t" and rows[0][-2:] == ["hamiltonian", "dissipation"]
    assert len(rows) == 12
    assert json.loads((out / "report.json").read_text())["krylov_iterations_total"] == 0


def test_integrate_negative_step_count_is_usage_error(tmp_path, capsys):
    code = main(["integrate", "--model", "rlc", "--tau", "0.01", "--steps=-3",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("solver", ["direct", "rapoport"])
def test_integrate_nan_tol_is_usage_error(tmp_path, capsys, solver):
    code = main(["integrate", "--model", "rlc", "--tau", "0.01", "--steps", "3",
                 "--solver", solver, "--tol", "nan", "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    _single_error_line(err)
    assert "tol must be" in err
    assert not (tmp_path / "run").exists()


def test_bounds_negative_kmax_is_usage_error(tmp_path, capsys):
    code = main(["bounds", "--model", "rlc", "--kmax=-1", "--out", str(tmp_path / "run")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_integrate_reports_krylov_iterations_total(tmp_path):
    model = {"name": "mechanical", "params": {"n": 4, "damping": 0.5}}
    x0 = np.random.default_rng(4).standard_normal(8)
    dk.write_matrix(tmp_path / "x0.mtx", x0.reshape(-1, 1))
    out = tmp_path / "out"
    assert main(["integrate", "--model", "mechanical", "--param", "n=4",
                 "--param", "damping=0.5", "--tau", "0.05", "--steps", "10",
                 "--x0", str(tmp_path / "x0.mtx"), "--solver", "rapoport",
                 "--out", str(out)]) == 0
    traj = dk.integrate(dk.from_descriptor(model), x0, 0.05, 10, solver="rapoport")
    total = json.loads((out / "report.json").read_text())["krylov_iterations_total"]
    assert total == int(np.sum(traj.iterations)) > 0


def test_integrate_reports_largest_ledger_gap(tmp_path):
    model = {"name": "mechanical", "params": {"n": 4, "damping": 0.5}}
    x0 = np.random.default_rng(4).standard_normal(8)
    dk.write_matrix(tmp_path / "x0.mtx", x0.reshape(-1, 1))
    out = tmp_path / "out"
    assert main(["integrate", "--model", "mechanical", "--param", "n=4",
                 "--param", "damping=0.5", "--tau", "0.05", "--steps", "10",
                 "--x0", str(tmp_path / "x0.mtx"), "--solver", "gmres", "--tol", "1e-6",
                 "--out", str(out)]) == 0
    traj = dk.integrate(dk.from_descriptor(model), x0, 0.05, 10, solver="gmres", tol=1e-6)
    gap = json.loads((out / "report.json").read_text())["ledger_gap_max"]
    assert gap == float(np.max(np.abs(traj.ledger_gaps)))
    assert gap <= 1e-14 * np.max(traj.hamiltonians)


def test_staircase_subcommand_identity(tmp_path, capsys):
    amtx = tmp_path / "eye.mtx"
    dk.write_matrix(amtx, np.eye(6))
    out = tmp_path / "out"
    assert main(["staircase", "--matrix", str(amtx), "--out", str(out)]) == 0
    report = json.loads((out / "staircase.json").read_text())
    assert report["r"] == 2
    assert report["block_sizes"] == [6, 0]


def test_staircase_of_a_model_builds_no_split_system(tmp_path, monkeypatch):
    # the audit reads only the midpoint matrix A: no split, Cholesky attempt or
    # eigvalsh fallback of HsSplitSystem.from_matrix
    model = dk.assemble_stokes_like(12, stabilization=0.0)
    expected = json.dumps(audit_staircase(dk.midpoint_system(model, 1e-3).sys.a), indent=2)

    def refuse(cls, a):
        raise AssertionError("HsSplitSystem.from_matrix called")

    monkeypatch.setattr(dk.HsSplitSystem, "from_matrix", classmethod(refuse))
    out = tmp_path / "out"
    assert main(["staircase", "--model", "stokes", "--param", "grid_n=12",
                 "--param", "stabilization=0", "--tau", "1e-3", "--out", str(out)]) == 0
    assert (out / "staircase.json").read_text() == expected


def test_audit_staircase_stokes_midpoint_structure():
    # unstabilized Stokes midpoint matrix is already a 3-stage staircase
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    a = dk.midpoint_system(sys, 1e-3).sys.a
    report = audit_staircase(a)
    assert report["r"] == 3
    _, _, (nv, n_p) = dk.midpoint_saddle_blocks(sys, 1e-3)
    assert report["block_sizes"] == [nv, n_p, 0]
    assert report["reconstruction_residual_relative"] <= 1e-10
    assert report["schur"]["block_orders"] == [nv, n_p]
    assert all(v > 0 for v in report["schur"]["hermitian_part_min_eigenvalues"])


def test_audit_staircase_random_psd_instance():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    h = (q * np.concatenate([rng.uniform(0.5, 2.0, 6), np.zeros(4)])) @ q.T
    g = rng.standard_normal((10, 10))
    report = audit_staircase((h + h.T) / 2 + (g - g.T) / 2)
    assert report["reconstruction_residual_relative"] <= 1e-10
    json.dumps(report)


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "out"
    code = main(["bounds", "--model", "mechanical", "--param", "n=6",
                 "--tau", "0.001", "--kmax", "10", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["lambda"] > 0
    assert report["max_real_part"] <= 1e-10 * report["lambda"]
    with open(out / "bounds.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "bound_widlund", "bound_rapoport", "bound_lgmres_estimate"]
    assert len(rows) == 12


def test_unknown_solver_is_usage_error(mech_scenario, tmp_path):
    code = main(["bench", "--scenario", str(mech_scenario),
                 "--solvers", "jacobi", "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("key, value", [("solver", ["rapoport"]), ("schur", "never"),
                                        ("hss_alpha", 2.0)])
def test_scenario_unknown_key_is_usage_error(mech_scenario, tmp_path, capsys, key, value):
    # a misspelt or retired key would otherwise change the run without a word
    scn = json.loads(mech_scenario.read_text())
    scn[key] = value
    if key == "solver":
        del scn["solvers"]
    mech_scenario.write_text(json.dumps(scn))
    code = main(["bench", "--scenario", str(mech_scenario), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    _single_error_line(err)
    assert key in err
    assert not (tmp_path / "run").exists()


def _edited(**changes):
    return lambda scn: json.dumps({**scn, **changes})


@pytest.mark.parametrize("make, needle", [
    (_edited(rhs=5), "rhs"),
    (_edited(tau_list="0.1"), "tau_list"),
    (_edited(tau_list=["0.1"]), "tau"),
    (_edited(rhs={"kind": "random", "seed": "x"}), "seed"),
    (_edited(solvers="widlund"), "solvers"),
    (lambda scn: json.dumps([scn]), "list"),
    (lambda scn: json.dumps(scn)[:-1], "JSON"),
    (lambda scn: json.dumps({k: v for k, v in scn.items() if k != "model"}), "model"),
], ids=["rhs_number", "tau_list_string", "tau_string", "seed_string", "solvers_string",
        "top_level_array", "invalid_json", "missing_model"])
def test_malformed_scenario_is_usage_error(mech_scenario, tmp_path, capsys, make, needle):
    mech_scenario.write_text(make(json.loads(mech_scenario.read_text())))
    code = main(["bench", "--scenario", str(mech_scenario), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    _single_error_line(err)
    assert needle in err
    assert not (tmp_path / "run").exists()


def test_non_numeric_bench_tau_is_usage_error(mech_scenario, tmp_path, capsys):
    # the --tau override is parsed before the scenario file is read
    code = main(["bench", "--scenario", str(mech_scenario), "--tau", "1e-3,abc",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    _single_error_line(err)
    assert "'1e-3,abc'" in err
    assert not (tmp_path / "run").exists()


def test_integrate_unknown_solver_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--model", "rlc", "--tau", "0.01", "--steps", "3",
              "--solver", "foo", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[0].startswith("usage:")
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert "'foo'" in lines[-1]
    assert not (tmp_path / "run").exists()


def test_unreadable_matrix_is_io_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["solve", "--matrix", str(tmp_path / "missing.mtx")])
    assert code == 2
    assert not (tmp_path / "runs").exists()


def test_from_model_rhs_requires_forcing(tmp_path):
    scn = Scenario(
        model={"name": "mechanical", "params": {"n": 4}},
        tau_list=[1e-2],
        solvers=["rapoport"],
        rhs={"kind": "from-model"},
    )
    table = run_scenario(scn, tmp_path / "run")
    assert "error" in table.rows[0]

    scn2 = Scenario(
        model={"name": "rlc", "params": {"eg": {"kind": "constant", "amplitude": 2.0}}},
        tau_list=[1e-2],
        solvers=["rapoport"],
        rhs={"kind": "from-model"},
    )
    table2 = run_scenario(scn2, tmp_path / "run2")
    assert table2.rows[0]["converged"]


def _single_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("flags", [["--maxit", "-1"], ["--tol=-1e-12"],
                                   ["--tol", "nan"]])
def test_bad_tol_or_maxit_is_usage_error(mech_scenario, tmp_path, capsys, flags):
    code = main(["solve", "--model", "rlc", "--solver", "gmres", *flags,
                 "--out", str(tmp_path / "solve")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)
    code = main(["bench", "--scenario", str(mech_scenario), *flags,
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "solve").exists() and not (tmp_path / "bench").exists()


@pytest.mark.parametrize("tau", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["solve", "bounds", "integrate", "bench"])
def test_bad_tau_is_usage_error(mech_scenario, tmp_path, capsys, command, tau):
    args = {"solve": ["--model", "rlc"], "bounds": ["--model", "rlc"],
            "integrate": ["--model", "rlc", "--steps", "3"],
            "bench": ["--scenario", str(mech_scenario)]}[command]
    code = main([command, *args, f"--tau={tau}", "--out", str(tmp_path / "run")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model, param", [("mechanical", "n=-1"), ("poroelastic", "n=-2"),
                                          ("poroelastic", "p=-1")])
def test_negative_model_size_is_usage_error(tmp_path, capsys, model, param):
    code = main(["solve", "--model", model, "--param", param,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["scenario-model-string", "param-not-json",
                                  "param-wrong-type", "model-file-list"])
def test_malformed_model_descriptor_is_usage_error(tmp_path, capsys, case):
    if case == "scenario-model-string":
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"model": "stokes", "tau_list": [1e-3],
                                    "solvers": ["rapoport"]}))
        argv = ["bench", "--scenario", str(path)]
    elif case == "model-file-list":
        path = tmp_path / "model.json"
        path.write_text(json.dumps([{"name": "stokes"}]))
        argv = ["solve", "--model", str(path)]
    else:
        value = {"param-not-json": "abc", "param-wrong-type": '"x"'}[case]
        argv = ["solve", "--model", "stokes", "--param", f"grid_n={value}"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    _single_error_line(capsys.readouterr().err)


def test_file_rhs_without_path_is_usage_error(tmp_path, capsys):
    scn = {
        "name": "no-path",
        "model": {"name": "rlc", "params": {}},
        "tau_list": [1e-2],
        "solvers": ["rapoport"],
        "rhs": {"kind": "file"},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    code = main(["bench", "--scenario", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    _single_error_line(capsys.readouterr().err)


def test_bench_rows_report_ritz_lambda_next_to_lambda(tmp_path):
    # the stokes-pipeline systems: the Ritz value of each Widlund and Rapoport
    # solve is a lower bound on lam and, after 10 steps, within 2 % of it
    scn = Scenario(
        model={"name": "stokes", "params": {"grid_n": 16, "viscosity": 100.0,
                                            "stabilization": 0.005}},
        tau_list=[1e-3, 1e-4], solvers=["widlund", "rapoport", "lgmres"],
        rhs={"kind": "random", "seed": 3},
    )
    run_scenario(scn, tmp_path / "run")
    rows = json.loads((tmp_path / "run" / "table.json").read_text())
    assert len(rows) == 6
    for row in rows:
        keys = list(row)
        assert keys[keys.index("lambda") + 1] == "ritz_lambda"
        if row["solver"] == "lgmres":
            assert row["ritz_lambda"] is None
        else:
            assert 0.98 * row["lambda"] <= row["ritz_lambda"] <= row["lambda"] * (1 + 1e-12)


def test_bench_rows_report_residual_gap(tmp_path):
    # a float for the four Krylov methods that update the residual by
    # recurrence; null for HSS and for the Schur path of an index-2 model
    scn = Scenario(
        model={"name": "mechanical", "params": {"n": 10, "seed": 3, "damping": 1.0}},
        tau_list=[1e-3], solvers=["widlund", "rapoport", "gmres", "lgmres", "hss"],
        rhs={"kind": "random", "seed": 7},
    )
    run_scenario(scn, tmp_path / "mech")
    rows = json.loads((tmp_path / "mech" / "table.json").read_text())
    for row in rows:
        if row["solver"] == "hss":
            assert row["residual_gap"] is None
        else:
            assert 0.0 <= row["residual_gap"] <= 1e-14, row["solver"]
    scn.model = {"name": "stokes", "params": {"grid_n": 3, "stabilization": 0.0}}
    scn.solvers = ["rapoport"]
    run_scenario(scn, tmp_path / "stokes")
    (row,) = json.loads((tmp_path / "stokes" / "table.json").read_text())
    assert row["converged"] and row["residual_gap"] is None


def test_vector_solves_build_no_band_slabs(tmp_path, monkeypatch):
    # the stokes-pipeline scenario solves vectors alone, so no system factor
    # builds the row slabs of the blocked band sweep (lam builds them on its
    # principal blocks of L, which no system holds); a Schur solve builds
    # them once, on the band factor of A11, for its lockstep block solves
    factors, built = [], []
    certify, band_slabs = dk.hs_core.certify_definiteness, dk.hs_core._band_slabs

    def rec_certify(*args, **kwargs):
        out = certify(*args, **kwargs)
        factors.append(out[1])
        return out

    def rec_band_slabs(band):
        built.append(band)
        return band_slabs(band)

    monkeypatch.setattr(dk.hs_core, "certify_definiteness", rec_certify)
    monkeypatch.setattr(dk.hs_core, "_band_slabs", rec_band_slabs)
    run_scenario(Scenario(
        model={"name": "stokes", "params": {"grid_n": 16, "viscosity": 100.0,
                                            "stabilization": 0.005}},
        tau_list=[1e-3, 1e-4], solvers=["widlund", "rapoport", "lgmres"], tol=1e-10,
        rhs={"kind": "random", "seed": 1}, name="stokes-pipeline"), tmp_path)
    bands = [f.band for f in factors if f is not None and f.band is not None]
    assert len(bands) == 2
    assert not any("_slabs" in vars(f) for f in factors if f is not None)
    assert len(built) == 4 and not any(b is band for b in built for band in bands)
    a11, b_block, (n_v, n_p) = dk.midpoint_saddle_blocks(
        dk.assemble_stokes_like(12, convection=50.0), 1e-3)
    rhs = np.random.default_rng(8).standard_normal(n_v + n_p)
    for inner in ("rapoport", "lgmres"):
        factors.clear()
        built.clear()
        rep = dk.solve_via_schur(a11, b_block, rhs[:n_v], rhs[n_v:], inner_solver=inner,
                                 tol=1e-10)
        inner_bands = [f.band for f in factors if f is not None and f.band is not None]
        assert rep.converged and len(built) == len(inner_bands) == 1
        assert built[0] is inner_bands[0]
