import collections
import csv
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import dhkrylov as dk
from dhkrylov.errors import (
    ConsistencyError,
    DimensionError,
    ParameterError,
    SingularHermitianPartError,
    SolverError,
    StructureError,
)

from support import random_spd, rlc_dc_operating_point


def scalar_system(e=1.0, j=0.0, r=0.0, f=None):
    return dk.DhDaeSystem.from_parts(
        np.array([[e]]), np.array([[j]]), np.array([[r]]), f=f
    )


def test_midpoint_matrix_trivial():
    sys = scalar_system(e=2.0)
    ms = dk.midpoint_system(sys, 0.5)
    assert np.allclose(ms.sys.a, [[2.0]])
    assert np.allclose(ms.sys.s, [[0.0]])


def test_midpoint_system_keeps_the_matrix_it_built(monkeypatch):
    built = []
    midpoint_matrix = dk.timestep._midpoint_matrix

    def recorded(sys, tau):
        built.append(midpoint_matrix(sys, tau))
        return built[-1]

    monkeypatch.setattr(dk.timestep, "_midpoint_matrix", recorded)
    msys = dk.midpoint_system(dk.from_descriptor({"name": "rlc", "params": {}}), 1e-3)
    assert msys.sys.a is built[0] and not built[0].flags.writeable


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tau_raises_parameter_error(tau):
    stokes = dk.assemble_stokes_like(3)
    with pytest.raises(ParameterError, match="tau"):
        dk.midpoint_system(stokes, tau)
    with pytest.raises(ParameterError, match="tau"):
        dk.midpoint_saddle_blocks(stokes, tau)


def test_midpoint_rlc_hermitian_part_entries():
    L, C1, C2, RG, RL, RR = 2.0, 3.0, 0.5, 1.5, 0.7, 1.1
    sys = dk.assemble_rlc(L, C1, C2, RG, RL, RR)
    ms = dk.midpoint_system(sys, 0.1)
    expected_h = np.diag([L + 0.05 * RL, C1, C2, 0.05 * RG, 0.05 * RR])
    assert np.allclose(ms.sys.h, expected_h, atol=1e-15)
    assert np.allclose(ms.sys.s, -0.05 * sys.j, atol=1e-15)


def test_midpoint_parts_match_split():
    # reassembled parts agree with split_hs(A) entrywise
    sys = dk.from_descriptor({"name": "stokes", "params": {"grid_n": 3,
                                                           "stabilization": 0.2}})
    for tau in (1e-1, 1e-3):
        ms = dk.midpoint_system(sys, tau)
        scale = np.max(np.abs(ms.sys.a))
        assert np.max(np.abs(ms.sys.h - (sys.e + tau / 2 * sys.r))) <= 1e-13 * scale
        assert np.max(np.abs(ms.sys.s - (-tau / 2 * sys.j))) <= 1e-13 * scale
        h2, s2 = dk.split_hs(ms.sys.a)
        assert np.max(np.abs(ms.sys.h - h2)) <= 1e-13 * scale
        assert np.max(np.abs(ms.sys.s - s2)) <= 1e-13 * scale


def test_midpoint_limit_tau_to_zero_linear():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    devs = []
    for tau in (1e-1, 1e-2, 1e-3):
        ms = dk.midpoint_system(sys, tau)
        devs.append((np.max(np.abs(ms.sys.h - sys.e)), np.max(np.abs(ms.sys.s))))
    for i in range(2):
        assert devs[i][0] / devs[i + 1][0] == pytest.approx(10.0, rel=1e-10)
        assert devs[i][1] / devs[i + 1][1] == pytest.approx(10.0, rel=1e-10)


def test_midpoint_rhs_zero():
    sys = scalar_system()
    ms = dk.midpoint_system(sys, 0.1)
    assert dk.midpoint_rhs(ms, np.zeros(1), 0.0) == np.zeros(1)


def test_midpoint_rhs_hand_value():
    sys = scalar_system(e=1.0, j=0.0, r=0.0, f=lambda t: np.array([1.0]))
    ms = dk.midpoint_system(sys, 0.1)
    b = dk.midpoint_rhs(ms, np.array([2.0]), 0.0)
    assert b == pytest.approx([2.1], abs=1e-15)


def test_midpoint_rhs_matches_explicit_step_matrix():
    # b = 2 E x - A x equals (E - tau/2 (R - J)) x, with the source added
    rng = np.random.default_rng(11)
    m, d, k = (random_spd(rng, 6) for _ in range(3))
    mech = dk.assemble_mechanical(m, d, k, force=lambda t: np.cos(t) * np.ones(6))
    rlc = dk.assemble_rlc(2.0, 3.0, 0.5, 1.5, 0.7, 1.1, eg=lambda t: np.sin(3 * t))
    for sys in (mech, rlc):
        for tau in (1e-3, 0.1):
            ms = dk.midpoint_system(sys, tau)
            x = rng.standard_normal(sys.n)
            explicit = ((sys.e - (tau / 2) * (sys.r - sys.j)) @ x
                        + tau * sys.f(0.3 + tau / 2))
            b = dk.midpoint_rhs(ms, x, 0.3)
            assert np.linalg.norm(b - explicit) <= 1e-13 * np.linalg.norm(explicit)


def test_midpoint_rule_second_order_against_closed_form():
    # x' = -x + (1 + t), x(0) = 1 has solution x(t) = t + exp(-t)
    sys = scalar_system(e=1.0, j=0.0, r=1.0, f=lambda t: np.array([1.0 + t]))
    errs = []
    for tau in (0.1, 0.05, 0.025):
        traj = dk.integrate(sys, np.array([1.0]), tau, int(round(1.0 / tau)))
        errs.append(abs(traj.states[-1][0] - (1.0 + np.exp(-1.0))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_order_two_against_fine_reference():
    # forced mechanical system, reference trajectory at tau/16
    rng = np.random.default_rng(2)
    from support import random_spd
    m = random_spd(rng, 4)
    k = random_spd(rng, 4)
    d = 0.5 * random_spd(rng, 4)
    sys = dk.assemble_mechanical(m, d, k, force=lambda t: np.sin(2.0 * t) * np.ones(4))
    x0 = rng.standard_normal(8)
    tau = 0.02
    ref = dk.integrate(sys, x0, tau / 16, int(round(1.0 / (tau / 16)))).states[-1]
    e1 = np.linalg.norm(dk.integrate(sys, x0, tau, int(round(1.0 / tau))).states[-1] - ref)
    e2 = np.linalg.norm(dk.integrate(sys, x0, tau / 2, int(round(2.0 / tau))).states[-1] - ref)
    assert 3.5 <= e1 / e2 <= 4.5


def test_hamiltonian_constant_without_dissipation():
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 6, "seed": 3, "damping": 0.0}})
    x0 = np.random.default_rng(5).standard_normal(12)
    traj = dk.integrate(sys, x0, 0.05, 100)
    ha = traj.hamiltonians
    assert np.max(np.abs(ha - ha[0])) <= 1e-10 * ha[0]


def test_energy_dissipation_identity_per_step():
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 6, "seed": 3, "damping": 1.0}})
    x0 = np.random.default_rng(5).standard_normal(12)
    traj = dk.integrate(sys, x0, 0.05, 80)
    dh = np.diff(traj.hamiltonians)
    assert np.all(dh < 0)
    for k in range(80):
        lhs = dh[k]
        rhs = -traj.dissipation[k + 1]
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))


def test_rlc_trajectory_converges_to_dc_point():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1, eg=1.0)
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])  # consistent with the constraints
    traj = dk.integrate(sys, x0, 0.3, 300)
    dc = rlc_dc_operating_point(1, 1, 1, 1, 1, 1, 1.0)
    assert np.linalg.norm(traj.states[-1] - dc) < 1e-12
    # the fixed point of the midpoint map is exactly the steady state
    ms = dk.midpoint_system(sys, 0.3)
    b_fix = dk.midpoint_rhs(ms, dc, 0.0)
    assert np.linalg.norm(ms.sys.a @ dc - b_fix) < 1e-13


def test_inconsistent_initial_value_rejected():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1, eg=1.0)
    with pytest.raises(ConsistencyError):
        dk.integrate(sys, np.zeros(5), 0.1, 5)


def _consistent_x0(sys, rng):
    """A random x0 whose kernel coordinates (the last ones, here) solve the constraints."""
    n_alg = dk.nullspace_of_e(sys).shape[1]
    x0 = rng.standard_normal(sys.n)
    jr, alg = dk.as_dense(sys.operator()), slice(sys.n - n_alg, None)
    rest = jr[alg, :-n_alg] @ x0[:-n_alg] + np.asarray(sys.f(0.0))[alg]
    x0[alg] = -np.linalg.solve(jr[alg, alg], rest)
    return x0


@pytest.mark.parametrize("model", [
    {"name": "rlc", "params": {"eg": 1.0}},
    {"name": "stokes", "params": {"grid_n": 16, "viscosity": 100.0, "stabilization": 0.005}},
    {"name": "stokes", "params": {"grid_n": 6, "convection": 50.0, "stabilization": 0.1}},
])
def test_consistency_decisions_need_no_svd(model, monkeypatch):
    # the scale sqrt(||J-R||_1 ||J-R||_inf) keeps the 2-norm scale's accept
    # and reject decisions without the dense SVD behind np.linalg.norm(., 2)
    sys = dk.from_descriptor(model)
    rng = np.random.default_rng(23)
    x_ok = _consistent_x0(sys, rng)
    x_bad = x_ok.copy()
    x_bad[-1] += np.linalg.norm(x_ok)
    jr = dk.as_dense(sys.operator())
    v_null = dk.nullspace_of_e(sys)
    f0 = np.asarray(sys.f(0.0))
    old = [np.linalg.norm(v_null.T @ (jr @ x + f0))
           / (np.linalg.norm(jr, 2) * np.linalg.norm(x) + np.linalg.norm(f0))
           <= dk.timestep.CONSISTENCY_TOL for x in (x_ok, x_bad)]
    assert old == [True, False]

    def refused(*args, **kwargs):
        raise AssertionError("check_consistency ran an SVD")

    monkeypatch.setattr(np.linalg._linalg, "svd", refused)
    assert dk.timestep.check_consistency(sys, x_ok) <= dk.timestep.CONSISTENCY_TOL
    with pytest.raises(ConsistencyError):
        dk.timestep.check_consistency(sys, x_bad)


def test_consistency_check_of_index_zero_model_computes_no_eigenvectors(monkeypatch):
    # E is positive definite, so its eigenvalues alone show that ker(E) = {0}
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 6, "seed": 3, "damping": 1.0}})
    x0 = np.random.default_rng(5).standard_normal(12)
    dk.integrate(sys, x0, 0.05, 5, solver="widlund")
    assert calls == []
    # a singular E still gets its kernel basis from eigh
    assert dk.nullspace_of_e(dk.assemble_rlc(1, 1, 1, 1, 1, 1, eg=1.0)).shape[1] > 0
    assert calls == [1]


def test_singular_hermitian_part_directs_to_schur_path():
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    with pytest.raises(SingularHermitianPartError, match="[Ss]chur"):
        dk.integrate(sys, np.zeros(sys.n), 1e-3, 3)


def test_integrate_names_the_step_whose_solve_falls_short(monkeypatch):
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 5, "seed": 7, "damping": 0.5}})
    x0 = np.random.default_rng(1).standard_normal(10)
    solve = dk.krylov.solve

    def one_step(*args, **kwargs):
        return solve(*args, **kwargs, maxit=1)

    monkeypatch.setattr(dk.krylov, "solve", one_step)
    with pytest.raises(SolverError, match="step 1 "):
        dk.integrate(sys, x0, 0.02, 3, solver="widlund")


def test_integrate_rejects_unknown_solver_before_assembly(monkeypatch):
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 5, "seed": 7, "damping": 0.5}})
    calls = []
    monkeypatch.setattr(dk.timestep, "midpoint_system", lambda *args: calls.append(args))
    with pytest.raises(ParameterError, match="'foo'"):
        dk.integrate(sys, np.zeros(10), 0.02, 3, solver="foo")
    assert calls == []


@pytest.mark.parametrize("solver", ["direct", "rapoport"])
@pytest.mark.parametrize("tol, x0, error, match", [
    (np.nan, np.zeros(10), ParameterError, "tol"),
    (-1.0, np.zeros(10), ParameterError, "tol"),
    (1e-12, np.array([np.nan] + [0.0] * 9), StructureError, "x0 has non-finite"),
    (1e-12, np.zeros(9), DimensionError, r"x0 must have shape \(10,\)"),
    (1e-12, np.zeros((10, 1)), DimensionError, r"x0 must have shape \(10,\)"),
], ids=["nan-tol", "negative-tol", "nan-x0", "short-x0", "2d-x0"])
def test_integrate_rejects_bad_tol_and_x0_before_assembly(solver, tol, x0, error, match,
                                                          monkeypatch):
    # a NaN tol would skip every Krylov solve (resid > nan is False) and a
    # NaN in x0 would reach the solvers
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 5, "seed": 1, "damping": 0.5}})
    calls = []
    monkeypatch.setattr(dk.timestep, "midpoint_system", lambda *args: calls.append(args))
    with pytest.raises(error, match=match):
        dk.integrate(sys, x0, 0.02, 3, solver=solver, tol=tol)
    assert calls == []


def test_integrate_reads_the_residual_its_krylov_solver_reports(monkeypatch):
    # the step check uses the solver's own last true residual; a report that
    # claims a large one fails the step although its solution is accurate
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 5, "seed": 7, "damping": 0.5}})
    x0 = np.random.default_rng(1).standard_normal(10)
    solve = dk.krylov.solve

    def overstated(*args, **kwargs):
        rep = solve(*args, **kwargs)
        rep.residual_2norm = np.append(rep.residual_2norm, rep.rhs_norm)
        return rep

    monkeypatch.setattr(dk.krylov, "solve", overstated)
    with pytest.raises(SolverError, match="step 1 "):
        dk.integrate(sys, x0, 0.02, 3, solver="rapoport")


def test_integrate_with_krylov_step_solver():
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 5, "seed": 7, "damping": 0.5}})
    x0 = np.random.default_rng(1).standard_normal(10)
    t_direct = dk.integrate(sys, x0, 0.02, 20, solver="direct")
    t_rap = dk.integrate(sys, x0, 0.02, 20, solver="rapoport", tol=1e-13)
    assert np.linalg.norm(t_direct.states[-1] - t_rap.states[-1]) < 1e-9


@pytest.mark.parametrize("solver", ["direct", "rapoport", "lgmres"])
def test_integrate_on_csr_products_matches_dense_products(solver, monkeypatch):
    # stabilized Stokes at grid 8 (n = 175) has a sparse A; raising the size
    # threshold keeps every product with A on the dense array
    model = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 8, "viscosity": 100.0, "stabilization": 0.005}})
    x0 = _consistent_x0(model, np.random.default_rng(3))
    assert isinstance(dk.midpoint_system(model, 1e-3).sys.ops[0], scipy.sparse.csr_array)
    csr = dk.integrate(model, x0, 1e-3, 12, solver=solver)
    monkeypatch.setattr(dk.hs_core, "_CSR_MIN_N", model.n + 1)
    # the same model with dense E, J and R
    model = dk.DhDaeSystem.from_parts(model.e.toarray(), model.j.toarray(), model.r.toarray())
    assert isinstance(dk.midpoint_system(model, 1e-3).sys.ops[0], np.ndarray)
    dense = dk.integrate(model, x0, 1e-3, 12, solver=solver)
    assert np.array_equal(csr.iterations, dense.iterations)
    assert (solver == "direct") == (csr.iterations.sum() == 0)
    scale = np.linalg.norm(dense.states, axis=1).max()
    assert np.max(np.abs(csr.states - dense.states)) <= 1e-12 * scale


@pytest.mark.parametrize("solver", ["direct", "rapoport"])
def test_integrate_on_csr_model_products_matches_dense_model_products(solver, monkeypatch):
    # stabilized Stokes at grid 8 (n = 175): with a sparse A, the products
    # with E and R run on CSR copies; the arrays themselves give the reference
    model = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 8, "viscosity": 100.0, "stabilization": 0.005}})
    x0 = _consistent_x0(model, np.random.default_rng(3))
    msys = dk.midpoint_system(model, 1e-3)
    assert all(isinstance(m, scipy.sparse.csr_array) for m in msys.model_ops)
    rhs = 2.0 * (model.e @ x0) - msys.sys.a @ x0 + 1e-3 * model.f(5e-4)
    assert np.allclose(dk.midpoint_rhs(msys, x0, 0.0), rhs, rtol=0,
                       atol=1e-12 * np.max(np.abs(rhs)))
    csr = dk.integrate(model, x0, 1e-3, 12, solver=solver)
    monkeypatch.setattr(dk.timestep.MidpointSystem, "model_ops",
                        property(lambda self: (self.source.e, self.source.r)))
    # the same model with dense E, J and R
    model = dk.DhDaeSystem.from_parts(model.e.toarray(), model.j.toarray(), model.r.toarray())
    dense = dk.integrate(model, x0, 1e-3, 12, solver=solver)
    assert np.array_equal(csr.iterations, dense.iterations)
    scale = np.linalg.norm(dense.states, axis=1).max()
    assert np.max(np.abs(csr.states - dense.states)) <= 1e-12 * scale
    for name in ("hamiltonians", "dissipation"):
        ref = getattr(dense, name)
        assert np.max(np.abs(getattr(csr, name) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_trajectory_csv_schema(tmp_path):
    sys = scalar_system(e=1.0, r=1.0)
    traj = dk.integrate(sys, np.array([1.0]), 0.1, 5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "hamiltonian", "dissipation"]
    assert len(rows) == 7
    assert float(rows[1][0]) == 0.0


def test_stokes_grid_64_sets_up_and_solves_in_sparse_memory():
    # n = 12,159: one dense n x n float64 array would take 1.18 GB
    tracemalloc.start()
    try:
        model = dk.from_descriptor({"name": "stokes", "params": {
            "grid_n": 64, "viscosity": 100.0, "stabilization": 0.005}})
        msys = dk.midpoint_system(model, 1e-3)
        b = np.random.default_rng(64).standard_normal(msys.n)
        reps = [dk.solve(method, msys.sys, b, tol=1e-10) for method in ("widlund", "rapoport")]
        residuals = [np.linalg.norm(b - msys.sys.ops[0] @ rep.solution) for rep in reps]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert msys.n == 12159 and msys.sys.h_factor.band.shape == (65, 12159)  # kd = 64
    assert all(rep.converged for rep in reps)
    assert max(residuals) <= 1e-10 * np.linalg.norm(b)
    assert peak < 64 * 2**20


def test_midpoint_saddle_blocks_extraction():
    sys = dk.assemble_stokes_like(3, stabilization=0.0)
    tau = 1e-2
    a11, b, (nv, np_) = dk.midpoint_saddle_blocks(sys, tau)
    a_full = (sys.e + tau / 2 * (sys.r - sys.j)).toarray()
    assert np.array_equal(a11, a_full[:nv, :nv])
    assert np.array_equal(b, a_full[:nv, nv:])
    assert np.max(np.abs(a_full[nv:, :nv] + b.conj().T)) < 1e-14


def test_midpoint_saddle_blocks_read_from_h_on_poroelastic():
    # quasi-stationary poroelastic in (p, u, w): H = blkdiag(M + tau/2 K, A, 0)
    n, p, tau = 20, 10, 1e-2
    sys = dk.from_descriptor({"name": "poroelastic",
                              "params": {"n": n, "p": p, "quasi_stationary": True}})
    a11, b, sizes = dk.midpoint_saddle_blocks(sys, tau)
    assert sizes == (p + n, n)
    a_full = dk.midpoint_system(sys, tau).sys.a
    assert np.array_equal(a11, a_full[:p + n, :p + n])
    assert np.array_equal(b, a_full[:p + n, p + n:])


def test_midpoint_saddle_blocks_need_trailing_singular_coordinates():
    with pytest.raises(DimensionError, match="0 singular coordinates"):
        dk.midpoint_saddle_blocks(dk.assemble_stokes_like(3, stabilization=0.1), 1e-3)
    stokes = dk.assemble_stokes_like(3)
    order = np.roll(np.arange(stokes.n), 1)  # the last pressure coordinate first
    moved = dk.DhDaeSystem.from_parts(*(m[np.ix_(order, order)]
                                        for m in (stokes.e, stokes.j, stokes.r)))
    with pytest.raises(DimensionError, match="must come last"):
        dk.midpoint_saddle_blocks(moved, 1e-3)


@pytest.mark.parametrize("n_steps", [-3, True, 2.5, np.float64(2.0), "3"])
def test_integrate_rejects_bad_step_counts(n_steps):
    with pytest.raises(ParameterError, match="n_steps"):
        dk.integrate(scalar_system(), np.array([1.0]), 0.1, n_steps)


def test_integrate_zero_steps_returns_the_initial_state():
    for n_steps in (0, np.int64(0)):
        traj = dk.integrate(scalar_system(), np.array([1.0]), 0.1, n_steps)
        assert traj.states.shape == (1, 1) and traj.times.tolist() == [0.0]


def test_midpoint_saddle_blocks_reject_empty_system():
    empty = dk.from_descriptor({"name": "mechanical", "params": {"n": 0}})
    with pytest.raises(DimensionError, match="nonempty"):
        dk.midpoint_saddle_blocks(empty, 1e-3)


def _forced_mechanical():
    rng = np.random.default_rng(11)
    n = 10
    g = rng.standard_normal((n, n))
    load = rng.standard_normal(n)
    return dk.assemble_mechanical(random_spd(rng, n), g @ g.T / n, random_spd(rng, n),
                                  force=lambda t: np.sin(3.0 * t) * load)


# (system, x0, tau, steps) of the three guess cases: unforced, forced, and a
# circuit with an algebraic constraint that settles to its DC point
GUESS_CASES = {
    "mechanical": lambda: (dk.from_descriptor({"name": "mechanical",
                                               "params": {"n": 10, "seed": 4}}),
                           np.random.default_rng(2).standard_normal(20), 0.02, 60),
    "forced-mechanical": lambda: (_forced_mechanical(),
                                  np.random.default_rng(3).standard_normal(20), 0.02, 60),
    "rlc": lambda: (dk.assemble_rlc(1, 1, 1, 1, 1, 1, eg=1.0),
                    np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 0.3, 60),
}


@pytest.mark.parametrize("case", sorted(GUESS_CASES))
@pytest.mark.parametrize("solver", dk.krylov.SOLVER_NAMES)
def test_guessed_krylov_steps_match_direct_and_meet_tol(case, solver):
    sys, x0, tau, steps = GUESS_CASES[case]()
    ref = dk.integrate(sys, x0, tau, steps, solver="direct")
    traj = dk.integrate(sys, x0, tau, steps, solver=solver)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-9 * np.max(np.abs(ref.states))
    msys = dk.midpoint_system(sys, tau)
    a = msys.sys.a
    for k in range(steps):
        b = dk.midpoint_rhs(msys, traj.states[k], traj.times[k])
        x = traj.states[k + 1]
        # GMRES and HSS stop within 0.5 % of tol, so allow for the rounding of
        # this evaluation of b - A x, which is not the solver's
        rounding = sys.n * np.finfo(float).eps * np.linalg.norm(a, 2) * np.linalg.norm(x)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b) + rounding
    assert traj.iterations.shape == (steps + 1,) and traj.iterations[0] == 0
    assert not np.any(ref.iterations)


@pytest.mark.parametrize("solver", ["widlund", "rapoport", "lgmres"])
def test_guess_cuts_krylov_steps_against_cold_solves(solver):
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 200, "damping": 1.0, "seed": 7}})
    x0 = np.random.default_rng([7, 2]).standard_normal(400)
    traj = dk.integrate(sys, x0, 0.02, 150, solver=solver)
    msys = dk.midpoint_system(sys, 0.02)
    cold = sum(dk.krylov.solve(solver, msys.sys, dk.midpoint_rhs(msys, x, t)).iterations
               for x, t in zip(traj.states[:-1], traj.times[:-1]))
    assert np.sum(traj.iterations) <= 0.3 * cold


def test_guess_skips_most_solves_on_a_circuit_at_rest(monkeypatch):
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1, eg=1.0)
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    calls = []
    solve = dk.krylov.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dk.krylov, "solve", counted)
    traj = dk.integrate(sys, x0, 0.3, 100, solver="rapoport")
    assert len(calls) < 100
    assert np.count_nonzero(traj.iterations) == len(calls)


@pytest.mark.parametrize("solver", dk.krylov.SOLVER_NAMES)
def test_energy_dissipation_identity_with_guessed_steps(solver):
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 20, "seed": 3, "damping": 1.0}})
    x0 = np.random.default_rng(5).standard_normal(40)
    traj = dk.integrate(sys, x0, 0.02, 100, solver=solver, tol=1e-12)
    defect = np.diff(traj.hamiltonians) + traj.dissipation[1:]
    assert np.max(np.abs(defect)) <= 1e-10 * traj.hamiltonians[0]


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("solver", ("direct",) + dk.krylov.SOLVER_NAMES)
def test_energy_ledger_closes_on_every_step(solver, tol, forced):
    # dH + tau m*Rm - supply + solver_defect = 0 holds for the computed states
    # whatever the tolerance, because the solve's residual is booked
    case = GUESS_CASES["forced-mechanical" if forced else "mechanical"]
    sys, x0, tau, steps = case()
    traj = dk.integrate(sys, x0, tau, steps, solver=solver, tol=tol)
    assert np.max(np.abs(traj.ledger_gaps)) <= 1e-14 * np.max(traj.hamiltonians)
    assert np.any(traj.supply) == forced
    assert traj.supply[0] == traj.solver_defect[0] == 0.0


def test_energy_ledger_books_the_solver_defect_at_loose_tol():
    sys, x0, tau, steps = GUESS_CASES["mechanical"]()
    traj = dk.integrate(sys, x0, tau, steps, solver="rapoport", tol=1e-6)
    without = np.diff(traj.hamiltonians) + traj.dissipation[1:] - traj.supply[1:]
    assert np.max(np.abs(without)) > 1e3 * np.max(np.abs(traj.ledger_gaps))


def test_kernel_of_e_computed_once_per_model(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1, eg=1.0)
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    dk.integrate(sys, x0, 0.3, 3, solver="rapoport")
    dk.integrate(sys, x0, 0.3, 3)
    assert calls == [1]
    basis = dk.nullspace_of_e(sys)
    assert basis is dk.nullspace_of_e(sys) and not basis.flags.writeable
    assert basis.shape == (5, 2)
    # a definite E is certified by its Cholesky factor once per model too
    mech = dk.from_descriptor({"name": "mechanical", "params": {"n": 5, "seed": 7}})
    certified = []
    certify = dk.dhdae.certify_definiteness

    def counted_certify(*args):
        certified.append(1)
        return certify(*args)

    monkeypatch.setattr(dk.dhdae, "certify_definiteness", counted_certify)
    for solver in ("direct", "widlund"):
        dk.integrate(mech, np.ones(10), 0.02, 2, solver=solver)
    assert certified == [1]


class _Logged:
    """A matrix behind ``@`` that appends its name to a log on each product."""

    def __init__(self, m, name, log):
        self.m, self.name, self.log = m, name, log
        self.shape, self.dtype = m.shape, m.dtype

    def __matmul__(self, x):
        self.log.append(self.name)
        return self.m @ x


@pytest.mark.parametrize("solver", ["widlund", "rapoport"])
def test_one_krylov_step_makes_six_matrix_passes(solver, monkeypatch):
    # two H-solves, one product each with S, A (the solver's confirmation),
    # R (the dissipation) and E (the energy and the next right side)
    sys, x0, tau, steps = GUESS_CASES["mechanical"]()
    log = []
    msys = dk.midpoint_system(sys, tau)
    split = dataclasses.replace(msys.sys, **{name: _Logged(getattr(msys.sys, name), name, log)
                                             for name in ("a", "h", "s")})

    def source(t):
        log.append("step")
        return sys.f(t)

    model = dk.DhDaeSystem(**{name: _Logged(getattr(sys, name), name, log)
                              for name in ("e", "j", "r")}, f=source)
    # the products with E and R run on the step system's model, as midpoint_system sets it
    logged = dataclasses.replace(msys, sys=split, source=model)
    h_solve = dk.hs_core.HermitianFactor.solve

    def logged_h_solve(self, b):
        log.append("h_solve")
        return h_solve(self, b)

    monkeypatch.setattr(dk.timestep, "midpoint_system", lambda *args: logged)
    monkeypatch.setattr(dk.timestep, "check_consistency", lambda *args: 0.0)
    monkeypatch.setattr(dk.hs_core.HermitianFactor, "solve", logged_h_solve)
    traj = dk.integrate(model, x0, tau, steps, solver=solver)
    passes = []
    for name in log:
        if name == "step":
            passes.append(collections.Counter())
        elif passes:
            passes[-1][name] += 1
    one_step = [p for p, k in zip(passes, traj.iterations[1:]) if k == 1]
    assert len(passes) == steps and len(one_step) >= steps // 2
    expected = collections.Counter({"h_solve": 2, "s": 1, "a": 1, "r": 1, "e": 1})
    assert all(p == expected for p in one_step)


@pytest.mark.parametrize("solver", ["widlund", "rapoport", "lgmres"])
def test_guessed_steps_meet_tol_over_long_runs(solver):
    # the guess's r0 comes from kept products; the step's A x_{k+1} must not,
    # or the rounding of the history coefficients compounds from step to step
    sys = dk.from_descriptor({"name": "mechanical",
                              "params": {"n": 20, "damping": 1.0, "seed": 7}})
    x0 = np.random.default_rng([7, 2]).standard_normal(40)
    tau, steps = 0.02, 400
    traj = dk.integrate(sys, x0, tau, steps, solver=solver)
    msys = dk.midpoint_system(sys, tau)
    a = msys.sys.a
    norm_a = np.linalg.norm(a, 2)
    for k in range(steps):
        b = dk.midpoint_rhs(msys, traj.states[k], traj.times[k])
        x = traj.states[k + 1]
        rounding = sys.n * np.finfo(float).eps * norm_a * np.linalg.norm(x)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b) + rounding


@pytest.mark.filterwarnings("error")  # a complex state stored in a real array warns
@pytest.mark.parametrize("solver", ["widlund", "lgmres"])
def test_complex_source_turns_the_kept_history_complex(solver):
    # real states and history until the source e^{it} load enters at step 1
    rng = np.random.default_rng(3)
    load = rng.standard_normal(6)
    sys = dk.assemble_mechanical(random_spd(rng, 6), 0.3 * random_spd(rng, 6),
                                 random_spd(rng, 6), force=lambda t: np.exp(1j * t) * load)
    x0 = rng.standard_normal(12)
    ref = dk.integrate(sys, x0, 0.05, 80, solver="direct")
    traj = dk.integrate(sys, x0, 0.05, 80, solver=solver)
    assert np.iscomplexobj(traj.states) and np.any(traj.iterations)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-9 * np.max(np.abs(ref.states))
    assert np.max(np.abs(traj.ledger_gaps)) <= 1e-14 * np.max(traj.hamiltonians)
