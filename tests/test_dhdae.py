import numpy as np
import pytest
import scipy.linalg

import dhkrylov as dk
from dhkrylov.errors import ModelError

from support import (
    pencil_index_exact,
    pencil_index_numeric,
    random_spd,
    random_unitary,
    rlc_dc_operating_point,
)


# ---------------------------------------------------------------------------
# mechanical
# ---------------------------------------------------------------------------

def test_mechanical_scalar_blocks():
    sys = dk.assemble_mechanical(np.array([[2.0]]), np.array([[1.0]]), np.array([[3.0]]))
    assert np.array_equal(sys.e, np.diag([2.0, 3.0]))
    assert np.array_equal(sys.j, np.array([[0.0, -3.0], [3.0, 0.0]]))
    assert np.array_equal(sys.r, np.diag([1.0, 0.0]))
    assert dk.index_classify(sys).index is dk.DaeIndex.ZERO


def test_mechanical_zero_damping_is_hamiltonian():
    sys = dk.assemble_mechanical(np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2))
    assert np.array_equal(sys.r, np.zeros((4, 4)))


def test_mechanical_random_spd_index_zero():
    rng = np.random.default_rng(0)
    m = random_spd(rng, 20)
    k = random_spd(rng, 20)
    g = rng.standard_normal((20, 20))
    d = g @ g.T / 20
    sys = dk.assemble_mechanical(m, d, k)
    # e is SPD by construction; verified through the eigenvalue oracle
    assert np.linalg.eigvalsh(sys.e)[0] > 0
    assert dk.index_classify(sys).index is dk.DaeIndex.ZERO


def test_mechanical_rejects_indefinite_mass():
    with pytest.raises(ModelError):
        dk.assemble_mechanical(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# RLC circuit
# ---------------------------------------------------------------------------

def test_rlc_displayed_matrices():
    RG, RL, RR = 1.5, 0.7, 1.1
    sys = dk.assemble_rlc(2.0, 3.0, 0.5, RG, RL, RR)
    assert np.array_equal(sys.j[0], np.array([0.0, -1.0, 1.0, 0.0, 0.0]))
    assert np.array_equal(sys.r, np.diag([RL, 0.0, 0.0, RG, RR]))
    assert np.array_equal(sys.e, np.diag([2.0, 3.0, 0.5, 0.0, 0.0]))


def test_rlc_index_one_with_unit_parameters():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    rep = dk.index_classify(sys)
    assert rep.index is dk.DaeIndex.ONE
    assert rep.regular
    assert rep.block_sizes[2] == 2  # n3: the nonsingular J22 - R22 block
    assert rep.diagnostics["j22_r22_sigma_min"] > 0.5


def test_rlc_dc_operating_point_against_nodal_analysis():
    L, C1, C2, RG, RL, RR = 2.0, 1.0, 3.0, 1.5, 0.5, 2.5
    eg = 1.0
    sys = dk.assemble_rlc(L, C1, C2, RG, RL, RR, eg=eg)
    x = np.linalg.solve(sys.operator(), -np.asarray(sys.f(0.0)))
    # independent loop-current analysis: at DC the capacitors block all
    # branches except the single resistive loop, so
    #   I = E_G / (R_G + R_L + R_R),  V1 = R_G I - E_G,  V2 = -R_R I
    i = eg / (RG + RL + RR)
    expected = np.array([i, RG * i - eg, -RR * i, i, -i])
    assert np.allclose(x, expected, rtol=1e-13)
    assert np.allclose(rlc_dc_operating_point(L, C1, C2, RG, RL, RR, eg), expected)


def test_rlc_rejects_nonpositive_parameters():
    with pytest.raises(ModelError):
        dk.assemble_rlc(1, 1, 0.0, 1, 1, 1)


def test_generator_parameter_validation():
    with pytest.raises(ModelError):
        dk.assemble_stokes_like(1)
    with pytest.raises(ModelError):
        dk.assemble_stokes_like(3, stabilization=-0.1)
    one = np.array([[1.0]])
    with pytest.raises(ModelError):
        dk.assemble_poroelastic(one, one, y=one, d=np.ones((2, 3)))


# ---------------------------------------------------------------------------
# Stokes-like systems
# ---------------------------------------------------------------------------

def test_stokes_index_by_stabilization():
    assert dk.index_classify(dk.assemble_stokes_like(4, stabilization=0.3)).index \
        is dk.DaeIndex.ONE
    assert dk.index_classify(dk.assemble_stokes_like(4, stabilization=0.0)).index \
        is dk.DaeIndex.TWO


def test_stokes_divergence_full_row_rank_minimal_grid():
    sys = dk.assemble_stokes_like(2)
    nv = dk.midpoint_saddle_blocks(sys, 1e-2)[2][0]
    b_star = -sys.j.toarray()[nv:, :nv]
    svals = np.linalg.svd(b_star, compute_uv=False)
    assert svals[-1] > 1e-10 * svals[0]
    assert b_star.shape == (3, 4)


def test_stokes_structure():
    sys = dk.assemble_stokes_like(3, viscosity=2.0, convection=1.5, stabilization=0.25)
    nv = 2 * 3 * 2  # 2 g (g - 1) velocities on grid g = 3
    a_s = sys.j.toarray()[:nv, :nv]
    assert np.max(np.abs(a_s + a_s.T)) < 1e-14
    assert np.max(np.abs(a_s)) > 0
    # dissipation blocks: viscous Laplacian PSD, stabilization on pressure
    assert np.linalg.eigvalsh(sys.r.toarray()[:nv, :nv])[0] >= 0
    assert np.allclose(sys.r.toarray()[nv:, nv:], 0.25 * np.eye(8))


def _grid_shift(nx, ny):
    """1 at (a, b) when node b follows node a along either axis of an nx-by-ny grid.

    Node (i, j) has flat index i * ny + j.  Stencils are built as
    ``c * F - c * F.T`` from this nonnegative F, so every zero stays +0.0.
    """
    return np.kron(np.eye(nx, k=1), np.eye(ny)) + np.kron(np.eye(nx), np.eye(ny, k=1))


@pytest.mark.parametrize("grid_n, viscosity, convection, stabilization",
                         [(2, 1.0, 0.0, 0.0), (5, 1.0, 50.0, 0.0), (16, 100.0, 0.0, 0.005),
                          (6, 2.0, -3.0, 0.25)])
def test_stokes_assembly_bitwise_equal_to_block_diag_build(grid_n, viscosity, convection,
                                                           stabilization):
    # the reference is the scipy.linalg.block_diag assembly of the same stencils
    sys = dk.assemble_stokes_like(grid_n, viscosity, convection, stabilization)
    sys_e, sys_j, sys_r = sys.e.toarray(), sys.j.toarray(), sys.r.toarray()
    h = 1.0 / grid_n
    fwd = scipy.linalg.block_diag(_grid_shift(grid_n - 1, grid_n),
                                  _grid_shift(grid_n, grid_n - 1))
    nv, n_p = fwd.shape[0], grid_n * grid_n - 1
    amp = 0.5 * convection * h
    lap = 4.0 * np.eye(nv) - fwd - fwd.T
    e = scipy.linalg.block_diag((h * h) * np.eye(nv), np.zeros((n_p, n_p)))
    r = scipy.linalg.block_diag(viscosity * lap, stabilization * np.eye(n_p))
    assert sys_e.tobytes() == e.tobytes() and sys_r.tobytes() == r.tobytes()
    assert sys_j[:nv, :nv].tobytes() == (amp * fwd - amp * fwd.T).tobytes()
    # 0.0 - x, not -x: a CSR J densifies with +0.0 for every absent entry
    assert sys_j[:nv, nv:].tobytes() == (0.0 - sys_j[nv:, :nv]).T.copy().tobytes()
    assert not sys_j[nv:, nv:].any()


# ---------------------------------------------------------------------------
# poroelastic
# ---------------------------------------------------------------------------

def test_poroelastic_dynamic_scalar_index_zero():
    one = np.array([[1.0]])
    sys = dk.assemble_poroelastic(one, one, y=one, k=one, d=one, quasi_stationary=False)
    assert dk.index_classify(sys).index is dk.DaeIndex.ZERO
    assert np.max(np.abs(sys.j + sys.j.conj().T)) < 1e-14


def test_poroelastic_quasi_stationary_scalar_index_two_kronecker_oracle():
    one = np.array([[1.0]])
    sys = dk.assemble_poroelastic(one, one, k=np.array([[0.0]]), d=one,
                                  quasi_stationary=True)
    assert sys.n == 3
    rep = dk.index_classify(sys)
    assert rep.index is dk.DaeIndex.TWO
    assert pencil_index_exact(sys.e, sys.operator()) == 2


def test_poroelastic_random_quasi_stationary_index_two():
    sys = dk.from_descriptor(
        {"name": "poroelastic", "params": {"n": 5, "p": 3, "seed": 2,
                                           "quasi_stationary": True}}
    )
    rep = dk.index_classify(sys)
    assert rep.index is dk.DaeIndex.TWO
    assert pencil_index_numeric(sys.e, sys.operator()) == 2


# ---------------------------------------------------------------------------
# index classification: oracles and invariance
# ---------------------------------------------------------------------------

def test_index_oracle_agrees_on_all_model_cases():
    cases = [
        (dk.assemble_rlc(1, 1, 1, 1, 1, 1), 1),
        (dk.assemble_stokes_like(2, stabilization=0.5), 1),
        (dk.assemble_stokes_like(2, stabilization=0.0), 2),
        (dk.assemble_mechanical(np.eye(2), np.eye(2), np.eye(2)), 0),
    ]
    for sys, expected in cases:
        assert dk.index_classify(sys).index.value == expected
        assert pencil_index_exact(dk.as_dense(sys.e), dk.as_dense(sys.operator())) == expected


def test_index_invariant_under_unitary_congruence():
    rng = np.random.default_rng(8)
    for sys in (dk.assemble_rlc(1, 2, 3, 1, 1, 2),
                dk.assemble_stokes_like(3, stabilization=0.0)):
        base = dk.index_classify(sys)
        u = random_unitary(rng, sys.n)
        congruent = dk.DhDaeSystem.from_parts(
            u.conj().T @ sys.e @ u, u.conj().T @ sys.j @ u, u.conj().T @ sys.r @ u
        )
        rep = dk.index_classify(congruent)
        assert rep.index is base.index
        assert rep.regular == base.regular


def test_index_irregular_pencil_reported_not_raised():
    # E = diag(1, 0), J = R = 0: the second variable is unconstrained
    sys = dk.DhDaeSystem.from_parts(np.diag([1.0, 0.0]), np.zeros((2, 2)),
                                    np.zeros((2, 2)))
    rep = dk.index_classify(sys)
    assert not rep.regular
    assert rep.index is None
    assert rep.block_sizes[4] == 1  # n5 > 0


def test_nullspace_basis_of_e():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    basis = dk.nullspace_of_e(sys)
    assert basis.shape == (5, 2)
    assert np.max(np.abs(sys.e @ basis)) < 1e-12
    assert np.allclose(basis.conj().T @ basis, np.eye(2))


# ---------------------------------------------------------------------------
# model plumbing
# ---------------------------------------------------------------------------

def test_from_parts_copies_the_callers_arrays_and_freezes_its_own():
    # generators hand over arrays no one else holds; a caller's arrays are copied
    e, j, r = np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.diag([1.0, 0.0])
    sys = dk.DhDaeSystem.from_parts(e, j, r)
    for mine, kept in ((e, sys.e), (j, sys.j), (r, sys.r)):
        assert mine.flags.writeable and not np.shares_memory(mine, kept)
        assert np.array_equal(mine, kept) and not kept.flags.writeable
    stokes = dk.assemble_stokes_like(3, stabilization=0.1)
    # the Stokes parts are CSR arrays, read-only in each of their arrays
    assert not any(getattr(getattr(stokes, m), part).flags.writeable
                   for m in "ejr" for part in ("data", "indices", "indptr"))


def test_zero_source_default():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    assert isinstance(sys.f, dk.ZeroSource)
    assert np.array_equal(sys.f(17.3), np.zeros(5))


def test_generator_outputs_pass_system_invariants():
    for desc in (
        {"name": "mechanical", "params": {"n": 6, "seed": 1}},
        {"name": "rlc", "params": {}},
        {"name": "stokes", "params": {"grid_n": 3, "stabilization": 0.1}},
        {"name": "poroelastic", "params": {"n": 4, "p": 2, "quasi_stationary": True}},
    ):
        sys = dk.from_descriptor(desc)
        assert np.max(np.abs(sys.e - sys.e.conj().T)) < 1e-12 * max(np.max(np.abs(sys.e)), 1)
        assert np.max(np.abs(sys.j + sys.j.conj().T)) < 1e-12 * max(np.max(np.abs(sys.j)), 1)
        assert dk.definiteness_class(sys.r, 1e-10) is not dk.Definiteness.INDEFINITE


def test_from_descriptor_unknown_model():
    with pytest.raises(ModelError):
        dk.from_descriptor({"name": "nonsense"})


def test_rlc_source_spec_rejects_unknown_keys_and_types():
    # a misspelt "omega" built a source with omega 1 before
    sin = {"kind": "sin", "amplitude": 2.0, "omgea": 5.0, "phase": 0.0}
    with pytest.raises(ModelError, match=r"\['omgea', 'phase'\]"):
        dk.from_descriptor({"name": "rlc", "params": {"eg": sin}})
    for eg in ("1.5", [1.0], True, None):
        with pytest.raises(ModelError, match="not a number or a JSON object"):
            dk.from_descriptor({"name": "rlc", "params": {"eg": eg}})
    del sin["omgea"], sin["phase"]
    sin["omega"] = 5.0
    f = dk.from_descriptor({"name": "rlc", "params": {"eg": sin}}).f(1.0)
    assert f[3] == pytest.approx(2.0 * np.sin(5.0), rel=1e-15)


@pytest.mark.parametrize("name", sorted(dk.MODEL_REGISTRY))
def test_from_descriptor_defaults_are_the_registry_params(name):
    # `models list` prints the registry params, so they must be what is built
    entry = dk.MODEL_REGISTRY[name]
    built, listed = dk.from_descriptor({"name": name}), entry["build"](dict(entry["params"]))
    for part in ("e", "j", "r"):
        assert np.array_equal(dk.as_dense(getattr(built, part)),
                              dk.as_dense(getattr(listed, part)))
    assert np.array_equal(built.f(0.5), listed.f(0.5))
    with pytest.raises(ModelError, match="unknown parameter"):
        dk.from_descriptor({"name": name, "params": {"gridn": 16}})


def test_hamiltonian_nonnegative():
    sys = dk.assemble_rlc(1, 1, 1, 1, 1, 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert sys.hamiltonian(rng.standard_normal(5)) >= 0


@pytest.mark.parametrize("which", ["e", "r", "d"])
def test_indefinite_flow_or_dissipation_matrix_rejected(monkeypatch, which):
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1: its off-diagonal outweighs the
    # diagonal (no Gershgorin certificate) and its Cholesky factorization fails,
    # so the spectrum is taken, and only for this matrix
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    bad, eye, zero = np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), np.zeros((2, 2))
    with pytest.raises(ModelError, match="semidefinite"):
        if which == "d":
            dk.assemble_mechanical(eye, bad, eye)
        else:
            dk.DhDaeSystem.from_parts(bad if which == "e" else eye, zero,
                                      bad if which == "r" else eye)
    assert calls == [(2, 2)]


def test_mechanical_model_build_takes_no_spectrum(monkeypatch):
    # R = blkdiag(D, 0) is certified by a Cholesky factor of D alone
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    model = dk.from_descriptor({"name": "mechanical", "params": {"n": 40, "seed": 61}})
    assert model.n == 80 and np.any(model.r)
    assert calls == []


@pytest.mark.parametrize("name, params", [("mechanical", {"n": -1}),
                                          ("poroelastic", {"n": -2}),
                                          ("poroelastic", {"p": -1})])
def test_negative_model_sizes_rejected(name, params):
    with pytest.raises(ModelError, match="nonnegative"):
        dk.from_descriptor({"name": name, "params": params})


def test_empty_model_sizes_stay_valid():
    assert dk.from_descriptor({"name": "mechanical", "params": {"n": 0}}).n == 0
    assert dk.from_descriptor({"name": "poroelastic", "params": {"n": 0, "p": 0}}).n == 0
