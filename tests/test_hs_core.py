import collections
import dataclasses

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse
from hypothesis import assume, example, given, settings, strategies as st

import dhkrylov as dk
from dhkrylov.cli import audit_staircase
from dhkrylov.errors import DefinitenessError, DimensionError, StructureError
from dhkrylov.hs_core import (
    _classify,
    certify_definiteness,
    hermitian_deviation,
    is_semidefinite,
    skew_deviation,
)

from support import (
    dense_lower,
    holds_n_by_n_array,
    random_hs_system,
    random_spd,
    random_unitary,
    record_eigen_kernels,
)


def test_split_identity():
    h, s = dk.split_hs(np.eye(3))
    assert np.array_equal(h, np.eye(3))
    assert np.array_equal(s, np.zeros((3, 3)))


def test_saddle_blocks_of_an_assembled_matrix():
    stokes = dk.assemble_stokes_like(3)
    a = dk.midpoint_system(stokes, 1e-3).sys.a
    a11, b, sizes = dk.saddle_blocks(a)
    ref = dk.midpoint_saddle_blocks(stokes, 1e-3)
    assert sizes == ref[2] and sizes[0] + sizes[1] == stokes.n
    assert np.array_equal(a11, ref[0]) and np.array_equal(b, ref[1])
    with pytest.raises(DimensionError, match="0 singular coordinates"):
        dk.saddle_blocks(np.eye(3))
    with pytest.raises(DimensionError, match="square"):
        dk.saddle_blocks(np.ones((2, 3)))
    corner = a.toarray()  # a zero diagonal with a nonzero entry beside it in the corner
    corner[-1, -2] = corner[-2, -1] = 1.0
    with pytest.raises(DimensionError, match="trailing diagonal block"):
        dk.saddle_blocks(corner)


def test_from_matrix_freezes_its_split_without_a_copy(monkeypatch):
    parts = []
    split = dk.hs_core.split_hs

    def kept(a):
        parts.extend(split(a))
        return tuple(parts)

    monkeypatch.setattr(dk.hs_core, "split_hs", kept)
    a = np.array([[2.0, 1.0], [-1.0, 3.0]])
    sysm = dk.HsSplitSystem.from_matrix(a)
    assert sysm.h is parts[0] and sysm.s is parts[1]
    assert not (sysm.a.flags.writeable or sysm.h.flags.writeable or sysm.s.flags.writeable)
    # the caller's matrix is copied, not frozen
    assert a.flags.writeable and not np.shares_memory(a, sysm.a)


def test_from_matrix_copies_a_writable_matrix_and_keeps_a_frozen_one():
    a = np.array([[2.0, 1.0], [-1.0, 3.0]])
    sysm = dk.HsSplitSystem.from_matrix(a)
    a[0, 1] = 7.0  # a later write by the caller does not reach the system
    assert sysm.a[0, 1] == 1.0 and sysm.h[0, 1] == 0.0
    frozen = np.array([[2.0, 1.0], [-1.0, 3.0]])
    frozen.setflags(write=False)
    assert dk.HsSplitSystem.from_matrix(frozen).a is frozen
    # a read-only view does not own its data, and is copied
    view = frozen[:, :]
    assert dk.HsSplitSystem.from_matrix(view).a is not view


def test_split_forced_by_formula():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    h, s = dk.split_hs(a)
    assert np.array_equal(h, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.array_equal(s, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_split_rlc_midpoint_matrix():
    # midpoint matrix of the RLC model at tau = 0.1 must split into
    # h = E + 0.05 R and s = -0.05 J, assembling both sides independently
    L, C1, C2, RG, RL, RR = 2.0, 3.0, 0.5, 1.5, 0.7, 1.1
    sys = dk.assemble_rlc(L, C1, C2, RG, RL, RR)
    tau = 0.1
    a = sys.e + (tau / 2) * (sys.r - sys.j)
    h, s = dk.split_hs(a)
    assert np.allclose(h, sys.e + 0.05 * sys.r, atol=1e-15)
    assert np.allclose(s, -0.05 * sys.j, atol=1e-15)


def test_split_nonsquare_rejected():
    with pytest.raises(DimensionError):
        dk.split_hs(np.ones((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.booleans())
def test_split_invariants_random(n, seed, complex_):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    a *= 10.0 ** rng.integers(-3, 4)
    h, s = dk.split_hs(a)
    scale = np.max(np.abs(a)) + 1e-300
    assert np.max(np.abs(h + s - a)) <= 1e-13 * scale
    assert hermitian_deviation(h) <= 1e-13 * scale
    assert skew_deviation(s) <= 1e-13 * scale


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(),
       st.sampled_from([1.0, 0.3, 0.05]))
@example(160, 0, False, False, 0.05)  # a dense A whose products run on CSR copies
@example(160, 1, True, True, 0.05)
def test_split_skew_part_is_exactly_skew(n, seed, complex_, sparse, density):
    # S + S* = 0 bit for bit, on dense and CSR A (the CSR split halves the
    # stored entries of a - a*): the two-part route of spectral_interval
    # reads S_PQ alone and takes S_QP = -S_PQ* on this
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 2.0 ** rng.integers(-60, 61, size=(n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n)) * 2.0 ** rng.integers(-60, 61, size=(n, n))
    a = a * (rng.random((n, n)) < density)
    sysm = dk.HsSplitSystem.from_matrix(scipy.sparse.csr_array(a) if sparse else a)
    assert scipy.sparse.issparse(sysm.s) == sparse
    for s in (sysm.s, sysm.ops[2]):
        s = dk.as_dense(s)
        assert np.array_equal(s, -s.conj().T)


@pytest.mark.parametrize(
    "h, expected",
    [
        (np.eye(2), dk.Definiteness.POSITIVE_DEFINITE),
        (np.diag([1.0, 0.0]), dk.Definiteness.POSITIVE_SEMIDEFINITE),
        (np.diag([1.0, -1.0]), dk.Definiteness.INDEFINITE),
    ],
)
def test_definiteness_trivial(h, expected):
    assert dk.definiteness_class(h) is expected


def test_definiteness_rejects_nonhermitian():
    with pytest.raises(StructureError):
        dk.definiteness_class(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_definiteness_unitary_congruence_invariant():
    rng = np.random.default_rng(42)
    for h in (random_spd(rng, 8), np.diag([3.0, 1.0, 0.0, 0.0]), np.diag([2.0, -1.0, 0.5])):
        n = h.shape[0]
        cls = dk.definiteness_class(h, tol=1e-10)
        for complex_ in (False, True):
            u = random_unitary(rng, n, complex_)
            hc = u.conj().T @ h @ u
            hc = (hc + hc.conj().T) / 2
            assert dk.definiteness_class(hc, tol=1e-10) is cls


def _planted_hermitian(rng, n, kind, tol, complex_):
    """Q diag(lam) Q* with max(lam) = 1 (for n > 1) and lam[0] set by ``kind``."""
    lam = np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 4.0), n)
    lam /= lam[-1]
    if kind == "psd":
        lam[:rng.integers(1, n) if n > 1 else 1] = 0.0
    elif kind == "indefinite":
        lam[0] = -rng.uniform(1e-3, 1.0)
    elif kind == "near_above":
        lam[0] = 10.0 * tol
    elif kind == "near_below":
        lam[0] = 0.1 * tol
    q = random_unitary(rng, n, complex_)
    h = (q * (lam * 10.0 ** rng.uniform(-3.0, 3.0))) @ q.conj().T
    return (h + h.conj().T) / 2


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["pd", "psd", "indefinite", "near_above", "near_below"]),
       st.sampled_from([1e-12, 1e-8]))
def test_certificate_agrees_with_spectrum(n, seed, complex_, kind, tol):
    h = _planted_hermitian(np.random.default_rng(seed), n, kind, tol, complex_)
    eigs_ref = np.linalg.eigvalsh(h)
    dclass, factor, eigs = certify_definiteness(h, tol)
    assert dclass is _classify(eigs_ref, tol)
    if eigs is not None:
        assert np.array_equal(eigs, eigs_ref)
    # below the threshold the shifted Cholesky cannot certify; the spectrum decides
    if kind in ("psd", "indefinite") or (kind == "near_below" and n > 1):
        assert eigs is not None
    if factor is not None:
        assert dclass is dk.Definiteness.POSITIVE_DEFINITE
        low = dense_lower(factor)
        assert np.allclose(low @ low.conj().T, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))


def test_certificate_of_empty_matrix(capfd):
    dclass, factor, eigs = certify_definiteness(np.zeros((0, 0)))
    assert dclass is dk.Definiteness.POSITIVE_DEFINITE
    assert factor is not None and eigs is None
    assert capfd.readouterr().err == ""


class _Kernels:
    """Names of the LAPACK and BLAS kernels looked up or called inside a ``with`` block.

    ``pbtrs`` and the ``potrf`` of the shifted-Cholesky certificate come from
    a LAPACK lookup (the unshifted ``cho_factor`` looks up its own ``potrf``
    unseen), ``trsv`` and the ``trsm`` and ``gemm`` of the blocked band sweep
    from a BLAS lookup and ``potrs`` from ``scipy.linalg.cho_solve``.
    """

    PATCHED = ((scipy.linalg.lapack, "get_lapack_funcs"), (scipy.linalg, "get_blas_funcs"),
               (scipy.linalg, "cho_solve"))

    def __enter__(self):
        self.names, self._saved = [], [getattr(owner, name) for owner, name in self.PATCHED]
        for (owner, name), original in zip(self.PATCHED, self._saved):
            setattr(owner, name, self._recorder(name, original))
        return self

    def _recorder(self, name, original):
        def recorded(*args, **kwargs):
            self.names.extend(["potrs"] if name == "cho_solve" else args[0])
            return original(*args, **kwargs)
        return recorded

    def __exit__(self, *exc):
        for (owner, name), original in zip(self.PATCHED, self._saved):
            setattr(owner, name, original)


def _planted_dominant(rng, n, kind, tol, complex_):
    """Hermitian h with ``||h||_inf = 2^k`` and the smallest Gershgorin margin planted.

    ``kind`` "strict" plants min_i (h_ii - sum_{j != i} |h_ij|) = 10 tol
    ||h||_inf, "weak" 0.1 tol ||h||_inf; "zero_rows" zeroes some rows and
    columns of a strict h.  Powers of two scale it without rounding.
    """
    margin = (10.0 if kind != "weak" else 0.1) * tol
    g = rng.standard_normal((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    g = np.triu(g, 1)
    g = g + g.conj().T
    radii = np.abs(g).sum(axis=1)
    if radii.max() > 0:
        g *= (1.0 - margin) / 2 / radii.max()
        radii = np.abs(g).sum(axis=1)
    # row i has margin delta_i in [margin, 1 - 2 r_i]; the widest row sets ||h||_inf
    delta = margin + rng.random(n) * np.maximum(1.0 - 2 * radii - margin, 0.0)
    delta[np.argmax(radii)] = margin
    if n > 1 and not radii.any():
        # no off-diagonal entry: the planted row cannot reach ||h||_inf = 1, so another row does
        delta[-1] = 1.0
    h = g + np.diag(radii + delta)
    if kind == "zero_rows" and n > 1:
        zero = rng.random(n) < 0.3
        zero[rng.integers(n)] = True
        h[zero, :] = 0.0
        h[:, zero] = 0.0
    return h * 2.0 ** int(rng.integers(-20, 21))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from(["strict", "weak", "zero_rows"]), st.sampled_from([1e-12, 1e-8]))
@example(n=2, seed=1203, complex_=False, kind="weak", tol=1e-12)  # a mask with no off-diagonal
def test_dominance_certificate(n, seed, complex_, kind, tol):
    h = _planted_dominant(np.random.default_rng(seed), n, kind, tol, complex_)
    rows = np.abs(h).sum(axis=1)
    dominant = np.min(2 * h.diagonal().real - rows) > (tol + 2 * n * EPS) * rows.max()
    if n > 1:
        assert dominant == (kind == "strict")
    with _Kernels() as kernels:
        dclass, factor, eigs = certify_definiteness(h, tol)
    assert dclass is _classify(np.linalg.eigvalsh(h), tol)
    # the shifted Cholesky runs exactly when dominance fails and a Cholesky factor exists
    cholesky = dk.hs_core._cholesky(h) is not None
    assert kernels.names.count("potrf") == int(not dominant and cholesky)
    assert "trtri" not in kernels.names
    if dominant:
        assert dclass is dk.Definiteness.POSITIVE_DEFINITE and eigs is None
        assert factor is not None
    if factor is not None:
        low = dense_lower(factor)
        assert np.allclose(low @ low.conj().T, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))


def _certified_level(h, tol):
    """``(tol + n eps) ||h||_inf``, the level that the shifted Cholesky proves lambda_min above."""
    return (tol + h.shape[0] * EPS) * float(np.abs(h).sum(axis=1).max(initial=0.0))


def _planted_at_level(rng, n, ratio, tol, complex_, low=1):
    """Hermitian h whose ``low`` smallest eigenvalues sit at ``ratio`` times its certified level.

    Q diag(lam) Q* with max(lam) = 1 and lam[:low] = 0, shifted by delta I
    so that lambda_min = ratio (tol + n eps) ||h||_inf up to rounding: the
    shift adds delta to ||h||_inf, as every diagonal entry is nonnegative.
    """
    lam = np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 4.0), n)
    lam /= lam[-1]
    lam[:low] = 0.0
    q = random_unitary(rng, n, complex_)
    h = (q * lam) @ q.conj().T
    h = (h + h.conj().T) / 2
    level = ratio * (tol + n * EPS)
    delta = (level * float(np.abs(h).sum(axis=1).max()) - np.linalg.eigvalsh(h)[0]) / (1 - level)
    h[np.arange(n), np.arange(n)] += delta
    return h


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.integers(1, 60), st.sampled_from([298, 300, 301])),
       st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.5, 0.99, 1.01, 2.0, 100.0]),
       st.sampled_from([1e-12, 1e-8]), st.integers(-40, 40))
@example(n=300, seed=0, complex_=True, ratio=0.5, tol=1e-12, scale=-40)
@example(n=40, seed=1, complex_=False, ratio=0.99, tol=1e-8, scale=40)
def test_shifted_cholesky_certificate_is_sound(n, seed, complex_, ratio, tol, scale):
    # powers of two scale h, its level and its spectrum exactly
    h = _planted_at_level(np.random.default_rng(seed), n, ratio, tol, complex_) * 2.0 ** scale
    eigs_ref, level = np.linalg.eigvalsh(h), _certified_level(h, tol)
    smallest = eigs_ref[0]
    assert smallest == pytest.approx(ratio * level, rel=1e-2, abs=0.0)
    dclass, factor, eigs = certify_definiteness(h, tol)
    assert dclass is _classify(eigs_ref, tol)
    if eigs is None:  # certified by the margin or the shifted Cholesky, with no spectrum
        assert smallest > level and factor is not None
    if ratio <= 0.99:
        assert eigs is not None
    if ratio == 100.0 and tol == 1e-8 and n > 1:  # far above the level it always certifies
        assert eigs is None


def test_shifted_cholesky_certifies_where_the_trace_bound_did_not(monkeypatch):
    # twenty eigenvalues at 4x the level: 1/trace(h^-1) <= lambda_min / 20 lies
    # below it, so the trace bound 1/||L^-1||_F^2 refused this h
    h = _planted_at_level(np.random.default_rng(11), 100, 4.0, 1e-8, False, low=20)
    smallest, level = np.linalg.eigvalsh(h)[0], _certified_level(h, 1e-8)
    trace_bound = 1.0 / np.linalg.norm(np.linalg.inv(np.linalg.cholesky(h))) ** 2
    assert trace_bound < level < smallest
    rows = np.abs(h).sum(axis=1)
    assert np.min(2 * h.diagonal() - rows) <= 0.0  # no Gershgorin margin
    called = []
    record_eigen_kernels(monkeypatch, lambda kernel, order, dtype: called.append(kernel))
    with _Kernels() as kernels:
        dclass, factor, eigs = certify_definiteness(h, 1e-8)
    assert dclass is dk.Definiteness.POSITIVE_DEFINITE and factor is not None
    assert eigs is None and called == []
    assert kernels.names.count("potrf") == 1


def _stokes_midpoint(tau=1e-3, **params):
    return dk.midpoint_system(dk.from_descriptor({"name": "stokes", "params": params}), tau)


# (builder of the model or matrix, times the shifted-Cholesky certificate runs when its
# split system is made)
SETUP_CASES = {
    "stabilized_stokes": (lambda: _stokes_midpoint(grid_n=8, viscosity=100.0,
                                                   stabilization=0.005).sys.a, 0),
    "stabilized_stokes_tau_1e-4": (lambda: _stokes_midpoint(1e-4, grid_n=8, viscosity=100.0,
                                                            stabilization=0.005).sys.a, 0),
    "convective_stokes": (lambda: _stokes_midpoint(grid_n=8, convection=50.0,
                                                   stabilization=0.005).sys.a, 0),
    "unstabilized_stokes_a11": (lambda: dk.midpoint_saddle_blocks(
        dk.assemble_stokes_like(12, convection=50.0), 1e-3)[0], 0),
    "rlc": (lambda: dk.midpoint_system(dk.from_descriptor({"name": "rlc"}), 0.1).sys.a, 0),
    "mechanical": (lambda: dk.midpoint_system(dk.from_descriptor(
        {"name": "mechanical", "params": {"n": 30}}), 0.02).sys.a, 1),
    "poroelastic": (lambda: dk.midpoint_system(dk.from_descriptor({"name": "poroelastic"}),
                                               0.01).sys.a, 1),
    "random_spd": (lambda: random_spd(np.random.default_rng(3), 30), 1),
}


def _packed_band(h, kd):
    """The lower band of ``h`` in LAPACK's (kd + 1) x n storage: h[j + d, j] at [d, j]."""
    n = h.shape[0]
    band = np.zeros((kd + 1, n), dtype=h.dtype)
    for d in range(kd + 1):
        band[d, :n - d] = [h[j + d, j] for j in range(n - d)]
    return band


# the SETUP_CASES whose H is factored on its band: n >= 128 with (kd + 1) <= n / 16
BAND_SETUP_CASES = {"stabilized_stokes": 8, "stabilized_stokes_tau_1e-4": 8,
                    "convective_stokes": 8, "unstabilized_stokes_a11": 12}


@pytest.mark.parametrize("case", sorted(SETUP_CASES))
def test_setup_certifies_dominant_h_without_inverse(case):
    build, expected = SETUP_CASES[case]
    a = dk.as_dense(build())
    with _Kernels() as kernels:
        sysm = dk.HsSplitSystem.from_matrix(a)
    assert kernels.names.count("potrf") == expected
    assert "trtri" not in kernels.names
    # split, factor and class are bitwise those of the direct formulas: a
    # narrow-band H's factor is pbtrf of its packed band, any other's cho_factor
    at = a.conj().T
    assert sysm.h.tobytes() == ((a + at) / 2).tobytes()
    assert sysm.s.tobytes() == ((a - at) / 2).tobytes()
    if case in BAND_SETUP_CASES:
        band = _packed_band((a + at) / 2, BAND_SETUP_CASES[case])
        c, info = scipy.linalg.lapack.get_lapack_funcs(("pbtrf",), (band,))[0](band, lower=1)
        assert info == 0 and sysm.h_factor.c_lower is None
        assert _bits(sysm.h_factor.band) == _bits(c)
    else:
        c, lower = scipy.linalg.cho_factor((a + at) / 2, lower=True)
        assert lower and sysm.h_factor.band is None
        assert sysm.h_factor.c_lower[0].tobytes() == c.tobytes()
    assert sysm.definiteness is _classify(np.linalg.eigvalsh(sysm.h), dk.hs_core.DEFAULT_TOL)
    assert sysm.definiteness is dk.Definiteness.POSITIVE_DEFINITE


# builders of split systems whose A + A* is sparse (n >= 128) or not
OPS_CASES = {
    "stabilized_stokes_grid12": (lambda: _stokes_midpoint(
        grid_n=12, viscosity=100.0, stabilization=0.005).sys, True),
    "stabilized_stokes_grid16_tau_1e-4": (lambda: _stokes_midpoint(
        1e-4, grid_n=16, viscosity=100.0, stabilization=0.005).sys, True),
    "convective_stokes_grid12": (lambda: _stokes_midpoint(
        grid_n=12, convection=50.0, stabilization=0.005).sys, True),
    "unstabilized_stokes_a11_grid12": (lambda: dk.HsSplitSystem.from_matrix(
        dk.midpoint_saddle_blocks(dk.assemble_stokes_like(12, convection=50.0), 1e-3)[0]), True),
    "mechanical": (lambda: dk.midpoint_system(dk.from_descriptor(
        {"name": "mechanical", "params": {"n": 200}}), 0.02).sys, False),
    "poroelastic": (lambda: dk.midpoint_system(dk.from_descriptor(
        {"name": "poroelastic", "params": {"n": 100, "p": 50}}), 0.01).sys, False),
    "random_hs_system": (lambda: random_hs_system(np.random.default_rng(4), 200), False),
    "stokes_below_128": (lambda: _stokes_midpoint(grid_n=6, viscosity=100.0,
                                                  stabilization=0.005).sys, False),
}


@pytest.mark.parametrize("case", sorted(OPS_CASES))
def test_product_operators_are_csr_copies_of_sparse_systems(case):
    build, sparse = OPS_CASES[case]
    sysm = build()
    assert (sysm.n >= dk.hs_core._CSR_MIN_N) == (case != "stokes_below_128")
    ops = sysm.ops
    assert sysm.ops is ops
    for op, field in zip(ops, (sysm.a, sysm.h, sysm.s)):
        if not sparse:
            assert op is field
            continue
        assert isinstance(op, scipy.sparse.csr_array) and op.has_canonical_format
        # exactly the nonzero entries of the field
        assert np.all(op.data != 0)
        assert _bits(op.toarray()) == _bits(dk.as_dense(field))


def test_product_operators_pass_non_arrays_through():
    class Op:
        def __init__(self, m):
            self.m, self.shape, self.dtype = m, m.shape, m.dtype

        def __matmul__(self, x):
            return self.m @ x

    sysm = dk.HsSplitSystem.from_matrix(OPS_CASES["stabilized_stokes_grid12"][0]().a.toarray())
    # the pattern is read from a: without an array a every field serves
    no_a = dataclasses.replace(sysm, a=Op(sysm.a))
    assert all(op is field for op, field in zip(no_a.ops, (no_a.a, no_a.h, no_a.s)))
    no_h = dataclasses.replace(sysm, h=Op(sysm.h))
    a_op, h_op, s_op = no_h.ops
    assert h_op is no_h.h
    assert _bits(a_op.toarray()) == _bits(sysm.a) and _bits(s_op.toarray()) == _bits(sysm.s)


# the parameters of the Stokes models whose CSR midpoint matrix is split both ways
PARITY_MODELS = {
    "stabilized": {"viscosity": 100.0, "stabilization": 0.005},
    "convective": {"viscosity": 100.0, "convection": 50.0, "stabilization": 0.005},
    "unstabilized": {"viscosity": 1.0, "stabilization": 0.0},
}


def _same_matrix(x, y):
    """Bitwise equality of two matrices: CSR part by part when both are CSR, else densified."""
    if scipy.sparse.issparse(x) and scipy.sparse.issparse(y):
        return all(_bits(getattr(x, part)) == _bits(getattr(y, part))
                   for part in ("data", "indices", "indptr"))
    return _bits(dk.as_dense(x)) == _bits(dk.as_dense(y))


@pytest.mark.parametrize("model", sorted(PARITY_MODELS))
@pytest.mark.parametrize("grid_n", [3, 8, 16])
def test_csr_split_matches_the_dense_split(grid_n, model):
    # from_matrix works on the stored entries of a CSR A; the same A as an
    # ndarray gives bitwise the same split, class, factor and products
    csr_a = dk.midpoint_system(dk.assemble_stokes_like(grid_n, **PARITY_MODELS[model]),
                               1e-3).sys.a
    assert isinstance(csr_a, scipy.sparse.csr_array)
    sparse, dense = dk.HsSplitSystem.from_matrix(csr_a), dk.HsSplitSystem.from_matrix(
        csr_a.toarray())
    for name in ("a", "h", "s"):
        assert scipy.sparse.issparse(getattr(sparse, name))
        assert _bits(getattr(sparse, name).toarray()) == _bits(getattr(dense, name))
    assert sparse.definiteness is dense.definiteness
    assert (sparse.definiteness is dk.Definiteness.POSITIVE_DEFINITE) == (model != "unstabilized")
    if sparse.h_factor is None:
        assert dense.h_factor is None
        assert _bits(sparse.h_eigenvalues) == _bits(dense.h_eigenvalues)
    elif sparse.h_factor.band is not None:
        assert _bits(sparse.h_factor.band) == _bits(dense.h_factor.band)
    else:
        assert dense.h_factor.band is None
        assert _bits(sparse.h_factor.c_lower[0]) == _bits(dense.h_factor.c_lower[0])
    assert (sparse.h_factor is not None and sparse.h_factor.band is not None) == (
        grid_n >= 8 and model != "unstabilized")
    assert all(op is field for op, field in zip(sparse.ops, (sparse.a, sparse.h, sparse.s)))
    assert all(_same_matrix(x, y) for x, y in zip(sparse.ops, dense.ops))
    if grid_n == 16 and sparse.h_factor is not None:
        b = np.random.default_rng(16).standard_normal(sparse.n)
        for method in ("widlund", "rapoport"):
            got, want = (dk.solve(method, m, b, tol=1e-12) for m in (sparse, dense))
            assert got.iterations == want.iterations
            assert _bits(got.residual_2norm) == _bits(want.residual_2norm)
            assert _bits(got.solution) == _bits(want.solution)


def test_integer_matrices_split_and_classify_as_floats():
    # an integer Matrix Market file reads as int, and np.diag([1, 2]) is int
    ints = np.random.default_rng(22).integers(-9, 10, size=(6, 6))
    h, s = dk.split_hs(ints)
    assert _bits(h) == _bits((ints + ints.T) / 2) and _bits(s) == _bits((ints - ints.T) / 2)
    assert dk.definiteness_class(np.diag([1, 2])) is dk.Definiteness.POSITIVE_DEFINITE
    assert dk.assemble_mechanical(np.diag([1, 2]), np.zeros((2, 2)), np.diag([3, 4])).n == 4


def _bits(x):
    return np.asarray(x).dtype, np.asarray(x).shape, np.asarray(x).tobytes()


@pytest.mark.parametrize("shape, complex_", [((7, 7), False), ((7, 7), True), ((1, 1), False),
                                             ((1, 1), True), ((0, 0), False), ((0, 0), True)])
def test_split_and_deviations_bitwise_equal_conj_formulas(shape, complex_):
    # values with signed zeros, subnormals and huge entries, where a
    # complex multiply by 0.5 and a division by 2 would part ways
    rng = np.random.default_rng(21)
    vals = np.array([0.0, -0.0, 1.5, -2.25, 1e-310, -1e-310, 3e300, -3e300, 0.1])
    a = rng.choice(vals, size=shape)
    if complex_:
        a = a.astype(complex)  # set, not added: adding would turn the real -0.0 into 0.0
        a.imag = rng.choice(vals, size=shape)
    at = a.conj().T
    h, s = dk.split_hs(a)
    assert _bits(h) == _bits((a + at) / 2) and _bits(s) == _bits((a - at) / 2)
    old_max_norm = (lambda m: float(np.max(np.abs(m))) if m.size else 0.0)
    assert _bits(hermitian_deviation(a)) == _bits(old_max_norm(a - at))
    assert _bits(skew_deviation(a)) == _bits(old_max_norm(a + at))
    for m in (a, -np.abs(a), np.zeros(shape), -np.zeros(shape)):
        assert _bits(dk.hs_core.max_norm(m)) == _bits(old_max_norm(m))


def test_hermitian_solve_trivial():
    b = np.array([1.0, -2.0, 0.5])
    assert np.allclose(dk.HsSplitSystem.from_matrix(np.eye(3)).solve_h(b), b)
    sys4 = dk.HsSplitSystem.from_matrix(np.array([[4.0]]))
    assert np.allclose(sys4.solve_h(np.array([8.0])), [2.0])
    assert dk.HsSplitSystem.from_matrix(np.zeros((0, 0))).solve_h(np.zeros(0)).shape == (0,)


def test_hermitian_solve_multiply_back():
    # condition numbers up to 1e6 must reproduce b to 1e-10 relative
    rng = np.random.default_rng(12)
    for cond in (1e2, 1e4, 1e6):
        h = random_spd(rng, 40, cond=cond)
        b = rng.standard_normal(40)
        x = dk.HsSplitSystem.from_matrix(h).solve_h(b)
        assert np.linalg.norm(h @ x - b) <= 1e-10 * np.linalg.norm(b)


EPS = np.finfo(float).eps


def _hpd(rng, n, cond, complex_):
    q = random_unitary(rng, n, complex_)
    h = (q * np.geomspace(1.0, cond, n)) @ q.conj().T
    return (h + h.conj().T) / 2


def _rhs(rng, shape, complex_):
    b = rng.standard_normal(shape)
    return b + 1j * rng.standard_normal(shape) if complex_ else b


# (complex factor, complex right side)
SOLVE_KINDS = {"real": (False, False), "complex": (True, True), "real_h_complex_b": (False, True)}


def test_hermitian_solve_dense_inverse_oracle():
    # a vector solve (trsv) agrees with the dense solve to kappa * eps, and a
    # block solve (potrs) with the vector solves of its columns
    rng = np.random.default_rng(11)
    for n in (1, 50, 240):
        for complex_h, complex_b in SOLVE_KINDS.values():
            h = _hpd(rng, n, 1e3, complex_h)
            b = _rhs(rng, (n, 4), complex_b)
            factor = dk.HsSplitSystem.from_matrix(h).h_factor
            tol = 10 * np.linalg.cond(h) * EPS
            x = factor.solve(b[:, 0])
            x_ref = np.linalg.solve(h, b[:, 0])
            assert x.shape == (n,) and np.iscomplexobj(x) == complex_b
            assert np.linalg.norm(x - x_ref) <= tol * np.linalg.norm(x_ref)
            xb = factor.solve(b)
            cols = np.column_stack([factor.solve(c) for c in b.T])
            assert xb.shape == b.shape and np.iscomplexobj(xb) == complex_b
            assert np.linalg.norm(xb - cols) <= tol * np.linalg.norm(xb)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(5,), (5, 2)])
def test_hermitian_solve_rejects_non_finite_rhs(shape, bad):
    sysm = dk.HsSplitSystem.from_matrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    b = np.ones(shape)
    b[2] = bad
    with pytest.raises(ValueError):
        sysm.solve_h(b)
    with pytest.raises(ValueError):
        sysm.solve_h(b + 1j)


def test_vector_h_solve_runs_on_triangular_solves(monkeypatch):
    # a nonempty vector costs two trsv on a dense factor; every block, one
    # column or many, and an empty vector go through potrs (cho_solve)
    class Potrs(Exception):
        pass

    def refused(*args, **kwargs):
        raise Potrs

    rng = np.random.default_rng(6)
    h = _hpd(rng, 30, 1e2, False)
    sysm = dk.HsSplitSystem.from_matrix(h)
    monkeypatch.setattr(scipy.linalg, "cho_solve", refused)
    for b in (_rhs(rng, 30, False), _rhs(rng, 30, True)):
        assert np.allclose(h @ sysm.solve_h(b), b, rtol=0, atol=1e-12)
    for shape in ((30, 1), (30, 3), (30, 4)):
        with pytest.raises(Potrs):
            sysm.solve_h(_rhs(rng, shape, True))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(sorted(SOLVE_KINDS)),
       st.floats(0.0, 6.0))
def test_hermitian_solve_backward_stable(n, seed, kind, log_cond):
    complex_h, complex_b = SOLVE_KINDS[kind]
    rng = np.random.default_rng(seed)
    h = _hpd(rng, n, 10.0 ** log_cond, complex_h)
    b = _rhs(rng, (n, 3), complex_b)
    factor = dk.HsSplitSystem.from_matrix(h).h_factor
    scale = 8 * n * EPS * np.linalg.norm(h, 2)
    x = factor.solve(b[:, 0])
    assert np.linalg.norm(h @ x - b[:, 0]) <= scale * np.linalg.norm(x)
    xb = factor.solve(b)
    for j in range(3):
        assert np.linalg.norm(h @ xb[:, j] - b[:, j]) <= scale * np.linalg.norm(xb[:, j])
    # a one-column block is a block, solved by potrs, and backward stable too
    x1 = factor.solve(b[:, :1])
    assert x1.shape == (n, 1)
    assert np.linalg.norm(h @ x1[:, 0] - b[:, 0]) <= scale * np.linalg.norm(x1)


def _planted_band(rng, n, kd, complex_):
    """Dominant Hermitian h with half-bandwidth exactly kd and some zeros inside the band."""
    g = np.zeros((n, n), dtype=complex if complex_ else float)
    for d in range(1, kd + 1):
        vals = _rhs(rng, n - d, complex_) * (rng.random(n - d) < 0.7)
        vals[rng.integers(n - d)] = 1.0  # the outermost diagonal is not all zero
        g[np.arange(d, n), np.arange(n - d)] = vals
    g = g + g.conj().T
    h = g + np.diag(np.abs(g).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    return h * 2.0 ** int(rng.integers(-20, 21))


@settings(max_examples=40, deadline=None)
@given(st.integers(128, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n // 16 - 1))),
       st.integers(0, 2**32 - 1), st.sampled_from(sorted(SOLVE_KINDS)),
       st.integers(2, 16), st.integers(1, 24))
@example((735, 16), 0, "real", 16, 16)     # the band of stabilized Stokes at grid 16
@example((735, 16), 1, "complex", 9, 128)  # its 144-column block shape
@example((264, 12), 2, "real", 16, 128)    # the grid-12 Schur A11 and its [B | f] blocks
def test_band_factor_backward_stable(shape, seed, kind, narrow, extra):
    complex_h, complex_b = SOLVE_KINDS[kind]
    n, kd = shape  # kd + 1 <= n / 16 takes the band path
    rng = np.random.default_rng(seed)
    h = _planted_band(rng, n, kd, complex_h)
    factor = dk.HsSplitSystem.from_matrix(h).h_factor
    assert factor.c_lower is None and factor.band.shape == (kd + 1, n)
    # a vector by pbtrs, a narrow block and a wide block by the blocked sweep,
    # all on the band
    wide = 16 + extra
    scale = 8 * n * EPS * np.linalg.norm(h, 2)
    for b in (_rhs(rng, n, complex_b), _rhs(rng, (n, narrow), complex_b),
              _rhs(rng, (n, wide), complex_b)):
        x = factor.solve(b)
        assert x.shape == b.shape and np.iscomplexobj(x) == complex_b
        resid = np.linalg.norm((h @ x - b).reshape(n, -1), axis=0)
        assert np.all(resid <= scale * np.linalg.norm(x.reshape(n, -1), axis=0))
    assert not holds_n_by_n_array(factor)
    low = dense_lower(factor)
    assert np.allclose(low @ low.conj().T, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))


def test_band_h_solve_takes_potrs_only_for_wide_blocks(monkeypatch):
    # on a band factor no block takes potrs, however wide: vectors take pbtrs
    # on the band, and empty, narrow and wide blocks, such as the Schur build
    # of [B | f] at grid 12, the blocked sweep over its row slabs; no dense L
    # is scattered from it
    rng = np.random.default_rng(7)
    potrs, cho_solve = [], scipy.linalg.cho_solve

    def recorded(c, b, **kwargs):
        potrs.append(b.shape)
        return cho_solve(c, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_solve", recorded)
    shapes = ((160,), (160, 0), (160, 1), (160, 16), (160, 17), (160, 144))
    for kd in (8, 4):
        h = _planted_band(rng, 160, kd, False)
        factor = dk.HsSplitSystem.from_matrix(h).h_factor
        assert factor.band.shape == (kd + 1, 160)
        scale = 8 * 160 * EPS * np.linalg.norm(h, 2)
        for shape in shapes:
            b = _rhs(rng, shape, False)
            x = factor.solve(b)
            resid = np.linalg.norm((h @ x - b).reshape(160, -1), axis=0)
            assert np.all(resid <= scale * np.linalg.norm(x.reshape(160, -1), axis=0))
        assert potrs == [] and not holds_n_by_n_array(factor)


def _kernel_solve(factor, b):
    """``factor.solve(b)`` and the set of kernels it ran."""
    with _Kernels() as kernels:
        x = factor.solve(b)
    return x, set(kernels.names)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(st.integers(0, 40), st.none()),
                 st.integers(128, 300).flatmap(
                     lambda n: st.tuples(st.just(n), st.integers(0, n // 16 - 1)))),
       st.integers(0, 2**32 - 1), st.sampled_from(sorted(SOLVE_KINDS)))
@example((264, 12), 0, "real")     # the grid-12 Schur A11 and its 144-column [B | f]
@example((735, 16), 1, "complex")  # the band of stabilized Stokes at grid 16
def test_block_h_solve_matches_column_solves_on_one_kernel_per_form(shape, seed, kind):
    # a band factor (kd given) solves every vector by pbtrs and every block
    # by the blocked sweep (trsm and gemm); a dense one a nonempty vector by
    # the trsv pair, any other right side by potrs.  Each column of a block
    # solve and its vector solve agree to their backward error, and no solve
    # leaves an n x n array on a band
    n, kd = shape
    complex_h, complex_b = SOLVE_KINDS[kind]
    rng = np.random.default_rng(seed)
    h = _hpd(rng, n, 1e3, complex_h) if kd is None else _planted_band(rng, n, kd, complex_h)
    factor = dk.HsSplitSystem.from_matrix(h).h_factor
    assert (factor.band is None) == (kd is None)
    block_kernels = {"potrs"} if kd is None else {"trsm", "gemm"}
    vector_kernel = ("trsv" if n else "potrs") if kd is None else "pbtrs"
    scale = 8 * n * EPS * (np.linalg.norm(h, 2) if n else 0.0)
    for width in (0, 1, 2, 3, 16, 17, 144):
        b = _rhs(rng, (n, width), complex_b)
        x, kernels = _kernel_solve(factor, b)
        assert kernels == block_kernels and x.shape == b.shape
        assert np.iscomplexobj(x) == complex_b
        for j in range(width):
            col, kernels = _kernel_solve(factor, b[:, j])
            assert kernels == {vector_kernel}
            gap = np.linalg.norm(h @ (x[:, j] - col))
            assert gap <= scale * (np.linalg.norm(x[:, j]) + np.linalg.norm(col))
    if kd is not None:
        assert factor.band.shape == (kd + 1, n) and not holds_n_by_n_array(factor)


LAYOUTS = {
    "C": lambda b: np.ascontiguousarray(b),
    "F": lambda b: np.asfortranarray(b),
    "strided": lambda b: np.repeat(b, 2, axis=1)[:, ::2],
}


@settings(max_examples=40, deadline=None)
@given(st.integers(128, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n // 16 - 1))),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.sampled_from(sorted(LAYOUTS)))
@example((264, 12), 0, False, False, "C")       # the grid-12 Schur A11 and its [B | f] blocks
@example((735, 16), 1, True, False, "F")        # the band of stabilized Stokes at grid 16
@example((129, 0), 2, False, True, "strided")   # a diagonal L, one row past a slab
@example((300, 17), 3, True, True, "C")         # kd > 16: slabs of order kd
def test_blocked_band_sweep_matches_pbtrs_column_solves(shape, seed, complex_h, complex_b,
                                                        layout):
    # each column of a block solve by the slab sweep lies within the backward
    # error of its vector solve by pbtrs, for real and complex factors and
    # blocks and any memory layout of the block, with n not a multiple of nb;
    # the slabs are built once, read-only, and hold O(n nb) entries
    n, kd = shape
    nb = max(kd, dk.hs_core._SLAB_MIN)
    assume(n % nb)
    rng = np.random.default_rng(seed)
    h = _planted_band(rng, n, kd, complex_h)
    factor = dk.HsSplitSystem.from_matrix(h).h_factor
    assert factor.band.shape == (kd + 1, n) and "_slabs" not in vars(factor)
    scale = 8 * n * EPS * np.linalg.norm(h, 2)
    for width in (0, 1, 2, 17, 144):
        b = LAYOUTS[layout](_rhs(rng, (n, width), complex_b))
        x = factor.solve(b)
        assert x.shape == b.shape and x.dtype == np.result_type(factor.band.dtype, b.dtype)
        for j in range(width):
            col = factor.solve(b[:, j])
            gap = np.linalg.norm(h @ (x[:, j] - col))
            assert gap <= scale * (np.linalg.norm(x[:, j]) + np.linalg.norm(col))
    slabs = vars(factor)["_slabs"]
    assert [e for _, e, _, _ in slabs][-1] == n and len(slabs) == -(-n // nb)
    blocks = [a for *_, d, c in slabs for a in (d, c) if a is not None]
    assert not any(a.flags.writeable for a in blocks)
    assert sum(a.size for a in blocks) <= n * (nb + kd)
    assert not holds_n_by_n_array(factor)


@settings(max_examples=40, deadline=None)
@given(st.integers(128, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n // 16 - 1))),
       st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 40))
@example((735, 16), 0, False, 16)  # the band of stabilized Stokes at grid 16
@example((300, 17), 1, True, 1)    # one-column blocks
def test_principal_band_block_and_lower_solve(shape, seed, complex_, columns):
    # the band of a principal block L[idx, idx] is gathered exactly, and
    # L^{-1} x by the forward sweep is backward stable on the band and on the block
    n, kd = shape
    rng = np.random.default_rng(seed)
    factor = dk.HsSplitSystem.from_matrix(_planted_band(rng, n, kd, complex_)).h_factor
    low = dense_lower(factor)
    idx = np.flatnonzero(rng.random(n) < rng.uniform(0.05, 1.0))
    idx = idx if idx.size else np.array([int(rng.integers(n))])
    block = factor.principal_block(idx)
    assert block.band.shape[0] <= kd + 1 and block.band.flags.f_contiguous
    assert np.any(block.band[-1] != 0)  # outer diagonals that are all zero are dropped
    assert np.array_equal(dense_lower(block), low[np.ix_(idx, idx)])
    for tri, f in ((low, factor), (low[np.ix_(idx, idx)], block)):
        x_in = _rhs(rng, (f.n, columns), complex_)
        x = f.solve_lower(x_in)
        resid = np.linalg.norm(tri @ x - x_in, axis=0)
        assert np.all(resid <= 8 * f.n * EPS * np.linalg.norm(tri, 2) * np.linalg.norm(x, axis=0))
    assert not holds_n_by_n_array(factor)


def test_principal_block_of_dense_factor_is_gathered_from_the_payload():
    # a dense factor gathers L[idx, idx] bitwise, and solve_lower is solve_triangular
    rng = np.random.default_rng(19)
    factor = dk.HsSplitSystem.from_matrix(_hpd(rng, 30, 10.0, True)).h_factor
    idx = np.array([0, 3, 4, 17, 29])
    block = factor.principal_block(idx)
    low = block.c_lower[0]
    assert block.band is None and np.array_equal(low, factor.c_lower[0][np.ix_(idx, idx)])
    x = _rhs(rng, (5, 3), True)
    assert block.solve_lower(x).tobytes() == scipy.linalg.solve_triangular(
        low, x, lower=True).tobytes()


def _potrs_solve(self, b):
    """The LAPACK potrs kernel that served every H-solve before, kept as a reference."""
    return scipy.linalg.cho_solve(self.c_lower, np.asarray_chkfinite(b), check_finite=False)


@pytest.mark.parametrize("kind", sorted(SOLVE_KINDS))
def test_krylov_counts_match_potrs_kernel(kind, monkeypatch):
    # lam = 2 keeps the runs near 40 steps.  Past about 40 steps the short
    # recurrence amplifies rounding: at lam = 8 a 1e-15 relative change of b
    # moves later Widlund residuals by 50 % under either kernel, so the
    # stopping step there reflects rounding rather than the kernel.
    complex_h, complex_b = SOLVE_KINDS[kind]
    rng = np.random.default_rng(200)
    sysm = random_hs_system(rng, 200, cond_h=100.0, lam=2.0, complex_=complex_h)
    b = _rhs(rng, 200, complex_b)
    methods = ("widlund", "rapoport", "lgmres")
    reports = [dk.solve(m, sysm, b, tol=1e-10) for m in methods]
    monkeypatch.setattr(dk.hs_core.HermitianFactor, "solve", _potrs_solve)
    for method, rep in zip(methods, reports):
        ref = dk.solve(method, sysm, b, tol=1e-10)
        assert rep.converged and ref.converged
        assert rep.iterations == ref.iterations > 30
        assert np.allclose(rep.residual_2norm, ref.residual_2norm, rtol=1e-4, atol=0)
        assert np.linalg.norm(rep.solution - ref.solution) <= 1e-10 * np.linalg.norm(ref.solution)


def test_hermitian_factor_rejects_indefinite():
    sysm = dk.HsSplitSystem.from_matrix(np.diag([1.0, -2.0]))
    assert sysm.h_factor is None
    with pytest.raises(DefinitenessError):
        sysm.solve_h(np.ones(2))


def test_hs_split_system_invariants():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 10) + 0.3 * (lambda g: g - g.T)(rng.standard_normal((10, 10)))
    sysm = dk.HsSplitSystem.from_matrix(a)
    assert sysm.definiteness is dk.Definiteness.POSITIVE_DEFINITE
    assert sysm.h_factor is not None
    assert np.max(np.abs(sysm.h + sysm.s - a)) <= 1e-13 * np.max(np.abs(a))
    x = sysm.solve_h(rng.standard_normal(10))
    assert x.shape == (10,)
    # value object: arrays are read-only
    with pytest.raises(ValueError):
        sysm.a[0, 0] = 99.0
    # one spectrum drives the class and h_eigenvalues, for every class of h
    u = random_unitary(rng, 10, complex_=True)
    g = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    cases = (
        (a, dk.Definiteness.POSITIVE_DEFINITE),
        (np.diag([2.0] * 7 + [0.0] * 3) + (a - a.T) / 2, dk.Definiteness.POSITIVE_SEMIDEFINITE),
        (np.diag(np.linspace(-1.0, 2.0, 10)) + (a - a.T) / 2, dk.Definiteness.INDEFINITE),
        ((u * np.geomspace(1.0, 10.0, 10)) @ u.conj().T + (g - g.conj().T) / 2,
         dk.Definiteness.POSITIVE_DEFINITE),
    )
    for a_case, expected in cases:
        sysm = dk.HsSplitSystem.from_matrix(a_case)
        assert sysm.definiteness is expected
        assert sysm.definiteness is dk.definiteness_class(sysm.h)
        assert np.array_equal(sysm.h_eigenvalues, np.linalg.eigvalsh(sysm.h))
        assert (sysm.h_factor is not None) == (expected is dk.Definiteness.POSITIVE_DEFINITE)


@pytest.fixture
def decompositions(monkeypatch):
    """Counts calls of the dense decompositions and of ``from_matrix``."""
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((np.linalg, "eigh"), (scipy.linalg, "cho_factor"),
                        (scipy.linalg, "cholesky")):
        count(owner, name)
    record_eigen_kernels(monkeypatch, lambda kernel, order, dtype: counts.update([kernel]))
    from_matrix = dk.HsSplitSystem.from_matrix.__func__

    def counted_from_matrix(cls, *args, **kwargs):
        counts["from_matrix"] += 1
        return from_matrix(cls, *args, **kwargs)

    monkeypatch.setattr(dk.HsSplitSystem, "from_matrix", classmethod(counted_from_matrix))
    return counts


def _skew(rng, n):
    g = rng.standard_normal((n, n))
    return g - g.T


def test_from_matrix_decomposes_and_factors_h_once(decompositions):
    # a positive definite h is certified by its one Cholesky factor
    rng = np.random.default_rng(13)
    sysm = dk.HsSplitSystem.from_matrix(random_spd(rng, 8) + _skew(rng, 8))
    assert decompositions == {"from_matrix": 1, "cho_factor": 1}
    # a semidefinite h fails the factorization and is classified by one spectrum
    decompositions.clear()
    semi = dk.HsSplitSystem.from_matrix(np.diag([1.0] * 5 + [0.0] * 3) + _skew(rng, 8))
    assert decompositions == {"from_matrix": 1, "cho_factor": 1, "eigvalsh": 1}
    # the spectrum is computed on first read and kept; the fallback one is reused
    decompositions.clear()
    first = (sysm.h_eigenvalues, semi.h_eigenvalues)
    assert sysm.h_eigenvalues is first[0] and semi.h_eigenvalues is first[1]
    assert decompositions == {"eigvalsh": 1}
    for system in (sysm, semi):
        assert np.array_equal(system.h_eigenvalues, np.linalg.eigvalsh(system.h))


def test_stokes_setup_computes_no_spectrum(decompositions):
    model = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 8, "viscosity": 100.0, "stabilization": 0.005}})
    msys = dk.midpoint_system(model, 1e-3)
    assert msys.sys.definiteness is dk.Definiteness.POSITIVE_DEFINITE
    assert decompositions["eigvalsh"] == decompositions["eigh"] == 0
    # n = 175 with kd = 8: H is factored once, on its band, not by cho_factor
    assert decompositions["cho_factor"] == 0 and msys.sys.h_factor.band.shape == (9, 175)


def test_spectral_interval_reuses_the_system_factor(decompositions):
    rng = np.random.default_rng(14)
    sysm = dk.HsSplitSystem.from_matrix(random_spd(rng, 8) + _skew(rng, 8))
    decompositions.clear()
    interval = dk.spectral_interval(sysm)
    assert decompositions["cho_factor"] == decompositions["cholesky"] == 0
    # oracle: spec(H^{-1} S) from a dense nonsymmetric eigensolver
    mu = np.linalg.eigvals(np.linalg.solve(sysm.h, sysm.s))
    assert interval.lam == pytest.approx(np.max(np.abs(mu.imag)), rel=1e-12)


def test_spectral_interval_takes_one_spectrum_and_no_svd(decompositions, monkeypatch):
    svds = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted_svd(*args, **kwargs):
        svds.append("svd")
        return svd(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        if np.ndim(x) == 2 and ord in (2, -2):
            svds.append("norm")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    rng = np.random.default_rng(17)
    sysm = dk.HsSplitSystem.from_matrix(random_spd(rng, 30) + _skew(rng, 30))
    decompositions.clear()
    interval = dk.spectral_interval(sysm)
    assert decompositions == {"top_eigenvalue": 1}
    assert svds == []
    assert 0.0 <= interval.max_real_part <= 1e-10 * interval.lam


def test_semidefinite_with_zero_rows_certified_without_spectrum(decompositions):
    # blkdiag(D, 0) with a dense SPD D: no dominant diagonal, and the zero
    # block fails a Cholesky of the whole matrix, but not one of D
    rng = np.random.default_rng(18)
    d, zero = random_spd(rng, 6), np.zeros((6, 6))
    assert is_semidefinite(np.block([[d, zero], [zero, zero]]))
    assert decompositions == {"cho_factor": 1}
    # an indefinite nonzero block is still found, from its own spectrum
    decompositions.clear()
    bad = np.zeros((5, 5))
    bad[np.ix_([0, 3], [0, 3])] = [[1.0, 2.0], [2.0, 1.0]]
    assert not is_semidefinite(bad)
    assert decompositions == {"cho_factor": 1, "eigvalsh": 1}


def test_staircase_eigendecomposes_h_once(decompositions):
    rng = np.random.default_rng(15)
    h = np.diag([3.0, 2.0, 1.0, 0.0, 0.0])
    dk.hs_staircase(h, _skew(rng, 5))
    assert decompositions == {"eigh": 1}


def test_audit_staircase_builds_no_split_system(decompositions):
    rng = np.random.default_rng(16)
    report = audit_staircase(np.diag([3.0, 2.0, 1.0, 0.0, 0.0]) + _skew(rng, 5))
    assert decompositions["from_matrix"] == 0
    assert decompositions["eigh"] == 1
    assert report["block_sizes"][0] == 3


def test_hs_split_system_from_parts_semidefinite():
    h = np.diag([1.0, 0.0])
    s = np.array([[0.0, 2.0], [-2.0, 0.0]])
    sysm = dk.HsSplitSystem.from_matrix(h + s)
    assert sysm.definiteness is dk.Definiteness.POSITIVE_SEMIDEFINITE
    assert sysm.h_factor is None


@pytest.mark.parametrize("complex_", [False, True])
def test_matrix_market_array_roundtrip_bit_exact(tmp_path, complex_):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-200, 200, size=(7, 4))
    if complex_:
        a = a + 1j * rng.standard_normal((7, 4))
    path = tmp_path / "a.mtx"
    dk.write_matrix(path, a)
    back = dk.read_matrix(path)
    assert np.array_equal(a, back)


def test_matrix_market_coordinate_roundtrip(tmp_path):
    a = np.zeros((5, 5))
    a[0, 3] = 1.25
    a[4, 4] = -7.5e-3
    path = tmp_path / "a.mtx"
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(a), precision=17)
    assert np.array_equal(dk.read_matrix(path), a)
