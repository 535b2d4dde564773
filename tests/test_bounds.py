import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import dhkrylov as dk
from dhkrylov.errors import DefinitenessError

from support import (
    dense_lower,
    holds_n_by_n_array,
    printed_lam_interval,
    random_hs_system,
    random_spd,
    random_unitary,
)


def test_widlund_bound_zero_lambda():
    for k in (1, 2, 10):
        assert dk.widlund_bound(0.0, k) == 0.0


def test_widlund_bound_frozen_value():
    # 2*(sqrt(2)-1)/(sqrt(2)+1) evaluated at 50 digits
    assert abs(dk.widlund_bound(1.0, 1) - 0.34314575050761975) <= 1e-15


def test_rapoport_bound_empty_product():
    assert dk.rapoport_bound(0.0, 0) == 2.0
    assert dk.rapoport_bound(3.7, 0) == 2.0


def test_convergence_factors_match_reported_values():
    # The reported Stokes-run lam = 0.239 is printed to three digits and the
    # factors 0.0139 / 0.1179 to four decimals: both factors must lie within
    # the 5e-5 print half-unit of their anchors at one lam in [0.2385, 0.2395].
    found = printed_lam_interval(
        0.239, 5e-4,
        [(lambda lam: dk.widlund_bound(lam, 1) / 2, 0.0139),
         (lambda lam: dk.rapoport_bound(lam, 1) / 2, 0.1179)],
        tol=5e-5,
    )
    assert found is not None
    # Independent oracle: the Rapoport factor c = lam/(sqrt(1+lam^2)+1) inverts
    # to lam = 2c/(1-c^2) and the Widlund factor is c^2, so the common lam set
    # is the intersection of three intervals in closed form.
    def lam_of(c):
        return 2 * c / (1 - c * c)

    lo = max(0.2385, lam_of(np.sqrt(0.0139 - 5e-5)), lam_of(0.1179 - 5e-5))
    hi = min(0.2395, lam_of(np.sqrt(0.0139 + 5e-5)), lam_of(0.1179 + 5e-5))
    assert abs(found[0] - lo) <= 1.1e-7
    assert abs(found[1] - hi) <= 1.1e-7


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-3, 50.0), st.integers(1, 40))
def test_bounds_monotone_in_k(lam, k):
    assert dk.widlund_bound(lam, k + 1) < dk.widlund_bound(lam, k)
    assert dk.rapoport_bound(lam, k + 1) < dk.rapoport_bound(lam, k)


def test_bounds_match_50_digit_closed_forms():
    import mpmath as mp

    mp.mp.dps = 50
    rng = np.random.default_rng(17)
    for _ in range(20):
        lam = float(10.0 ** rng.uniform(-3, 2))
        k = int(rng.integers(1, 31))
        lam_mp = mp.mpf(repr(lam))
        root = mp.sqrt(1 + lam_mp**2)
        wid = 2 * ((root - 1) / (root + 1)) ** k
        rap = 2 * (lam_mp / (root + 1)) ** k
        assert abs(dk.widlund_bound(lam, k) - float(wid)) <= 1e-14 * float(wid)
        assert abs(dk.rapoport_bound(lam, k) - float(rap)) <= 1e-14 * float(rap)


def test_spectral_interval_zero_skew():
    sysm = dk.HsSplitSystem.from_matrix(np.diag([1.0, 2.0]))
    si = dk.spectral_interval(sysm)
    assert si.lam == 0.0


def test_spectral_interval_2x2():
    for s_val in (0.5, -3.0, 7.25):
        a = np.eye(2) + np.array([[0.0, s_val], [-s_val, 0.0]])
        si = dk.spectral_interval(dk.HsSplitSystem.from_matrix(a))
        assert abs(si.lam - abs(s_val)) <= 1e-12 * abs(s_val)


def test_spectral_interval_requires_pd():
    sysm = dk.HsSplitSystem.from_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(DefinitenessError):
        dk.spectral_interval(sysm)


def test_spectral_interval_imaginary_axis_sanity():
    rng = np.random.default_rng(23)
    for seed in range(4):
        sysm = random_hs_system(np.random.default_rng(seed), 30, cond_h=1e3, lam=2.0)
        si = dk.spectral_interval(sysm)
        assert si.max_real_part <= 1e-10 * max(si.lam, 1e-12)


def test_spectral_interval_congruence_scaling_invariant():
    # (H, S) -> (c H, c S) leaves K = H^{-1} S unchanged
    rng = np.random.default_rng(31)
    sysm = random_hs_system(rng, 20, cond_h=100.0, lam=1.3)
    lam0 = dk.spectral_interval(sysm).lam
    for c in (1e-3, 7.0, 250.0):
        scaled = dk.HsSplitSystem.from_matrix(c * sysm.a)
        lam_c = dk.spectral_interval(scaled).lam
        assert abs(lam_c - lam0) <= 1e-12 * lam0


def test_spectral_interval_mechanical_linear_in_tau():
    model = dk.from_descriptor(
        {"name": "mechanical", "params": {"n": 8, "seed": 4, "damping": 0.0}}
    )
    lam1 = dk.spectral_interval(dk.midpoint_system(model, 1e-2).sys).lam
    lam2 = dk.spectral_interval(dk.midpoint_system(model, 1e-3).sys).lam
    assert abs(lam1 / lam2 - 10.0) <= 1e-10 * 10.0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(),
       st.sampled_from([0.0, 1e-6, 1.0, 1e3]))
@example(1, 0, False, 1.0)    # a real 1x1 skew part is zero
@example(39, 1, False, 1.0)   # a real skew part of odd order is singular
@example(39, 2, True, 1e3)
def test_spectral_interval_matches_eigenvalue_oracle(n, seed, complex_, scale):
    # lam = sqrt(lambda_max(M* M)), M = L^{-1} S L^{-*}, against max |Im mu|
    # over spec(H^{-1} S) from a dense nonsymmetric eigensolver; kappa(H) = 10
    # keeps that oracle accurate to a few eps.  S = 0 gives exactly 0.0.
    rng = np.random.default_rng(seed)
    q = random_unitary(rng, n, complex_)
    h = (q * np.geomspace(1.0, 10.0, n)) @ q.conj().T
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    sysm = dk.HsSplitSystem.from_matrix((h + h.conj().T) / 2 + scale * (g - g.conj().T) / 2)
    lam = dk.spectral_interval(sysm).lam
    if scale == 0.0:
        assert lam == 0.0
        return
    mu = scipy.linalg.eigvals(np.linalg.solve(sysm.h, sysm.s))
    assert lam == pytest.approx(float(np.max(np.abs(mu.imag))), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("complex_, dtype", [(False, np.float64), (True, np.complex128)])
def test_spectral_interval_spectrum_in_the_arithmetic_of_the_data(monkeypatch, complex_, dtype):
    # a real system takes its one spectrum in real arithmetic, with no complex copy
    sysm = random_hs_system(np.random.default_rng(29), 25, lam=0.7, complex_=complex_)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    assert dk.spectral_interval(sysm).lam == pytest.approx(0.7, rel=1e-12)
    assert seen == [dtype]


def _max_imag_oracle(sysm):
    """max |Im mu| over spec(H^{-1} S) from a dense nonsymmetric eigensolver."""
    return float(np.max(np.abs(scipy.linalg.eigvals(
        np.linalg.solve(dk.as_dense(sysm.h), dk.as_dense(sysm.s))).imag)))


def _n_by_n_route(sysm):
    """(lam, max_real_part) by the n x n congruence M = L^{-1} S L^{-*}, call for call."""
    low = dense_lower(sysm.h_factor)
    tmp = scipy.linalg.solve_triangular(low, dk.as_dense(sysm.s), lower=True)
    m = scipy.linalg.solve_triangular(low, tmp.conj().T, lower=True).conj().T
    skew = (m - m.conj().T) / 2
    theta2 = np.linalg.eigvalsh(skew.conj().T @ skew)
    return float(np.sqrt(max(theta2[-1], 0.0))), float(np.linalg.norm((m + m.conj().T) / 2))


def _traced_interval(sysm):
    """spectral_interval with the orders of its eigvalsh, triangular-solve and band-solve matrices.

    The band kernel is LAPACK ``tbtrs``, which ``HermitianFactor.solve_lower``
    runs on a band factor; its order is the number of columns of the band.
    """
    seen = {"eigvalsh": [], "solve_triangular": [], "tbtrs": []}
    eigvalsh, solve_triangular = np.linalg.eigvalsh, scipy.linalg.solve_triangular
    get_lapack_funcs = scipy.linalg.lapack.get_lapack_funcs

    def rec_eigvalsh(a, *args, **kwargs):
        seen["eigvalsh"].append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    def rec_solve_triangular(a, *args, **kwargs):
        seen["solve_triangular"].append(a.shape[0])
        return solve_triangular(a, *args, **kwargs)

    def rec_get_lapack_funcs(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        if tuple(names) != ("tbtrs",):
            return funcs

        def rec_tbtrs(ab, *args, **kwargs):
            seen["tbtrs"].append(ab.shape[1])
            return funcs[0](ab, *args, **kwargs)

        return (rec_tbtrs,)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", rec_eigvalsh)
        mp.setattr(scipy.linalg, "solve_triangular", rec_solve_triangular)
        mp.setattr(scipy.linalg.lapack, "get_lapack_funcs", rec_get_lapack_funcs)
        interval = dk.spectral_interval(sysm)
    return interval, seen


def _two_part_system(rng, n, n_p, complex_, scale, density=1.0):
    """A = H + S with H_PQ = 0, S_PP = S_QQ = 0 on a random interleaving of P and Q.

    With ``density`` < 1 each off-diagonal entry of H_PP and H_QQ and each
    entry of S_PQ is kept with that probability, so either graph may fall
    apart into pieces; H is then made diagonally dominant.
    """
    perm = rng.permutation(n)
    p, q = np.sort(perm[:n_p]), np.sort(perm[n_p:])
    h = np.zeros((n, n), dtype=complex if complex_ else float)
    s = np.zeros_like(h)
    for part in (p, q):
        u = random_unitary(rng, part.size, complex_)
        block = (u * np.geomspace(1.0, 10.0, part.size)) @ u.conj().T
        if density < 1.0:
            keep = np.triu(rng.random(block.shape) < density, 1)
            block = np.where(keep | keep.T, block, 0.0)
            block += np.diag(1.0 + np.abs(block).sum(axis=1))
        h[np.ix_(part, part)] = block
    g = rng.standard_normal((p.size, q.size))
    if complex_:
        g = g + 1j * rng.standard_normal((p.size, q.size))
    g *= rng.random(g.shape) < density
    s[np.ix_(p, q)] = scale * g
    s[np.ix_(q, p)] = -scale * g.conj().T
    return (h + h.conj().T) / 2 + s, p, q


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 1e-6, 1.0, 1e3]),
       st.sampled_from([1.0, 0.3, 0.05]))
@example((1, 1), 0, False, 1.0, 1.0)    # one part empty: S = 0
@example((2, 1), 0, True, 1.0, 1.0)     # the 2x2 case, complex
@example((40, 3), 1, False, 1e3, 1.0)   # |P| != |Q|
@example((40, 37), 2, True, 1e-6, 1.0)
@example((33, 16), 3, False, 0.0, 1.0)  # both parts given, S = 0
@example((40, 20), 4, True, 1.0, 0.05)  # S in pieces that colour independently
def test_two_part_interval_matches_oracle_on_the_reduced_route(sizes, seed, complex_, scale,
                                                               density):
    # lam from the smaller Gram matrix of the coupling block, against max |Im mu|
    # over spec(H^{-1} S); the route is seen in the orders of its dense kernels.
    # A dense coupling fixes the parts; a sparse one may be split another way.
    n, n_p = sizes
    a, p, q = _two_part_system(np.random.default_rng(seed), n, n_p, complex_, scale, density)
    sysm = dk.HsSplitSystem.from_matrix(a)
    interval, seen = _traced_interval(sysm)
    assert interval.max_real_part <= 1e-10 * interval.lam
    if not np.any(sysm.s):
        assert interval.lam == 0.0
        assert seen == {"eigvalsh": [], "solve_triangular": [], "tbtrs": []}
        return
    assert interval.lam == pytest.approx(_max_imag_oracle(sysm), rel=1e-12, abs=0.0)
    assert len(seen["eigvalsh"]) == 1 and n not in seen["solve_triangular"]
    if density == 1.0:
        assert seen["eigvalsh"] == [min(p.size, q.size)]
        assert set(seen["solve_triangular"]) == {p.size, q.size}
    else:
        assert 2 * seen["eigvalsh"][0] <= n


def test_two_part_residue_is_the_n_by_n_residue():
    # with S_QP != -S_PQ* the Hermitian residue of M is not rounding: the
    # two-part route must report its Frobenius norm and the sigma_max of its
    # skew part, as M itself gives them
    rng = np.random.default_rng(83)
    a, p, q = _two_part_system(rng, 12, 5, True, 1.0)
    sysm = dk.HsSplitSystem.from_matrix(a)
    s = sysm.s.copy()
    s[np.ix_(q, p)] += 0.3 * (rng.standard_normal((q.size, p.size))
                              + 1j * rng.standard_normal((q.size, p.size)))
    low = dense_lower(sysm.h_factor)
    interval = dk.bounds._two_part_interval(sysm.h_factor, s, p, q)
    tmp = scipy.linalg.solve_triangular(low, s, lower=True)
    m = scipy.linalg.solve_triangular(low, tmp.conj().T, lower=True).conj().T
    assert interval.max_real_part == pytest.approx(np.linalg.norm((m + m.conj().T) / 2),
                                                   rel=1e-12)
    assert interval.lam == pytest.approx(np.linalg.norm((m - m.conj().T) / 2, 2), rel=1e-12)


def _fallback_systems():
    rng = np.random.default_rng(61)
    a, p, q = _two_part_system(rng, 24, 9, False, 1.0)
    # the same coupling over the diagonal of H: the patterns of H and S stay
    # disjoint below, and the colouring itself must fail
    diagonal_h = np.diag(np.diag(a)) + (a - a.T) / 2
    systems = {}
    for label, base in (("", a), ("-diagonal-H", diagonal_h)):
        s_pp = base.copy()
        s_pp[p[0], p[1]] += 0.5
        s_pp[p[1], p[0]] -= 0.5
        h_pq = base.copy()
        if label:
            # H_PQ in place of the coupling entry there
            h_pq[p[0], q[0]] = h_pq[q[0], p[0]] = 0.1
        else:
            h_pq[p[0], q[0]] += 0.1
            h_pq[q[0], p[0]] += 0.1
        systems["entry-in-S_PP" + label] = dk.HsSplitSystem.from_matrix(s_pp)
        systems["entry-in-H_PQ" + label] = dk.HsSplitSystem.from_matrix(h_pq)
    stokes = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 6, "viscosity": 100.0, "stabilization": 0.005, "convection": 50.0}})
    mechanical = dk.from_descriptor({"name": "mechanical", "params": {"n": 20}})
    systems["convective-stokes"] = dk.midpoint_system(stokes, 1e-3).sys
    systems["mechanical"] = dk.midpoint_system(mechanical, 1e-3).sys
    return systems


@pytest.mark.parametrize("name", [
    "convective-stokes", "entry-in-S_PP", "entry-in-H_PQ", "entry-in-S_PP-diagonal-H",
    "entry-in-H_PQ-diagonal-H", "mechanical"])
def test_spectral_interval_without_two_parts_takes_the_n_by_n_route(name):
    # the mechanical K is symmetric only to rounding, so its midpoint S has
    # rounding-level entries in both diagonal blocks: no split, bitwise as before
    sysm = _fallback_systems()[name]
    interval, seen = _traced_interval(sysm)
    assert seen["eigvalsh"] == [sysm.n]
    assert set(seen["solve_triangular"]) == {sysm.n}
    assert (interval.lam, interval.max_real_part) == _n_by_n_route(sysm)
    assert interval.lam == pytest.approx(_max_imag_oracle(sysm), rel=1e-12, abs=0.0)


STOKES_PIPELINE = {"name": "stokes", "params": {"grid_n": 16, "viscosity": 100.0,
                                                "stabilization": 0.005}}


@pytest.mark.parametrize("desc, tau, lam_n_by_n", [
    (STOKES_PIPELINE, 1e-3, 0.08795539269690031),
    (STOKES_PIPELINE, 1e-4, 0.08432587431454798),
    ({"name": "rlc", "params": {}}, 1e-3, None),
], ids=["stokes-tau1e-3", "stokes-tau1e-4", "rlc"])
def test_two_part_route_agrees_with_the_n_by_n_route(desc, tau, lam_n_by_n):
    # the Stokes saddle system without convection and the RLC circuit split
    # into two parts; lam_n_by_n is the n x n route's value before the split
    sysm = dk.midpoint_system(dk.from_descriptor(desc), tau).sys
    interval, seen = _traced_interval(sysm)
    assert len(seen["eigvalsh"]) == 1 and seen["eigvalsh"][0] < sysm.n
    assert sysm.n not in seen["solve_triangular"]
    if sysm.h_factor.band is not None:
        # Stokes at grid 16 holds a band factor: tbtrs on the principal band
        # blocks of L (480 velocities, 255 pressures), and no dense L
        assert seen["solve_triangular"] == [] and sorted(set(seen["tbtrs"])) == [255, 480]
        assert not holds_n_by_n_array(sysm.h_factor)
        # the pressure block of L is diagonal: its band keeps kd = 0
        p, q = dk.bounds._two_part_split(*sysm.ops[1:])
        assert [sysm.h_factor.principal_block(i).band.shape for i in (p, q)] == [(17, 480),
                                                                                 (1, 255)]
        assert interval.lam == pytest.approx(lam_n_by_n, rel=1e-14, abs=0.0)
    lam, max_real = _n_by_n_route(sysm)
    if lam_n_by_n is not None:
        assert lam == pytest.approx(lam_n_by_n, rel=1e-14, abs=0.0)
    assert interval.lam == pytest.approx(lam, rel=1e-14, abs=0.0)
    assert abs(interval.max_real_part - max_real) <= 1e-10 * lam


def _complex_band_variant(a):
    """A with complex S and complex Hermitian H on the same patterns; H stays dominant."""
    below = np.tril(a + a.T, -1) / 2
    return a + 0.5j * np.abs(a - a.T) + 0.01j * (below - below.T)


@pytest.mark.parametrize("convection, complex_", [
    (50.0, False), (50.0, True), (0.0, False), (0.0, True),
], ids=["convective", "convective-complex", "two-part", "two-part-complex"])
def test_band_factor_route_matches_the_dense_factor_route(convection, complex_, monkeypatch):
    # stabilized Stokes at grid 12 (n = 407, kd = 12) holds a band factor; a
    # size threshold above n gives the same H its dense factor.  Convection
    # puts entries in S_PP and takes the n x n route; without it the two-part
    # route runs.  Both routes solve on the band by tbtrs alone.
    model = dk.from_descriptor({"name": "stokes", "params": {
        "grid_n": 12, "viscosity": 100.0, "stabilization": 0.005, "convection": convection}})
    a = dk.midpoint_system(model, 1e-3).sys.a.toarray()
    if complex_:
        a = _complex_band_variant(a)
    runs = []
    for min_n in (dk.hs_core._BAND_MIN_N, model.n + 1):
        monkeypatch.setattr(dk.hs_core, "_BAND_MIN_N", min_n)
        sysm = dk.HsSplitSystem.from_matrix(a)
        runs.append((sysm, *_traced_interval(sysm)))
    (band_sys, band, band_seen), (dense_sys, dense, dense_seen) = runs
    assert band_sys.h_factor.band.shape == (13, 407) and dense_sys.h_factor.band is None
    assert np.iscomplexobj(band_sys.h) == complex_
    assert band_seen["solve_triangular"] == [] and dense_seen["tbtrs"] == []
    assert not holds_n_by_n_array(band_sys.h_factor)
    if convection:
        assert band_seen["tbtrs"] == dense_seen["solve_triangular"] == [407, 407]
    else:
        assert sorted(band_seen["tbtrs"]) == sorted(dense_seen["solve_triangular"])
        assert band_seen["eigvalsh"][0] < 407
    assert band.lam == pytest.approx(dense.lam, rel=1e-14, abs=0.0)
    assert band.lam == pytest.approx(_max_imag_oracle(band_sys), rel=1e-12, abs=0.0)
    assert band.max_real_part <= 1e-10 * band.lam


def test_kappa_y_estimate():
    rng = np.random.default_rng(2)
    h = random_spd(rng, 15, cond=400.0)
    sysm = dk.HsSplitSystem.from_matrix(h)
    assert abs(dk.kappa_y_estimate(sysm) - np.sqrt(400.0)) <= 1e-6 * np.sqrt(400.0)


def test_convergence_bound_objects():
    assert dk.lgmres_bound_estimate(0.5, 4, 3.0) == 3.0 * dk.rapoport_bound(0.5, 4)
    assert 0 < dk.rapoport_bound(0.5, 1) <= 2.0


def test_bendixson_degenerate_segment():
    h = np.diag([1.0, 4.0])
    rect = dk.bendixson_rectangle(dk.HsSplitSystem.from_matrix(h))
    assert rect.im_min == rect.im_max == 0.0
    assert rect.re_min == pytest.approx(1.0)
    assert rect.re_max == pytest.approx(4.0)
    assert rect.contained


def test_bendixson_positive_real_when_h_pd():
    rng = np.random.default_rng(7)
    for seed in range(5):
        sysm = random_hs_system(np.random.default_rng(seed), 25, cond_h=50.0, lam=4.0)
        rect = dk.bendixson_rectangle(sysm)
        assert rect.contained
        assert rect.re_min > 0
        assert np.all(rect.eigenvalues.real > 0)


def test_bendixson_containment_random():
    rng = np.random.default_rng(40)
    for _ in range(10):
        a = rng.standard_normal((40, 40))
        rect = dk.bendixson_rectangle(dk.HsSplitSystem.from_matrix(a))
        assert rect.contained, rect.max_violation
