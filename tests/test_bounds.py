import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import dhkrylov as dk
from dhkrylov.errors import DefinitenessError

from support import printed_lam_interval, random_hs_system, random_spd, random_unitary


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
