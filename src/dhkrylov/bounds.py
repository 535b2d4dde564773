"""Spectral half-width of K = H^{-1} S and closed-form convergence bounds.

With H Hermitian positive definite and S skew-Hermitian, the preconditioned
operator K = H^{-1} S has purely imaginary spectrum contained in an interval
i[-lam, lam].  That half-width lam drives all three convergence-rate
expressions evaluated here.  lam is computed from the skew-Hermitian matrix
M = L^{-1} S L^{-*} (Cholesky congruence, H = L L*), which is similar to K,
so the purely-imaginary property is enforced structurally rather than
trusted to a nonsymmetric eigensolver.  The eigenvalues of the Gram matrix
M* M = -M^2 are the squares of the moduli |Im mu| over spec(K), so lam is
the square root of its largest eigenvalue; on real data that is a real
symmetric eigenproblem.  L is the system's own factor, ``sys.h_factor``;
nothing here factors H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefinitenessError
from .hs_core import Definiteness, HsSplitSystem


@dataclass(frozen=True)
class SpectralInterval:
    """Half-width report for spec(K) contained in i[-lam, lam].

    ``lam`` is exact up to rounding.  ``max_real_part`` is the Frobenius
    norm of the Hermitian residue left after symmetrizing ``L^{-1} S L^{-*}``.
    By Bendixson's theorem it bounds |Re mu| over the eigenvalues of K, as
    any norm of that residue does; it should be tiny relative to ``lam`` and
    is reported as a sanity value.
    """

    lam: float
    max_real_part: float


def spectral_interval(sys: HsSplitSystem) -> SpectralInterval:
    """Smallest lam with spec(H^{-1} S) contained in i[-lam, lam]."""
    if sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise DefinitenessError("spectral_interval requires a positive definite Hermitian part")
    if sys.n == 0:
        return SpectralInterval(0.0, 0.0)
    low = sys.h_factor.lower
    # m = L^{-1} S L^{-*} is skew-Hermitian up to rounding
    tmp = scipy.linalg.solve_triangular(low, sys.s, lower=True)
    m = scipy.linalg.solve_triangular(low, tmp.conj().T, lower=True).conj().T
    herm_residue = (m + m.conj().T) / 2
    skew = (m - m.conj().T) / 2
    # spec(skew* skew) = {theta^2}: real arithmetic on real data
    theta2 = np.linalg.eigvalsh(skew.conj().T @ skew)
    lam = float(np.sqrt(max(theta2[-1], 0.0)))
    max_real = float(np.linalg.norm(herm_residue))
    return SpectralInterval(lam=lam, max_real_part=max_real)


def widlund_bound(lam: float, k: int) -> float:
    """Even-iterate relative H-norm error bound 2*((sqrt(1+lam^2)-1)/(sqrt(1+lam^2)+1))^k.

    Evaluated as 2*(lam/(sqrt(1+lam^2)+1))^(2k), which is the same number
    without the cancellation of sqrt(1+lam^2) - 1 at small lam.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if k < 1:
        raise ValueError("widlund_bound requires k >= 1")
    root = math.sqrt(1.0 + lam * lam)
    return 2.0 * (lam / (root + 1.0)) ** (2 * k)


def rapoport_bound(lam: float, k: int) -> float:
    """Relative H^{-1}-norm residual bound 2*(lam/(sqrt(1+lam^2)+1))^k."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if k < 0:
        raise ValueError("rapoport_bound requires k >= 0")
    if k == 0:
        return 2.0
    root = math.sqrt(1.0 + lam * lam)
    return 2.0 * (lam / (root + 1.0)) ** k


def lgmres_bound_estimate(lam: float, k: int, kappa_y: float) -> float:
    """kappa(Y)-weighted residual bound estimate for left-preconditioned GMRES.

    The eigenvector-basis condition number kappa(Y) has no canonical
    computable choice; callers usually pass :func:`kappa_y_estimate`.  This
    value is reported for overlays only and is not contractual.
    """
    return kappa_y * rapoport_bound(lam, k)


def kappa_y_estimate(sys: HsSplitSystem) -> float:
    """Estimate kappa(Y) as kappa_2(H^{1/2}) = sqrt(kappa_2(H)).

    I + K is H-normal so an H-unitary eigenvector basis Y exists, making
    H^{1/2} Y unitary; the 2-norm condition of Y is then bounded by that of
    H^{-1/2}.
    """
    eigs = sys.h_eigenvalues
    if eigs.size == 0:
        return 1.0
    if eigs[0] <= 0:
        raise DefinitenessError("kappa_y_estimate requires a positive definite Hermitian part")
    return float(np.sqrt(eigs[-1] / eigs[0]))


@dataclass(frozen=True)
class BendixsonRectangle:
    """Smallest axis-parallel rectangle from spec(H) x spec(S) plus containment check."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    contained: bool
    max_violation: float
    eigenvalues: np.ndarray


def bendixson_rectangle(sys: HsSplitSystem, slack_rel=1e-10) -> BendixsonRectangle:
    """Rectangle containment of spec(A) by the spectra of H and S.

    The real extremes come from the eigenvalues of H, the imaginary ones
    from the eigenvalues of S.  Every eigenvalue of A = H + S must lie in
    the rectangle up to ``slack_rel * ||A||_2``.
    """
    h_eigs = sys.h_eigenvalues
    s_eigs = np.linalg.eigvalsh(-1j * sys.s).real if sys.n else np.zeros(0)
    re_min, re_max = float(h_eigs[0]), float(h_eigs[-1])
    im_min, im_max = float(np.min(s_eigs)), float(np.max(s_eigs))
    a_eigs = scipy.linalg.eigvals(sys.a)
    slack = slack_rel * float(np.linalg.norm(sys.a, 2))
    viol = 0.0
    for z in a_eigs:
        viol = max(
            viol,
            re_min - z.real,
            z.real - re_max,
            im_min - z.imag,
            z.imag - im_max,
        )
    return BendixsonRectangle(
        re_min=re_min,
        re_max=re_max,
        im_min=im_min,
        im_max=im_max,
        contained=bool(viol <= slack),
        max_violation=float(viol),
        eigenvalues=a_eigs,
    )
