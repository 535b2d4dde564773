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
nothing here factors H.  The congruence runs on that factor
(``HermitianFactor.solve_lower``): ``trsm`` on a dense L, and LAPACK
``tbtrs`` on a band factor in O(n kd) per column, with no dense L built.

A two-part coupling takes a reduced route.  When the coordinates split into
P and Q with S_PP = S_QQ = 0 and H_PQ = 0, as in the Stokes saddle system
without convection, the RLC circuit and canonical position/momentum
Hamiltonians, the Cholesky factor has L_PQ = L_QP = 0, so L_P and L_Q are
principal blocks of L (``HermitianFactor.principal_block``; on a band
factor a band of at most the same width, and kd = 0 for a diagonal block)
and M = [[0, Y], [Z, 0]] with Y = L_P^{-1} S_PQ L_Q^{-*}
and Z = L_Q^{-1} S_QP L_P^{-*} = -Y* up to rounding.  Then spec(K) =
+-i sigma(Y) (Golub & Van Loan, *Matrix Computations*, §8.6), and
lam is the largest singular value of the skew part (Y - Z*)/2, taken from
the smaller of its two Gram matrices.  The split and the blocks S_PQ, S_QP
are read off the exact zero patterns of H and S, from their CSR copies when
the system has them (``HsSplitSystem.ops``); every other input takes the
n x n route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DefinitenessError
from .hs_core import Definiteness, HsSplitSystem, as_dense


@dataclass(frozen=True)
class SpectralInterval:
    """Half-width report for spec(K) contained in i[-lam, lam].

    ``lam`` is exact up to rounding.  ``max_real_part`` is the Frobenius
    norm of the Hermitian residue left after symmetrizing ``L^{-1} S L^{-*}``.
    By Bendixson's theorem it bounds |Re mu| over the eigenvalues of K, as
    any norm of that residue does; it should be tiny relative to ``lam`` and
    is reported as a sanity value.  On the n x n route the residue is formed
    from M itself.  On the two-part route M's diagonal blocks are exact
    zeros, so the same norm is sqrt(2) ||(Y + Z*)/2||_F from the coupling
    blocks Y and Z alone.
    """

    lam: float
    max_real_part: float


def _congruence(left, x, right):
    """``L1^{-1} x L2^{-*}`` for the L1, L2 of two :class:`HermitianFactor` values.

    The factor and the split of a system are finite by construction, so the
    operands are not scanned again.
    """
    return right.solve_lower(left.solve_lower(x).conj().T).conj().T


def _half_width(gram):
    """sqrt of the largest eigenvalue of a Hermitian positive semidefinite Gram matrix."""
    # real arithmetic on real data
    theta2 = np.linalg.eigvalsh(gram)
    return float(np.sqrt(max(theta2[-1], 0.0)))


def _two_part_split(h, s):
    """Coordinates ``(p, q)`` with S_pp = S_qq = 0 and H_pq = 0, or None.

    ``h`` and ``s`` are a system's product operators (``HsSplitSystem.ops``),
    dense or CSR.  The split is a 2-colouring of the graph of S in which
    every edge of the graph of H joins equal colours, read from the exact
    zero patterns.  On the signed double cover (node i as i and n + i) an
    edge of H joins i-j and n+i-n+j, an edge of S joins i-n+j and n+i-j; a
    colouring exists iff no component holds both copies of a node, and the
    copy with the smaller component label then picks the part.
    """
    # imported here: csgraph adds about 1 MB to a process that never asks for lam
    import scipy.sparse.csgraph

    n = h.shape[0]
    # an entry in both graphs (a nonzero S_ii among them) would join the two
    # copies of a node on the cover; this common case is found without it
    if scipy.sparse.issparse(h):
        # CSR operators store exactly their nonzero entries
        hi, hj = np.repeat(np.arange(n), np.diff(h.indptr)), h.indices
        si, sj = np.repeat(np.arange(n), np.diff(s.indptr)), s.indices
        # both index sets are free of repeats; checking that is 15x the cost
        if np.intersect1d(hi * n + hj, si * n + sj, assume_unique=True).size:
            return None
    else:
        h_edges = h != 0
        s_edges = s != 0
        if np.any(h_edges & s_edges):
            return None
        # flatnonzero with divmod is ten times faster than a 2-D nonzero
        hi, hj = np.divmod(np.flatnonzero(h_edges), n)
        si, sj = np.divmod(np.flatnonzero(s_edges), n)
    rows = np.concatenate([hi, hi + n, si, si + n])
    cols = np.concatenate([hj, hj + n, sj + n, sj])
    cover = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(2 * n, 2 * n))
    _, labels = scipy.sparse.csgraph.connected_components(cover, directed=False)
    first, second = labels[:n], labels[n:]
    if np.any(first == second):
        return None
    in_p = first < second
    return np.flatnonzero(in_p), np.flatnonzero(~in_p)


def _block(m, rows, cols):
    """The dense block ``m[rows][:, cols]`` of a dense or CSR matrix."""
    if scipy.sparse.issparse(m):
        return m[rows][:, cols].toarray()
    return m[np.ix_(rows, cols)]


def _two_part_interval(factor, s, p, q):
    """The interval from the coupling blocks Y = L_P^{-1} S_PQ L_Q^{-*}, Z = L_Q^{-1} S_QP L_P^{-*}.

    H_PQ = 0 makes L_QP = 0 in the system's own factor, so L_P and L_Q are
    its principal blocks and nothing is refactored.  ``s`` is dense or CSR.
    """
    if not (p.size and q.size):
        return SpectralInterval(0.0, 0.0)  # then S = 0
    low_p, low_q = factor.principal_block(p), factor.principal_block(q)
    y = _congruence(low_p, _block(s, p, q), low_q)
    z = _congruence(low_q, _block(s, q, p), low_p)
    skew = (y - z.conj().T) / 2
    gram = skew.conj().T @ skew if p.size >= q.size else skew @ skew.conj().T
    lam = _half_width(gram)
    max_real = math.sqrt(2.0) * float(np.linalg.norm((y + z.conj().T) / 2))
    return SpectralInterval(lam=lam, max_real_part=max_real)


def spectral_interval(sys: HsSplitSystem) -> SpectralInterval:
    """Smallest lam with spec(H^{-1} S) contained in i[-lam, lam]."""
    if sys.definiteness is not Definiteness.POSITIVE_DEFINITE:
        raise DefinitenessError("spectral_interval requires a positive definite Hermitian part")
    if sys.n == 0:
        return SpectralInterval(0.0, 0.0)
    factor = sys.h_factor
    parts = _two_part_split(*sys.ops[1:])
    if parts is not None:
        return _two_part_interval(factor, sys.ops[2], *parts)
    # m = L^{-1} S L^{-*} is skew-Hermitian up to rounding
    m = _congruence(factor, as_dense(sys.s), factor)
    herm_residue = (m + m.conj().T) / 2
    skew = (m - m.conj().T) / 2
    # spec(skew* skew) = {theta^2}
    lam = _half_width(skew.conj().T @ skew)
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
    a, s = as_dense(sys.a), as_dense(sys.s)
    h_eigs = sys.h_eigenvalues
    s_eigs = np.linalg.eigvalsh(-1j * s).real if sys.n else np.zeros(0)
    re_min, re_max = float(h_eigs[0]), float(h_eigs[-1])
    im_min, im_max = float(np.min(s_eigs)), float(np.max(s_eigs))
    a_eigs = scipy.linalg.eigvals(a)
    slack = slack_rel * float(np.linalg.norm(a, 2))
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
