"""Hermitian/skew-Hermitian splitting of dense and CSR matrices, and the Hermitian kernels.

Every square matrix splits uniquely as ``a = h + s`` with ``h = (a + a*)/2``
Hermitian and ``s = (a - a*)/2`` skew-Hermitian.  This module provides that
split, definiteness classification of Hermitian matrices, Cholesky-backed
solves with Hermitian positive definite matrices, and Matrix Market I/O.
All other modules build on these kernels.

Definiteness is certified, not read off a spectrum, wherever it can be:
:func:`certify_definiteness` factors ``h = L L*`` once and tests, in order
of cost, a Gershgorin margin from one pass over ``|h|``, a second Cholesky
factorization of ``h`` shifted down by the threshold plus a rounding
allowance (Rump), which proves ``lambda_min`` above the threshold, and only
then ``eigvalsh``.  An ``h`` that the margin certifies and whose nonzeros
lie in a narrow band about the diagonal is factored by LAPACK ``pbtrf`` on
its packed band, in O(n kd^2) rather than O(n^3) for half-bandwidth kd
(Golub & Van Loan, *Matrix Computations*, §4.3), and every solve with it
runs on that band: a vector by LAPACK ``pbtrs``, a block by a blocked
sweep of BLAS-3 calls over row slabs of L (block substitution, §3.1);
every other ``h`` by dense ``potrf``.
:meth:`HsSplitSystem.from_matrix` is the one place that decomposes the
Hermitian part of a system: the certified Cholesky factor serves every
H-solve and the half-width computed in :mod:`dhkrylov.bounds`, and the
spectrum of ``h`` is computed only when a caller reads it.

Matrices are 2-D numpy arrays or ``scipy.sparse`` CSR arrays, real or
complex.  A CSR input stays CSR: the checks, the split, the Gershgorin
certificate and the band factor read only its stored entries, and its split
fields serve the products themselves.  A dense input keeps dense fields, and
its products run on :attr:`HsSplitSystem.ops`: CSR copies of A, H and S when
the pattern of A + A* is sparse, else the arrays themselves.  A caller that
needs an n x n array converts through :func:`as_dense`.  All functions are
pure; returned arrays, and the parts of returned CSR arrays, are marked
read-only where they become part of a value object.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.io import mmread, mmwrite

from .errors import DefinitenessError, DimensionError, StructureError

#: Default structural tolerance, relative to the max-norm of the operand.
DEFAULT_TOL = 1e-12

#: Relative threshold of the rank decisions: ker(E), the index classifier and
#: the staircase form.
RANK_TOL = 1e-10

#: Products run on CSR copies of a system's matrices when n >= 128 and the
#: pattern of A + A* holds at most n^2 / 16 entries.  At Stokes grid 16
#: (n = 735, 4447 entries) a CSR product with S takes 6-11 us against
#: 230 us dense.
_CSR_MIN_N = 128
_CSR_MAX_FILL = 1 / 16

#: A certified ``h`` is factored on its band when n >= 128 and its
#: half-bandwidth kd has kd + 1 <= n / 16.  At Stokes grid 16 (n = 735,
#: kd = 16, one BLAS thread) ``pbtrf`` takes 0.07-0.14 ms against 4.8-8.4 ms
#: for ``potrf``, and a vector solve by ``pbtrs`` 25-31 us against 150 us for
#: the ``trsv`` pair.
_BAND_MIN_N = 128
_BAND_MAX_FILL = 1 / 16

#: A band factor solves a block by row slabs of order nb = max(kd, _SLAB_MIN).
#: Below the floor the per-slab BLAS calls cost more than they save.  With
#: one BLAS thread a 144-column block at kd = 12 (n = 264) takes 0.23-0.24 ms
#: at nb = 16-40, 0.31 ms at nb = 64 and 1.25 ms by ``pbtrs``; at kd = 16
#: (n = 735) 0.68-0.71 ms at nb = 24-40 and 0.91 ms at nb = 64.
_SLAB_MIN = 32


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"


def as_dense(m):
    """``m`` as a 2-D ndarray: a sparse ``m`` densified, any other through ``np.asarray``.

    The one conversion of a CSR model or split system to an n x n array,
    made at the entry of the callers that need one.
    """
    return m.toarray() if scipy.sparse.issparse(m) else np.asarray(m)


def as_square_matrix(a, name="a"):
    """Validate and return ``a`` as a square 2-D array with finite entries.

    A sparse ``a`` is returned as a CSR array, and only its stored entries
    are scanned.
    """
    a = scipy.sparse.csr_array(a) if scipy.sparse.issparse(a) else np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    entries = a.data if scipy.sparse.issparse(a) else a
    if entries.size and not np.all(np.isfinite(entries)):
        raise StructureError(f"{name} has non-finite entries")
    return a


def max_norm(a):
    if scipy.sparse.issparse(a):
        return float(np.abs(a.data).max(initial=0.0))
    a = np.abs(a) if np.iscomplexobj(a) else np.asarray(a)  # a real a needs no |a| temporary
    return abs(float(max(a.max(), -a.min()))) if a.size else 0.0  # abs() drops a -0.0


def _adjoint(a):
    """``a*``: a view of a real array, since ``conj`` would copy it."""
    return a.conj().T if np.iscomplexobj(a) else a.T


def _half(a, sign):
    """``(a + sign a*) / 2`` bitwise, for a dense or CSR ``a`` and sign +-1.

    Halved in place, or on the stored entries of a CSR sum, which holds
    only its nonzero entries; ``* 0.5`` would flip zero signs if complex.
    """
    at = _adjoint(a)
    if scipy.sparse.issparse(a):
        c = a + at if sign > 0 else a - at
        c.data = np.divide(c.data, 2) if np.iscomplexobj(c) else np.multiply(c.data, 0.5)
        return c
    op = np.add if sign > 0 else np.subtract
    c = op(a, at, dtype=np.result_type(a, at, 0.5))  # an integer input gives floats
    return np.divide(c, 2, out=c) if np.iscomplexobj(c) else np.multiply(c, 0.5, out=c)


def _by_panels(f, *arrays):
    """``f`` on each 64-row panel of ``arrays``: row-wise work with no n x n temporary."""
    return [f(*(a[i:i + 64] for a in arrays)) for i in range(0, len(arrays[0]), 64)]


def hermitian_deviation(a):
    """Max-norm of ``a - a*`` (zero iff ``a`` is Hermitian)."""
    if scipy.sparse.issparse(a):
        return max_norm(a - _adjoint(a))
    return max(_by_panels(lambda p, q: max_norm(p - q), a, _adjoint(a)), default=0.0)


def skew_deviation(a):
    """Max-norm of ``a + a*`` (zero iff ``a`` is skew-Hermitian)."""
    if scipy.sparse.issparse(a):
        return max_norm(a + _adjoint(a))
    return max(_by_panels(lambda p, q: max_norm(p + q), a, _adjoint(a)), default=0.0)


def require_hermitian(a, name="matrix"):
    a = as_square_matrix(a, name)
    if hermitian_deviation(a) > DEFAULT_TOL * max(max_norm(a), 1e-300):
        raise StructureError(f"{name} is not Hermitian within tolerance {DEFAULT_TOL}")
    return a


def require_skew(a, name="matrix"):
    a = as_square_matrix(a, name)
    if skew_deviation(a) > DEFAULT_TOL * max(max_norm(a), 1e-300):
        raise StructureError(f"{name} is not skew-Hermitian within tolerance {DEFAULT_TOL}")
    return a


def split_hs(a):
    """Split a square matrix into Hermitian and skew-Hermitian parts.

    Returns ``(h, s)`` with ``h = (a + a*)/2``, ``s = (a - a*)/2`` so that
    ``a = h + s``, ``h = h*`` and ``s = -s*`` exactly up to rounding.
    """
    a = as_square_matrix(a)
    return _half(a, 1), _half(a, -1)


def saddle_blocks(a):
    """Saddle blocks (a11, b) of a matrix A = [[A11, B], [-B*, 0]].

    The split is read from the Hermitian part H of A, which must be
    positive semidefinite: a zero diagonal entry of such an H zeroes its
    whole row and column, so the singular coordinates are those with
    Re A_ii <= 1e-12 max|A|.  They must be some but not all coordinates,
    and come last.  Returns ``(a11, b, (n1, n2))`` with the block sizes;
    raises ``DimensionError`` when A does not have this form or is empty.
    The blocks are dense; a CSR A is densified first.
    """
    a = as_square_matrix(as_dense(a))
    n = a.shape[0]
    if n == 0:
        raise DimensionError("the Schur path needs a nonempty system")
    scale = float(np.max(np.abs(a)))
    singular = np.flatnonzero(np.diagonal(a).real <= 1e-12 * scale)
    n1 = n - singular.size
    if not 0 < n1 < n:
        raise DimensionError(f"the Hermitian part H of A has {singular.size} singular "
                             f"coordinates of {n}; the Schur path needs some but not all")
    if singular[0] != n1:
        raise DimensionError("the singular coordinates of the Hermitian part H must come last")
    b = a[:n1, n1:]
    if float(np.max(np.abs(a[n1:, :n1] + b.conj().T))) > 1e-12 * scale:
        raise DimensionError("matrix is not in [[A, B], [-B*, 0]] form")
    if float(np.max(np.abs(a[n1:, n1:]))) > 1e-12 * scale:
        raise DimensionError("trailing diagonal block is not zero; Schur path not applicable")
    return a[:n1, :n1], b, (n1, singular.size)


def _classify(eigs, tol):
    """Definiteness from an ascending spectrum; the empty one counts as definite."""
    if eigs.size == 0:
        return Definiteness.POSITIVE_DEFINITE
    scale = float(np.max(np.abs(eigs)))
    smallest = float(eigs[0])
    if smallest > tol * scale:
        return Definiteness.POSITIVE_DEFINITE
    if smallest >= -tol * scale:
        return Definiteness.POSITIVE_SEMIDEFINITE
    return Definiteness.INDEFINITE


def definiteness_class(h, tol=DEFAULT_TOL):
    """Classify a Hermitian matrix by the sign of its spectrum.

    Positive definite iff the smallest eigenvalue exceeds ``tol * ||h||_2``,
    positive semidefinite iff it is no smaller than ``-tol * ||h||_2``,
    indefinite otherwise.  The class comes from :func:`certify_definiteness`,
    so a positive definite ``h`` is recognized from its Cholesky factor and
    only the other classes need the spectrum.  Raises ``StructureError`` for
    inputs that are not Hermitian within ``DEFAULT_TOL``.
    """
    h = require_hermitian(h, name="h")
    return certify_definiteness(_half(h, 1), tol)[0]


def _cholesky(h):
    """The ``cho_factor`` payload of ``h = L L*``, or None when it fails."""
    try:
        return scipy.linalg.cho_factor(h, lower=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        return None


def _abs_row_sums(a):
    """Row sums of ``|a|``: Gershgorin radius plus ``|a_ii|``; their max is ``||a||_inf``."""
    if scipy.sparse.issparse(a):
        return abs(a).sum(axis=1)
    return np.concatenate(_by_panels(lambda p: np.abs(p).sum(axis=1), a) + [np.zeros(0)])


def _shifted_cholesky_certifies(h, threshold):
    """True when ``potrf`` of ``h - sigma I`` succeeds, which proves ``lambda_min(h) > threshold``.

    If a floating-point Cholesky factorization of a Hermitian A runs to
    completion, its factor satisfies ``R* R = A + dA`` with ``|dA| <=
    gamma_{n+1} |R*| |R|`` for any order of the inner products (Demmel;
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §10.1), with ``gamma_k = k u / (1 - k u)`` and u = eps / 2.  As
    ``||R||_F^2 = tr(A + dA)``, ``||dA||_2 <= g_{n+1} tr(A)`` with ``g_k =
    gamma_k / (1 - gamma_k)``, and ``R* R`` is positive definite, so
    ``lambda_min(A) > -g_{n+1} tr(A)`` (Rump, BIT 46 (2006) 433-452).  Here
    A is the rounded ``h - sigma I``, with

        sigma = (threshold + g_k tr(h) + 4n (n + 1 + max_i h_ii) eta) (1 + 8 eps),

    ``eta = 2^-1074`` the smallest subnormal, k = n + 3 for real data and
    2(n + 3) for complex.  The two steps of k past n + 1 cover the rounding
    of the shifted diagonal (at most u max_i h_ii) and of the computed
    trace; doubling k covers the rounding of complex products (Higham
    §3.6); the eta term covers gradual underflow, at most (n + 1 + max_i
    h_ii) eta in each entry of dA; and the last factor covers the rounding
    of sigma itself.  A successful ``potrf`` then gives ``lambda_min(h) >
    threshold``.  It costs one copy of ``h`` and one ``potrf``.
    """
    n, diag, eps = h.shape[0], h.diagonal().real, np.finfo(float).eps
    k = (n + 3) * (2 if np.iscomplexobj(h) else 1)
    g = k * eps / 2 / (1 - k * eps)
    eta = np.finfo(float).smallest_subnormal  # 4n eta first: n + 1 + max h_ii may be near overflow
    sigma = threshold + g * float(diag.sum()) + 4 * n * eta * (n + 1 + float(diag.max()))
    sigma *= 1 + 8 * eps
    # conj(h.T) = h, a new Fortran-ordered array: potrf shifts and factors it in place
    shifted = np.conjugate(h.T, dtype=np.result_type(h.dtype, float))
    shifted[np.arange(n), np.arange(n)] -= sigma
    potrf, = scipy.linalg.lapack.get_lapack_funcs(("potrf",), (shifted,))
    return potrf(shifted, lower=1, overwrite_a=1, clean=0)[1] == 0


def _band_factor(h):
    """The band :class:`HermitianFactor` of a dominant ``h`` with a narrow band, else None.

    kd is the largest ``i - j`` over the nonzeros ``h_ij``, read from the
    pattern of ``h`` in CSR; a dense ``h`` is converted first, unless it
    holds more than the ``2 _BAND_MAX_FILL n^2`` nonzeros that any band
    accepted here has room for.  Returns None when n < ``_BAND_MIN_N``,
    kd + 1 > ``_BAND_MAX_FILL`` n, or ``pbtrf`` fails.
    """
    n = h.shape[0]
    if n < _BAND_MIN_N:
        return None
    if not scipy.sparse.issparse(h):
        if np.count_nonzero(h) > 2 * _BAND_MAX_FILL * n * n:
            return None
        h = scipy.sparse.csr_array(h)
    rows, cols = np.repeat(np.arange(n), np.diff(h.indptr)), h.indices
    kd = int(np.max(rows - cols, initial=0))
    if kd + 1 > _BAND_MAX_FILL * n:
        return None
    # LAPACK's lower band storage: row d holds the d-th subdiagonal, h[j + d, j] at column j
    band = np.zeros((kd + 1, n), dtype=h.dtype, order="F")  # F-ordered: pbtrf works in place
    lower = rows >= cols
    band[rows[lower] - cols[lower], cols[lower]] = h.data[lower]
    pbtrf, = scipy.linalg.lapack.get_lapack_funcs(("pbtrf",), (band,))
    band, info = pbtrf(band, lower=1, overwrite_ab=1)
    return HermitianFactor(c_lower=None, n=n, band=_freeze(band, copy=False)) if info == 0 else None


def _band_slabs(band):
    """The row slabs of the band factor L whose packed band is ``band``.

    Slab k spans rows s:e of L, with s = k nb and nb = max(kd,
    ``_SLAB_MIN``), and is stored as ``(s, e, d, c)``: ``d = L[s:e, s:e]``,
    its lower-triangular diagonal block, and ``c = L[s:s + q, s - kd:s]``
    with q = min(kd, e - s), the upper-triangular block that couples it to
    the kd rows above it (None on the first slab and for kd = 0).  As
    nb >= kd, L has no other entries in rows s:e.  The blocks are gathered
    from the band by indexing, Fortran-ordered and read-only: O(n nb)
    entries in all.
    """
    kd, n = len(band) - 1, band.shape[1]
    nb = max(kd, _SLAB_MIN)
    starts = np.arange(0, n, nb)
    # L[s + i, s + j] = band[i - j, s + j]; a short last slab reads clipped
    # columns past n into rows and columns that it then drops
    i, j = np.tril_indices(nb)
    i, j = i[i - j <= kd], j[i - j <= kd]
    diag = np.zeros((starts.size, nb, nb), dtype=band.dtype)  # diag[k].T is d, F-ordered
    diag[:, j, i] = band[i - j, np.minimum(starts[:, None] + j, n - 1)]
    # L[s + a, s - kd + t] = band[a + kd - t, s - kd + t], nonzero for t >= a
    a, t = np.triu_indices(kd)
    coupling = np.zeros((starts.size, kd, kd), dtype=band.dtype)  # coupling[k].T is c
    coupling[1:, t, a] = band[a + kd - t, starts[1:, None] - kd + t]
    slabs = []
    for k, s in enumerate(starts.tolist()):
        e = min(s + nb, n)
        d = _freeze(np.asfortranarray(diag[k].T[:e - s, :e - s]), copy=False)
        c = None
        if s and kd:
            c = _freeze(np.asfortranarray(coupling[k].T[:min(kd, e - s)]), copy=False)
        slabs.append((s, e, d, c))
    return tuple(slabs)


def certify_definiteness(h, tol=DEFAULT_TOL):
    """Definiteness of an exactly Hermitian ``h``, certified by Cholesky first.

    Returns ``(definiteness, factor, eigs)``.  With a Cholesky factor, ``h``
    is positive definite in the sense of :func:`_classify`, and ``eigs``
    None, when its Gershgorin margin ``min_i (2 h_ii - sum_j |h_ij|)``
    exceeds ``(tol + 2n eps) ||h||_inf`` (``2n eps`` covers the rounding of
    the sums) or else a Cholesky factorization of ``h`` shifted down by
    ``(tol + n eps) ||h||_inf`` plus a rounding allowance succeeds
    (:func:`_shifted_cholesky_certifies`), which proves that
    ``lambda_min`` exceeds ``(tol + n eps) ||h||_inf``.  Otherwise the
    spectrum decides and is returned as ``eigs``.  ``factor`` is the
    :class:`HermitianFactor` of a positive definite ``h`` whose unshifted
    factorization succeeded, else None.  A narrow-band ``h`` that the
    margin certifies gets the band factor of :func:`_band_factor`; only then
    is its bandwidth read.  A CSR ``h`` gets its margin and band from its
    stored entries, and is densified only when neither certifies it.
    """
    n, eps, rows = h.shape[0], np.finfo(float).eps, _abs_row_sums(h)
    norm_inf = float(rows.max(initial=0.0))
    # the margin of an empty h is inf: it is definite, and never reaches the shifted test
    margin = float(np.min(2.0 * h.diagonal().real - rows, initial=np.inf))
    dominant = margin > (tol + 2 * n * eps) * norm_inf
    factor = _band_factor(h) if dominant else None
    if factor is not None:
        return Definiteness.POSITIVE_DEFINITE, factor, None
    h = as_dense(h)
    c = _cholesky(h if np.iscomplexobj(h) else h.T)  # h.T = h, F-ordered: potrf copies it flat
    eigs = None
    if c is None or not (dominant
                         or _shifted_cholesky_certifies(h, (tol + n * eps) * norm_inf)):
        eigs = np.linalg.eigvalsh(h)
    dclass = Definiteness.POSITIVE_DEFINITE if eigs is None else _classify(eigs, tol)
    factor = None
    if c is not None and dclass is Definiteness.POSITIVE_DEFINITE:
        factor = HermitianFactor(c_lower=c, n=n)
    return dclass, factor, eigs


def is_semidefinite(a):
    """True unless the Hermitian matrix ``a`` is indefinite.

    Three tests in order of cost: a nonnegative diagonal that weakly
    dominates every row (all Gershgorin discs lie in [0, inf)), a successful
    Cholesky factorization, and only then the spectrum through
    :func:`_classify`.  The last two see only the rows and columns that are
    not identically zero: ``a`` is semidefinite iff that principal
    submatrix is, and a zero block would make every Cholesky fail.  A CSR
    ``a`` is densified only for the last two.
    """
    if np.all(2.0 * a.diagonal().real >= _abs_row_sums(a)):
        return True
    a = as_dense(a)
    touched = a != 0
    nonzero = np.flatnonzero(touched.any(axis=0) | touched.any(axis=1))
    if nonzero.size < a.shape[0]:
        a = a[np.ix_(nonzero, nonzero)]
    if _cholesky(a) is not None:
        return True
    return _classify(np.linalg.eigvalsh(a), DEFAULT_TOL) is not Definiteness.INDEFINITE


@dataclass(frozen=True)
class HermitianFactor:
    """Cholesky factorization of a Hermitian positive definite matrix.

    Built once, reused for many solves, from a matrix checked to be finite,
    so a solve checks only its right-hand side and never re-scans the
    factor.  The factor is dense or banded.  A dense one has ``c_lower``,
    the scipy ``cho_factor(..., lower=True)`` payload, and ``band`` None.
    A band one has ``c_lower`` None and ``band``, the ``pbtrf`` payload:
    the lower band of L in LAPACK's (kd + 1) x n storage, and holds no
    other array but the row slabs of L that it caches for block solves.

    On a band factor a vector is solved by LAPACK ``pbtrs`` in O(n kd).  A
    block of any width is solved by a forward sweep with L and a backward
    sweep with L* over row slabs of order nb = max(kd, 32): each slab is
    one ``gemm`` with the block that couples it to the kd rows before it
    and one ``trsm`` with its diagonal block, in O(n nb) per column but at
    BLAS-3 speed.  ``pbtrs`` solves a block one column at a time: a
    (264, 144) block of the grid-12 Schur build (kd = 12) takes 1.25 ms by
    ``pbtrs`` and 0.26 ms by the sweep with one BLAS thread.  The diagonal and coupling blocks,
    O(n nb) entries and never an n x n array, are gathered from the band
    on the first block solve and cached read-only, so a factor that solves
    only vectors never builds them.  On a dense factor a vector is solved
    by two BLAS-2 triangular solves (``trsv``) with L and L* on the
    Fortran-ordered payload, which read only its lower triangle; at
    n = 143-800 with one BLAS thread they take 2.5-3.7x less time than
    LAPACK ``potrs``.  A block, and an empty vector, which ``trsv``
    rejects, goes through ``potrs``.  :meth:`solve_lower` and
    :meth:`principal_block` serve the congruences of
    :mod:`dhkrylov.bounds` on either form; on a band, :meth:`solve_lower`
    is the forward sweep alone.
    """

    c_lower: tuple | None
    n: int
    band: np.ndarray | None = None

    def solve(self, b):
        """``h^{-1} b`` for a vector or block ``b``; a non-finite ``b`` raises ``ValueError``."""
        b = np.asarray_chkfinite(b)
        if self.band is not None:
            if b.ndim == 2:
                return self._sweep(b)
            pbtrs, = scipy.linalg.lapack.get_lapack_funcs(("pbtrs",), (self.band, b))
            return pbtrs(self.band, b, lower=1)[0]
        if b.ndim == 2 or not b.size:
            return scipy.linalg.cho_solve(self.c_lower, b, check_finite=False)
        low = self.c_lower[0]
        trsv, = scipy.linalg.get_blas_funcs(("trsv",), (low, b))
        return trsv(low, trsv(low, b, lower=1), lower=1, trans=2, overwrite_x=1)

    @functools.cached_property
    def _slabs(self):
        """The row slabs of :func:`_band_slabs`, built on the first block solve."""
        return _band_slabs(self.band)

    def _sweep(self, b, adjoint=True):
        """``h^{-1} b``, or ``L^{-1} b`` alone if not ``adjoint``, for a block ``b`` on a band.

        In the C-ordered result x, a row slab x[s:e] is the Fortran-ordered
        (m, nb) matrix x[s:e].T, so each slab step is one ``gemm`` with its
        coupling block and one ``trsm`` with its diagonal block, both with
        ``side="R"`` and in place on views.  A real factor solves a complex
        block on its real (n, 2m) view.  BLAS has no conjugate without
        transpose, so a complex factor solves L* x = y as L^T conj(x) =
        conj(y), conjugating x in place before and after.
        """
        x = np.array(b, dtype=np.result_type(self.band.dtype, b.dtype), order="C")
        xt = x.view(self.band.dtype).T
        trsm, gemm = scipy.linalg.get_blas_funcs(("trsm", "gemm"), (self.band, xt))
        if not x.size:
            return x
        kd, slabs = len(self.band) - 1, self._slabs
        for s, e, d, c in slabs:  # y[s:e] = d^{-1} (b[s:e] - c y[s - kd:s])
            if c is not None:
                gemm(-1.0, xt[:, s - kd:s], c, 1.0, xt[:, s:s + len(c)], 0, 1, 1)
            trsm(1.0, d, xt[:, s:e], 1, 1, 1, 0, 1)
        if not adjoint:
            return x
        conjugate = np.iscomplexobj(self.band)
        if conjugate:
            np.conjugate(x, out=x)
        for s, e, d, c in reversed(slabs):  # v[s:e] = d^-T w[s:e]; w[s - kd:s] -= c^T v[s:s + q]
            trsm(1.0, d, xt[:, s:e], 1, 1, 0, 0, 1)
            if c is not None:
                gemm(-1.0, xt[:, s:s + len(c)], c, 1.0, xt[:, s - kd:s], 0, 0, 1)
        if conjugate:
            np.conjugate(x, out=x)
        return x

    def solve_lower(self, x):
        """``L^{-1} x`` for a 2-D block ``x``: ``trsm`` on a dense L, a forward sweep on a band."""
        if self.band is None:
            return scipy.linalg.solve_triangular(self.c_lower[0], x, lower=True,
                                                 check_finite=False)
        return self._sweep(x, adjoint=False)

    def principal_block(self, idx):
        """The factor whose L is the principal block ``L[idx, idx]``, for sorted ``idx``.

        It is the factor of ``h[idx, idx]`` when L has no entries in rows
        ``idx`` outside columns ``idx``, as for the two parts of
        :mod:`dhkrylov.bounds`.  A dense factor gathers the block; a band
        factor gathers its band, of half-bandwidth at most kd since the
        indices are sorted, and drops the outer diagonals that are exactly
        zero: a diagonal block of L gives kd = 0.
        """
        if self.band is None:
            # the payload is Fortran-ordered: gather rows of its transpose, 2.5x faster
            return HermitianFactor(c_lower=(self.c_lower[0].T[np.ix_(idx, idx)].T, True),
                                   n=idx.size)
        kd, m = len(self.band) - 1, idx.size
        # row e of the block's band holds L[idx[j + e], idx[j]] = band[idx[j + e] - idx[j], idx[j]]
        block = np.zeros((kd + 1, m), dtype=self.band.dtype, order="F")
        for e in range(min(kd + 1, m)):
            offset = idx[e:] - idx[:m - e]
            inside = offset <= kd
            block[e, :m - e][inside] = self.band[offset[inside], idx[:m - e][inside]]
        kd = int(np.max(np.flatnonzero(block.any(axis=1)), initial=0))
        return HermitianFactor(c_lower=None, n=m,
                               band=_freeze(np.asfortranarray(block[:kd + 1]), copy=False))


def _sparse_pattern(a):
    """Rows and columns of the pattern of ``a + a*``, row by row, when it is sparse; else None.

    One ``a != 0`` scan; a dense ``a`` stops at its count, since the
    pattern of a + a* holds at least the nonzeros of a.
    """
    n = a.shape[0]
    limit = _CSR_MAX_FILL * n * n
    nonzero = a != 0
    if n < _CSR_MIN_N or np.count_nonzero(nonzero) > limit:
        return None
    rows, cols = np.divmod(np.flatnonzero(nonzero), n)
    # the sorted flat indices of both patterns, once each, come row by row;
    # np.union1d takes 7x longer at n = 735
    flat = np.concatenate([rows * n + cols, cols * n + rows])
    flat.sort()
    rows, cols = np.divmod(flat[np.append(True, flat[1:] != flat[:-1])], n)
    return (rows, cols) if rows.size <= limit else None


def _csr_on(m, rows, cols):
    """``m`` as a read-only CSR array of its nonzero entries among ``(rows, cols)``, row by row."""
    vals = m[rows, cols]
    keep = vals != 0
    indptr = np.searchsorted(rows[keep], np.arange(m.shape[0] + 1))
    return _freeze(scipy.sparse.csr_array((vals[keep], cols[keep], indptr), shape=m.shape),
                   copy=False)


def csr_copy(m):
    """``m`` as a read-only CSR array of its nonzero entries when the pattern of m + m* is sparse.

    Sparse means what it means for :attr:`HsSplitSystem.ops`; otherwise ``m``
    itself is returned.
    """
    pattern = _sparse_pattern(m)
    return m if pattern is None else _csr_on(m, *pattern)


def _freeze(a, copy=True):
    """``a`` made read-only; a copy unless ``copy`` is False (an array no one else holds).

    A sparse ``a`` becomes a CSR array with read-only parts; a copy is in
    canonical form and stores only its nonzero entries.
    """
    if not scipy.sparse.issparse(a):
        a = np.array(a) if copy else a
        a.setflags(write=False)
        return a
    a = scipy.sparse.csr_array(a, copy=copy)
    if copy:
        a.sum_duplicates()
        a.eliminate_zeros()
    for part in (a.data, a.indices, a.indptr):
        part.setflags(write=False)
    return a


def _frozen(a):
    """True when no one can write ``a``: read-only owning its data, or CSR with read-only parts."""
    if scipy.sparse.issparse(a):
        return a.format == "csr" and not any(
            part.flags.writeable for part in (a.data, a.indices, a.indptr))
    return isinstance(a, np.ndarray) and a.flags.owndata and not a.flags.writeable


@dataclass(frozen=True)
class HsSplitSystem:
    """A square matrix together with its Hermitian/skew split.

    Fields
    ------
    a, h, s : ``a = h + s``, ``h = (a+a*)/2``, ``s = (a-a*)/2``; read-only
        ``scipy.sparse`` CSR arrays of their nonzero entries when ``a`` is
        given sparse, else read-only ndarrays
    definiteness : classification of ``h``, certified by its Cholesky
        factor (:func:`certify_definiteness`) and decided by the spectrum
        only when that certificate is inconclusive
    h_factor : the certified Cholesky factorization of ``h``, on its band
        when ``h`` is dominant with a narrow band; present iff ``h`` is
        positive definite

    ``h_eigenvalues``, the ascending spectrum of ``h``, is computed on first
    read and kept; a spectrum computed for the classification is reused.
    ``hss_factors`` and ``ops`` are computed on first read and kept in the
    same way.  The spectrum and ``hss_factors`` densify CSR fields.
    """

    a: np.ndarray
    h: np.ndarray
    s: np.ndarray
    definiteness: Definiteness
    h_factor: HermitianFactor | None

    @property
    def n(self):
        return self.a.shape[0]

    @functools.cached_property
    def h_eigenvalues(self):
        return _freeze(np.linalg.eigvalsh(as_dense(self.h)))

    @functools.cached_property
    def ops(self):
        """``(a, h, s)`` for products: ``scipy.sparse.csr_array`` arrays or the fields.

        CSR fields serve as they are.  Dense fields get CSR copies of
        exactly their nonzero entries when n >= ``_CSR_MIN_N`` and the
        pattern of A + A* holds at most ``_CSR_MAX_FILL`` n^2 entries;
        otherwise, and when ``a`` is not an ndarray, the fields serve.  A
        field that is not an ndarray (an operator with ``@``) is always
        passed through.  Every product of the solvers with A, H or S runs on
        these.
        """
        fields = (self.a, self.h, self.s)
        pattern = _sparse_pattern(self.a) if isinstance(self.a, np.ndarray) else None
        if pattern is None:
            return fields
        return tuple(_csr_on(m, *pattern) if isinstance(m, np.ndarray) else m
                     for m in fields)

    @functools.cached_property
    def hss_factors(self):
        """``(alpha, factor, lu)`` of the HSS iteration on this system.

        alpha = sqrt(lambda_min lambda_max) of ``h``; ``factor`` is the
        :class:`HermitianFactor` of alpha I + h and ``lu`` the
        ``scipy.linalg.lu_factor`` payload of alpha I + s.
        """
        eigs = self.h_eigenvalues
        alpha = float(np.sqrt(eigs[0] * eigs[-1]))
        eye = np.eye(self.n, dtype=self.a.dtype)
        factor = HermitianFactor(
            scipy.linalg.cho_factor(alpha * eye + as_dense(self.h), lower=True), self.n)
        return alpha, factor, scipy.linalg.lu_factor(alpha * eye + as_dense(self.s))

    @classmethod
    def from_matrix(cls, a):
        # h = (a + a*)/2 is exactly Hermitian: no symmetrization or re-check;
        # h and s are new arrays, frozen without a copy.  So is a frozen a,
        # such as midpoint_system's; any other a is copied, so the caller's
        # later writes cannot reach the system.  A sparse a gives CSR fields.
        h, s = split_hs(a)
        dclass, factor, eigs = certify_definiteness(h)
        if dclass is Definiteness.POSITIVE_DEFINITE and factor is None:
            raise DefinitenessError("Cholesky failed: h is not positive definite")
        system = cls(
            a=_freeze(a, copy=not _frozen(a)),
            h=_freeze(h, copy=False),
            s=_freeze(s, copy=False),
            definiteness=dclass,
            h_factor=factor,
        )
        if eigs is not None:
            # seed the cache of the lazy property with the spectrum just computed
            vars(system)["h_eigenvalues"] = _freeze(eigs)
        return system

    def solve_h(self, b):
        if self.h_factor is None:
            raise DefinitenessError("Hermitian part is not positive definite")
        return self.h_factor.solve(b)


# ---------------------------------------------------------------------------
# Matrix Market I/O
# ---------------------------------------------------------------------------

def write_matrix(path, a):
    """Write a matrix in Matrix Market coordinate format if sparse, else array format.

    17 significant digits round-trip float64/complex128 entries bit-exactly.
    """
    mmwrite(str(path), a, precision=17)


def read_matrix(path):
    """Read a Matrix Market file as a dense 2-D array."""
    try:
        a = mmread(str(path))
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot read matrix file {path}: {exc}")
    if scipy.sparse.issparse(a):
        a = a.toarray()
    return np.asarray(a)
