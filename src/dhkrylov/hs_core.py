"""Hermitian/skew-Hermitian splitting and the dense Hermitian kernels.

Every square matrix splits uniquely as ``a = h + s`` with ``h = (a + a*)/2``
Hermitian and ``s = (a - a*)/2`` skew-Hermitian.  This module provides that
split, definiteness classification of Hermitian matrices, the H-inner
product, and Cholesky-backed solves with Hermitian positive definite
matrices.  All other modules build on these kernels.

:meth:`HsSplitSystem.from_matrix` is the one place that decomposes the
Hermitian part of a system: one spectrum sets the definiteness and is kept,
and one Cholesky factor (when ``h`` is positive definite) serves every
H-solve and the half-width computed in :mod:`dhkrylov.bounds`.

Matrices are plain 2-D numpy arrays, real or complex.  All functions are
pure; returned arrays are marked read-only where they become part of a
value object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.io import mmread, mmwrite

from .errors import DefinitenessError, DimensionError, StructureError

#: Default structural tolerance, relative to the max-norm of the operand.
DEFAULT_TOL = 1e-12


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"


def as_square_matrix(a, name="a"):
    """Validate and return ``a`` as a square 2-D array with finite entries."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise StructureError(f"{name} has non-finite entries")
    return a


def max_norm(a):
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_deviation(a):
    """Max-norm of ``a - a*`` (zero iff ``a`` is Hermitian)."""
    return max_norm(a - a.conj().T)


def skew_deviation(a):
    """Max-norm of ``a + a*`` (zero iff ``a`` is skew-Hermitian)."""
    return max_norm(a + a.conj().T)


def require_hermitian(a, tol=DEFAULT_TOL, name="matrix"):
    a = as_square_matrix(a, name)
    if hermitian_deviation(a) > tol * max(max_norm(a), 1e-300):
        raise StructureError(f"{name} is not Hermitian within tolerance {tol}")
    return a


def require_skew(a, tol=DEFAULT_TOL, name="matrix"):
    a = as_square_matrix(a, name)
    if skew_deviation(a) > tol * max(max_norm(a), 1e-300):
        raise StructureError(f"{name} is not skew-Hermitian within tolerance {tol}")
    return a


def split_hs(a):
    """Split a square matrix into Hermitian and skew-Hermitian parts.

    Returns ``(h, s)`` with ``h = (a + a*)/2``, ``s = (a - a*)/2`` so that
    ``a = h + s``, ``h = h*`` and ``s = -s*`` exactly up to rounding.
    """
    a = as_square_matrix(a)
    at = a.conj().T
    h = (a + at) / 2
    s = (a - at) / 2
    return h, s


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
    indefinite otherwise.  Raises ``StructureError`` for inputs that are not
    Hermitian within ``tol``.
    """
    h = require_hermitian(h, tol, name="h")
    return _classify(np.linalg.eigvalsh((h + h.conj().T) / 2), tol)


def h_inner(x, y, h):
    """H-inner product ``<x, y>_h = y* h x``.

    ``h`` must be Hermitian positive definite; the self inner product of a
    nonzero vector is real and positive.  When called with ``x`` and ``y``
    numerically equal the positivity is checked and a ``DefinitenessError``
    is raised on violation, which witnesses an indefinite ``h``.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    h = np.asarray(h)
    if h.shape[1] != x.shape[0] or h.shape[0] != y.shape[0]:
        raise DimensionError("h_inner: incompatible shapes")
    value = np.vdot(y, h @ x)
    if x.shape == y.shape and np.array_equal(x, y):
        if x.size and float(np.linalg.norm(x)) > 0.0 and value.real <= 0.0:
            raise DefinitenessError("h_inner(x, x, h) <= 0: h is not positive definite")
        return value.real if np.isrealobj(h) and np.isrealobj(x) else value
    return value


@dataclass(frozen=True)
class HermitianFactor:
    """Cholesky factorization of a Hermitian positive definite matrix.

    Built once, reused for many solves.  ``c_lower`` is the scipy
    ``cho_factor`` payload, computed from a matrix checked to be finite, so
    a solve checks only its right-hand side and never re-scans the factor.
    """

    c_lower: tuple
    n: int

    def solve(self, b):
        """``h^{-1} b``; a non-finite ``b`` raises ``ValueError``."""
        return scipy.linalg.cho_solve(self.c_lower, np.asarray_chkfinite(b),
                                      check_finite=False)

    @property
    def lower(self):
        """Read-only array whose lower triangle is L (h = L L*); ignore the rest."""
        low = self.c_lower[0].view()
        low.setflags(write=False)
        return low


def hermitian_factor(h, tol=DEFAULT_TOL):
    """Factor a Hermitian positive definite matrix for repeated solves.

    Failure of the Cholesky factorization signals a non-HPD input and is
    reported as ``DefinitenessError``.
    """
    h = require_hermitian(h, tol, name="h")
    try:
        c = scipy.linalg.cho_factor(h, lower=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise DefinitenessError(f"Cholesky failed: h is not positive definite ({exc})")
    return HermitianFactor(c_lower=c, n=h.shape[0])


def hermitian_solve(h_factor, b):
    """Solve ``h x = b`` using a prebuilt :class:`HermitianFactor`."""
    return h_factor.solve(b)


def _freeze(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HsSplitSystem:
    """A square matrix together with its Hermitian/skew split.

    Fields
    ------
    a, h, s : ndarray with ``a = h + s``, ``h = (a+a*)/2``, ``s = (a-a*)/2``
    definiteness : classification of ``h`` by the sign of ``h_eigenvalues``
    h_factor : Cholesky factorization of ``h``; present iff ``h`` is
        positive definite
    h_eigenvalues : ascending spectrum of ``h``, computed once; it decides
        ``definiteness`` and is reused by the bound module
    """

    a: np.ndarray
    h: np.ndarray
    s: np.ndarray
    definiteness: Definiteness
    h_factor: HermitianFactor | None
    h_eigenvalues: np.ndarray
    tol: float = DEFAULT_TOL

    @property
    def n(self):
        return self.a.shape[0]

    @classmethod
    def from_matrix(cls, a, tol=DEFAULT_TOL):
        # h = (a + a*)/2 is exactly Hermitian: no symmetrization or re-check
        h, s = split_hs(a)
        eigs = np.linalg.eigvalsh(h)
        dclass = _classify(eigs, tol)
        factor = None
        if dclass is Definiteness.POSITIVE_DEFINITE:
            factor = hermitian_factor(h, tol)
        return cls(
            a=_freeze(a),
            h=_freeze(h),
            s=_freeze(s),
            definiteness=dclass,
            h_factor=factor,
            h_eigenvalues=_freeze(eigs),
            tol=tol,
        )

    @classmethod
    def from_parts(cls, h, s, tol=DEFAULT_TOL):
        """Assemble from a known Hermitian part and skew part."""
        h = require_hermitian(h, tol, name="h")
        s = require_skew(s, tol, name="s")
        if h.shape != s.shape:
            raise DimensionError("h and s must have equal shapes")
        return cls.from_matrix(h + s, tol)

    def solve_h(self, b):
        if self.h_factor is None:
            raise DefinitenessError("Hermitian part is not positive definite")
        return self.h_factor.solve(b)


# ---------------------------------------------------------------------------
# Matrix Market I/O
# ---------------------------------------------------------------------------

def write_matrix(path, a, fmt="array", comment=""):
    """Write a dense matrix in Matrix Market format.

    ``fmt='array'`` round-trips float64/complex128 entries bit-exactly
    (17 significant digits).  ``fmt='coordinate'`` writes the sparse
    coordinate format.
    """
    a = np.asarray(a)
    if fmt == "array":
        mmwrite(str(path), a, comment=comment, precision=17)
    elif fmt == "coordinate":
        mmwrite(str(path), scipy.sparse.coo_matrix(a), comment=comment, precision=17)
    else:
        raise ValueError(f"unknown Matrix Market format {fmt!r}")


def read_matrix(path):
    """Read a Matrix Market file as a dense 2-D array."""
    try:
        a = mmread(str(path))
    except (OSError, ValueError) as exc:
        raise OSError(f"cannot read matrix file {path}: {exc}")
    if scipy.sparse.issparse(a):
        a = a.toarray()
    return np.asarray(a)
