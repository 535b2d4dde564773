"""Dissipative-Hamiltonian DAE models E x' = (J - R) x + f(t).

The flow matrix E and the dissipation matrix R are Hermitian positive
semidefinite, the structure matrix J is skew-Hermitian.  This module
provides constructors for four model families (damped mechanical systems,
an RLC circuit, Stokes-type flow with or without pressure stabilization,
and poroelasticity in the dynamic or quasi-stationary regime), plus a
rank-based classifier of the differentiation index of the pencil
lambda*E - (J - R).  The singular part of a midpoint matrix is read from H,
not declared by the model (:func:`timestep.midpoint_saddle_blocks`).

The classifier works directly from the two nullspace splits that determine
the index for this matrix class: an orthonormal split of ker(E), and, if the
restriction of J - R to ker(E) is singular, a further split of its kernel.
The index is then read off the coupling block between that kernel and the
range of E.  (Because J - R has negative semidefinite Hermitian part, its
kernels are two-sided, which makes the rank decisions well posed.)
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionError, ModelError
from .hs_core import (
    RANK_TOL,
    Definiteness,
    _freeze,
    certify_definiteness,
    definiteness_class,
    is_semidefinite,
    require_hermitian,
    require_skew,
)


class ZeroSource:
    """The constant-zero source term; the default forcing of every model."""

    def __init__(self, n):
        self.n = n
        self._z = np.zeros(n)
        self._z.setflags(write=False)

    def __call__(self, t):
        return self._z

    def __repr__(self):
        return f"ZeroSource(n={self.n})"


class DaeIndex(enum.Enum):
    ZERO = 0
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class DhDaeSystem:
    """The triple (E, J, R) plus the source f(t).

    ``f`` must be a pure function of t so systems can be shared across
    threads.  The kernel basis of :func:`nullspace_of_e` is computed on
    first use and kept, read-only, on the system.
    """

    e: np.ndarray
    j: np.ndarray
    r: np.ndarray
    f: object

    @property
    def n(self):
        return self.e.shape[0]

    @classmethod
    def from_parts(cls, e, j, r, f=None):
        e = require_hermitian(e, name="e")
        j = require_skew(j, name="j")
        r = require_hermitian(r, name="r")
        if not (e.shape == j.shape == r.shape):
            raise DimensionError("e, j, r must have equal shapes")
        if not is_semidefinite(e):
            raise ModelError("flow matrix e must be positive semidefinite")
        if not is_semidefinite(r):
            raise ModelError("dissipation matrix r must be positive semidefinite")
        if f is None:
            f = ZeroSource(e.shape[0])
        return cls(e=_freeze(e), j=_freeze(j), r=_freeze(r), f=f)

    @functools.cached_property
    def _e_nullspace(self):
        return _freeze(_nullspace(self.e))

    def operator(self):
        """The right-hand-side matrix J - R."""
        return self.j - self.r

    def hamiltonian(self, x):
        """Energy 1/2 x* E x (real, nonnegative for PSD E)."""
        x = np.asarray(x)
        return 0.5 * float(np.vdot(x, self.e @ x).real)


# ---------------------------------------------------------------------------
# Model generators
# ---------------------------------------------------------------------------

def _check_hpd(a, name):
    a = np.asarray(a)
    if definiteness_class(a) is not Definiteness.POSITIVE_DEFINITE:
        raise ModelError(f"{name} must be Hermitian positive definite")
    return a


def _check_psd(a, name):
    a = require_hermitian(a, name=name)
    if not is_semidefinite(a):
        raise ModelError(f"{name} must be Hermitian positive semidefinite")
    return a


def assemble_mechanical(m, d, k, force=None):
    """Damped second-order system M q'' + D q' + K q = force(t).

    First-order form in (velocity, position):
    E = blkdiag(M, K), J = [[0, -K], [K, 0]], R = blkdiag(D, 0);
    index zero since E is positive definite.
    """
    m = _check_hpd(m, "m")
    k = _check_hpd(k, "k")
    d = _check_psd(d, "d")
    if not (m.shape == d.shape == k.shape):
        raise ModelError("m, d, k must have equal shapes")
    n = m.shape[0]
    z = np.zeros_like(m)
    e = np.block([[m, z], [z, k]])
    j = np.block([[z, -k], [k, z]])
    r = np.block([[d, z], [z, z]])
    f = None
    if force is not None:
        f = lambda t: np.concatenate([np.asarray(force(t)), np.zeros(n)])
    return DhDaeSystem.from_parts(e, j, r, f=f)


def assemble_rlc(L, C1, C2, RG, RL, RR, eg=0.0):
    """Series RLC loop with two capacitors to ground and a driven source.

    State ordering (I, V1, V2, I_G, I_R); the controlled voltage E_G(t)
    enters the fourth equation 0 = -R_G I_G + V1 + E_G.  Index one: the
    nullspace of E = diag(L, C1, C2, 0, 0) meets J22 - R22 = -diag(R_G, R_R),
    which is nonsingular.
    """
    params = dict(L=L, C1=C1, C2=C2, RG=RG, RL=RL, RR=RR)
    for name, val in params.items():
        if not val > 0:
            raise ModelError(f"RLC parameter {name} must be positive, got {val}")
    e = np.diag([L, C1, C2, 0.0, 0.0])
    j = np.array(
        [
            [0.0, -1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, -1.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
        ]
    )
    r = np.diag([RL, 0.0, 0.0, RG, RR])
    if callable(eg):
        f = lambda t: np.array([0.0, 0.0, 0.0, float(eg(t)), 0.0])
    elif eg == 0.0:
        f = None
    else:
        f = lambda t: np.array([0.0, 0.0, 0.0, float(eg), 0.0])
    return DhDaeSystem.from_parts(e, j, r, f=f)


def _grid_shift(nx, ny):
    """1 at (a, b) when node b follows node a along either axis of an nx-by-ny grid.

    Node (i, j) has flat index i * ny + j.  Stencils are built as
    ``c * F - c * F.T`` from this nonnegative F, so every zero stays +0.0.
    """
    return np.kron(np.eye(nx, k=1), np.eye(ny)) + np.kron(np.eye(nx), np.eye(ny, k=1))


def assemble_stokes_like(grid_n, viscosity=1.0, convection=0.0, stabilization=0.0,
                         forcing=None):
    """Unsteady Stokes / linearized Navier-Stokes on a staggered unit-square grid.

    Velocities live on interior edges of a ``grid_n x grid_n`` MAC grid,
    pressures on cells (one cell dropped so that the discrete divergence has
    full row rank).  Block form in (v, p):
    E = blkdiag(M, 0), J = [[A_S, B], [-B*, 0]],
    R = blkdiag(viscosity * Laplacian, stabilization * I).
    Index one when stabilization > 0, two when stabilization = 0.

    Only the block structure (definiteness, full row rank of B*, the index)
    is contractual; the concrete finite-difference stencils are not.
    """
    n_cells = int(grid_n)
    if n_cells < 2:
        raise ModelError("grid_n must be at least 2")
    if not viscosity > 0:
        raise ModelError("viscosity must be positive")
    if stabilization < 0:
        raise ModelError("stabilization must be nonnegative")
    h = 1.0 / n_cells
    nu_x, nu_y = n_cells - 1, n_cells        # u on interior vertical edges
    nv_x, nv_y = n_cells, n_cells - 1        # v on interior horizontal edges
    n_vel = nu_x * nu_y + nv_x * nv_y
    n_p = n_cells * n_cells - 1              # constant pressure mode removed

    # cell divergence: +h on the east (north) edge, -h on the west (south) one
    east, west = np.eye(n_cells, n_cells - 1), np.eye(n_cells, n_cells - 1, k=-1)
    eye = np.eye(n_cells)
    div = (h * np.hstack([np.kron(east, eye), np.kron(eye, east)])
           - h * np.hstack([np.kron(west, eye), np.kron(eye, west)]))
    b_star = div[:-1, :]

    fwd = scipy.linalg.block_diag(_grid_shift(nu_x, nu_y), _grid_shift(nv_x, nv_y))
    # unscaled 5-point Laplacian 4I - Adj with Dirichlet boundary per component
    lap = 4.0 * np.eye(n_vel) - fwd - fwd.T
    # skew centered-difference transport along the (1, 1) wind direction
    amp = 0.5 * convection * h
    a_skew = amp * fwd - amp * fwd.T

    zero_p = np.zeros((n_p, n_p))
    e = scipy.linalg.block_diag((h * h) * np.eye(n_vel), zero_p)
    j = np.block([[a_skew, b_star.T], [-b_star, zero_p]])
    r = scipy.linalg.block_diag(viscosity * lap, stabilization * np.eye(n_p))
    f = None
    if forcing is not None:
        f = lambda t: np.concatenate([np.asarray(forcing(t)), np.zeros(n_p)])
    return DhDaeSystem.from_parts(e, j, r, f=f)


def assemble_poroelastic(a, m, y=None, k=None, d=None, quasi_stationary=False,
                         forcing=None):
    """Poroelastic deformation/pressure model, dynamic or quasi-stationary.

    Dynamic regime (variables w, u, p): E = blkdiag(Y, A, M) is positive
    definite and the index is zero.  Quasi-stationary regime (Y dropped,
    variables p, u, w): E = blkdiag(M, A, 0), and the index is two because
    [D*  -A] has full row rank whenever A is nonsingular.
    """
    a = _check_hpd(a, "a")
    m = _check_hpd(m, "m")
    n = a.shape[0]
    p = m.shape[0]
    if k is None:
        k = np.zeros((p, p))
    k = _check_psd(k, "k")
    if k.shape[0] != p:
        raise ModelError("k must match the pressure block size")
    if d is None:
        d = np.zeros((p, n))
    d = np.asarray(d)
    if d.shape != (p, n):
        raise ModelError(f"d must have shape ({p}, {n}), got {d.shape}")
    znn = np.zeros((n, n))
    znp = np.zeros((n, p))
    zpn = np.zeros((p, n))
    zpp = np.zeros((p, p))
    if quasi_stationary:
        e = np.block([[m, zpn, zpn], [znp, a, znn], [znp, znn, znn]])
        j = np.block([[zpp, zpn, -d], [znp, znn, a], [d.conj().T, -a, znn]])
        r = np.block([[k, zpn, zpn], [znp, znn, znn], [znp, znn, znn]])
        return DhDaeSystem.from_parts(e, j, r, f=forcing)
    if y is None:
        raise ModelError("dynamic regime requires the (small-norm) matrix y")
    y = _check_hpd(y, "y")
    if y.shape[0] != n:
        raise ModelError("y must match the displacement block size")
    e = np.block([[y, znn, znp], [znn, a, znp], [zpn, zpn, m]])
    j = np.block([[znn, -a, d.conj().T], [a, znn, znp], [-d, zpn, zpp]])
    r = np.block([[znn, znn, znp], [znn, znn, znp], [zpn, zpn, k]])
    return DhDaeSystem.from_parts(e, j, r, f=forcing)


# ---------------------------------------------------------------------------
# Index classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexReport:
    """Differentiation index of the pencil lambda*E - (J - R).

    ``block_sizes`` is the tuple (n1, ..., n5) from the simplified
    classifier; regular systems have n5 = 0.  ``index`` is None when the
    pencil is singular.  ``diagnostics`` records the singular values behind
    every rank decision.
    """

    index: DaeIndex | None
    regular: bool
    block_sizes: tuple
    nullspace_basis_of_e: np.ndarray
    diagnostics: dict = field(default_factory=dict, repr=False)


def nullspace_of_e(sys_or_e):
    """Orthonormal basis of ker(E) for a PSD flow matrix (n x nullity).

    A Cholesky certificate at ``RANK_TOL`` (:func:`certify_definiteness`)
    shows a positive definite E to have an empty kernel; eigenvectors are
    computed only for a singular E.  For a :class:`DhDaeSystem` the basis is
    computed once per system and returned read-only.
    """
    if isinstance(sys_or_e, DhDaeSystem):
        return sys_or_e._e_nullspace
    return _nullspace(np.asarray(sys_or_e))


def _nullspace(e):
    if certify_definiteness(e, RANK_TOL)[0] is Definiteness.POSITIVE_DEFINITE:
        return np.zeros((e.shape[0], 0), dtype=np.result_type(e.dtype, float))
    return _range_of_e(e)[1]


def _range_of_e(e):
    eigs, vecs = np.linalg.eigh(e)
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if scale == 0.0:
        return vecs[:, :0], vecs
    mask = eigs > RANK_TOL * scale
    return vecs[:, mask], vecs[:, ~mask]


def _regularity_shifts(e, jr):
    """det(lambda0 E - (J-R)) != 0 at three deterministic pseudo-random shifts."""
    rng = np.random.default_rng(0x5EED)
    norm_e = np.linalg.norm(e, 2) if e.size else 0.0
    norm_jr = np.linalg.norm(jr, 2) if jr.size else 0.0
    base = norm_jr / norm_e if norm_e > 0 else 1.0
    results = []
    for _ in range(3):
        lam0 = base * rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        pencil = lam0 * e - jr
        svals = np.linalg.svd(pencil, compute_uv=False)
        smax = float(svals[0]) if svals.size else 0.0
        smin = float(svals[-1]) if svals.size else 0.0
        results.append(smax > 0 and smin > RANK_TOL * smax)
    return results


def index_classify(sys: DhDaeSystem) -> IndexReport:
    """Classify the differentiation index (0, 1 or 2) of a dHDAE pencil.

    Procedure: if E is positive definite the index is zero.  Otherwise split
    off ker(E); if the restriction A22 of J - R to ker(E) is nonsingular the
    index is one.  Otherwise split off ker(A22) and inspect its coupling to
    range(E): full row rank gives index two (with n1 = n4 = the kernel
    dimension), a rank deficiency leaves genuinely free variables (n5 > 0)
    and the pencil is singular.  Rank decisions use singular values with
    relative threshold ``RANK_TOL``; regularity is cross-checked at three
    deterministic pseudo-random real shifts.
    """
    n = sys.n
    jr = sys.operator()
    diag = {}
    v_range, v_null = _range_of_e(sys.e)
    rank_e = v_range.shape[1]
    shift_checks = _regularity_shifts(sys.e, jr)
    diag["rank_e"] = rank_e
    diag["shift_regularity_checks"] = shift_checks
    cross_regular = any(shift_checks)

    if rank_e == n:
        return IndexReport(
            index=DaeIndex.ZERO,
            regular=cross_regular,
            block_sizes=(0, n, 0, 0, 0),
            nullspace_basis_of_e=_freeze(v_null),
            diagnostics=diag,
        )

    global_scale = float(np.linalg.norm(jr, 2)) if jr.size else 0.0
    a22 = v_null.conj().T @ jr @ v_null
    a21 = v_null.conj().T @ jr @ v_range
    n_null = n - rank_e
    _, s22, vh22 = np.linalg.svd(a22) if a22.size else (np.eye(0), np.zeros(0), np.eye(0))
    smax22 = float(s22[0]) if s22.size else 0.0
    smin22 = float(s22[-1]) if s22.size else 0.0
    diag["j22_r22_singular_values"] = s22
    diag["j22_r22_sigma_min"] = smin22

    nonneg22 = smax22 > RANK_TOL * global_scale
    if nonneg22 and smin22 > RANK_TOL * smax22:
        # Case 2: J22 - R22 nonsingular
        regular = cross_regular
        return IndexReport(
            index=DaeIndex.ONE,
            regular=regular,
            block_sizes=(0, rank_e, n_null, 0, 0),
            nullspace_basis_of_e=_freeze(v_null),
            diagnostics=diag,
        )

    # Split off ker(A22); the kernel is two-sided for dissipative blocks.
    if not nonneg22:
        kernel_dim = n_null
        w = np.eye(n_null, dtype=a22.dtype if a22.size else float)
    else:
        kernel_mask = s22 <= RANK_TOL * smax22
        kernel_dim = int(np.sum(kernel_mask))
        w = vh22.conj().T[:, kernel_mask]
    n3 = n_null - kernel_dim
    coupling = w.conj().T @ a21
    sc = np.linalg.svd(coupling, compute_uv=False) if coupling.size else np.zeros(0)
    smax_c = float(sc[0]) if sc.size else 0.0
    diag["coupling_singular_values"] = sc
    if smax_c <= RANK_TOL * global_scale:
        rank_c = 0
    else:
        rank_c = int(np.sum(sc > RANK_TOL * smax_c))
    full_row_rank = rank_c == kernel_dim and kernel_dim <= rank_e
    n1 = n4 = rank_c
    n5 = kernel_dim - rank_c
    block_sizes = (n1, rank_e - n1, n3, n4, n5)

    if full_row_rank and kernel_dim > 0:
        return IndexReport(
            index=DaeIndex.TWO,
            regular=cross_regular,
            block_sizes=block_sizes,
            nullspace_basis_of_e=_freeze(v_null),
            diagnostics=diag,
        )
    return IndexReport(
        index=None,
        regular=False,
        block_sizes=block_sizes,
        nullspace_basis_of_e=_freeze(v_null),
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# JSON model descriptors (used by the CLI and the bench harness)
# ---------------------------------------------------------------------------

def _random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.T


def _size(p, key):
    """A block size from a descriptor; zero is allowed, negative is a ``ModelError``."""
    size = int(p[key])
    if size < 0:
        raise ModelError(f"{key} must be nonnegative, got {size}")
    return size


def _build_mechanical(p):
    n = _size(p, "n")
    damping = float(p["damping"])
    cond = float(p["cond"])
    rng = np.random.default_rng(int(p["seed"]))
    m = _random_spd(rng, n, cond)
    k = _random_spd(rng, n, cond)
    if damping == 0.0:
        d = np.zeros((n, n))
    else:
        g = rng.standard_normal((n, n))
        d = damping * (g @ g.T) / n
    return assemble_mechanical(m, d, k)


def _build_rlc(p):
    eg_spec = p["eg"]
    if isinstance(eg_spec, dict):
        known = {"kind", "amplitude", "omega"}
        unknown = sorted(set(eg_spec) - known)
        if unknown:
            raise ModelError(f"unknown eg key(s) {unknown}; known: {sorted(known)}")
        kind = eg_spec.get("kind", "constant")
        amp = float(eg_spec.get("amplitude", 1.0))
        if kind == "constant":
            eg = amp
        elif kind == "sin":
            omega = float(eg_spec.get("omega", 1.0))
            eg = lambda t: amp * np.sin(omega * t)
        elif kind == "zero":
            eg = 0.0
        else:
            raise ModelError(f"unknown eg kind {kind!r}")
    elif isinstance(eg_spec, numbers.Real) and not isinstance(eg_spec, bool):
        eg = float(eg_spec)
    else:
        raise ModelError(f"eg is a {type(eg_spec).__name__}, not a number or a JSON object")
    return assemble_rlc(*(float(p[key]) for key in ("L", "C1", "C2", "RG", "RL", "RR")),
                        eg=eg)


def _build_stokes(p):
    return assemble_stokes_like(
        grid_n=int(p["grid_n"]),
        viscosity=float(p["viscosity"]),
        convection=float(p["convection"]),
        stabilization=float(p["stabilization"]),
    )


def _build_poroelastic(p):
    n = _size(p, "n")
    n_p = _size(p, "p")
    k_scale = float(p["k_scale"])
    rng = np.random.default_rng(int(p["seed"]))
    a = _random_spd(rng, n)
    m = _random_spd(rng, n_p)
    d = rng.standard_normal((n_p, n))
    k = k_scale * _random_spd(rng, n_p) if k_scale > 0 else np.zeros((n_p, n_p))
    y = float(p["y_scale"]) * _random_spd(rng, n)
    if p["quasi_stationary"]:
        return assemble_poroelastic(a, m, k=k, d=d, quasi_stationary=True)
    return assemble_poroelastic(a, m, y=y, k=k, d=d, quasi_stationary=False)


MODEL_REGISTRY = {
    "mechanical": {
        "build": _build_mechanical,
        "params": {"n": 20, "seed": 0, "damping": 1.0, "cond": 10.0},
        "doc": "random damped mechanical system (index 0); damping=0 gives R=0",
    },
    "rlc": {
        "build": _build_rlc,
        "params": {"L": 1.0, "C1": 1.0, "C2": 1.0, "RG": 1.0, "RL": 1.0, "RR": 1.0,
                   "eg": 0.0},
        "doc": "five-state RLC circuit with controlled voltage source (index 1)",
    },
    "stokes": {
        "build": _build_stokes,
        "params": {"grid_n": 6, "viscosity": 1.0, "convection": 0.0, "stabilization": 0.0},
        "doc": "staggered-grid Stokes flow; index 1 if stabilization > 0, else index 2",
    },
    "poroelastic": {
        "build": _build_poroelastic,
        "params": {"n": 8, "p": 4, "seed": 0, "y_scale": 1e-3, "k_scale": 1.0,
                   "quasi_stationary": False},
        "doc": "poroelasticity; index 0 dynamic, index 2 quasi-stationary",
    },
}


def from_descriptor(descriptor: dict) -> DhDaeSystem:
    """Build a model from a JSON descriptor {"name": ..., "params": {...}}.

    ``params`` override the registry defaults of the model.  A malformed
    descriptor, an unknown parameter key or a bad value raises ``ModelError``.
    """
    if not isinstance(descriptor, dict):
        raise ModelError(f"model descriptor is a {type(descriptor).__name__}, not a JSON object")
    name = descriptor.get("name")
    if not isinstance(name, str) or name not in MODEL_REGISTRY:
        raise ModelError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    params = descriptor.get("params", {})
    if not isinstance(params, dict):
        raise ModelError(f"model params is a {type(params).__name__}, not a JSON object")
    defaults = MODEL_REGISTRY[name]["params"]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ModelError(f"unknown parameter(s) {unknown} for model {name!r}; "
                         f"known: {sorted(defaults)}")
    try:
        return MODEL_REGISTRY[name]["build"]({**defaults, **params})
    except (TypeError, ValueError) as exc:
        raise ModelError(f"bad parameter for model {name!r}: {exc}")
