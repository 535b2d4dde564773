"""Shared builders and independent oracles used across the test modules."""

import numpy as np
import scipy.linalg

import dhkrylov as dk


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


def dense_lower(factor):
    """The n x n lower-triangular L of a ``HermitianFactor`` (h = L L*), a reference for tests.

    A dense factor gives the lower triangle of its payload; a band factor
    scatters its band, whose row d holds L[j + d, j] at column j.
    """
    if factor.band is None:
        return np.tril(factor.c_lower[0])
    n = factor.n
    low = np.zeros((n, n), dtype=factor.band.dtype)
    for d, row in enumerate(factor.band):
        low[np.arange(d, n), np.arange(n - d)] = row[:n - d]
    return low


def holds_n_by_n_array(factor):
    """True when a ``HermitianFactor`` holds an n x n array, as a dense L would be.

    Its fields are searched, and so are the row slabs that a band factor
    caches on its first block solve, a tuple of ``(s, e, d, c)`` tuples.
    """
    def arrays(v):
        if isinstance(v, (tuple, list)):
            return [a for item in v for a in arrays(item)]
        return [v] if isinstance(v, np.ndarray) else []

    return any(a.shape == (factor.n, factor.n) for a in arrays(list(vars(factor).values())))


def record_eigen_kernels(monkeypatch, record):
    """Patch the Hermitian eigenvalue kernels to call ``record(kernel, order, dtype)`` first.

    ``kernel`` names the call: "eigvalsh" for ``np.linalg.eigvalsh``, the
    whole spectrum; "top_eigenvalue" for ``scipy.linalg.eigvalsh`` asked for
    the largest eigenvalue alone (``subset_by_index=[m - 1, m - 1]``); and
    "scipy.linalg.eigvalsh" for any other call of it.  ``order`` and
    ``dtype`` are those of the matrix.
    """
    def kernel_name(owner, a, kwargs):
        if owner is np.linalg:
            return "eigvalsh"
        top = [a.shape[0] - 1] * 2
        return "top_eigenvalue" if list(kwargs.get("subset_by_index", ())) == top \
            else "scipy.linalg.eigvalsh"

    for owner in (np.linalg, scipy.linalg):
        def recorded(a, *args, _owner=owner, _original=owner.eigvalsh, **kwargs):
            record(kernel_name(_owner, a, kwargs), a.shape[0], a.dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(owner, "eigvalsh", recorded)


def random_unitary(rng, n, complex_=False):
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hs_system(rng, n, cond_h=100.0, lam=1.0, complex_=False):
    """HsSplitSystem with prescribed kappa(H) and spectral half-width."""
    q = random_unitary(rng, n, complex_)
    h = (q * np.geomspace(1.0, cond_h, n)) @ q.conj().T
    h = (h + h.conj().T) / 2
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    s = (g - g.conj().T) / 2
    sys0 = dk.HsSplitSystem.from_matrix(h + s)
    lam0 = dk.spectral_interval(sys0).lam
    if lam0 > 0:
        s = s * (lam / lam0)
    return dk.HsSplitSystem.from_matrix(h + s)


def uniform_spectrum_system(rng, n, cond_h=1e3, lam=1.0):
    """K = H^{-1} S with uniformly spaced imaginary eigenvalue pairs.

    No isolated extreme eigenvalues, so Ritz pairs do not converge early
    and the three-term recurrence keeps its H-orthogonality over many
    steps; used for the long-run Lanczos structure checks.
    """
    assert n % 2 == 0
    q = random_unitary(rng, n)
    h = (q * np.geomspace(1.0, cond_h, n)) @ q.T
    h = (h + h.T) / 2
    low = np.linalg.cholesky(h)
    thetas = lam * np.arange(1, n // 2 + 1) / (n // 2)
    blocks = np.zeros((n, n))
    for i, th in enumerate(thetas):
        blocks[2 * i, 2 * i + 1] = th
        blocks[2 * i + 1, 2 * i] = -th
    z = random_unitary(rng, n)
    s = low @ (z @ blocks @ z.T) @ low.T
    s = (s - s.T) / 2
    return dk.HsSplitSystem.from_matrix(h + s)


def printed_lam_interval(lam_printed, half_unit, anchors, tol, step=1e-7):
    """Sub-interval of a printed lam's rounding interval that reproduces anchors.

    A lam printed as ``lam_printed`` stands for every value in
    [lam_printed - half_unit, lam_printed + half_unit].  ``anchors`` is a
    list of ``(factor, printed_value)`` pairs, ``factor`` a function of lam.
    Scans that interval on a grid of spacing at most ``step`` and returns
    ``(lo, hi)``, the smallest and largest grid lam at which every factor is
    within ``tol`` of its printed value, or ``None`` if there is none.
    """
    lo, hi = lam_printed - half_unit, lam_printed + half_unit
    count = int(np.ceil((hi - lo) / step)) + 1
    hits = [
        lam for lam in np.linspace(lo, hi, count).tolist()
        if all(abs(factor(lam) - value) <= tol for factor, value in anchors)
    ]
    return (hits[0], hits[-1]) if hits else None


def krylov_basis(apply_a, b, k):
    """Explicit well-conditioned basis of K_k(A, b) for brute-force oracles.

    Each new raw column is A applied to the newest orthonormalized
    direction, so the span chain is exactly K_1 c K_2 c ... while the
    returned matrix stays numerically orthonormal.
    """
    cols = [np.asarray(b)]
    q = np.linalg.qr(np.column_stack(cols))[0]
    for _ in range(1, k):
        cols.append(apply_a(q[:, -1]))
        q = np.linalg.qr(np.column_stack(cols))[0]
    return q


def _givens_reference(a, b):
    """Unitary 2x2 rotation (c, s) and r with G [a, b]^T = [r, 0]^T."""
    if b == 0:
        return 1.0, 0.0 * b, a
    if a == 0:
        return 0.0, 1.0 + 0.0 * b, b
    absa = abs(a)
    alpha = a / absa
    norm = np.sqrt(absa * absa + abs(b) * abs(b))
    return absa / norm, alpha * np.conj(b) / norm, alpha * norm


def mgs_gmres_reference(a, b, tol, maxit, precond=None):
    """GMRES with modified Gram-Schmidt Arnoldi, one basis vector at a time.

    Test-only reference for :func:`dhkrylov.solve_gmres`: the loop it
    replaced, kept step for step.  It sizes the Hessenberg matrix by
    ``maxit``, rebuilds x_k = V_k y from the column list at every step and
    stops on the true residual ``b - A x_k`` or a breakdown
    ``||w|| <= 1e-14 ||r_0||``.  Returns ``(x, iterations, converged,
    residual_2norm)``.
    """
    bnorm = float(np.linalg.norm(b))
    if precond is None:
        apply_op = lambda z: a @ z
        r0 = b
    else:
        apply_op = lambda z: precond(a @ z)
        r0 = precond(b)
    beta = float(np.linalg.norm(r0))
    v = [np.asarray(r0) / beta]
    w = apply_op(v[0])
    dtype = np.result_type(a.dtype, b.dtype, v[0].dtype, w.dtype)
    hess = np.zeros((maxit + 1, maxit), dtype=dtype)
    g = np.zeros(maxit + 1, dtype=dtype)
    g[0] = beta
    rotations = []
    res_hist = [bnorm]
    x = np.zeros(len(b), dtype=dtype)
    converged = False
    k_done = 0
    for k in range(1, maxit + 1):
        if k > 1:
            w = apply_op(v[k - 1])
        for i in range(k):
            hess[i, k - 1] = np.vdot(v[i], w)
            w = w - hess[i, k - 1] * v[i]
        hnorm = float(np.linalg.norm(w))
        hess[k, k - 1] = hnorm
        happy = hnorm <= 1e-14 * beta
        if not happy:
            v.append(w / hnorm)
        col = hess[:k + 1, k - 1].copy()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], \
                -np.conj(s) * col[i] + c * col[i + 1]
        c, s, rr = _givens_reference(col[k - 1], col[k])
        rotations.append((c, s))
        col[k - 1], col[k] = rr, 0.0
        hess[:k + 1, k - 1] = col
        g[k - 1], g[k] = c * g[k - 1] + s * g[k], -np.conj(s) * g[k - 1] + c * g[k]
        y = scipy.linalg.solve_triangular(hess[:k, :k], g[:k], lower=False)
        x = np.column_stack(v[:k]) @ y
        rn = float(np.linalg.norm(b - a @ x))
        res_hist.append(rn)
        k_done = k
        converged = rn <= tol * bnorm
        if converged or happy:
            break
    return x, k_done, converged, np.asarray(res_hist)


def rlc_dc_operating_point(L, C1, C2, RG, RL, RR, eg):
    """Closed-form DC steady state of the RLC model (loop-current analysis).

    At DC the capacitors block the loop current except through the single
    resistive path R_G -> R_L -> R_R, so I = E_G / (R_G + R_L + R_R);
    the remaining quantities follow from the branch relations.
    """
    i = eg / (RG + RL + RR)
    v1 = RG * i - eg
    v2 = -RR * i
    return np.array([i, v1, v2, i, -i])


def pencil_index_exact(e, a0):
    """Differentiation index of a regular pencil lambda*E - A0, exactly.

    Independent oracle: for a regular shift c, the infinite-eigenvalue
    Jordan structure of the pencil equals the Jordan structure at 0 of
    Ehat = (c E - A0)^{-1} E, so the index is the smallest k with
    rank(Ehat^k) = rank(Ehat^{k+1}).  Exact rational arithmetic; only for
    small integer/rational matrices.
    """
    import sympy as sp

    e_s = sp.Matrix([[sp.nsimplify(v, rational=True) for v in row] for row in np.asarray(e)])
    a_s = sp.Matrix([[sp.nsimplify(v, rational=True) for v in row] for row in np.asarray(a0)])
    n = e_s.shape[0]
    c = 1
    while (c * e_s - a_s).det() == 0:
        c += 1
        if c > 25:
            raise ValueError("pencil appears singular")
    ehat = (c * e_s - a_s).inv() * e_s
    ranks = []
    power = sp.eye(n)
    for _ in range(n + 2):
        ranks.append(power.rank())
        power = power * ehat
    for k in range(n + 1):
        if ranks[k] == ranks[k + 1]:
            return k
    raise AssertionError("rank chain did not stabilize")


def pencil_index_numeric(e, a0, tol=1e-9):
    """Floating-point version of :func:`pencil_index_exact`."""
    n = e.shape[0]
    for c in (1.37, -2.43, 3.71, -5.13):
        pencil = c * e - a0
        svals = np.linalg.svd(pencil, compute_uv=False)
        if svals[-1] > 1e-10 * svals[0]:
            ehat = np.linalg.solve(pencil, e)
            break
    else:
        raise ValueError("pencil appears singular")

    def nrank(m):
        s = np.linalg.svd(m, compute_uv=False)
        if s.size == 0 or s[0] == 0:
            return 0
        return int(np.sum(s > tol * s[0]))

    ranks = []
    power = np.eye(n)
    for _ in range(n + 2):
        ranks.append(nrank(power))
        power = power @ ehat
    for k in range(n + 1):
        if ranks[k] == ranks[k + 1]:
            return k
    raise AssertionError("rank chain did not stabilize")
