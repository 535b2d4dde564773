"""Staircase form of A = H + S and its Schur-complement block diagonalization.

For Hermitian positive semidefinite H and skew-Hermitian S there is a
unitary U such that U*HU = blkdiag(H11, 0) with H11 positive definite while
U*SU becomes block tridiagonal with couplings S_{i,i-1} = [Sigma 0],
Sigma nonsingular, terminating in a decoupled skew block S_rr (possibly
absent).  The construction follows the obvious recursion: a full-rank
split of H, then repeated SVDs of the trailing coupling blocks.

Block Gaussian elimination on that form produces a block diagonal matrix
whose blocks, except for the final decoupled one, all have positive
definite Hermitian part: each Schur complement inherits definiteness
through the Cauchy interlacing argument.  The elimination factors are unit
block triangular with a single off-diagonal block, so the inverse of a
factor F is 2I - F.

Rank decisions (the one genuinely fragile knob) use singular values with a
relative threshold and are recorded in full in every form for the
``dhkrylov staircase`` audit; saddle systems are solved by
:func:`dhkrylov.krylov.solve_via_schur`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DefinitenessError, DimensionError, SchurReductionError
from .hs_core import RANK_TOL, _freeze, max_norm, require_hermitian, require_skew


@dataclass(frozen=True)
class StaircaseForm:
    """Unitary congruence exposing the positive definite part of H.

    ``block_sizes`` lists (n_1, ..., n_{r-1}, n_r) with the positive block
    sizes monotonically nonincreasing and n_r >= 0 the size of the final
    decoupled skew block.  ``h_t`` and ``s_t`` are the transformed parts
    U*HU and U*SU; ``h11`` is the leading positive definite block of H.
    ``rank_decisions`` records every eigenvalue/singular-value threshold
    decision made during the construction.
    """

    u: np.ndarray
    block_sizes: tuple
    h11: np.ndarray
    h_t: np.ndarray
    s_t: np.ndarray
    h_orig: np.ndarray
    s_orig: np.ndarray
    rank_decisions: tuple = field(repr=False, default=())

    @property
    def n(self):
        return self.u.shape[0]

    @property
    def r(self):
        return len(self.block_sizes)

    @property
    def has_decoupled_block(self):
        return self.block_sizes[-1] > 0

    def offsets(self):
        off = [0]
        for size in self.block_sizes:
            off.append(off[-1] + size)
        return off

    def s_block(self, i, j):
        """Block (i, j) of U*SU in the 1-based numbering of the form."""
        off = self.offsets()
        return self.s_t[off[i - 1]:off[i], off[j - 1]:off[j]]

    def coupling_blocks(self):
        """The subdiagonal couplings S_{i+1,i} between positive blocks."""
        return [self.s_block(i + 1, i) for i in range(1, self.r - 1)
                if self.block_sizes[i] > 0]

    def reconstruct(self):
        """U (U*AU) U*, which must reproduce A = H + S."""
        return self.u @ (self.h_t + self.s_t) @ self.u.conj().T

    def pattern_residual(self):
        """Largest transformed-S entry outside the staircase zero pattern."""
        off = self.offsets()
        r = self.r
        mask = np.zeros((self.n, self.n), dtype=bool)
        for i in range(1, r):       # positive blocks, tridiagonal band
            for j in range(1, r):
                if abs(i - j) <= 1:
                    mask[off[i - 1]:off[i], off[j - 1]:off[j]] = True
        mask[off[r - 1]:, off[r - 1]:] = True   # decoupled block
        outside = np.where(mask, 0.0, np.abs(self.s_t))
        return float(np.max(outside)) if outside.size else 0.0


def hs_staircase(h, s, tol=RANK_TOL) -> StaircaseForm:
    """Compute the staircase form of A = H + S.

    Nonsingular H gives the trivial form (U = I, r = 2, n_1 = n); H = 0
    degenerates to r = 1 where all of A is the decoupled skew block.
    """
    h = require_hermitian(h, name="h")
    s = require_skew(s, name="s")
    if h.shape != s.shape:
        raise DimensionError("h and s must have equal shapes")
    n = h.shape[0]
    dtype = np.result_type(h.dtype, s.dtype)
    decisions = []

    def form(u, block_sizes, h11, h_t, s_t):
        return StaircaseForm(u=_freeze(u), block_sizes=block_sizes, h11=_freeze(h11),
                             h_t=_freeze(h_t), s_t=_freeze(s_t), h_orig=_freeze(h),
                             s_orig=_freeze(s), rank_decisions=tuple(decisions))

    # one eigendecomposition serves the PSD check, the scale and the basis
    evals, evecs = np.linalg.eigh(h)
    scale_h = float(np.max(np.abs(evals))) if n else 0.0
    if n and float(evals[0]) < -tol * scale_h:
        raise DefinitenessError("h has an eigenvalue below -tol * ||h||; not PSD")

    if scale_h == 0.0:
        # h = 0: nothing to stage, all of A is the decoupled skew block
        decisions.append({"stage": 0, "kind": "h_rank", "values": [], "threshold": 0.0,
                          "rank": 0})
        return form(np.eye(n, dtype=dtype), (n,), np.zeros((0, 0), dtype=dtype),
                    h.astype(dtype), s.astype(dtype))

    order = np.argsort(-evals)
    evals = evals[order]
    evecs = evecs[:, order]
    n1 = int(np.sum(evals > tol * scale_h))
    decisions.append({"stage": 1, "kind": "h_rank", "values": evals.tolist(),
                      "threshold": tol * scale_h, "rank": n1})

    if n1 == n:
        # trivial case: H positive definite, no transformation needed
        return form(np.eye(n, dtype=dtype), (n, 0), h.astype(dtype), h.astype(dtype),
                    s.astype(dtype))

    u = evecs.astype(dtype)
    h_t = u.conj().T @ h @ u
    s_t = u.conj().T @ s @ u
    scale_s = float(np.linalg.norm(s, 2)) if max_norm(s) > 0 else 0.0

    blocks = [n1]
    offset, prev = n1, n1
    stage = 2
    while offset < n and prev > 0:
        c = s_t[offset:, offset - prev:offset]
        w2, sv, v2h = np.linalg.svd(c)
        if sv.size == 0 or sv[0] <= tol * max(scale_s, 1e-300):
            rank = 0
        else:
            rank = int(np.sum(sv > tol * sv[0]))
        decisions.append({"stage": stage, "kind": "coupling_rank",
                          "values": sv.tolist(),
                          "threshold": tol * (sv[0] if sv.size else 0.0),
                          "rank": rank})
        if rank == 0:
            break
        v2 = v2h.conj().T
        u_stage = np.eye(n, dtype=dtype)
        u_stage[offset - prev:offset, offset - prev:offset] = v2
        u_stage[offset:, offset:] = w2
        u = u @ u_stage
        h_t = u_stage.conj().T @ h_t @ u_stage
        s_t = u_stage.conj().T @ s_t @ u_stage
        blocks.append(rank)
        offset += rank
        prev = rank
        stage += 1

    return form(u, tuple(blocks) + (n - sum(blocks),), h_t[:n1, :n1], h_t, s_t)


# ---------------------------------------------------------------------------
# Schur-complement block diagonalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDiagonalReduction:
    """Block diagonalization of U*AU via successive Schur complements.

    ``blocks`` is [A11_hat, S_1, ..., S_{r-2}] plus, when present, the final
    decoupled skew block.  ``left_factors``/``right_factors`` are the unit
    block-triangular elimination factors, one per stage, so that
    L_1 ... L_{r-2} D R_{r-2} ... R_1 = U*AU.
    """

    blocks: tuple
    left_factors: tuple
    right_factors: tuple
    block_sizes: tuple
    has_decoupled_block: bool
    herm_min_eigenvalues: tuple

    def diagonal_matrix(self):
        n = sum(b.shape[0] for b in self.blocks)
        dtype = np.result_type(*(b.dtype for b in self.blocks)) if self.blocks else float
        d = np.zeros((n, n), dtype=dtype)
        off = 0
        for b in self.blocks:
            d[off:off + b.shape[0], off:off + b.shape[0]] = b
            off += b.shape[0]
        return d

    def reconstruct(self):
        """L_1 ... L_k D R_k ... R_1, which must equal U*AU."""
        out = self.diagonal_matrix()
        for left, right in zip(reversed(self.left_factors), reversed(self.right_factors)):
            out = left @ out @ right
        return out


def schur_block_diagonalize(sf: StaircaseForm) -> BlockDiagonalReduction:
    """Eliminate the staircase couplings by successive Schur complements.

    Every Schur complement must have positive definite Hermitian part; one
    whose smallest Hermitian eigenvalue is at or below -1e-12 times its
    2-norm contradicts the theory and raises ``SchurReductionError`` with
    the offending block index.
    """
    off = sf.offsets()
    positive = [b for b in sf.block_sizes[:-1] if b > 0]
    n_r = sf.block_sizes[-1]
    a_t = sf.h_t + sf.s_t
    n = sf.n

    if not positive:
        blocks = (_freeze(a_t),) if n_r > 0 else ()
        return BlockDiagonalReduction(
            blocks=blocks, left_factors=(), right_factors=(),
            block_sizes=sf.block_sizes, has_decoupled_block=n_r > 0,
            herm_min_eigenvalues=(),
        )

    current = np.array(a_t)
    blocks = [current[:off[1], :off[1]]]
    herm_mins = []
    left_factors = []
    right_factors = []
    for i in range(len(positive) - 1):
        pivot = blocks[-1]
        lo_i, hi_i = off[i], off[i + 1]
        lo_j, hi_j = off[i + 1], off[i + 2]
        s_ji = current[lo_j:hi_j, lo_i:hi_i]
        s_ij = current[lo_i:hi_i, lo_j:hi_j]
        s_jj = current[lo_j:hi_j, lo_j:hi_j]
        try:
            x = np.linalg.solve(pivot, s_ij)
            y = np.linalg.solve(pivot.conj().T, s_ji.conj().T).conj().T
        except np.linalg.LinAlgError as exc:
            raise SchurReductionError(f"pivot block {i} singular: {exc}", block_index=i)
        comp = s_jj - s_ji @ x
        herm = (comp + comp.conj().T) / 2
        lam_min = float(np.linalg.eigvalsh(herm)[0]) if herm.size else 0.0
        herm_mins.append(lam_min)
        scale = float(np.linalg.norm(comp, 2)) if comp.size else 0.0
        if comp.size and lam_min <= -1e-12 * max(scale, 1e-300):
            raise SchurReductionError(
                f"Schur complement {i + 1} lost positive definiteness "
                f"(lambda_min = {lam_min:.3e})",
                block_index=i + 1,
            )
        left = np.eye(n, dtype=current.dtype)
        left[lo_j:hi_j, lo_i:hi_i] = y
        right = np.eye(n, dtype=current.dtype)
        right[lo_i:hi_i, lo_j:hi_j] = x
        left_factors.append(_freeze(left))
        right_factors.append(_freeze(right))
        nxt = np.array(current)
        nxt[lo_j:hi_j, lo_j:hi_j] = comp
        nxt[lo_j:hi_j, lo_i:hi_i] = 0.0
        nxt[lo_i:hi_i, lo_j:hi_j] = 0.0
        current = nxt
        blocks.append(comp)
    out_blocks = [_freeze(b) for b in blocks]
    if n_r > 0:
        out_blocks.append(_freeze(current[n - n_r:, n - n_r:]))
    return BlockDiagonalReduction(
        blocks=tuple(out_blocks),
        left_factors=tuple(left_factors),
        right_factors=tuple(right_factors),
        block_sizes=sf.block_sizes,
        has_decoupled_block=n_r > 0,
        herm_min_eigenvalues=tuple(herm_mins),
    )


def staircase_report(sf: StaircaseForm) -> dict:
    """JSON-serializable audit of a staircase form."""
    a = sf.h_orig + sf.s_orig
    norm_a = float(np.linalg.norm(a, 2)) if a.size else 0.0
    recon = float(np.linalg.norm(sf.reconstruct() - a, 2)) if a.size else 0.0
    unitary = float(max_norm(sf.u.conj().T @ sf.u - np.eye(sf.n)))
    return {
        "n": sf.n,
        "r": sf.r,
        "block_sizes": list(sf.block_sizes),
        "decoupled_block_present": bool(sf.has_decoupled_block),
        "decoupled_block_size": int(sf.block_sizes[-1]),
        "rank_decisions": [dict(d) for d in sf.rank_decisions],
        "reconstruction_residual": recon,
        "reconstruction_residual_relative": recon / norm_a if norm_a > 0 else 0.0,
        "unitary_deviation": unitary,
        "pattern_residual": sf.pattern_residual(),
    }
