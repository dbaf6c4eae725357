"""Independent verification of reconstructed generators.

The generator is vectorized into a dense d^2 x d^2 matrix acting on
column-stacked states.  With real couplings and a Hermitian rate matrix it
maps Hermitian matrices to Hermitian matrices, so in an orthonormal basis of
Hermitian operators that matrix is real.  Steady states and residuals are
obtained from the real matrix, without going through the correlation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import LindbladAnsatz, LindbladianParams
from .errors import (
    DimMismatchError,
    DimTooLargeError,
    NoSteadyStateError,
    NotHermitianError,
)
from .numerics import HERMITICITY_REJECT_TOL, asymmetry

# Largest supported superoperator dimension d^2.
MAX_SUPEROP_DIM = 10_000

# Relative singular-value threshold below which a direction counts as null.
NULL_SV_TOL = 1e-8


# The Hermitian operator basis U: E_ii at the column-stacked position of
# (i, i); for i < j, (E_ij + E_ji)/sqrt(2) at that of (i, j) and
# i(E_ij - E_ji)/sqrt(2) at that of (j, i).  U is unitary, and the trace of
# a state is the sum of its coordinates at positions arange(d) * (d + 1).


def hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates U^H vec(rho) of a Hermitian matrix; only its diagonal
    and upper triangle are read."""
    rho = np.asarray(rho, dtype=complex)
    upper = np.triu(rho, 1) * 2**0.5
    coords = np.diag(rho.real.diagonal()) + upper.real + upper.imag.T
    return coords.reshape(-1, order="F")


def hermitian_from_coordinates(coords: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix with the real coordinates ``coords``; inverse of
    ``hermitian_coordinates``."""
    grid = np.asarray(coords, dtype=float).reshape(dim, dim, order="F")
    upper = (np.triu(grid, 1) + 1j * np.tril(grid, -1).T) / 2**0.5
    return upper + upper.conj().T + np.diag(grid.diagonal())


def vectorize_liouvillian(
    params: LindbladianParams, ansatz: LindbladAnsatz
) -> np.ndarray:
    """Build the d^2 x d^2 matrix whose action equals the generator.

    Column stacking turns A rho B into (B^T kron A) vec(rho); the matrix is
    filled through its (q1, p1, q2, p2) view instead of from Kronecker
    products.  Trace preservation appears as the vectorized identity being
    a left null vector of the result.  The jump terms sum_jk gamma_jk L_j rho L_k^dag form one
    rank-K product of the flattened jump operators, so Hermitian and
    non-Hermitian gamma share one path.  The drive and anticommutator terms
    fold into one left and one right d x d matrix, each added once onto the
    block diagonal.
    """
    d = ansatz.dim
    if d * d > MAX_SUPEROP_DIM:
        raise DimTooLargeError(f"superoperator dimension {d * d} exceeds {MAX_SUPEROP_DIM}")
    if params.n_drive != ansatz.n_drive or params.n_jump != ansatz.n_jump:
        raise DimMismatchError("parameter shapes do not match the ansatz")
    # left and right multipliers: L[rho] = left rho + rho right + jump terms
    left = np.zeros((d, d), dtype=complex)
    if params.n_drive:
        left -= 1j * np.tensordot(params.c, np.array(ansatz.h_ops), axes=1)
    right = -left
    if params.n_jump:
        jumps = np.array(ansatz.jump_ops).reshape(params.n_jump, d * d)
        weighted = params.gamma.T @ jumps  # row k: sum_j gamma_jk L_j
        # entry (q1 q2, p1 p2) = sum_jk gamma_jk conj(L_k[q1, q2]) L_j[p1, p2]
        sandwich = jumps.conj().T @ weighted
        sup = np.ascontiguousarray(sandwich.reshape(d, d, d, d).transpose(0, 2, 1, 3))
        del sandwich  # the d^4 product is not kept alongside the result
        # sum_jk gamma_jk L_k^dag L_j
        anticomm = np.einsum(
            "kba,kbc->ac",
            jumps.reshape(-1, d, d).conj(),
            weighted.reshape(-1, d, d),
        )
        left -= 0.5 * anticomm
        right -= 0.5 * anticomm
    else:
        sup = np.zeros((d, d, d, d), dtype=complex)
    # sup[q1, p1, q2, p2]: left rho adds left[p1, p2] where q1 == q2,
    # rho right adds right[q2, q1] where p1 == p2
    diag = np.arange(d)
    sup[diag, :, diag, :] += left
    sup[:, diag, :, diag] += right.T
    return sup.reshape(d * d, d * d)


def _real_superop(superop: np.ndarray, dim: int) -> np.ndarray:
    """The real matrix Re(U^H S U) of the d^2 x d^2 superoperator S.

    Formed by index arithmetic on the (q1, p1, q2, p2) view in O(d^4), one
    block of rows at a time: U^H is applied to the rows of S in place, so S
    is overwritten, then U to the columns of each row block, keeping the
    real part.  For a Hermiticity-preserving S the imaginary part dropped is
    roundoff, and the result has the singular values of S.
    """
    blocks = superop.reshape(dim, dim, dim, dim)
    half = 2**-0.5
    for j in range(1, dim):
        # rows of positions (i, j) and (j, i), i < j
        upper, lower = blocks[j, :j], blocks[:j, j]
        diff = lower - upper
        upper += lower
        upper *= half
        np.multiply(diff, 1j * half, out=lower)
    # columns of positions (p, q): symmetric where p < q, antisymmetric where
    # p > q; the partner column is the transpose of the last two axes
    q, p = np.indices((dim, dim))
    sym, anti = p < q, p > q
    out = np.empty((dim,) * 4)
    for j in range(dim):
        re, im = blocks[j].real, blocks[j].imag
        out[j] = re
        np.copyto(out[j], (re + re.transpose(0, 2, 1)) * half, where=sym)
        np.copyto(out[j], (im - im.transpose(0, 2, 1)) * half, where=anti)
    return out.reshape(dim * dim, dim * dim)


@dataclass
class SteadyStateResult:
    """Steady state plus diagnostics.

    ``null_space_dim`` is 1 on the certified path (``method='inverse'``) and
    otherwise counts the singular values below the null threshold; it is
    None when the trace-constrained solve (``method='lu'``) was used, which
    verifies the residual but does not probe multiplicity.
    ``uniqueness_bound`` is the certified lower bound on s_{n-1}/s_0 of the
    vectorized generator on the inverse path and None on the others.
    ``fallback`` is None when the requested fast path returned, and otherwise
    the reason it did not: ``'singular'`` (the bordered matrix could not be
    inverted), ``'bound'`` (the uniqueness bound did not clear
    ``NULL_SV_TOL``) or ``'residual'`` (the null direction failed its
    residual gate); the SVD path then produced the result.
    """

    rho: np.ndarray
    residual: float
    null_space_dim: int | None
    method: str
    uniqueness_bound: float | None = None
    fallback: str | None = None

    @property
    def unique(self) -> bool | None:
        if self.null_space_dim is None:
            return None
        return self.null_space_dim == 1


def _canonicalize_state(rho: np.ndarray) -> np.ndarray:
    """Sign-fix on the trace, clamp tiny negatives, normalize a Hermitian matrix."""
    if np.trace(rho).real < 0:
        rho = -rho
    w, v = np.linalg.eigh(rho)
    if w[0] < 0 and w[0] > -1e-8:
        w = np.maximum(w, 0.0)
        rho = (v * w) @ v.conj().T
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise NoSteadyStateError("null vector has vanishing trace")
    return rho / tr


def steady_state_of(
    params: LindbladianParams,
    ansatz: LindbladAnsatz,
    method: str = "svd",
) -> SteadyStateResult:
    """Steady state of the parameterized generator.

    Every path works in real arithmetic on T = Re(U^H S U), the vectorized
    generator S in the Hermitian operator basis U, which has the singular
    values of S; ||T x|| equals ||S vec(rho)|| for the state rho with
    coordinates x.  A rate matrix whose asymmetry exceeds
    ``HERMITICITY_REJECT_TOL`` raises ``NotHermitianError``; below that it
    is replaced by its Hermitian part.

    Both methods work on the bordered matrix B: T with row 0 replaced by the
    trace row, so that B x = e_0 picks the null direction of trace 1.
    ``method='svd'`` inverts B once; the first column of the inverse is the
    steady state, and the 1- and inf-norms of B^-1 and T bound
    s_{n-1}(T)/s_0(T) from below (B differs from T in one row, so
    s_{n-1}(T) >= s_min(B) by interlacing).  When that bound exceeds
    ``NULL_SV_TOL`` and the state passes its residual gate, the SVD would
    report a one-dimensional null space, so uniqueness is certified without
    it (``method='inverse'`` in the result).  ``method='lu'`` solves
    B x = e_0 instead, which verifies the residual but not multiplicity.
    When the requested path fails, the full SVD of T runs as a fallback: it
    takes the right singular vector of the smallest singular value and
    counts the null-space multiplicity, and the result records why in
    ``fallback``.  Raises ``NoSteadyStateError`` when no null direction
    exists within tolerance.
    """
    if method not in ("svd", "lu"):
        raise ValueError(f"unknown method {method!r}")
    asym = asymmetry(params.gamma)
    if asym > HERMITICITY_REJECT_TOL:
        raise NotHermitianError(f"rate-matrix asymmetry {asym:.3e} exceeds 1e-8")
    hermitian = LindbladianParams(
        c=params.c, gamma=(params.gamma + params.gamma.conj().T) / 2.0
    )
    dim = ansatz.dim
    # S is overwritten by the transform and released on return, before the
    # bordered matrix is allocated
    gen = _real_superop(vectorize_liouvillian(hermitian, ansatz), dim)
    fast = _steady_state_inverse if method == "svd" else _steady_state_lu
    result = fast(gen, dim)
    if isinstance(result, SteadyStateResult):
        return result
    robust = _steady_state_svd(gen, dim)
    robust.fallback = result
    return robust


def _steady_state_svd(gen: np.ndarray, dim: int) -> SteadyStateResult:
    _, s, vh = np.linalg.svd(gen)
    scale = float(s[0]) if s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= NULL_SV_TOL * scale))
    if s[0] == 0.0:
        # zero generator: every state is steady
        null_dim = s.size
    if null_dim == 0:
        raise NoSteadyStateError(
            f"smallest singular value {s[-1]:.3e} above {NULL_SV_TOL:.0e} * {scale:.3e}"
        )
    rho, residual, _ = _null_residual(gen, dim, vh[-1])
    limit = NULL_SV_TOL * max(1.0, scale)
    if residual > limit:
        raise NoSteadyStateError(f"steady-state residual {residual:.3e} > {limit:.3e}")
    return SteadyStateResult(
        rho=rho, residual=residual, null_space_dim=null_dim, method="svd"
    )


def _bordered(gen: np.ndarray, dim: int) -> np.ndarray:
    """The real generator with row 0 replaced by the trace row.

    Trace preservation makes row 0 equal to minus the sum of the other
    diagonal-index rows, so nothing is lost; B is nonsingular exactly when
    the null space is one-dimensional and its vectors have nonzero trace.
    """
    mod = gen.copy()
    mod[0] = 0.0
    mod[0, np.arange(dim) * (dim + 1)] = 1.0
    return mod


def _null_residual(
    gen: np.ndarray, dim: int, coords: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Canonical state of a candidate null vector, its residual ||T x||
    and the scale ||T||_F / d of the residual gates."""
    rho = _canonicalize_state(hermitian_from_coordinates(coords, dim))
    residual = float(np.linalg.norm(gen @ hermitian_coordinates(rho)))
    scale = float(np.linalg.norm(gen, ord="fro")) / dim
    return rho, residual, scale


def _one_inf(a: np.ndarray) -> float:
    """||a||_1 ||a||_inf, an upper bound on ||a||_2^2."""
    return float(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))


def _steady_state_inverse(gen: np.ndarray, dim: int) -> SteadyStateResult | str:
    """Certified steady state from one inverse of the bordered matrix.

    Returns the fallback reason instead of a result when the certificate is
    not issued.
    """
    try:
        inv = np.linalg.inv(_bordered(gen, dim))
    except np.linalg.LinAlgError:
        return "singular"
    if not np.all(np.isfinite(inv)):
        return "singular"
    # s_{n-1}(T) >= s_min(B) = 1 / ||B^-1||_2 by interlacing (B is T with one
    # row replaced) and s_0(T) = ||T||_2; both 2-norms are bounded by _one_inf
    bound = float(1.0 / np.sqrt(_one_inf(inv) * _one_inf(gen)))
    if not bound > NULL_SV_TOL:
        return "bound"
    rho, residual, scale = _null_residual(gen, dim, inv[:, 0])
    # ||T x|| / ||x|| <= NULL_SV_TOL * ||T||_F / d <= NULL_SV_TOL * s_0 puts a
    # null singular value below the SVD threshold (||x|| = ||rho||_F); it also
    # implies the absolute gate residual <= NULL_SV_TOL * max(1, ||T||_F / d)
    if residual > NULL_SV_TOL * scale * np.linalg.norm(rho):
        return "residual"
    return SteadyStateResult(
        rho=rho,
        residual=residual,
        null_space_dim=1,
        method="inverse",
        uniqueness_bound=bound,
    )


def _steady_state_lu(gen: np.ndarray, dim: int) -> SteadyStateResult | str:
    """Trace-constrained solve; returns the fallback reason on failure."""
    rhs = np.zeros(dim * dim)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(_bordered(gen, dim), rhs)
    except np.linalg.LinAlgError:
        return "singular"
    if not np.all(np.isfinite(vec)):
        return "singular"
    rho, residual, scale = _null_residual(gen, dim, vec)
    if residual > NULL_SV_TOL * max(1.0, scale):
        return "residual"
    return SteadyStateResult(rho=rho, residual=residual, null_space_dim=None, method="lu")


def norm_difference(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Frobenius norm of the difference between two states."""
    rho_a = np.asarray(rho_a)
    rho_b = np.asarray(rho_b)
    if rho_a.shape != rho_b.shape:
        raise DimMismatchError(f"shape mismatch {rho_a.shape} vs {rho_b.shape}")
    return float(np.linalg.norm(rho_a - rho_b))
