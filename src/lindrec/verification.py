"""Independent verification of reconstructed generators.

The generator is vectorized into a dense d^2 x d^2 matrix acting on
column-stacked states, from which steady states, residuals, and the
spectral gap are obtained without going through the correlation matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .engine import LindbladAnsatz, LindbladianParams
from .errors import DimMismatchError, DimTooLargeError, NoSteadyStateError

# Largest supported superoperator dimension d^2.
MAX_SUPEROP_DIM = 10_000

# Relative singular-value threshold below which a direction counts as null.
NULL_SV_TOL = 1e-8


def stack_state(rho: np.ndarray) -> np.ndarray:
    """Column-stack a d x d matrix into a d^2 vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unstack_state(vec: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of ``stack_state``."""
    return np.asarray(vec, dtype=complex).reshape(dim, dim, order="F")


@dataclass
class Liouvillian:
    """Dense matrix representation of a generator on column-stacked states.

    Trace preservation appears as the vectorized identity being a left null
    vector of ``superop``.
    """

    superop: np.ndarray
    params: LindbladianParams
    ansatz: LindbladAnsatz

    @property
    def dim(self) -> int:
        return self.ansatz.dim


def vectorize_liouvillian(
    params: LindbladianParams, ansatz: LindbladAnsatz
) -> Liouvillian:
    """Build the d^2 x d^2 matrix whose action equals the generator.

    Column stacking turns A rho B into (B^T kron A) vec(rho); the matrix is
    filled through its (q1, p1, q2, p2) view instead of from Kronecker
    products.  The jump terms sum_jk gamma_jk L_j rho L_k^dag form one
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
    return Liouvillian(superop=sup.reshape(d * d, d * d), params=params, ansatz=ansatz)


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


def _canonicalize_state(x: np.ndarray) -> np.ndarray:
    """Phase-fix on the trace, Hermitize, clamp tiny negatives, normalize."""
    tr = np.trace(x)
    if abs(tr) > 1e-12 * np.linalg.norm(x):
        x = x * (tr.conjugate() / abs(tr))
    x = (x + x.conj().T) / 2.0
    w, v = np.linalg.eigh(x)
    if w[0] < 0 and w[0] > -1e-8:
        w = np.maximum(w, 0.0)
        x = (v * w) @ v.conj().T
    tr = np.trace(x).real
    if abs(tr) < 1e-300:
        raise NoSteadyStateError("null vector has vanishing trace")
    return x / tr


def steady_state_of(
    params: LindbladianParams,
    ansatz: LindbladAnsatz,
    method: str = "svd",
) -> SteadyStateResult:
    """Steady state of the parameterized generator.

    Both methods work on the bordered matrix B: the vectorized generator L
    with row 0 replaced by the trace row, so that B x = e_0 picks the null
    direction of trace 1.  ``method='svd'`` inverts B once; the first column
    of the inverse is the steady state, and the 1- and inf-norms of B^-1 and
    L bound s_{n-1}(L)/s_0(L) from below (B differs from L in one row, so
    s_{n-1}(L) >= s_min(B) by interlacing).  When that bound exceeds
    ``NULL_SV_TOL`` and the state passes its residual gate, the SVD of L
    would report a one-dimensional null space, so uniqueness is certified
    without it (``method='inverse'`` in the result).  ``method='lu'`` solves
    B x = e_0 instead, which verifies the residual but not multiplicity.
    When the requested path fails, the full SVD of L runs as a fallback: it
    takes the right singular vector of the smallest singular value and
    counts the null-space multiplicity, and the result records why in
    ``fallback``.  Raises ``NoSteadyStateError`` when no null direction
    exists within tolerance.
    """
    if method not in ("svd", "lu"):
        raise ValueError(f"unknown method {method!r}")
    liou = vectorize_liouvillian(params, ansatz)
    fast = _steady_state_inverse if method == "svd" else _steady_state_lu
    result = fast(liou)
    if isinstance(result, SteadyStateResult):
        return result
    robust = _steady_state_svd(liou)
    robust.fallback = result
    return robust


def _steady_state_svd(liou: Liouvillian) -> SteadyStateResult:
    d = liou.dim
    _, s, vh = np.linalg.svd(liou.superop)
    scale = float(s[0]) if s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= NULL_SV_TOL * scale))
    if s[0] == 0.0:
        # zero generator: every state is steady
        null_dim = s.size
    if null_dim == 0:
        raise NoSteadyStateError(
            f"smallest singular value {s[-1]:.3e} above {NULL_SV_TOL:.0e} * {scale:.3e}"
        )
    rho = _canonicalize_state(unstack_state(vh[-1].conj(), d))
    residual = float(np.linalg.norm(liou.superop @ stack_state(rho)))
    limit = NULL_SV_TOL * max(1.0, scale)
    if residual > limit:
        raise NoSteadyStateError(f"steady-state residual {residual:.3e} > {limit:.3e}")
    return SteadyStateResult(
        rho=rho, residual=residual, null_space_dim=null_dim, method="svd"
    )


def _bordered(liou: Liouvillian) -> np.ndarray:
    """The vectorized generator with row 0 replaced by the trace row.

    Trace preservation makes row 0 equal to minus the sum of the other
    diagonal-index rows, so nothing is lost; B is nonsingular exactly when
    the null space is one-dimensional and its vectors have nonzero trace.
    """
    d = liou.dim
    mod = liou.superop.copy()
    mod[0] = 0.0
    mod[0, np.arange(d) * (d + 1)] = 1.0
    return mod


def _null_residual(liou: Liouvillian, vec: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Canonical state of a candidate null vector, its residual ||L rho||
    and the scale ||L||_F / d of the residual gates."""
    d = liou.dim
    rho = _canonicalize_state(unstack_state(vec, d))
    residual = float(np.linalg.norm(liou.superop @ stack_state(rho)))
    scale = float(np.linalg.norm(liou.superop, ord="fro")) / d
    return rho, residual, scale


def _one_inf(a: np.ndarray) -> float:
    """||a||_1 ||a||_inf, an upper bound on ||a||_2^2."""
    return float(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))


def _steady_state_inverse(liou: Liouvillian) -> SteadyStateResult | str:
    """Certified steady state from one inverse of the bordered matrix.

    Returns the fallback reason instead of a result when the certificate is
    not issued.
    """
    try:
        inv = np.linalg.inv(_bordered(liou))
    except np.linalg.LinAlgError:
        return "singular"
    if not np.all(np.isfinite(inv)):
        return "singular"
    # s_{n-1}(L) >= s_min(B) = 1 / ||B^-1||_2 by interlacing (B is L with one
    # row replaced) and s_0(L) = ||L||_2; both 2-norms are bounded by _one_inf
    bound = float(1.0 / np.sqrt(_one_inf(inv) * _one_inf(liou.superop)))
    if not bound > NULL_SV_TOL:
        return "bound"
    rho, residual, scale = _null_residual(liou, inv[:, 0])
    # ||L rho|| / ||rho|| <= NULL_SV_TOL * ||L||_F / d <= NULL_SV_TOL * s_0 puts a
    # null singular value below the SVD threshold; it also implies the
    # absolute gate residual <= NULL_SV_TOL * max(1, ||L||_F / d)
    if residual > NULL_SV_TOL * scale * np.linalg.norm(rho):
        return "residual"
    return SteadyStateResult(
        rho=rho,
        residual=residual,
        null_space_dim=1,
        method="inverse",
        uniqueness_bound=bound,
    )


def _steady_state_lu(liou: Liouvillian) -> SteadyStateResult | str:
    """Trace-constrained solve; returns the fallback reason on failure."""
    d = liou.dim
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    try:
        vec = np.linalg.solve(_bordered(liou), rhs)
    except np.linalg.LinAlgError:
        return "singular"
    if not np.all(np.isfinite(vec)):
        return "singular"
    rho, residual, scale = _null_residual(liou, vec)
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


def liouvillian_gap(params: LindbladianParams, ansatz: LindbladAnsatz) -> float:
    """Smallest nonzero decay rate |Re(lambda)| of the vectorized generator.

    The null space is excluded at a relative threshold of 1e-10; a generator
    with no decaying mode at all (for example the zero generator) returns
    0.0 with a warning.
    """
    liou = vectorize_liouvillian(params, ansatz)
    eigs = np.linalg.eigvals(liou.superop)
    re = np.abs(eigs.real)
    scale = float(re.max()) if re.size else 0.0
    if scale == 0.0:
        warnings.warn("generator has no decaying modes; gap is 0 by convention")
        return 0.0
    nonzero = re[re > 1e-10 * max(1.0, scale)]
    if nonzero.size == 0:
        warnings.warn("generator has no decaying modes; gap is 0 by convention")
        return 0.0
    return float(nonzero.min())
