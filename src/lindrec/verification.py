"""Independent verification of reconstructed generators.

The generator is vectorized into a sparse d^2 x d^2 matrix acting on
column-stacked states: one Kronecker product per jump channel and one for
the effective Hamiltonian, all assembled in ``scipy.sparse`` from the
operators the ansatz stores, with no dense d x d operator.  With real
couplings and a Hermitian rate matrix it maps Hermitian matrices to
Hermitian ones, so ``vectorize_liouvillian`` returns it in an orthonormal
basis of Hermitian operators, where it is real.  Steady states and residuals are obtained from the sparse real
matrix, without going through the correlation matrix, on one factored
path: SuperLU factors it once, and an optional certificate inverts those
factors densely in place with LAPACK.  scipy is imported inside the
functions that use it, so importing lindrec does not load it.

Besides scipy's getri and SuperLU, verification makes no threaded BLAS
call: numpy and scipy each bundle their own OpenBLAS, whose pool workers
spin for a while after every threaded call, so a dense numpy product,
``eigh`` or a long ``norm`` would keep numpy's worker spinning on the core
that the certificate's getri needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .engine import LindbladAnsatz, LindbladianParams
from .errors import DimMismatchError, DimTooLargeError, NoSteadyStateError
from .numerics import (
    hermitian_coordinates,
    hermitian_from_coordinates,
    hermitian_part,
)
from .quantum_ops import Operator

if TYPE_CHECKING:
    from scipy import sparse

# Largest supported superoperator dimension d^2.
MAX_SUPEROP_DIM = 10_000

# Relative singular-value threshold below which a direction counts as null.
NULL_SV_TOL = 1e-8


def vectorize_liouvillian(
    params: LindbladianParams, ansatz: LindbladAnsatz
) -> sparse.csr_array:
    """The generator as the real d^2 x d^2 matrix T = Re(U^H S U), a float64
    ``scipy.sparse`` CSR array in canonical form: sorted indices, no
    duplicates, no explicit zeros.

    U is the unitary of ``numerics.hermitian_coordinates``; column stacking
    turns A rho B into (B^T kron A) vec(rho).  The operators are read as the
    ansatz stores them and combined as sparse arrays (``_csr``).  With
    gamma = W diag(s) V^H the jump terms are sum_m s_m A_m rho B_m^dag over
    the channels A_m = sum_j W_jm L_j and B_m = sum_k V_km L_k, one product
    conj(B_m) kron A_m each.  The rest is K rho + rho K^dag with one
    effective Hamiltonian K = -iH - 1/2 sum_jk gamma_jk L_k^dag L_j, or
    -iH - 1/2 sum_m s_m B_m^dag A_m.  For a Hermitian rho that is
    K rho + (K rho)^dag, whose coordinates are twice the real part of those
    of K rho, so the one product I kron 2K carries it exactly: S is a sum
    of n_jump + 1 products.  Summed, the jump terms of a Hermitian rho are
    Hermitian, so their imaginary part is roundoff, and T has the singular
    values of the generator.  Trace preservation makes the rows of T at
    arange(d) * (d + 1) sum to zero.  The rate matrix is replaced by its
    ``hermitian_part``, which rejects a non-Hermitian one.
    """
    from scipy import sparse

    gamma = hermitian_part(params.gamma, "rate matrix gamma")
    d = ansatz.dim
    if d * d > MAX_SUPEROP_DIM:
        raise DimTooLargeError(f"superoperator dimension {d * d} exceeds {MAX_SUPEROP_DIM}")
    if params.n_drive != ansatz.n_drive or params.n_jump != ansatz.n_jump:
        raise DimMismatchError("parameter shapes do not match the ansatz")
    h_ops, jump_ops, _ = ansatz._operators
    k_eff = sparse.csr_array((d, d), dtype=complex)
    for c_j, h_j in zip(params.c, h_ops):
        k_eff = k_eff - 1j * c_j * _csr(h_j)
    terms = []
    if params.n_jump:
        jumps = [_csr(l_j) for l_j in jump_ops]
        w, s, vh = np.linalg.svd(gamma)
        for m, s_m in enumerate(s):
            a_m = sum(w[j, m] * l_j for j, l_j in enumerate(jumps))
            b_m = sum(vh[m, k].conj() * l_k for k, l_k in enumerate(jumps))
            k_eff = k_eff - 0.5 * s_m * (b_m.conj().T @ a_m)
            terms.append(s_m * sparse.kron(b_m.conj(), a_m))
    terms.append(sparse.kron(sparse.eye_array(d, format="csr"), 2 * k_eff))
    superop = sum(terms[1:], terms[0]).tocsr()
    del terms  # the Kronecker products are not held through the change of basis
    i, j = np.triu_indices(d, 1)
    upper, lower = i + j * d, j + i * d  # positions (i, j) and (j, i), i < j
    diag = np.arange(d) * (d + 1)
    half = np.full(upper.size, 2**-0.5)
    # column (i, j): (E_ij + E_ji)/sqrt(2); column (j, i): i(E_ij - E_ji)/sqrt(2)
    rows = np.concatenate([diag, upper, lower, upper, lower])
    cols = np.concatenate([diag, upper, upper, lower, lower])
    vals = np.concatenate([np.ones(d), half, half, 1j * half, -1j * half])
    basis = sparse.csc_array((vals, (rows, cols)), shape=(d * d, d * d))
    gen = (basis.conj().T @ superop @ basis).real
    gen.eliminate_zeros()
    gen.sum_duplicates()
    return gen


def _csr(op: Operator | np.ndarray) -> sparse.csr_array:
    """An ansatz operator as a complex CSR array: an ``Operator`` from its
    diagonals, a matrix by its nonzero entries."""
    from scipy import sparse

    if not isinstance(op, Operator):
        return sparse.csr_array(op)
    if not op.diagonals:
        return sparse.csr_array(op.shape, dtype=complex)
    offsets, values = zip(*op.diagonals)
    return sparse.diags_array(values, offsets=offsets, shape=op.shape, format="csr")


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
    """Sign-fix on the trace, clamp tiny negatives, normalize a Hermitian matrix.

    The eigenvectors, and the product that clamps with them, are formed only
    when the smallest eigenvalue is a tiny negative; the output is that of
    clamping through ``eigh`` on every call."""
    if np.trace(rho).real < 0:
        rho = -rho
    low = np.linalg.eigvalsh(rho)[0]
    if low < 0 and low > -1e-8:
        w, v = np.linalg.eigh(rho)
        rho = (v * np.maximum(w, 0.0)) @ v.conj().T
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

    Every path works in real arithmetic on the sparse T of
    ``vectorize_liouvillian``, which applies the input rules; ||T x||
    equals ||S vec(rho)|| for the state rho with coordinates x.  Only the
    certified path and the SVD fallback hold a dense d^2 x d^2 matrix.

    Both methods take one factored path on the bordered matrix B: T with
    row 0 replaced by the trace row, so that B x = e_0 picks the null
    direction of trace 1.  SuperLU factors the sparse B once and solves
    B x = e_0 for the steady state.  ``method='lu'`` stops there, which
    verifies the residual but not multiplicity.  ``method='svd'`` adds the
    certificate: it inverts the factors into one dense array in place
    (LAPACK getri), a permutation of B^-1, and the 1- and inf-norms of B^-1
    and T bound s_{n-1}(T)/s_0(T) from below (B differs from T in one row,
    so s_{n-1}(T) >= s_min(B) by interlacing).
    When that bound exceeds ``NULL_SV_TOL`` and the state passes its
    residual gate, the SVD would report a one-dimensional null space, so
    uniqueness is certified without it (``method='inverse'`` in the
    result).  When the requested path fails, the full SVD of the densified
    T runs as a fallback: it takes the right singular vector of the
    smallest singular value and counts the null-space multiplicity, and the
    result records why in ``fallback``.
    Raises ``NoSteadyStateError`` when no null direction exists within
    tolerance.
    """
    if method not in ("svd", "lu"):
        raise ValueError(f"unknown method {method!r}")
    dim = ansatz.dim
    gen = vectorize_liouvillian(params, ansatz)
    result = _steady_state_factored(gen, dim, certify=method == "svd")
    if isinstance(result, SteadyStateResult):
        return result
    robust = _steady_state_svd(gen, dim)
    robust.fallback = result
    return robust


def _steady_state_svd(gen: sparse.csr_array, dim: int) -> SteadyStateResult:
    _, s, vh = np.linalg.svd(gen.toarray())
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


def _bordered(gen: sparse.csr_array, dim: int) -> sparse.csc_array:
    """The real generator with row 0 replaced by the trace row, as a sparse
    CSC array.

    Trace preservation makes row 0 equal to minus the sum of the other
    diagonal-index rows, so nothing is lost; B is nonsingular exactly when
    the null space is one-dimensional and its vectors have nonzero trace.
    """
    from scipy import sparse

    trace_row = sparse.csr_array(
        (np.ones(dim), (np.zeros(dim, dtype=int), np.arange(dim) * (dim + 1))),
        shape=(1, dim * dim),
    )
    return sparse.vstack([trace_row, gen[1:]], format="csc")


def _null_residual(
    gen: sparse.csr_array, dim: int, coords: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Canonical state of a candidate null vector, its residual ||T x||
    and the scale ||T||_F / d of the residual gates."""
    rho = _canonicalize_state(hermitian_from_coordinates(coords, dim))
    residual = float(np.linalg.norm(gen @ hermitian_coordinates(rho)))
    # the stored entries of T are its nonzeros, each once; summed by numpy, not
    # by the BLAS dot product of np.linalg.norm
    scale = float(np.sqrt(np.sum(gen.data * gen.data))) / dim
    return rho, residual, scale


def _one_inf(magnitudes) -> float:
    """||a||_1 ||a||_inf from the entrywise magnitudes |a| (dense or
    sparse), an upper bound on ||a||_2^2."""
    return float(magnitudes.sum(axis=0).max() * magnitudes.sum(axis=1).max())


def _steady_state_factored(
    gen: sparse.csr_array, dim: int, certify: bool
) -> SteadyStateResult | str:
    """Steady state from the SuperLU factors of the bordered matrix B, or the
    fallback reason when the path does not return one.

    SuperLU factors Pr B Pc = LU once and solves B x = e_0.  With
    ``certify``, U and the strict lower part of L are also packed into one
    dense Fortran-ordered array, which LAPACK getri overwrites with
    (LU)^-1 = Pc^T B^-1 Pr^T, so that array is the only d^2 x d^2 one.  The
    1- and inf-norms of the uniqueness bound do not change under those
    permutations, and T is canonical, so ``abs(gen)`` does not reorder it.
    """
    from scipy.linalg.lapack import dgetri, dgetri_lwork
    from scipy.sparse.linalg import splu

    n = dim * dim
    rhs = np.zeros(n)
    rhs[0] = 1.0
    try:
        lu = splu(_bordered(gen, dim))
    except RuntimeError:
        return "singular"
    coords = lu.solve(rhs)
    if not np.all(np.isfinite(coords)):
        return "singular"
    bound = None
    if certify:
        packed = lu.U.toarray(order="F")
        # getri takes the unit diagonal of L as implied; scattering the strict
        # lower part in place adds no sparse temporaries to the dense peak
        lower = lu.L.tocoo()
        strict = lower.row > lower.col
        packed[lower.row[strict], lower.col[strict]] = lower.data[strict]
        # SuperLU already pivoted the rows, so getri sees identity pivots; its
        # default workspace of 3n leaves it unblocked, 3.5 times slower at d = 41
        inv, info = dgetri(
            packed,
            np.arange(n, dtype=np.int32),
            lwork=int(dgetri_lwork(n)[0]),
            overwrite_lu=True,
        )
        if info != 0 or not np.all(np.isfinite(inv)):
            return "singular"
        # s_{n-1}(T) >= s_min(B) = 1 / ||B^-1||_2 by interlacing (B is T with one
        # row replaced) and s_0(T) = ||T||_2; both 2-norms are bounded by _one_inf.
        inv_norms = _one_inf(np.abs(inv, out=inv))
        bound = float(1.0 / np.sqrt(inv_norms * _one_inf(abs(gen))))
        if not bound > NULL_SV_TOL:
            return "bound"
    rho, residual, scale = _null_residual(gen, dim, coords)
    if certify:
        # ||T x|| / ||x|| <= NULL_SV_TOL * ||T||_F / d <= NULL_SV_TOL * s_0 puts a
        # null singular value below the SVD threshold (||x|| = ||rho||_F); it
        # also implies the LU gate residual <= NULL_SV_TOL * max(1, ||T||_F / d)
        limit = NULL_SV_TOL * scale * np.linalg.norm(rho)
    else:
        limit = NULL_SV_TOL * max(1.0, scale)
    if residual > limit:
        return "residual"
    return SteadyStateResult(
        rho=rho, residual=residual, null_space_dim=1 if certify else None,
        method="inverse" if certify else "lu", uniqueness_bound=bound,
    )


def norm_difference(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Frobenius norm of the difference between two states."""
    rho_a = np.asarray(rho_a)
    rho_b = np.asarray(rho_b)
    if rho_a.shape != rho_b.shape:
        raise DimMismatchError(f"shape mismatch {rho_a.shape} vs {rho_b.shape}")
    return float(np.linalg.norm(rho_a - rho_b))
