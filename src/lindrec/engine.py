"""Core reconstruction machinery.

Given an operator ansatz (Hermitian drive generators ``h_j`` and jump
operators ``l_j``) and a target state ``rho``, the generator

    L[rho] = sum_j c_j * (-i [h_j, rho])
           + sum_{j,k} gamma_{j,k} * (l_j rho l_k^dag - {l_k^dag l_j, rho}/2)

is linear in the parameter vector phi = (c_1..c_J, gamma_11, gamma_12, ...,
gamma_KK).  The squared flow norm ||L[rho]||_F^2 is therefore the quadratic
form phi^dag M phi of the Gram matrix M of the individual term images, and
phi annihilates M exactly when rho is a steady state of the parameterized
generator.  In a Hermitian basis of the physical parameters M has a real
square-root factor R.  This module builds R, reads the null space of M
off the SVD of R (so every kernel vector is physical), unpacks it, and
post-processes solutions for complete positivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonPhysicalVectorError, NotHermitianError
from .numerics import (
    DEFAULT_NULL_TOL,
    HERMITICITY_REJECT_TOL,
    asymmetry,
    extract_kernel,
    is_psd,
    positive_part,
)

# Relative tolerance for the sign rule and for the real-c / Hermitian-gamma
# checks when unpacking a parameter vector.
UNPACK_TOL = 1e-8

# Rows of the real image matrix folded into the triangular factor of M at a
# time, which bounds the working copy of the term-image stack.
FACTOR_BLOCK_ROWS = 4096

# PSD tolerance defining the Markovianity flag.
MARKOV_TOL = 1e-10

# Relative eigenvalue floor of the candidate Gram matrix below which a
# direction is dropped when the physical gauge basis is formed.
GAUGE_TOL = 1e-12


@dataclass(frozen=True)
class LindbladAnsatz:
    """Ordered operator basis spanning the candidate generators.

    All operators share one dimension; every drive generator must be
    Hermitian.  At least one generator (drive or jump) is required.
    """

    h_ops: tuple[np.ndarray, ...]
    jump_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        h_ops = tuple(np.asarray(h, dtype=complex) for h in self.h_ops)
        jump_ops = tuple(np.asarray(l, dtype=complex) for l in self.jump_ops)
        object.__setattr__(self, "h_ops", h_ops)
        object.__setattr__(self, "jump_ops", jump_ops)
        if not h_ops and not jump_ops:
            raise DimMismatchError("ansatz needs at least one generator")
        dims = {op.shape for op in h_ops + jump_ops}
        if len(dims) != 1 or any(s[0] != s[1] for s in dims):
            raise DimMismatchError(f"inconsistent operator shapes: {dims}")
        for idx, h in enumerate(h_ops):
            asym = np.linalg.norm(h - h.conj().T)
            if asym > 1e-10 * max(1.0, np.linalg.norm(h)):
                raise DimMismatchError(f"drive operator {idx} is not Hermitian")

    @property
    def dim(self) -> int:
        ops = self.h_ops or self.jump_ops
        return ops[0].shape[0]

    @property
    def n_drive(self) -> int:
        return len(self.h_ops)

    @property
    def n_jump(self) -> int:
        return len(self.jump_ops)

    @property
    def n_params(self) -> int:
        return self.n_drive + self.n_jump**2


@dataclass
class LindbladianParams:
    """Unpacked physical parameters: real couplings c and rate matrix gamma.

    ``gamma`` is Hermitian; the generator is a valid (completely positive)
    Markovian one exactly when gamma is PSD, exposed as ``markovian``.
    """

    c: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.gamma = np.asarray(self.gamma, dtype=complex)
        k = self.gamma.shape[0]
        if self.gamma.shape != (k, k):
            raise DimMismatchError("gamma must be a square matrix")

    @property
    def n_drive(self) -> int:
        return self.c.size

    @property
    def n_jump(self) -> int:
        return self.gamma.shape[0]

    @property
    def markovian(self) -> bool:
        return is_psd(self.gamma, MARKOV_TOL)

    @property
    def gamma_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh((self.gamma + self.gamma.conj().T) / 2.0)

    def to_vector(self) -> np.ndarray:
        """Concatenate (c_1..c_J, gamma_11, gamma_12, ..., gamma_KK)."""
        return np.concatenate([self.c.astype(complex), self.gamma.reshape(-1)])


@dataclass(frozen=True)
class CorrelationMatrix:
    """Gram matrix M of the term images and its real square-root factor.

    Rows/columns 0..J-1 of ``mat`` are the drive terms in ansatz order;
    J..J+K^2-1 are the dissipator terms (j, k) in row-major order.
    ``factor`` is the real upper-triangular R with M = P R^T R P^dag, P from
    ``hermitian_parameter_basis``.  ``images`` is the (J + K^2, d, d) stack
    both come from, kept to form the flow of any parameter vector.
    """

    mat: np.ndarray
    n_drive: int
    n_jump: int
    factor: np.ndarray
    images: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def apply_h_term(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Drive term image -i (h rho - rho h); Hermitian and traceless."""
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if h.shape != rho.shape:
        raise DimMismatchError(f"shape mismatch {h.shape} vs {rho.shape}")
    return -1j * (h @ rho - rho @ h)


def apply_d_term(l_j: np.ndarray, l_k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Dissipator term image l_j rho l_k^dag - (l_k^dag l_j rho + rho l_k^dag l_j)/2."""
    l_j = np.asarray(l_j, dtype=complex)
    l_k = np.asarray(l_k, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if l_j.shape != rho.shape or l_k.shape != rho.shape:
        raise DimMismatchError("jump operator and state dimensions differ")
    kd_j = l_k.conj().T @ l_j
    return l_j @ rho @ l_k.conj().T - 0.5 * (kd_j @ rho + rho @ kd_j)


def term_images(ansatz: LindbladAnsatz, rho: np.ndarray) -> np.ndarray:
    """Stack of all J + K^2 term images in index-map order, shape (n, d, d).

    Computed once per (ansatz, rho) pair; both the generator application and
    the correlation matrix reuse this stack, so assembling M costs J + K^2
    superoperator applications plus the pairwise traces.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ansatz.dim, ansatz.dim):
        raise DimMismatchError(
            f"state shape {rho.shape} does not match ansatz dim {ansatz.dim}"
        )
    # filled in place, so the stack is never held twice
    images = np.empty((ansatz.n_params, ansatz.dim, ansatz.dim), dtype=complex)
    for idx, h in enumerate(ansatz.h_ops):
        images[idx] = apply_h_term(h, rho)
    pairs = itertools.product(ansatz.jump_ops, repeat=2)
    for idx, (l_j, l_k) in enumerate(pairs, start=ansatz.n_drive):
        images[idx] = apply_d_term(l_j, l_k, rho)
    return images


def apply_lindbladian(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> np.ndarray:
    """Full generator action sum_j c_j H-terms + sum_jk gamma_jk D-terms."""
    if params.n_drive != ansatz.n_drive or params.n_jump != ansatz.n_jump:
        raise DimMismatchError("parameter shapes do not match the ansatz")
    images = term_images(ansatz, rho)
    return np.tensordot(params.to_vector(), images, axes=1)


def rapidity(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> float:
    """Squared Frobenius norm of L[rho]; zero exactly at a steady state."""
    return _squared_norm(apply_lindbladian(params, ansatz, rho))


def _squared_norm(flow: np.ndarray) -> float:
    return float(np.vdot(flow, flow).real)


def hermitian_parameter_basis(n_drive: int, n_jump: int) -> np.ndarray:
    """Orthonormal basis P of the physical parameter vectors, as columns.

    The columns are, in this order: the couplings c_j; the rate matrices
    E_kk; (E_kl + E_lk)/sqrt(2) for k < l; i(E_kl - E_lk)/sqrt(2) for k < l
    (row-major pairs).  Real combinations of the columns are exactly the
    vectors with real c and Hermitian gamma, and P is unitary.
    """
    units = np.eye(n_jump**2)  # row k K + l is E_kl, flattened row-major
    k, l = np.triu_indices(n_jump, 1)
    e_kl, e_lk = units[k * n_jump + l], units[l * n_jump + k]
    gammas = [units[:: n_jump + 1], (e_kl + e_lk) / 2**0.5, 1j * (e_kl - e_lk) / 2**0.5]
    basis = np.zeros((n_drive + n_jump**2,) * 2, dtype=complex)
    basis[:n_drive, :n_drive] = np.eye(n_drive)
    basis[n_drive:, n_drive:] = np.concatenate(gammas).T
    return basis


def build_correlation_matrix(
    ansatz: LindbladAnsatz, rho: np.ndarray
) -> CorrelationMatrix:
    """Gram matrix M, entries Tr(O_mu^dag O_nu) of the term images O, and
    its real square-root factor, which is built without forming M.

    In the basis P of ``hermitian_parameter_basis`` the images of a
    Hermitian ``rho`` are Hermitian, so their real and imaginary parts form
    a real matrix A (2 d^2 rows) with M = P A^T A P^dag.  QR folds A into
    R (A^T A = R^T R) ``FACTOR_BLOCK_ROWS`` rows at a time, so no copy of
    the stack is made.  A non-Hermitian ``rho`` is rejected.
    """
    images = term_images(ansatz, rho)
    asym = asymmetry(rho)
    if asym > HERMITICITY_REJECT_TOL:
        raise NotHermitianError(f"state asymmetry {asym:.3e} exceeds 1e-8")
    basis = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump)
    flat = images.reshape(images.shape[0], -1)
    factor = np.zeros((0, basis.shape[1]))
    for start in range(0, flat.shape[1], FACTOR_BLOCK_ROWS):
        block = flat[:, start:start + FACTOR_BLOCK_ROWS].T @ basis
        factor = np.linalg.qr(np.vstack([factor, block.real, block.imag]), mode="r")
    return CorrelationMatrix(
        mat=basis @ (factor.T @ factor) @ basis.conj().T,
        n_drive=ansatz.n_drive,
        n_jump=ansatz.n_jump,
        factor=factor,
        images=images,
    )


def fix_global_phase(v: np.ndarray, n_drive: int, n_jump: int) -> np.ndarray:
    """Fix the overall sign of a physical parameter vector deterministically.

    The dissipative trace tr(gamma) is made nonnegative whenever it is
    resolvable (above UNPACK_TOL * ||v||), since any PSD rate matrix has a
    nonnegative trace.  Otherwise the designated entry, the largest-magnitude
    coupling, or the largest gamma diagonal entry when all couplings are
    negligible, is made positive.  A vector with neither is left as it is.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    diag = v[n_drive + np.arange(n_jump) * (n_jump + 1)].real
    trace = float(diag.sum())
    if abs(trace) > UNPACK_TOL * norm:
        return v if trace > 0 else -v
    for entries in (v[:n_drive].real, diag):
        if entries.size:
            pivot = entries[np.argmax(np.abs(entries))]
            if abs(pivot) > UNPACK_TOL * norm:
                return v if pivot > 0 else -v
    return v


def unpack_kernel_vector(v: np.ndarray, n_drive: int, n_jump: int) -> LindbladianParams:
    """Split a parameter vector into (c, gamma) after fixing its sign.

    The first ``n_drive`` entries must be real (imaginary parts below
    UNPACK_TOL * ||v||) and the row-major K^2 tail must reshape to a
    Hermitian matrix (asymmetry below UNPACK_TOL * ||v||); otherwise, or for
    the zero vector, the vector is not a physical solution and
    ``NonPhysicalVectorError`` is raised.  Kernel vectors from ``reverse_engineer`` always pass.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != n_drive + n_jump**2:
        raise DimMismatchError(
            f"vector length {v.size} != J + K^2 = {n_drive + n_jump ** 2}"
        )
    norm = np.linalg.norm(v)
    if norm == 0:
        raise NonPhysicalVectorError("zero vector")
    v = fix_global_phase(v, n_drive, n_jump)
    c = v[:n_drive]
    if c.size and float(np.max(np.abs(c.imag))) > UNPACK_TOL * norm:
        raise NonPhysicalVectorError(
            f"residual imaginary couplings {np.max(np.abs(c.imag)):.3e}"
        )
    gamma = v[n_drive:].reshape(n_jump, n_jump)
    asym = float(np.linalg.norm(gamma - gamma.conj().T))
    if asym > UNPACK_TOL * norm:
        raise NonPhysicalVectorError(f"gamma asymmetry {asym:.3e} beyond tolerance")
    return LindbladianParams(c=c.real.copy(), gamma=(gamma + gamma.conj().T) / 2.0)


FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass
class ReconstructionResult:
    """Everything the reconstruction produces for one (ansatz, state) pair.

    ``spectrum`` is the spectrum of M, ascending; column ``k`` of
    ``eigenvectors`` is the packed (c, gamma row-major) unit eigenvector of
    ``spectrum[k]``.  The first ``kernel_dim`` columns span the null space,
    and ``solutions`` holds them unpacked, in the same order.
    """

    corr: CorrelationMatrix
    spectrum: np.ndarray
    eigenvectors: np.ndarray
    solutions: list[LindbladianParams]

    @property
    def kernel_dim(self) -> int:
        return len(self.solutions)

    @property
    def kernel_vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.eigenvectors.T[: self.kernel_dim].copy())

    @property
    def feasible(self) -> bool:
        return self.kernel_dim > 0

    @property
    def verdict(self) -> str:
        return FEASIBLE if self.feasible else INFEASIBLE

    def rapidity(self, params: LindbladianParams) -> float:
        """``rapidity(params, ansatz, rho)`` for the reconstructed pair, formed
        from the stored term images with the same arithmetic."""
        if params.n_drive != self.corr.n_drive or params.n_jump != self.corr.n_jump:
            raise DimMismatchError("parameter shapes do not match the ansatz")
        return _squared_norm(np.tensordot(params.to_vector(), self.corr.images, axes=1))


def reverse_engineer(
    ansatz: LindbladAnsatz,
    rho: np.ndarray,
    tol_null: float = DEFAULT_NULL_TOL,
) -> ReconstructionResult:
    """Factor M(rho), extract its null space, and unpack each basis vector.

    The verdict is ``feasible`` exactly when the kernel is nonempty; an empty
    kernel certifies that no generator in the ansatz admits ``rho`` as its
    steady state.  The eigenvectors are the real factor's right singular
    vectors mapped to the packed (c, gamma row-major) basis, so every one
    is physical and unpacks; they ascend in eigenvalue of M, so the first is
    the closest to a true null.  The superposition search explores
    Markovian combinations of a degenerate kernel.
    """
    corr = build_correlation_matrix(ansatz, rho)
    spectrum, vectors, kernel_dim = extract_kernel(corr.factor, tol_null)
    eigenvectors = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump) @ vectors
    # contiguous rows, as kernel_vectors gives them, so both unpack bit-equal
    solutions = [
        unpack_kernel_vector(v, ansatz.n_drive, ansatz.n_jump)
        for v in eigenvectors.T[:kernel_dim].copy()
    ]
    return ReconstructionResult(corr, spectrum, eigenvectors, solutions)


def markovian_postselect(kernel: list[LindbladianParams]) -> list[LindbladianParams]:
    """Keep the kernel solutions whose rate matrix is PSD within 1e-10."""
    return [params for params in kernel if params.markovian]


def repair_markovianity(params: LindbladianParams) -> LindbladianParams:
    """Replace gamma with its positive part; couplings are unchanged."""
    return LindbladianParams(c=params.c.copy(), gamma=positive_part(params.gamma))


def _conjugation_map(v: np.ndarray, n_drive: int, n_jump: int) -> np.ndarray:
    """Antilinear involution c -> conj(c), gamma -> gamma^dag on packed vectors.

    Physical parameter vectors (real c, Hermitian gamma) are exactly its
    fixed points, and it maps the null space of M onto itself.
    """
    out = np.empty_like(v)
    out[:n_drive] = v[:n_drive].conj()
    out[n_drive:] = v[n_drive:].reshape(n_jump, n_jump).conj().T.reshape(-1)
    return out


def physical_gauge_basis(
    vectors: tuple[np.ndarray, ...] | list[np.ndarray],
    n_drive: int,
    n_jump: int,
) -> list[np.ndarray]:
    """Orthonormal basis of the same span consisting of fixed points of the
    conjugation map (real couplings, Hermitian gamma).

    For each input vector v both v + T(v) and i(v - T(v)) are fixed points;
    their mutual inner products are real, so a real-coefficient
    orthonormalization stays inside the fixed-point set and recovers one
    basis vector per input dimension.
    """
    if not vectors:
        return []
    candidates = []
    for v in vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        tv = _conjugation_map(v, n_drive, n_jump)
        candidates.append(v + tv)
        candidates.append(1j * (v - tv))
    cmat = np.array(candidates).T
    gram = (cmat.conj().T @ cmat).real
    w, q = np.linalg.eigh(gram)
    scale = max(w[-1], 1.0)
    basis = []
    for k in range(w.size - 1, -1, -1):
        if w[k] <= GAUGE_TOL * scale or len(basis) == len(vectors):
            break
        basis.append(cmat @ (q[:, k] / np.sqrt(w[k])))
    return basis


@dataclass
class SuperpositionSearchResult:
    """Outcome of the real-coefficient search over a degenerate kernel.

    ``max_min_rate`` is the largest smallest eigenvalue of Gamma(a) on the
    slice tr Gamma(a) = 1, to within about 1e-13, so a value below -1e-13
    certifies that no kernel combination has a nonzero PSD rate matrix.  It
    is None when no kernel direction has a nonzero dissipative trace, which
    by itself certifies the same.
    """

    solutions: list[LindbladianParams]
    coefficients: list[np.ndarray]
    direction_supported: list[bool]
    max_min_rate: float | None


def _max_min_eigenvalue(
    gamma0: np.ndarray, directions: np.ndarray
) -> tuple[np.ndarray, float]:
    """Maximize lambda_min(gamma0 + sum_j x_j directions[j]) over real x.

    The objective is concave but not smooth where eigenvalues cross, and a
    supergradient ascent stalls at such crossings short of the optimum.  So
    the ascent follows the central path of the log-det barrier: for
    mu = 1, 1/10, ... damped Newton steps maximize
    s + mu * log det(gamma(x) - s I) from a strictly feasible s.  The
    objective divided by mu is self-concordant, so a Newton step shortened
    by 1 / (1 + decrement) stays strictly feasible without a line search.
    At a point of that path Z = mu (gamma(x) - s I)^-1 has unit trace and is
    orthogonal to every direction, so no x reaches lambda_min above
    s + k mu (k the matrix size); the path is followed until
    k mu <= 1e-13 max(1, |gamma0|).  Needs the directions to be traceless
    and linearly independent, which keeps the superlevel sets bounded.
    Returns x and lambda_min there.
    """
    k = gamma0.shape[0]
    w0 = np.linalg.eigvalsh(gamma0)
    gap = 1e-13 * max(1.0, float(np.abs(w0).max()))
    # derivative of gamma(x) - s I along each variable (x_1, ..., x_n, s)
    basis = np.concatenate([directions, -np.eye(k)[None]])
    y = np.zeros(len(basis))
    y[-1] = w0[0] - 1.0
    mu = 1.0
    while True:
        for _ in range(50):
            w, v = np.linalg.eigh(gamma0 + np.tensordot(y, basis, axes=1))
            rotated = v.conj().T @ basis @ v
            scaled = rotated / np.sqrt(np.outer(w, w))
            grad = mu * np.einsum("akk->a", rotated / w[:, None]).real
            grad[-1] += 1.0
            hess = -mu * np.einsum("akl,blk->ab", scaled, scaled).real
            step = np.linalg.solve(hess, -grad)
            decrement = np.sqrt(max(float(grad @ step), 0.0) / mu)
            y = y + step / (1.0 + decrement)
            if decrement < 1e-3:
                break
        if k * mu <= gap:
            break
        mu /= 10.0
    x = y[:-1]
    return x, float(np.linalg.eigvalsh(gamma0 + np.tensordot(x, directions, axes=1))[0])


def markovian_superposition_search(
    kernel_basis: tuple[np.ndarray, ...] | list[np.ndarray],
    n_drive: int,
    n_jump: int,
) -> SuperpositionSearchResult:
    """Find the real combinations of kernel vectors with a PSD rate matrix.

    The basis is mapped to the physical gauge (real couplings, Hermitian
    gamma), where a -> Gamma(a) is real-linear.  Directions with Gamma = 0
    are pure drives and each is reported as a Markovian solution.  Every
    other PSD rate matrix has tr Gamma > 0, so the rest of the question is
    the linear matrix inequality Gamma(a) >= 0 on the slice
    tr Gamma(a) = 1, where a -> lambda_min(Gamma(a)) is concave: one
    deterministic ascent from the slice's minimum-norm point reaches its
    maximum, ``max_min_rate``, and the unit-normalized maximizer is
    reported when it is PSD within ``MARKOV_TOL``.  Nothing is sampled.
    Each solution comes with its coefficients in the basis as given, and
    every given direction is flagged according to whether some solution has
    support on it.
    """
    vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in kernel_basis]
    if not vectors:
        return SuperpositionSearchResult([], [], [], None)
    gauge_mat = np.array(physical_gauge_basis(vectors, n_drive, n_jump)).T
    gamma_blocks = gauge_mat[n_drive:].T.reshape(gauge_mat.shape[1], n_jump, n_jump)
    gamma_blocks = (gamma_blocks + gamma_blocks.conj().transpose(0, 2, 1)) / 2.0
    # left singular vectors of the real coordinates of each rate matrix split
    # the coefficients into drive-only directions and a complement on which
    # a -> Gamma(a) is injective
    flat = gamma_blocks.reshape(gamma_blocks.shape[0], -1)
    u, s, _ = np.linalg.svd(np.hstack([flat.real, flat.imag]))
    rank = int(np.sum(s > MARKOV_TOL))
    candidates = [gauge_mat @ u[:, k] for k in range(rank, u.shape[1])]

    dissipative = u[:, :rank]
    dissipative_blocks = np.tensordot(dissipative.T, gamma_blocks, axes=1)
    trace = np.trace(dissipative_blocks, axis1=1, axis2=2).real
    max_min_rate = None
    if np.linalg.norm(trace) > MARKOV_TOL:
        # the slice tr Gamma = 1 is its minimum-norm point plus the span of
        # the directions orthogonal to the trace vector
        start = trace / (trace @ trace)
        along = np.linalg.svd(trace[None, :])[2][1:]
        x, max_min_rate = _max_min_eigenvalue(
            np.tensordot(start, dissipative_blocks, axes=1),
            np.tensordot(along, dissipative_blocks, axes=1),
        )
        candidates.append(gauge_mat @ (dissipative @ (start + x @ along)))

    solutions: list[LindbladianParams] = []
    for vec in candidates:
        params = unpack_kernel_vector(vec / np.linalg.norm(vec), n_drive, n_jump)
        if params.markovian:
            solutions.append(params)
    given = np.array(vectors).T
    coefficients = [
        np.linalg.lstsq(given, p.to_vector(), rcond=None)[0] for p in solutions
    ]
    supported = [
        any(abs(a[j]) > 1e-8 * np.linalg.norm(a) for a in coefficients)
        for j in range(len(vectors))
    ]
    return SuperpositionSearchResult(solutions, coefficients, supported, max_min_rate)
