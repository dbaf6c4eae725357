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

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonPhysicalVectorError
from .numerics import (
    DEFAULT_NULL_TOL,
    extract_kernel,
    hermitian_from_coordinates,
    hermitian_part,
    is_psd,
    positive_part,
    require_finite,
)

# Relative tolerance for the sign rule and for the imaginary part of the
# coordinates when unpacking a parameter vector.
UNPACK_TOL = 1e-8

# Each QR step of the triangular factor of M takes the Hermitian coordinates
# of FACTOR_BLOCK_ROWS // d rows of the images, at most 2 FACTOR_BLOCK_ROWS
# real rows, which bounds the working copy of the term-image stack.
FACTOR_BLOCK_ROWS = 4096

# An operator with n nonzero diagonals is multiplied by one shifted product
# per diagonal when BANDED_DIAGONAL_RATIO * n <= d, and by np.matmul
# otherwise.  Measured against np.matmul with d x d complex operands (2 vCPU,
# OpenBLAS with 2 threads): the banded product of a C-ordered operand wins
# up to about d / 30 diagonals from d = 41 to 401; at d <= 21 np.matmul wins
# even for one diagonal.  On the model ansaetze this ratio makes
# ``term_images`` as fast as all-dense products at d = 41 and 1.6-2x faster
# from d = 81 on.
BANDED_DIAGONAL_RATIO = 40

# Rows of a banded product formed per shifted multiply, which bounds its
# block buffer.
BANDED_BLOCK_ROWS = 32

# PSD tolerance defining the Markovianity flag.
MARKOV_TOL = 1e-10

# Relative floor of the squared singular values below which a direction is
# dropped when the physical gauge basis is formed.
GAUGE_TOL = 1e-12


class _Operator:
    """A d x d operator whose products with a dense d x d matrix cost
    O(n d^2) when it has n <= d / BANDED_DIAGONAL_RATIO nonzero diagonals.

    ``diagonals`` lists (offset o, values) with values[r] = mat[r, r + o],
    zero where r + o lies outside the matrix; it is None for an operator
    with more diagonals, whose products are ``np.matmul``.  ``out`` must not
    overlap ``x`` and is best C-ordered; ``x`` may be a transposed view.
    """

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.diagonals = None
        dim = mat.shape[0]
        nonzero = mat != 0
        remaining = np.count_nonzero(nonzero)
        offsets = []
        # nearest diagonals first, until every nonzero entry is on a listed
        # diagonal or there are too many of them
        for offset in sorted(range(1 - dim, dim), key=abs):
            if not remaining:
                break
            count = np.count_nonzero(np.diagonal(nonzero, offset))
            if count:
                if BANDED_DIAGONAL_RATIO * (len(offsets) + 1) > dim:
                    return
                offsets.append(offset)
                remaining -= count
        self.diagonals = []
        for offset in sorted(offsets):
            values = np.zeros(dim, dtype=complex)
            values[max(0, -offset):dim - max(0, offset)] = np.diagonal(mat, offset)
            self.diagonals.append((offset, values))

    def left(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = mat @ x."""
        if self.diagonals is None:
            np.matmul(self.mat, x, out=out)
            return
        dim = x.shape[0]
        block = np.empty((min(BANDED_BLOCK_ROWS, dim), dim), dtype=complex)
        for lo in range(0, dim, len(block)):
            hi = min(lo + len(block), dim)
            out[lo:hi] = 0
            for offset, values in self.diagonals:
                # row r gains values[r] * x[r + offset]
                start, stop = max(lo, -offset), min(hi, dim - offset)
                if start < stop:
                    part = block[:stop - start]
                    np.multiply(
                        values[start:stop, None], x[start + offset:stop + offset], out=part
                    )
                    out[start:stop] += part


@dataclass(frozen=True)
class LindbladAnsatz:
    """Ordered operator basis spanning the candidate generators.

    All operators share one dimension and have finite entries
    (``NonFiniteError`` otherwise); every drive generator must be Hermitian
    within 1e-10 (``NotHermitianError`` otherwise), and its Hermitian part
    is stored.  At least one generator (drive or jump) is required.
    """

    h_ops: tuple[np.ndarray, ...]
    jump_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        h_ops = tuple(np.asarray(h, dtype=complex) for h in self.h_ops)
        jump_ops = tuple(np.asarray(l, dtype=complex) for l in self.jump_ops)
        if not h_ops and not jump_ops:
            raise DimMismatchError("ansatz needs at least one generator")
        dims = {op.shape for op in h_ops + jump_ops}
        if len(dims) != 1 or any(s[0] != s[1] for s in dims):
            raise DimMismatchError(f"inconsistent operator shapes: {dims}")
        # the Hermitian parts, so that rho h is exactly the adjoint of h rho
        # in ``term_images``; an exactly Hermitian drive is kept, not copied
        h_ops = tuple(
            hermitian_part(h, f"drive operator {idx}", tol=1e-10)
            for idx, h in enumerate(h_ops)
        )
        for idx, l in enumerate(jump_ops):
            require_finite(l, f"jump operator {idx}")
        object.__setattr__(self, "h_ops", h_ops)
        object.__setattr__(self, "jump_ops", jump_ops)
        # the drives, the jumps and the transposed jumps with their nonzero
        # diagonals found, for the products of ``term_images``
        object.__setattr__(self, "_operators", (
            tuple(_Operator(h) for h in h_ops),
            tuple(_Operator(l) for l in jump_ops),
            tuple(_Operator(l.T) for l in jump_ops),
        ))

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
    Couplings with a nonzero imaginary part raise ``NonPhysicalVectorError``.
    """

    c: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c).reshape(-1)
        if np.any(np.imag(c) != 0):
            raise NonPhysicalVectorError("couplings must be real")
        self.c = np.asarray(np.real(c), dtype=float)
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


def term_images(ansatz: LindbladAnsatz, rho: np.ndarray) -> np.ndarray:
    """Stack of all J + K^2 term images of a Hermitian ``rho`` in index-map
    order, shape (n, d, d).

    Computed once per (ansatz, rho) pair; both the generator application and
    the correlation matrix reuse this stack.  ``rho`` is taken as
    ``hermitian_part(rho, "state")``, which rejects a non-finite or
    non-Hermitian state.  Hermiticity makes rho h the adjoint of h rho
    and D_{k,j}[rho] the adjoint of D_{j,k}[rho], so with A_j = l_j rho

        D_{j,k}[rho] = A_j l_k^dag - (l_k^dag A_j)/2 - (l_j^dag A_k)^dag / 2

    and the stack takes J + K + K(K+1)/2 + K^2 products of an operator with
    a d x d matrix (drive images, A_j, the sandwiches for k >= j, the
    anticommutator halves) instead of the 2J + 5K^2 of forming each term
    from its definition, as the reference maps of the tests do.  A banded
    operator (``BANDED_DIAGONAL_RATIO``) takes one shifted multiply per
    nonzero diagonal, O(d^2) each; any other takes a dense O(d^3) product.
    Every product is taken from the left.  Besides the stack and the
    Hermitian part of ``rho``, two d x d work arrays and the
    ``BANDED_BLOCK_ROWS`` x d block of a banded product are held.
    """
    rho = np.asarray(rho, dtype=complex)
    dim, n_drive, n_jump = ansatz.dim, ansatz.n_drive, ansatz.n_jump
    if rho.shape != (dim, dim):
        raise DimMismatchError(
            f"state shape {rho.shape} does not match ansatz dim {dim}"
        )
    rho = hermitian_part(rho, "state")
    drives, jumps, jumps_t = ansatz._operators
    # filled in place, so the stack is never held twice
    images = np.empty((ansatz.n_params, dim, dim), dtype=complex)
    work = np.empty((dim, dim), dtype=complex)
    for image, h in zip(images, drives):
        h.left(rho, work)
        np.conjugate(work.T, out=image)
        np.subtract(work, image, out=image)
        image *= -1j
    # conj(A_j) is held instead of A_j: products with l_k^T then give the
    # conjugates of the products with l_k^dag, with no adjoint copy
    conj_a = np.empty((dim, dim), dtype=complex)
    for j, l_j in enumerate(jumps):
        l_j.left(rho, conj_a)
        np.conjugate(conj_a, out=conj_a)
        for k in range(j, n_jump):
            # work = l_k A_j^dag, the adjoint of the sandwich A_j l_k^dag
            jumps[k].left(conj_a.T, work)
            np.conjugate(work.T, out=images[n_drive + j * n_jump + k])
            if k != j:
                images[n_drive + k * n_jump + j] = work
        for k, l_k_t in enumerate(jumps_t):
            # work = conj(l_k^dag A_j) / 2, subtracted from (j, k) and its
            # adjoint from (k, j)
            l_k_t.left(conj_a, work)
            work *= 0.5
            images[n_drive + k * n_jump + j] -= work.T
            np.conjugate(work, out=work)
            images[n_drive + j * n_jump + k] -= work
    return images


def apply_lindbladian(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> np.ndarray:
    """Full generator action sum_j c_j H-terms + sum_jk gamma_jk D-terms on a
    Hermitian ``rho``, formed from ``term_images`` (J + K + K(K+1)/2 + K^2
    operator products, banded ones at O(d^2)); a non-Hermitian ``rho``
    raises ``NotHermitianError``."""
    if params.n_drive != ansatz.n_drive or params.n_jump != ansatz.n_jump:
        raise DimMismatchError("parameter shapes do not match the ansatz")
    images = term_images(ansatz, rho)
    return np.tensordot(params.to_vector(), images, axes=1)


def rapidity(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> float:
    """Squared Frobenius norm of L[rho]; zero exactly at a steady state.

    ``rho`` must be Hermitian, as for ``apply_lindbladian``, which forms
    L[rho] from ``term_images``."""
    return _squared_norm(apply_lindbladian(params, ansatz, rho))


def _squared_norm(flow: np.ndarray) -> float:
    return float(np.vdot(flow, flow).real)


def hermitian_parameter_basis(n_drive: int, n_jump: int) -> np.ndarray:
    """Orthonormal basis P of the physical parameter vectors, as columns: the
    couplings c_j, then the rate matrices of ``hermitian_coordinates``'s
    basis, flattened row-major.  P is unitary, and P^H maps a vector with
    real c and Hermitian gamma to its real coordinates (c, coordinates of
    gamma), with the diagonal rate gamma_kk at J + k (K + 1).
    """
    basis = np.zeros((n_drive + n_jump**2,) * 2, dtype=complex)
    basis[:n_drive, :n_drive] = np.eye(n_drive)
    rates = hermitian_from_coordinates(np.eye(n_jump**2), n_jump)
    basis[n_drive:, n_drive:] = rates.reshape(n_jump**2, n_jump**2).T
    return basis


def build_correlation_matrix(
    ansatz: LindbladAnsatz, rho: np.ndarray
) -> CorrelationMatrix:
    """Gram matrix M, entries Tr(O_mu^dag O_nu) of the term images O, and
    its real square-root factor, which is built without forming M.

    In the basis P of ``hermitian_parameter_basis`` the images of a
    Hermitian ``rho`` are Hermitian, so their d^2 Hermitian coordinates
    (``hermitian_coordinates``: the diagonal, and sqrt(2) times the real and
    the imaginary part of each entry above it) form a real matrix A with
    M = P A^T A P^dag.  QR folds A into R (A^T A = R^T R) a few rows of the
    images at a time (``FACTOR_BLOCK_ROWS``), read from their diagonal and
    upper triangle, so no copy of the stack is made.  ``term_images``
    rejects a non-Hermitian ``rho``.
    """
    images = term_images(ansatz, rho)
    basis = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump)
    dim, n_params = ansatz.dim, ansatz.n_params
    scaled = basis * 2**0.5

    def upper_rows(entries: np.ndarray) -> np.ndarray:
        # the float view of sqrt(2) Y^T, Y the images in P at ``entries``,
        # holds the rows sqrt(2) Re Y_e and sqrt(2) Im Y_e; returned as a
        # view, so that Y^T is released once the caller has stacked it
        return (scaled.T @ entries.reshape(n_params, -1)).view(float).T

    # the images are cut into blocks of ``step`` rows; first the diagonal
    # and the upper entries inside the diagonal squares of the blocks ...
    step = max(1, min(dim, FACTOR_BLOCK_ROWS // dim))
    row, col = np.triu_indices(step, 1)
    starts = np.arange(0, dim, step)[:, None]
    inside = (starts + col < dim).ravel()
    row, col = (starts + row).ravel()[inside], (starts + col).ravel()[inside]
    diag = (basis.T @ np.diagonal(images, axis1=1, axis2=2)).real.T
    factor = np.linalg.qr(np.vstack([diag, upper_rows(images[:, row, col])]), mode="r")
    # ... then, block by block, the entries right of its square
    for hi in range(step, dim, step):
        block = np.vstack([factor, upper_rows(images[:, hi - step:hi, hi:])])
        factor = np.linalg.qr(block, mode="r")
    return CorrelationMatrix(
        mat=basis @ (factor.T @ factor) @ basis.conj().T,
        n_drive=ansatz.n_drive,
        n_jump=ansatz.n_jump,
        factor=factor,
        images=images,
    )


def fix_global_phase(x: np.ndarray, n_drive: int, n_jump: int) -> np.ndarray:
    """Fix the overall sign of the real coordinates ``x`` of a parameter
    vector deterministically.

    The dissipative trace tr(gamma) is made nonnegative whenever it is
    resolvable (above UNPACK_TOL * ||x||), since any PSD rate matrix has a
    nonnegative trace.  Otherwise the designated entry, the largest-magnitude
    coupling, or the largest diagonal rate when all couplings are
    negligible, is made positive.  A vector with neither is left as it is.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    norm = np.linalg.norm(x)
    diag = x[n_drive + np.arange(n_jump) * (n_jump + 1)]
    trace = float(diag.sum())
    if abs(trace) > UNPACK_TOL * norm:
        return x if trace > 0 else -x
    for entries in (x[:n_drive], diag):
        if entries.size:
            pivot = entries[np.argmax(np.abs(entries))]
            if abs(pivot) > UNPACK_TOL * norm:
                return x if pivot > 0 else -x
    return x


def unpack_kernel_vector(v: np.ndarray, n_drive: int, n_jump: int) -> LindbladianParams:
    """Split a parameter vector into (c, gamma) after fixing its sign.

    The coordinates x = P^H v (``hermitian_parameter_basis``) must be real:
    when their imaginary part exceeds UNPACK_TOL * ||v||, or for the zero
    vector, the vector is not a physical solution and
    ``NonPhysicalVectorError`` is raised.  Kernel vectors from
    ``reverse_engineer`` always pass.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != n_drive + n_jump**2:
        raise DimMismatchError(
            f"vector length {v.size} != J + K^2 = {n_drive + n_jump ** 2}"
        )
    norm = np.linalg.norm(v)
    if norm == 0:
        raise NonPhysicalVectorError("zero vector")
    x = hermitian_parameter_basis(n_drive, n_jump).conj().T @ v
    imag = float(np.linalg.norm(x.imag))
    if imag > UNPACK_TOL * norm:
        raise NonPhysicalVectorError(f"coordinates have imaginary part {imag:.3e}")
    c, rates = np.split(fix_global_phase(x.real, n_drive, n_jump), [n_drive])
    return LindbladianParams(c=c, gamma=hermitian_from_coordinates(rates, n_jump))


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


def physical_gauge_basis(
    vectors: tuple[np.ndarray, ...] | list[np.ndarray],
    n_drive: int,
    n_jump: int,
) -> np.ndarray:
    """Orthonormal real coordinates (``hermitian_parameter_basis``), as
    columns, of the physical vectors in the span of ``vectors``.

    A kernel of M is closed under conjugating the coordinates X = P^H V, so
    the real span of the columns of Re X and Im X is its physical part.  The
    left singular vectors of [Re X, Im X] with s^2 above
    GAUGE_TOL * max(1, s_max^2) span it; at most one per input is kept.
    """
    coords = hermitian_parameter_basis(n_drive, n_jump).conj().T @ np.array(vectors).T
    u, s, _ = np.linalg.svd(np.hstack([coords.real, coords.imag]), full_matrices=False)
    rank = int(np.sum(s**2 > GAUGE_TOL * max(1.0, s[0] ** 2)))
    return u[:, : min(rank, len(vectors))]


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

    The basis is mapped to the coordinates of its physical vectors (real c,
    Hermitian gamma), where a -> Gamma(a) is real-linear.  Directions with
    Gamma = 0 are pure drives, each reported as a Markovian solution.  Every
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
    gauge = physical_gauge_basis(vectors, n_drive, n_jump)
    rates = gauge[n_drive:].T
    # left singular vectors of the rate-matrix coordinates split the
    # coefficients into drive-only directions and a complement on which
    # a -> Gamma(a) is injective
    u, s, _ = np.linalg.svd(rates)
    rank = int(np.sum(s > MARKOV_TOL))
    candidates = [gauge @ u[:, k] for k in range(rank, u.shape[1])]

    dissipative = u[:, :rank]
    dissipative_blocks = hermitian_from_coordinates(dissipative.T @ rates, n_jump)
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
        candidates.append(gauge @ (dissipative @ (start + x @ along)))

    basis = hermitian_parameter_basis(n_drive, n_jump)
    solutions: list[LindbladianParams] = []
    for coords in candidates:
        params = unpack_kernel_vector(basis @ coords / np.linalg.norm(coords), n_drive, n_jump)
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
