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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonPhysicalVectorError
from .numerics import (
    DEFAULT_NULL_TOL,
    extract_kernel,
    hermitian_coordinates,
    hermitian_from_coordinates,
    hermitian_part,
    is_psd,
    positive_part,
    require_finite,
)
from .quantum_ops import Operator

# Relative tolerance for the sign rule and for the imaginary part of the
# coordinates when unpacking a parameter vector.
UNPACK_TOL = 1e-8

# Each QR step of the triangular factor of M takes FACTOR_BLOCK_ROWS rows of
# the coordinate matrix of the term images, which bounds its working copy.
FACTOR_BLOCK_ROWS = 4096

# PSD tolerance defining the Markovianity flag.
MARKOV_TOL = 1e-10

# ``LindbladAnsatz`` stores an operator with n nonzero diagonals as an
# ``Operator``, multiplied by one shifted product per diagonal, when
# BANDED_DIAGONAL_RATIO * n <= d, and as a matrix for np.matmul otherwise.
# Measured against np.matmul with d x d complex operands (2 vCPU, OpenBLAS
# with 2 threads): the banded product of a C-ordered operand wins up to
# about d / 30 diagonals from d = 41 to 401; at d <= 21 np.matmul wins even
# for one diagonal.  On the model ansaetze this ratio makes ``term_images``
# as fast as all-dense products at d = 41 and 1.6-2x faster from d = 81 on.
BANDED_DIAGONAL_RATIO = 40

# Relative floor of the squared singular values below which a direction is
# dropped when the physical gauge basis is formed.
GAUGE_TOL = 1e-12


class LindbladAnsatz:
    """Ordered operator basis spanning the candidate generators.

    Each operator is a ``quantum_ops.Operator`` or a square matrix.  All
    share one dimension and have finite entries (``NonFiniteError``
    otherwise); every drive generator must be Hermitian within 1e-10
    (``NotHermitianError`` otherwise), and its Hermitian part is stored.  At
    least one generator (drive or jump) is required.

    Each operator is stored once, by the rule of ``BANDED_DIAGONAL_RATIO``:
    as an ``Operator`` when it has few enough nonzero diagonals, else as a
    matrix.  A matrix is kept as given, not copied (an ``Operator`` of it is
    formed when it is banded), and an ``Operator`` too dense for its
    products is formed once with ``dense()``.  ``jump_operators`` are the
    stored jumps; ``h_ops`` and ``jump_ops`` give the matrices, forming
    those of stored ``Operator``s on every access.  Ansaetze compare equal
    only when they are the same object.
    """

    def __init__(
        self,
        h_ops: tuple[Operator | np.ndarray, ...],
        jump_ops: tuple[Operator | np.ndarray, ...],
    ):
        h_ops, jump_ops = (
            tuple(op if isinstance(op, Operator) else np.asarray(op, dtype=complex) for op in ops)
            for ops in (h_ops, jump_ops)
        )
        if not h_ops and not jump_ops:
            raise DimMismatchError("ansatz needs at least one generator")
        dims = {op.shape for op in h_ops + jump_ops}
        if len(dims) != 1 or any(len(s) != 2 or s[0] != s[1] for s in dims):
            raise DimMismatchError(f"inconsistent operator shapes: {dims}")
        h_ops = tuple(_stored(h, "drive", idx) for idx, h in enumerate(h_ops))
        jump_ops = tuple(_stored(l, "jump", idx) for idx, l in enumerate(jump_ops))
        # the drives, the jumps and the transposed jumps, for the products
        # of ``term_images``
        self._operators = (h_ops, jump_ops, tuple(l.T for l in jump_ops))

    @property
    def h_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(_matrix(op) for op in self._operators[0])

    @property
    def jump_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(_matrix(op) for op in self._operators[1])

    @property
    def jump_operators(self) -> tuple[Operator | np.ndarray, ...]:
        return self._operators[1]

    @property
    def dim(self) -> int:
        return (self._operators[0] or self._operators[1])[0].shape[0]

    @property
    def n_drive(self) -> int:
        return len(self._operators[0])

    @property
    def n_jump(self) -> int:
        return len(self._operators[1])

    @property
    def n_params(self) -> int:
        return self.n_drive + self.n_jump**2


def _stored(op: Operator | np.ndarray, kind: str, index: int) -> Operator | np.ndarray:
    """``op``, operator ``index`` of ``kind`` "drive" or "jump", as the ansatz
    stores it: an ``Operator`` when it has at most d / BANDED_DIAGONAL_RATIO
    nonzero diagonals, else a matrix.  A drive is replaced by its Hermitian
    part, so that rho h is exactly the adjoint of h rho in ``term_images``
    (an exactly Hermitian one is kept, not copied); a jump is checked for
    finite entries."""
    name, drive = f"{kind} operator {index}", kind == "drive"
    if isinstance(op, Operator):
        if drive:
            op = op.hermitian_part(name, tol=1e-10)
        else:
            op.require_finite(name)
        return op if BANDED_DIAGONAL_RATIO * len(op.diagonals) <= op.dim else op.dense()
    if drive:
        op = hermitian_part(op, name, tol=1e-10)
    else:
        require_finite(op, name)
    # nonzero diagonals counted nearest first, so a dense matrix stops early
    nonzero = op != 0
    offsets = sorted(range(1 - len(op), len(op)), key=abs)
    counts = itertools.accumulate(bool(np.diagonal(nonzero, o).any()) for o in offsets)
    if any(BANDED_DIAGONAL_RATIO * count > len(op) for count in counts):
        return op
    return Operator.from_dense(op)


def _matrix(op: Operator | np.ndarray) -> np.ndarray:
    return op.dense() if isinstance(op, Operator) else op


def _left(op: Operator | np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = op @ x: the shifted multiplies of an ``Operator``, else np.matmul."""
    if isinstance(op, Operator):
        op.left(x, out)
    else:
        np.matmul(op, x, out=out)


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
    ``hermitian_parameter_basis``.  ``coordinates`` is the matrix A of
    ``term_images`` both come from, kept to form the flow of any parameters.
    """

    mat: np.ndarray
    n_drive: int
    n_jump: int
    factor: np.ndarray
    coordinates: np.ndarray


def term_images(ansatz: LindbladAnsatz, rho: np.ndarray) -> np.ndarray:
    """Real (d^2, J + K^2) matrix A whose column q is the
    ``hermitian_coordinates`` of sum_mu P[mu, q] O_mu, O the term images of
    a Hermitian ``rho`` and P from ``hermitian_parameter_basis``: the drive
    images, O_kk, and for j < k (O_jk + O_jk^dag)/sqrt2 at column J + j + k K
    and i (O_jk - O_jk^dag)/sqrt2 at J + k + j K.

    ``rho`` is taken as ``hermitian_part(rho, "state")``, which rejects a
    non-finite or non-Hermitian state.  Hermiticity makes rho h the adjoint
    of h rho and O_kj the adjoint of O_jk, so with A_j = l_j rho

        D_{j,k}[rho] = A_j l_k^dag - (l_k^dag A_j)/2 - (l_j^dag A_k)^dag / 2

    and A takes J + K + K(K+1)/2 + K^2 left products with a d x d matrix
    (drive images, A_j, the sandwiches for k >= j, the anticommutator
    halves): O(d^2) per nonzero diagonal of an ``Operator`` the ansatz
    stores (``BANDED_DIAGONAL_RATIO``), O(d^3) for a matrix.  Each step adds
    its part of D_{j,k} to the columns of its pair; three d x d arrays are
    held.
    """
    rho = np.asarray(rho, dtype=complex)
    dim, n_drive, n_jump = ansatz.dim, ansatz.n_drive, ansatz.n_jump
    if rho.shape != (dim, dim):
        raise DimMismatchError(
            f"state shape {rho.shape} does not match ansatz dim {dim}"
        )
    rho = hermitian_part(rho, "state")
    drives, jumps, jumps_t = ansatz._operators
    coordinates = np.zeros((dim * dim, ansatz.n_params), order="F")

    def add_parts(z: np.ndarray, scratch: np.ndarray, herm, anti=None) -> None:
        # column c += s * coordinates of z + z^dag for herm = (c, s), of i (z - z^dag) for anti
        hermitian = np.add(z, np.conjugate(z.T, out=scratch), out=scratch)
        z *= 2  # i (z - z^dag) = i (2 z - (z + z^dag))
        z -= hermitian
        z *= 1j
        for target, matrix in ((herm, hermitian), (anti, z)):
            if target is not None:
                coords = hermitian_coordinates(matrix)
                coordinates[:, target[0]] += np.multiply(coords, target[1], out=coords)

    work, part, conj_a = np.empty((3, dim, dim), dtype=complex)
    for column, h in enumerate(drives):
        # -i (h rho - rho h) = -i (z - z^dag) with z = h rho
        _left(h, rho, work)
        add_parts(work, part, None, (column, -1.0))
    for j, l_j in enumerate(jumps):
        # conj(A_j) is held: products with l_k^T then give the conjugates of
        # the products with l_k^dag, with no adjoint copy
        _left(l_j, rho, conj_a)
        np.conjugate(conj_a, out=conj_a)
        for k, l_k_t in enumerate(jumps_t):
            # work = conj(l_k^dag A_j); part = Y^dag, Y what D_{j,k} gains here
            _left(l_k_t, conj_a, work)
            if k < j:
                np.multiply(work.T, -0.5, out=part)
            else:
                # l_k A_j^dag, the adjoint of the sandwich S = A_j l_k^dag
                _left(jumps[k], conj_a.T, part)
                part -= work.T if k == j else np.multiply(work, 0.5, out=work).T
            # the pair gains (Y + Y^dag)/sqrt2 and +-i (Y - Y^dag)/sqrt2; as S
            # is Hermitian, O_jj = (Y + Y^dag)/2 for Y = S - l_j^dag A_j
            lo, hi = sorted((j, k))
            scale = 0.5 if k == j else 0.5**0.5
            anti = None if k == j else (n_drive + hi + lo * n_jump, np.sign(j - k) * scale)
            add_parts(part, work, (n_drive + lo + hi * n_jump, scale), anti)
    return coordinates


def _flow_parts(coordinates: np.ndarray, params: LindbladianParams, shape) -> np.ndarray:
    """Columns A Re z, A Im z (z = P^H phi): the coordinates of the Hermitian H
    and G with L[rho] = H + i G.  ``params`` must fit ``shape``'s J and K."""
    if params.n_drive != shape.n_drive or params.n_jump != shape.n_jump:
        raise DimMismatchError("parameter shapes do not match the ansatz")
    z = hermitian_parameter_basis(params.n_drive, params.n_jump).conj().T @ params.to_vector()
    return np.dot(coordinates, z.view(float).reshape(-1, 2))


def apply_lindbladian(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> np.ndarray:
    """Full generator action sum_j c_j H-terms + sum_jk gamma_jk D-terms on a
    Hermitian ``rho`` (a non-Hermitian one raises ``NotHermitianError``),
    formed from the coordinates of ``term_images``."""
    parts = _flow_parts(term_images(ansatz, rho), params, ansatz)
    return hermitian_from_coordinates(parts.view(complex)[:, 0], ansatz.dim)


def rapidity(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> float:
    """Squared Frobenius norm ||A Re z||^2 + ||A Im z||^2 of L[rho] for a
    Hermitian ``rho``, A from ``term_images`` and z = P^H phi."""
    parts = _flow_parts(term_images(ansatz, rho), params, ansatz)
    return float(np.vdot(parts, parts))


@functools.lru_cache(maxsize=None)
def hermitian_parameter_basis(n_drive: int, n_jump: int) -> np.ndarray:
    """Orthonormal basis P of the physical parameter vectors, as columns: the
    couplings c_j, then the rate matrices of ``hermitian_coordinates``'s
    basis, flattened row-major.  P is unitary, and P^H maps a vector with
    real c and Hermitian gamma to its real coordinates (c, coordinates of
    gamma), with the diagonal rate gamma_kk at J + k (K + 1); read-only.
    """
    basis = np.zeros((n_drive + n_jump**2,) * 2, dtype=complex)
    basis[:n_drive, :n_drive] = np.eye(n_drive)
    rates = hermitian_from_coordinates(np.eye(n_jump**2), n_jump)
    basis[n_drive:, n_drive:] = rates.reshape(n_jump**2, n_jump**2).T
    basis.flags.writeable = False
    return basis


def build_correlation_matrix(
    ansatz: LindbladAnsatz, rho: np.ndarray
) -> CorrelationMatrix:
    """Gram matrix M, entries Tr(O_mu^dag O_nu) of the term images O, and
    its real square-root factor R, built without forming M: M = P A^T A P^dag
    for the real matrix A of ``term_images`` (which rejects a non-Hermitian
    ``rho``), and QR folds A into R, ``FACTOR_BLOCK_ROWS`` rows at a time.
    """
    coordinates = term_images(ansatz, rho)
    factor = np.empty((0, ansatz.n_params))
    for lo in range(0, len(coordinates), FACTOR_BLOCK_ROWS):
        block = np.hstack([factor.T, coordinates[lo:lo + FACTOR_BLOCK_ROWS].T])
        factor = np.linalg.qr(block.T, mode="r")  # in the column order LAPACK reads
    basis = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump)
    return CorrelationMatrix(
        mat=basis @ (factor.T @ factor) @ basis.conj().T,
        n_drive=ansatz.n_drive,
        n_jump=ansatz.n_jump,
        factor=factor,
        coordinates=coordinates,
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
        from the stored coordinates with the same arithmetic."""
        parts = _flow_parts(self.corr.coordinates, params, self.corr)
        return float(np.vdot(parts, parts))


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
    Every given direction is flagged according to whether some solution has
    support on it, read from the solution's coefficients in the basis as
    given.
    """
    vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in kernel_basis]
    if not vectors:
        return SuperpositionSearchResult([], [], None)
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
    return SuperpositionSearchResult(solutions, supported, max_min_rate)
