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
from .quantum_ops import Operator

# Relative tolerance for the sign rule and for the imaginary part of the
# coordinates when unpacking a parameter vector.
UNPACK_TOL = 1e-8

# Rows of the state per call of ``term_images``: the term images are formed
# and folded into the factor of M one such block of rows at a time, which
# bounds the working arrays of every consumer of the images.
BLOCK_ROWS = 16

# PSD tolerance defining the Markovianity flag.
MARKOV_TOL = 1e-10

# Relative floor of the squared singular values below which a direction is
# dropped when the physical gauge basis is formed.
GAUGE_TOL = 1e-12


class LindbladAnsatz:
    """Ordered operator basis spanning the candidate generators.

    Each operator is a ``quantum_ops.Operator`` or a square matrix.  All
    share one dimension of at least 1 (``DimMismatchError`` otherwise) and
    have finite entries (``NonFiniteError`` otherwise); every drive generator must be Hermitian within 1e-10
    (``NotHermitianError`` otherwise), and its Hermitian part is stored.  At
    least one generator (drive or jump) is required.

    Each operator is stored once, in the type it was given: an ``Operator``
    is multiplied by one shifted product per diagonal, a matrix by
    np.matmul, and a matrix is kept as given, not copied (pass
    ``Operator.from_dense(mat)`` for the banded products of a banded
    matrix).  The K^2 operators of the anticommutators are formed once
    from the jumps: ``Operator``s for two ``Operator`` jumps, else d x d
    matrices.  ``jump_operators`` are the stored jumps.  Ansaetze compare
    equal only when they are the same object.
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
        (shape,) = dims
        if shape[0] < 1:
            raise DimMismatchError(f"operators of shape {shape} are below 1 x 1")
        h_ops = tuple(_stored(h, "drive", idx) for idx, h in enumerate(h_ops))
        jump_ops = tuple(_stored(l, "jump", idx) for idx, l in enumerate(jump_ops))
        # the drives, the jumps and the Hermitian operators of the
        # anticommutators, for the products of ``term_images``
        self._operators = (h_ops, jump_ops, _anticommutator_operators(jump_ops))

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
    stores it, in the type it was given.  A drive is replaced by its
    Hermitian part, so that rho h is exactly the adjoint of h rho in
    ``term_images`` (an exactly Hermitian one is kept, not copied); a jump is
    checked for finite entries and kept as given."""
    name = f"{kind} operator {index}"
    if kind == "drive":
        if isinstance(op, Operator):
            return op.hermitian_part(name, tol=1e-10)
        return hermitian_part(op, name, tol=1e-10)
    if isinstance(op, Operator):
        op.require_finite(name)
    else:
        require_finite(op, name)
    return op


def _matrix(op: Operator | np.ndarray) -> np.ndarray:
    return op.dense() if isinstance(op, Operator) else op


def _anticommutator_operators(
    jumps: tuple[Operator | np.ndarray, ...],
) -> tuple[Operator | np.ndarray, ...]:
    """The exactly Hermitian F_q with {F_q, rho} the anticommutator part of
    dissipator column q (``hermitian_parameter_basis`` order): with
    N = l_k^dag l_j, F = (N + N^dag)/4 for j = k, and for j < k
    (N + N^dag)/(2 sqrt2) and i (N - N^dag)/(2 sqrt2).  A product of two
    ``Operator``s is one, formed from the diagonals; any other is a matrix."""
    n_jump, scale = len(jumps), 0.5**1.5
    operators = [None] * n_jump**2
    for j, l_j in enumerate(jumps):
        for k, l_k in enumerate(jumps[j:], start=j):
            if isinstance(l_j, Operator) and isinstance(l_k, Operator):
                n = l_k.adjoint() @ l_j
                n_dag = n.adjoint()
            else:
                n = _matrix(l_k).conj().T @ _matrix(l_j)
                n_dag = n.conj().T
            if k == j:
                operators[j * (n_jump + 1)] = (n + n_dag) * 0.25
            else:
                operators[j + k * n_jump] = (n + n_dag) * scale
                operators[k + j * n_jump] = (n - n_dag) * (1j * scale)
    return tuple(operators)


def _left(op: Operator | np.ndarray, x: np.ndarray, out: np.ndarray, first: int) -> None:
    """out = rows first .. first + len(out) of op @ x: the shifted
    multiplies of an ``Operator``, else np.matmul."""
    if isinstance(op, Operator):
        op.left(x, out, first)
    else:
        np.matmul(op[first:first + len(out)], x, out=out)


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
        if self.gamma.ndim != 2 or self.gamma.shape[0] != self.gamma.shape[1]:
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


def _shaped(ansatz: LindbladAnsatz, rho: np.ndarray) -> np.ndarray:
    """``rho`` as a complex array, which must be d x d for the ansatz's d."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ansatz.dim, ansatz.dim):
        raise DimMismatchError(
            f"state shape {rho.shape} does not match ansatz dim {ansatz.dim}"
        )
    return rho


def _weights(lo: int, hi: int, dim: int) -> np.ndarray:
    """(hi - lo, dim - lo, 2) weights of the real and imaginary parts of the
    entries (r, c), lo <= r < hi, lo <= c < dim, of a Hermitian matrix, by
    which their squares sum to its squared Frobenius norm: sqrt2 for both
    parts above the diagonal, 1 for the real part on it, 0 below it, where
    the entries mirror those above."""
    weights = np.full((hi - lo, dim - lo, 2), 2**0.5)
    for row in range(hi - lo):
        weights[row, :row + 1] = 0.0
        weights[row, row, 0] = 1.0
    return weights


def term_images(ansatz: LindbladAnsatz, rho: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo .. hi - 1 of the combined term images: a complex
    (J + K^2, hi - lo, d - lo) array whose entry [q, r - lo, c - lo] is entry
    (r, c), lo <= r < hi, lo <= c < d, of the Hermitian image
    X_q = sum_mu P[mu, q] O_mu.  O are the term images of ``rho`` and P is
    ``hermitian_parameter_basis``: the drive images, D_kk, and for j < k
    (D_jk + D_kj)/sqrt2 at J + j + k K and i (D_jk - D_kj)/sqrt2 at
    J + k + j K.

    ``rho`` must be exactly Hermitian, as ``hermitian_part`` returns it: rho h
    is then the adjoint of h rho, and the rows of rho F are the adjoints of
    columns of F rho.  With S_jk = l_j rho l_k^dag, the adjoint of a block
    of rows of S_jk is l_k (l_j rho)^dag restricted to columns, and

        D_jk + D_kj = S_jk + S_kj - {N + N^dag, rho}/2,  N = l_k^dag l_j,

    with the Hermitian F_q of the anticommutators formed once by the
    ansatz.  A block takes 2 J + K + 3 K^2 products of an operator with a
    slice of rho or of l_j rho: O(b d) per nonzero diagonal of an
    ``Operator`` for b = hi - lo rows, O(b d^2) for a matrix.
    """
    rho = _shaped(ansatz, rho)
    dim, n_drive, n_jump = ansatz.dim, ansatz.n_drive, ansatz.n_jump
    drives, jumps, anticommutators = ansatz._operators
    rows, width = hi - lo, dim - lo
    images = np.empty((ansatz.n_params, rows, width), dtype=complex)
    part, adjoint = np.empty((rows, width), dtype=complex), np.empty((width, rows), dtype=complex)

    def subtract_adjoint(image: np.ndarray) -> None:
        # image -= adjoint^dag, the rows of the adjoint of what adjoint holds
        image -= np.conjugate(adjoint, out=adjoint).T

    for column, h in enumerate(drives):
        # -i (h rho - rho h), with rho h the adjoint of h rho
        _left(h, rho[:, lo:], images[column], lo)
        _left(h, rho[:, lo:hi], adjoint, lo)
        subtract_adjoint(images[column])
        images[column] *= -1j
    # conj(l_j rho) on the rows of the block: the adjoint of its transpose
    # is the right factor of the sandwiches
    conj_a = np.empty((n_jump, rows, dim), dtype=complex)
    for j, l_j in enumerate(jumps):
        _left(l_j, rho, conj_a[j], lo)
        np.conjugate(conj_a[j], out=conj_a[j])
    for j in range(n_jump):
        for k in range(j, n_jump):
            # adjoint holds the adjoint of the block's rows of S_jk, and
            # then of S_kj, whose rows part takes
            _left(jumps[k], conj_a[j].T, adjoint, lo)
            if k == j:
                np.conjugate(adjoint.T, out=images[n_drive + j * (n_jump + 1)])
                continue
            plus, minus = images[n_drive + j + k * n_jump], images[n_drive + k + j * n_jump]
            np.conjugate(adjoint.T, out=plus)
            _left(jumps[j], conj_a[k].T, adjoint, lo)
            np.conjugate(adjoint.T, out=part)
            np.subtract(plus, part, out=minus)
            plus += part
            plus *= 0.5**0.5
            minus *= 1j * 0.5**0.5
    for column, f in enumerate(anticommutators, start=n_drive):
        # - F rho - rho F, with rho F the adjoint of F rho
        _left(f, rho[:, lo:], part, lo)
        images[column] -= part
        _left(f, rho[:, lo:hi], adjoint, lo)
        subtract_adjoint(images[column])
    return images


def _blocks(ansatz: LindbladAnsatz) -> list[tuple[int, int]]:
    """Row ranges (lo, hi) of the blocks of ``term_images``: ``BLOCK_ROWS``
    rows, but no more than d / (J + K^2), so that the images of a block take
    no more bytes than the state."""
    dim = ansatz.dim
    rows = max(1, min(BLOCK_ROWS, dim // ansatz.n_params))
    return [(lo, min(lo + rows, dim)) for lo in range(0, dim, rows)]


def _flow_pair(params: LindbladianParams, n_drive: int, n_jump: int) -> np.ndarray:
    """(J + K^2, 2) columns Re z, Im z of z = P^H phi: the images combined by
    them are the Hermitian H and G with L[rho] = H + i G.  ``params`` must
    have ``n_drive`` couplings and an ``n_jump`` x ``n_jump`` rate matrix."""
    if params.n_drive != n_drive or params.n_jump != n_jump:
        raise DimMismatchError("parameter shapes do not match the ansatz")
    z = hermitian_parameter_basis(n_drive, n_jump).conj().T @ params.to_vector()
    return z.view(float).reshape(-1, 2)


def _flow_norm(factor: np.ndarray, params: LindbladianParams, n_drive: int, n_jump: int) -> float:
    """||R Re z||^2 + ||R Im z||^2 = ||A Re z||^2 + ||A Im z||^2, as
    R^T R = A^T A: the squared Frobenius norm of L[rho]."""
    parts = factor @ _flow_pair(params, n_drive, n_jump)
    return float(np.vdot(parts, parts))


def apply_lindbladian(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> np.ndarray:
    """Full generator action sum_j c_j H-terms + sum_jk gamma_jk D-terms on a
    Hermitian ``rho`` (a non-Hermitian one raises ``NotHermitianError``),
    assembled from the blocks of ``term_images``: each gives the entries of
    L[rho] = H + i G in its rows from the block's diagonal on, and their
    conjugate mirrors below the block."""
    rho = hermitian_part(_shaped(ansatz, rho), "state")
    pair, dim = _flow_pair(params, ansatz.n_drive, ansatz.n_jump), ansatz.dim
    out = np.empty((dim, dim), dtype=complex)
    for lo, hi in _blocks(ansatz):
        h, g = np.tensordot(pair.T, term_images(ansatz, rho, lo, hi), axes=1)
        out[lo:hi, lo:] = h + 1j * g
        out[hi:, lo:hi] = (h[:, hi - lo:].conj() + 1j * g[:, hi - lo:].conj()).T
    return out


def rapidity(
    params: LindbladianParams, ansatz: LindbladAnsatz, rho: np.ndarray
) -> float:
    """Squared Frobenius norm of L[rho] for a Hermitian ``rho``:
    ||R Re z||^2 + ||R Im z||^2 for the factor R of
    ``build_correlation_matrix`` and z = P^H phi."""
    factor = build_correlation_matrix(ansatz, rho)
    return _flow_norm(factor, params, ansatz.n_drive, ansatz.n_jump)


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


def build_correlation_matrix(ansatz: LindbladAnsatz, rho: np.ndarray) -> np.ndarray:
    """Real upper-triangular square-root factor R, J + K^2 columns and at
    most as many rows, of the Gram matrix M, entries Tr(O_mu^dag O_nu) of
    the term images O: M = P R^T R P^dag for P from
    ``hermitian_parameter_basis``, with rows/columns 0..J-1 of M the drive
    terms in ansatz order and J..J+K^2-1 the dissipator terms (j, k)
    row-major.  Neither M nor the coordinates A of the images is formed:
    QR folds each block of ``term_images`` into R as it is formed,
    ``BLOCK_ROWS`` rows of ``rho`` at a time (a non-Hermitian ``rho`` is
    rejected).  The real and imaginary parts of a block's entries, times
    ``_weights``, are rows that hold the coordinates of
    ``hermitian_coordinates`` up to rows of zeros and an orthogonal map, as
    the images are Hermitian, so R^T R = A^T A.
    """
    rho = hermitian_part(_shaped(ansatz, rho), "state")
    factor = np.empty((0, ansatz.n_params))
    for lo, hi in _blocks(ansatz):
        coordinates = term_images(ansatz, rho, lo, hi).view(float)
        coordinates *= _weights(lo, hi, ansatz.dim).reshape(hi - lo, -1)
        block = np.linalg.qr(coordinates.reshape(ansatz.n_params, -1).T, mode="r")
        factor = np.linalg.qr(np.vstack([factor, block]), mode="r")
    return factor


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

    ``factor`` is the R of ``build_correlation_matrix`` for an ansatz of J =
    ``n_drive`` drives and K = ``n_jump`` jumps.  ``spectrum`` is the
    spectrum of M, ascending; column ``k`` of ``eigenvectors`` is the packed
    (c, gamma row-major) unit eigenvector of ``spectrum[k]``.  The first
    ``kernel_dim`` columns span the null space, and ``solutions`` holds them
    unpacked, in the same order.
    """

    factor: np.ndarray
    n_drive: int
    n_jump: int
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
        from the stored factor with the same arithmetic."""
        return _flow_norm(self.factor, params, self.n_drive, self.n_jump)


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
    factor = build_correlation_matrix(ansatz, rho)
    spectrum, vectors, kernel_dim = extract_kernel(factor, tol_null)
    eigenvectors = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump) @ vectors
    # contiguous rows, as kernel_vectors gives them, so both unpack bit-equal
    solutions = [
        unpack_kernel_vector(v, ansatz.n_drive, ansatz.n_jump)
        for v in eigenvectors.T[:kernel_dim].copy()
    ]
    return ReconstructionResult(
        factor, ansatz.n_drive, ansatz.n_jump, spectrum, eigenvectors, solutions
    )


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
