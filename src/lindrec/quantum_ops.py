"""Operators and states: banded operators held by their diagonals, the
truncated bosonic Fock space, the maximal collective spin sector, and the
white-noise mixing map.

The ladder, quadrature and spin operators are built from their diagonals,
so none of them is formed as a dense d x d matrix above the banded
crossover.  States are built from explicit basis amplitudes rather than by
exponentiating displacement or squeeze operators, so truncation errors stay
controlled and each constructor can verify its own defining relation.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, DimMismatchError, EpsOutOfRangeError
from .numerics import hermitian_part, require_finite, require_near_hermitian

# Acceptable norm lost to the Fock truncation.
NORM_DEFICIT_TOL = 1e-12

# An operator with n nonzero diagonals is held by its diagonals, and
# multiplied by one shifted product per diagonal, when
# BANDED_DIAGONAL_RATIO * n <= d, and held as a dense matrix for np.matmul
# otherwise.  Measured against np.matmul with d x d complex operands (2 vCPU,
# OpenBLAS with 2 threads): the banded product of a C-ordered operand wins
# up to about d / 30 diagonals from d = 41 to 401; at d <= 21 np.matmul wins
# even for one diagonal.  On the model ansaetze this ratio makes
# ``engine.term_images`` as fast as all-dense products at d = 41 and 1.6-2x
# faster from d = 81 on.
BANDED_DIAGONAL_RATIO = 40

# Rows of a banded product formed per shifted multiply, which bounds its
# block buffer.
BANDED_BLOCK_ROWS = 32


class Operator:
    """A d x d operator, held by its diagonals when it has at most
    d / BANDED_DIAGONAL_RATIO nonzero ones and as a dense matrix otherwise.

    ``Operator(dim, diagonals)`` builds it from (offset o, values) pairs,
    values listing diagonal o as ``np.diagonal`` does; all-zero diagonals
    are dropped.  ``Operator.from_dense(mat)`` finds the nonzero diagonals
    of a square matrix.  A banded operator keeps ``dim`` and ``diagonals``,
    a list of (offset o, values) in ascending offset with values[r] =
    mat[r, r + o], zero where r + o lies outside the matrix, and ``mat`` is
    None; any other keeps ``mat``, and ``diagonals`` is None.  ``dense()``
    forms the matrix.  Sums, differences, scalar multiples, the transpose
    ``T`` and ``adjoint()`` are new operators, formed entry by entry as on
    the dense matrices: on the diagonals when the operands are banded.  No
    operation changes an operator in place.
    """

    __array_ufunc__ = None  # numpy scalars and arrays defer to the operators below

    def __init__(self, dim: int, diagonals: Iterable[tuple[int, np.ndarray]] = ()):
        self.dim, self.mat, self.diagonals = dim, None, []
        diagonals = sorted(diagonals, key=lambda pair: pair[0])
        offsets = [offset for offset, _ in diagonals]
        if len(set(offsets)) != len(offsets):
            raise DimMismatchError(f"repeated diagonal offset in {offsets}")
        for offset, values in diagonals:
            values = np.asarray(values, dtype=complex)
            lo, hi = max(0, -offset), dim - max(0, offset)
            if values.shape != (hi - lo,):
                raise DimMismatchError(
                    f"diagonal {offset} of shape {values.shape} in dimension {dim}"
                )
            if values.any():
                padded = np.zeros(dim, dtype=complex)
                padded[lo:hi] = values
                self.diagonals.append((offset, padded))
        if BANDED_DIAGONAL_RATIO * len(self.diagonals) > dim:
            self.mat, self.diagonals = self.dense(), None

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> Operator:
        """The operator of the square matrix ``mat``: banded when it has few
        enough nonzero diagonals, else holding ``mat`` itself."""
        mat = np.asarray(mat, dtype=complex)
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
                    return cls._holding(mat)
                offsets.append(offset)
                remaining -= count
        return cls(dim, [(offset, np.diagonal(mat, offset)) for offset in offsets])

    @classmethod
    def _holding(cls, mat: np.ndarray) -> Operator:
        op = cls(mat.shape[0])
        op.mat, op.diagonals = mat, None
        return op

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def dense(self) -> np.ndarray:
        """``mat``, or a new d x d array formed from the diagonals."""
        if self.diagonals is None:
            return self.mat
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for offset, values in self.diagonals:
            rows = np.arange(max(0, -offset), self.dim - max(0, offset))
            mat[rows, rows + offset] = values[rows]
        return mat

    def diagonal(self, offset: int) -> np.ndarray:
        """Diagonal ``offset`` as ``np.diagonal`` lists it; zeros for one a
        banded operator does not hold.  Not to be written to."""
        if self.diagonals is None:
            return np.diagonal(self.mat, offset)
        lo, hi = max(0, -offset), self.dim - max(0, offset)
        for held, values in self.diagonals:
            if held == offset:
                return values[lo:hi]
        return np.zeros(max(0, hi - lo), dtype=complex)

    def _offsets(self) -> list[int]:
        return [offset for offset, _ in self.diagonals]

    def _map(self, func) -> Operator:
        # func maps zero to zero, so it acts on the diagonals alone
        if self.diagonals is None:
            return Operator.from_dense(func(self.mat))
        return Operator(self.dim, [(o, func(self.diagonal(o))) for o in self._offsets()])

    def _combine(self, other, ufunc) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        if other.dim != self.dim:
            raise DimMismatchError(f"operators of dimension {self.dim} and {other.dim}")
        if self.diagonals is None or other.diagonals is None:
            return Operator.from_dense(ufunc(self.dense(), other.dense()))
        offsets = sorted(set(self._offsets()) | set(other._offsets()))
        return Operator(
            self.dim, [(o, ufunc(self.diagonal(o), other.diagonal(o))) for o in offsets]
        )

    def __add__(self, other) -> Operator:
        return self._combine(other, np.add)

    def __sub__(self, other) -> Operator:
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> Operator:
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self._map(lambda values: scalar * values)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> Operator:
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return self._map(lambda values: values / scalar)

    @property
    def T(self) -> Operator:
        if self.diagonals is None:
            return Operator._holding(self.mat.T)
        return Operator(self.dim, [(-o, self.diagonal(o)) for o in self._offsets()])

    def adjoint(self) -> Operator:
        if self.diagonals is None:
            return Operator._holding(self.mat.conj().T)
        return Operator(self.dim, [(-o, self.diagonal(o).conj()) for o in self._offsets()])

    def require_finite(self, name: str) -> None:
        """``numerics.require_finite`` on the entries held."""
        held = [self.mat] if self.diagonals is None else [v for _, v in self.diagonals]
        for values in held:
            require_finite(values, name)

    def hermitian_part(self, name: str, tol: float) -> Operator:
        """``numerics.hermitian_part`` of the operator: itself when it is
        exactly Hermitian, else (A + A^dag)/2, with the same errors.  A
        banded operator is checked and averaged on its diagonals, in O(d)."""
        if self.diagonals is None:
            part = hermitian_part(self.mat, name, tol)
            return self if part is self.mat else Operator.from_dense(part)
        self.require_finite(name)
        offsets = sorted({o for held in self._offsets() for o in (held, -held)})
        pairs = [(self.diagonal(o), self.diagonal(-o).conj()) for o in offsets]
        diff = [values - adjoint for values, adjoint in pairs]
        if not any(d.any() for d in diff):
            return self
        require_near_hermitian(
            np.concatenate([values for values, _ in pairs]), np.concatenate(diff), name, tol
        )
        return Operator(
            self.dim, [(o, (values + adjoint) / 2) for o, (values, adjoint) in zip(offsets, pairs)]
        )

    def left(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = mat @ x, in O(n d^2) for n diagonals of a banded operator.
        ``out`` must not overlap ``x`` and is best C-ordered; ``x`` may be
        a transposed view."""
        if self.diagonals is None:
            np.matmul(self.mat, x, out=out)
            return
        dim = x.shape[0]
        block = np.empty((min(BANDED_BLOCK_ROWS, dim), dim), dtype=complex)
        diagonals = self.diagonals or [(0, np.zeros(dim, dtype=complex))]
        shift = diagonals[0][0]
        out[:max(0, -shift)], out[dim - max(0, shift):] = 0, 0
        for index, (offset, values) in enumerate(diagonals):
            # row r gains values[r] * x[r + offset], a block of rows at a
            # time; the first diagonal is written into out directly
            stop = dim - max(0, offset)
            for lo in range(max(0, -offset), stop, len(block)):
                hi = min(lo + len(block), stop)
                part = out[lo:hi] if index == 0 else block[:hi - lo]
                np.multiply(values[lo:hi, None], x[lo + offset:hi + offset], out=part)
                if index:
                    out[lo:hi] += part


@dataclass(frozen=True)
class BosonOps:
    a: Operator
    a_dag: Operator
    x: Operator
    p: Operator


def boson_ops(n_max: int) -> BosonOps:
    """Ladder operators on the Fock states |0> .. |n_max> and the quadratures
    x = (a + a^dag)/sqrt2, p = i(a^dag - a)/sqrt2, built from the one
    superdiagonal sqrt(n) of a."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = Operator(n_max + 1, [(1, np.sqrt(np.arange(1, n_max + 1)))])
    a_dag = a.adjoint()
    x = (a + a_dag) / np.sqrt(2)
    p = 1j * (a_dag - a) / np.sqrt(2)
    return BosonOps(a=a, a_dag=a_dag, x=x, p=p)


def coherent_cutoff(alpha: complex) -> float:
    """Smallest Fock cutoff n_max that ``coherent_state`` accepts for ``alpha``."""
    size = abs(alpha)
    return 10 * max(4.0, size * size)  # a float product saturates at inf


def coherent_state(n_max: int, alpha: complex) -> np.ndarray:
    """Density matrix of the coherent state |alpha><alpha| on the Fock states
    |0> .. |n_max>.

    Built from the Fock amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!) and
    renormalized after truncation.  Raises if ``n_max`` is below
    ``coherent_cutoff(alpha)`` or the truncated norm deficit exceeds
    ``NORM_DEFICIT_TOL``.
    """
    alpha = complex(alpha)
    if n_max < coherent_cutoff(alpha):
        raise CutoffTooSmallError(
            f"n_max={n_max} too small for |alpha|^2={abs(alpha) * abs(alpha):.3g}"
        )
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(n_max):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1)
    deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if deficit > NORM_DEFICIT_TOL:
        raise CutoffTooSmallError(f"truncated norm deficit {deficit:.3e} > 1e-12")
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def squeezed_cutoff(r: float) -> float:
    """Smallest Fock cutoff n_max that ``squeezed_vacuum`` accepts for ``r``."""
    with np.errstate(over="ignore"):  # sinh(r)^2 saturates at inf
        return 20 + 20 * np.sinh(r) ** 2


def squeezed_vacuum(n_max: int, r: float, theta: float = 0.0) -> np.ndarray:
    """Density matrix of the squeezed vacuum with parameter xi = r e^{i theta}
    on the Fock states |0> .. |n_max>.

    Even-Fock amplitudes follow the two-step recursion fixed by b|xi> = 0;
    the analytic norm sum_m |c_2m|^2 = cosh(r) (with c_0 = 1) gives an exact
    truncation-deficit check.  The constructor verifies ||b psi|| < 1e-8 on
    the normalized amplitudes psi, which equals ||b rho||_F for rho = psi psi^dag.
    """
    if r < 0:
        raise ValueError("squeeze parameter r must be >= 0")
    if n_max < squeezed_cutoff(r):
        raise CutoffTooSmallError(
            f"n_max={n_max} below the floor 20 + 20 sinh(r)^2 for r={r}"
        )
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = 1.0
    factor = -np.exp(1j * theta) * np.tanh(r)
    n = 0
    while n + 2 <= n_max:
        amps[n + 2] = factor * np.sqrt((n + 1) / (n + 2)) * amps[n]
        n += 2
    captured = float(np.sum(np.abs(amps) ** 2))
    deficit = 1.0 - captured / np.cosh(r)
    if deficit > NORM_DEFICIT_TOL:
        raise CutoffTooSmallError(f"even-Fock tail {deficit:.3e} > 1e-12")
    amps /= np.sqrt(captured)
    # (b psi)_n = cosh(r) sqrt(n + 1) psi_{n+1} + e^{i theta} sinh(r) sqrt(n) psi_{n-1}
    root = np.sqrt(np.arange(1, n_max + 1))
    b_psi = np.append(np.cosh(r) * root * amps[1:], 0.0)
    b_psi[1:] += np.exp(1j * theta) * np.sinh(r) * root * amps[:-1]
    self_check = float(np.linalg.norm(b_psi))
    if self_check > 1e-8:
        raise CutoffTooSmallError(f"||b psi|| = {self_check:.3e} fails the self-check")
    return np.outer(amps, amps.conj())


@dataclass(frozen=True)
class SpinOps:
    sx: Operator
    sy: Operator
    sz: Operator
    sp: Operator
    sm: Operator


def spin_ops(n_spins: int) -> SpinOps:
    """Collective spin operators on the maximal angular momentum sector of
    ``n_spins`` spin-1/2 particles (dim n_spins + 1), Sz diagonal S .. -S,
    built from the diagonal of Sz and the superdiagonal of S+."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    s = n_spins / 2.0
    m = s - np.arange(n_spins + 1)
    sz = Operator(n_spins + 1, [(0, m)])
    sp = Operator(n_spins + 1, [(1, np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)))])
    sm = sp.adjoint()
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    return SpinOps(sx=sx, sy=sy, sz=sz, sp=sp, sm=sm)


def mix_with_identity(rho: np.ndarray, eps: float) -> np.ndarray:
    """White-noise mixture (1 - eps) rho + eps I / d with the maximally mixed state.

    The identity lives on the same sector as ``rho``.  No renormalization is
    applied, so a trace-1 input gives a trace-1 output up to roundoff.
    """
    if not 0.0 <= eps <= 1.0:
        raise EpsOutOfRangeError(f"eps={eps} outside [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimMismatchError(f"density matrix must be square, got {rho.shape}")
    dim = rho.shape[0]
    return (1.0 - eps) * rho + eps * np.eye(dim) / dim

