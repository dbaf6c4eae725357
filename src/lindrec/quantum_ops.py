"""Operators and states: operators held by their diagonals, the truncated
bosonic Fock space, the maximal collective spin sector, and the white-noise
mixing map.

The ladder, quadrature and spin operators are built from their diagonals,
so none of them is formed as a dense d x d matrix.  States are built from
explicit basis amplitudes rather than by exponentiating displacement or
squeeze operators, so truncation errors stay controlled and each
constructor can verify its own defining relation.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, DimMismatchError, EpsOutOfRangeError
from .numerics import _as_square, _require_asymmetry, hermitian_part, require_finite

# Acceptable norm lost to the Fock truncation.
NORM_DEFICIT_TOL = 1e-12


class Operator:
    """A d x d operator held by its nonzero diagonals.

    ``Operator(dim, diagonals)`` builds it from (offset o, values) pairs,
    values listing diagonal o as ``np.diagonal`` does; all-zero diagonals
    are dropped.  ``Operator.from_dense(mat)`` finds the nonzero diagonals
    of a square matrix.  ``diagonals`` lists the (offset o, values) pairs
    held, in ascending offset, each values array of length d - |o|, and
    ``dense()`` forms the matrix.  Sums, differences, scalar multiples and
    ``adjoint()`` are new operators, formed entry by entry on the diagonals
    as on the dense matrices.  No operation changes an operator in place.
    """

    __array_ufunc__ = None  # numpy scalars and arrays defer to the operators below

    def __init__(self, dim: int, diagonals: Iterable[tuple[int, np.ndarray]] = ()):
        self.dim, self.diagonals = dim, []
        diagonals = sorted(diagonals, key=lambda pair: pair[0])
        offsets = [offset for offset, _ in diagonals]
        if len(set(offsets)) != len(offsets):
            raise DimMismatchError(f"repeated diagonal offset in {offsets}")
        for offset, values in diagonals:
            values = np.array(values, dtype=complex)  # a copy, never the caller's array
            if values.shape != (dim - abs(offset),):
                raise DimMismatchError(
                    f"diagonal {offset} of shape {values.shape} in dimension {dim}"
                )
            if values.any():
                self.diagonals.append((offset, values))

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> Operator:
        """The operator of the square matrix ``mat`` (``NonSquareError``
        otherwise), from its nonzero diagonals."""
        mat = _as_square(mat)
        nonzero = mat != 0
        offsets = range(1 - len(mat), len(mat))
        return cls(
            len(mat), [(o, np.diagonal(mat, o)) for o in offsets if np.diagonal(nonzero, o).any()]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def dense(self) -> np.ndarray:
        """A new d x d array formed from the diagonals."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for offset, values in self.diagonals:
            rows = np.arange(len(values)) + max(0, -offset)
            mat[rows, rows + offset] = values
        return mat

    def diagonal(self, offset: int) -> np.ndarray:
        """Diagonal ``offset`` as ``np.diagonal`` lists it; zeros for one the
        operator does not hold.  Not to be written to."""
        return dict(self.diagonals).get(offset, np.zeros(max(0, self.dim - abs(offset)), complex))

    def _map(self, func) -> Operator:
        # func maps zero to zero, so it acts on the diagonals alone
        return Operator(self.dim, [(o, func(values)) for o, values in self.diagonals])

    def _combine(self, other, ufunc) -> Operator:
        if not isinstance(other, Operator):
            return NotImplemented
        if other.dim != self.dim:
            raise DimMismatchError(f"operators of dimension {self.dim} and {other.dim}")
        offsets = {o for o, _ in self.diagonals} | {o for o, _ in other.diagonals}
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

    def __matmul__(self, other) -> Operator:
        """The product, diagonal by diagonal: diagonals o and p of the
        factors add to diagonal o + p, in O(d) per pair."""
        if not isinstance(other, Operator):
            return NotImplemented
        if other.dim != self.dim:
            raise DimMismatchError(f"operators of dimension {self.dim} and {other.dim}")
        dim, products = self.dim, {}
        for o, left in self.diagonals:
            for p, right in other.diagonals:
                # row r gains left[r, r + o] * right[r + o, r + o + p] for the
                # rows where all three indices lie in range
                start, stop = max(0, -o, -o - p), min(dim, dim - o, dim - o - p)
                if start < stop:
                    values = products.setdefault(o + p, np.zeros(dim - abs(o + p), complex))
                    values[start - max(0, -o - p):stop - max(0, -o - p)] += (
                        left[start - max(0, -o):stop - max(0, -o)]
                        * right[start + o - max(0, -p):stop + o - max(0, -p)]
                    )
        return Operator(dim, products.items())

    def adjoint(self) -> Operator:
        return Operator(self.dim, [(-o, values.conj()) for o, values in self.diagonals])

    def require_finite(self, name: str) -> None:
        """``numerics.require_finite`` on the entries held."""
        for _, values in self.diagonals:
            require_finite(values, name)

    def hermitian_part(self, name: str, tol: float) -> Operator:
        """``numerics.hermitian_part`` of the operator: itself when it is
        exactly Hermitian, else (A + A^dag)/2, with the same errors; checked
        and averaged on the diagonals, in O(d) per diagonal."""
        self.require_finite(name)
        adjoint = self.adjoint()
        diff = self - adjoint
        if not diff.diagonals:
            return self
        # the asymmetry ||A - A^dag|| / max(1, ||A||) from the entries held
        held, differences = (np.concatenate([v for _, v in op.diagonals]) for op in (self, diff))
        asym = float(np.linalg.norm(differences) / max(1.0, np.linalg.norm(held)))
        _require_asymmetry(asym, name, tol)
        return (self + adjoint) / 2

    def left(self, x: np.ndarray, out: np.ndarray, first: int = 0) -> None:
        """out = rows first .. first + len(out) of mat @ x, for x with d
        rows: one shifted multiply per diagonal, reading the rows of x within
        the bandwidth of those rows, in O(n len(out) m) for n diagonals and m
        columns.  ``out`` must not overlap ``x``; ``x`` may be a transposed
        view."""
        last = first + len(out)
        out[...] = 0
        for offset, values in self.diagonals:
            # row r gains values[r - skip] * x[r + offset]
            skip = max(0, -offset)
            start, stop = max(first, skip), min(last, self.dim - max(0, offset))
            if start < stop:
                out[start - first:stop - first] += (
                    values[start - skip:stop - skip, None] * x[start + offset:stop + offset]
                )


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

    Built from the Fock amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!),
    renormalized after truncation, as the exactly Hermitian part of their
    outer product.  Raises if ``n_max`` is below
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
    return hermitian_part(np.outer(amps, amps.conj()), "state")


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
    the normalized amplitudes psi, which equals ||b rho||_F for rho = psi psi^dag,
    returned as its exactly Hermitian part.
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
    return hermitian_part(np.outer(amps, amps.conj()), "state")


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

