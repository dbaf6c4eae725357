"""Dense complex linear algebra: the check and symmetrization of Hermitian
inputs, the real coordinates of Hermitian matrices, Hermitian
eigenproblems, null-space extraction from a square-root factor,
eigenvalue clamping, and the log-log regression used by the scaling fits.

Everything operates on plain numpy arrays and is a pure function of its
inputs; the heavy lifting is delegated to LAPACK through numpy.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import (
    NonFiniteError,
    NonPositiveDataError,
    NonSquareError,
    NotHermitianError,
    TooFewPointsError,
)

# Relative eigenvalue threshold below which a mode counts as null.
DEFAULT_NULL_TOL = 1e-10

# Relative asymmetry above which a matrix is rejected instead of symmetrized.
HERMITICITY_REJECT_TOL = 1e-8


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_finite(a: np.ndarray, name: str) -> None:
    """Raise ``NonFiniteError`` naming ``name`` when ``a`` holds a NaN or an
    infinity; ``asymmetry`` is NaN then, and a tolerance check passes it."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{name} has a non-finite entry")


def asymmetry(a: np.ndarray) -> float:
    """Deviation of ``a`` from its conjugate transpose, relative to max(1, ||a||)."""
    return _hermitian_defect(_as_square(a))[0]


def _hermitian_defect(a: np.ndarray) -> tuple[float, bool]:
    """``asymmetry`` of a square ``a`` and whether A equals A^dag entry by
    entry, formed 32 rows at a time, so that no second n x n array is held."""
    step = 32
    squares, exact = 0.0, True
    for lo in range(0, len(a), step):
        diff = a[lo:lo + step] - a[:, lo:lo + step].conj().T
        squares += float(np.linalg.norm(diff)) ** 2
        exact = exact and not diff.any()
    return squares**0.5 / max(1.0, float(np.linalg.norm(a))), exact


def _require_asymmetry(asym: float, name: str, tol: float) -> None:
    """Raise ``NotHermitianError`` naming ``name`` when the asymmetry
    ``asym`` of a matrix exceeds ``tol``."""
    if asym > tol:
        raise NotHermitianError(f"{name} asymmetry {asym:.3e} exceeds {tol:g}")


def hermitian_part(
    a: np.ndarray, name: str, tol: float = HERMITICITY_REJECT_TOL
) -> np.ndarray:
    """Hermitian part (A + A^dag)/2 of a square matrix that is Hermitian
    within ``tol``, or ``a`` itself, not a copy, when it is exactly Hermitian.

    A non-finite entry raises ``NonFiniteError`` and an asymmetry above
    ``tol`` raises ``NotHermitianError``, each naming ``name``.
    """
    a = _as_square(a)
    require_finite(a, name)
    asym, exact = _hermitian_defect(a)
    _require_asymmetry(asym, name, tol)
    if exact:
        return a
    return (a + a.conj().T) / 2


@functools.lru_cache(maxsize=None)
def _above_diagonal(dim: int) -> np.ndarray:
    mask = np.triu(np.ones((dim, dim), dtype=bool), 1)
    mask.flags.writeable = False  # one array for every caller
    return mask


def hermitian_coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates U^H vec(rho) of a Hermitian matrix, or of each one in
    a stack on leading axes, read row by row: the real part on and below the
    diagonal and the imaginary part above it, times sqrt(2) off the diagonal.

    U is the orthonormal basis of Hermitian d x d matrices, column-stacked:
    E_ii at the position i + i d of (i, i); for i < j, (E_ij + E_ji)/sqrt(2)
    at that of (i, j) and i(E_ij - E_ji)/sqrt(2) at that of (j, i).  The
    trace is the sum of the coordinates at arange(d) * (d + 1).
    """
    rho = np.asarray(rho, dtype=complex)
    coords = np.where(_above_diagonal(rho.shape[-1]), rho.imag, rho.real)
    coords *= 2**0.5
    diagonal = np.arange(rho.shape[-1])
    coords[..., diagonal, diagonal] = rho.real[..., diagonal, diagonal]
    return coords.reshape(rho.shape[:-2] + (-1,))


def hermitian_from_coordinates(coords: np.ndarray, dim: int) -> np.ndarray:
    """Hermitian matrix with the real coordinates ``coords`` (or a stack);
    inverse of ``hermitian_coordinates``.  Complex coordinates g + i h give
    the matrix of g plus i times the matrix of h."""
    grid = np.asarray(coords).reshape(np.shape(coords)[:-1] + (dim, dim))
    # X[a, a] on the diagonal, (X[a, b] - i X[b, a]) / sqrt2 below it, i times that above
    out = (grid - 1j * np.swapaxes(grid, -1, -2)) / 2**0.5
    np.multiply(out, 1j, out=out, where=_above_diagonal(dim))
    diagonal = np.arange(dim)
    out[..., diagonal, diagonal] = grid[..., diagonal, diagonal]
    return out


def is_psd(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Hermitian within ``tol`` and smallest eigenvalue >= -tol * max(1, largest).

    An empty (0 x 0) matrix, the rate matrix of a drive-only ansatz, is PSD.
    """
    try:
        a = hermitian_part(a, "matrix", tol=max(tol, HERMITICITY_REJECT_TOL))
    except (NonSquareError, NonFiniteError, NotHermitianError):
        return False
    w = np.linalg.eigvalsh(a)
    if w.size == 0:
        return True
    scale = max(1.0, float(w[-1]))
    return bool(w[0] >= -tol * scale)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a (numerically) Hermitian matrix, as
    ``np.linalg.eigh`` returns it: ``w`` ascending, column ``k`` of ``v``
    the unit eigenvector of ``w[k]``.

    The decomposition is of ``hermitian_part(a, "matrix")``: a non-finite
    entry or an asymmetry beyond ``HERMITICITY_REJECT_TOL`` raises instead.
    """
    return np.linalg.eigh(hermitian_part(a, "matrix"))


def extract_kernel(
    a: np.ndarray, tol_null: float = DEFAULT_NULL_TOL
) -> tuple[np.ndarray, np.ndarray, int]:
    """Null space of a^H a, read from the SVD of the factor ``a`` (m x n).

    a^H a is never formed, so its small eigenvalues are not lost below the
    roundoff floor of a squared matrix.  Returns ``(spectrum, eigenvectors,
    kernel_dim)``: the spectrum is s^2 in ascending order, with a zero for
    each column beyond the rank bound min(m, n); the eigenvectors, as
    columns in the same order, are the right singular vectors; a^H a is PSD
    by construction.  The first ``kernel_dim`` columns span the null space:
    their eigenvalues lie below ``tol_null * max(1, largest eigenvalue)``,
    and ``ValueError`` is raised unless 0 < tol_null < 1.
    """
    if not 0 < tol_null < 1:  # also False for NaN
        raise ValueError(f"tol_null must lie in (0, 1), got {tol_null!r}")
    a = np.asarray(a)
    _, s, vh = np.linalg.svd(a)
    w = np.zeros(vh.shape[0])
    w[: s.size] = s**2
    threshold = tol_null * max(1.0, float(np.max(w, initial=0.0)))
    spectrum = w[::-1]
    return spectrum, vh[::-1].conj().T, int(np.sum(spectrum < threshold))


def positive_part(a: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues of a Hermitian matrix to zero.

    Same eigenbasis, eigenvalues lambda -> max(lambda, 0); the result is PSD.
    """
    w, v = eigh(a)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


class LogLogFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    ss_res: float


def loglog_fit(xs: np.ndarray, ys: np.ndarray) -> LogLogFit:
    """Ordinary least squares of log(y) against log(x).

    Needs at least three strictly positive points; returns slope, intercept,
    the coefficient of determination and the sum of squared log residuals.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise NonPositiveDataError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise TooFewPointsError(f"need at least 3 points, got {xs.size}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise NonPositiveDataError("log-log fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-24 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return LogLogFit(float(slope), float(intercept), float(r2), ss_res)
