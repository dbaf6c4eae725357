"""Dense complex linear algebra: Hermitian eigenproblems, null-space
extraction from a square-root factor, eigenvalue clamping, and the log-log
regression used by the scaling fits.

Everything operates on plain numpy arrays and is a pure function of its
inputs; the heavy lifting is delegated to LAPACK through numpy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
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


def asymmetry(a: np.ndarray) -> float:
    """Deviation of ``a`` from its conjugate transpose, relative to max(1, ||a||)."""
    a = _as_square(a)
    return float(np.linalg.norm(a - a.conj().T) / max(1.0, np.linalg.norm(a)))


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return asymmetry(a) <= tol


def is_psd(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Hermitian within ``tol`` and smallest eigenvalue >= -tol * max(1, largest).

    An empty (0 x 0) matrix, the rate matrix of a drive-only ansatz, is PSD.
    """
    if not is_hermitian(a, max(tol, HERMITICITY_REJECT_TOL)):
        return False
    a = _as_square(a)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    if w.size == 0:
        return True
    scale = max(1.0, float(w[-1]))
    return bool(w[0] >= -tol * scale)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a (numerically) Hermitian matrix, as
    ``np.linalg.eigh`` returns it: ``w`` ascending, column ``k`` of ``v``
    the unit eigenvector of ``w[k]``.

    The input is symmetrized to (A + A^dag)/2 before the decomposition;
    asymmetry beyond ``HERMITICITY_REJECT_TOL`` raises instead.
    """
    a = _as_square(a)
    asym = asymmetry(a)
    if asym > HERMITICITY_REJECT_TOL:
        raise NotHermitianError(f"relative asymmetry {asym:.3e} exceeds 1e-8")
    return np.linalg.eigh((a + a.conj().T) / 2.0)


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
    their eigenvalues lie below ``tol_null * max(1, largest eigenvalue)``.
    """
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


def loglog_fit(xs: np.ndarray, ys: np.ndarray) -> LogLogFit:
    """Ordinary least squares of log(y) against log(x).

    Needs at least three strictly positive points; returns slope, intercept
    and the coefficient of determination.
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
    return LogLogFit(float(slope), float(intercept), float(r2))
