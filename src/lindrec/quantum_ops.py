"""Operators and states: truncated bosonic Fock space, the maximal collective
spin sector, density-matrix checks, and the white-noise mixing map.

States are built from explicit basis amplitudes rather than by exponentiating
displacement or squeeze operators, so truncation errors stay controlled and
each constructor can verify its own defining relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, DimMismatchError, EpsOutOfRangeError
from .numerics import is_hermitian

# Acceptable norm lost to the Fock truncation.
NORM_DEFICIT_TOL = 1e-12


@dataclass(frozen=True)
class FockSpace:
    """Bosonic mode truncated to the Fock states |0> .. |n_max>."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class BosonOps:
    a: np.ndarray
    a_dag: np.ndarray
    x: np.ndarray
    p: np.ndarray


def boson_ops(space: FockSpace) -> BosonOps:
    """Ladder operators and quadratures x = (a + a^dag)/sqrt2, p = i(a^dag - a)/sqrt2."""
    n = np.arange(1, space.dim)
    a = np.diag(np.sqrt(n), 1).astype(complex)
    a_dag = a.conj().T
    x = (a + a_dag) / np.sqrt(2)
    p = 1j * (a_dag - a) / np.sqrt(2)
    return BosonOps(a=a, a_dag=a_dag, x=x, p=p)


def coherent_state(space: FockSpace, alpha: complex) -> np.ndarray:
    """Density matrix of the coherent state |alpha><alpha|.

    Built from the Fock amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!) and
    renormalized after truncation.  Raises if the cutoff is too small for
    |alpha|^2 or the truncated norm deficit exceeds ``NORM_DEFICIT_TOL``.
    """
    alpha = complex(alpha)
    if space.n_max < 10 * max(4.0, abs(alpha) ** 2):
        raise CutoffTooSmallError(
            f"n_max={space.n_max} too small for |alpha|^2={abs(alpha)**2:.3g}"
        )
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(space.n_max):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1)
    deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if deficit > NORM_DEFICIT_TOL:
        raise CutoffTooSmallError(f"truncated norm deficit {deficit:.3e} > 1e-12")
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def bogoliubov_op(space: FockSpace, r: float, theta: float) -> np.ndarray:
    """b = a cosh(r) + a^dag e^{i theta} sinh(r); annihilates the squeezed vacuum."""
    ops = boson_ops(space)
    return np.cosh(r) * ops.a + np.exp(1j * theta) * np.sinh(r) * ops.a_dag


def squeezed_vacuum(space: FockSpace, r: float, theta: float = 0.0) -> np.ndarray:
    """Density matrix of the squeezed vacuum with parameter xi = r e^{i theta}.

    Even-Fock amplitudes follow the two-step recursion fixed by b|xi> = 0;
    the analytic norm sum_m |c_2m|^2 = cosh(r) (with c_0 = 1) gives an exact
    truncation-deficit check.  The constructor verifies ||b rho||_F < 1e-8.
    """
    if r < 0:
        raise ValueError("squeeze parameter r must be >= 0")
    if space.n_max < 20 + 20 * np.sinh(r) ** 2:
        raise CutoffTooSmallError(
            f"n_max={space.n_max} below the floor 20 + 20 sinh(r)^2 for r={r}"
        )
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    factor = -np.exp(1j * theta) * np.tanh(r)
    n = 0
    while n + 2 <= space.n_max:
        amps[n + 2] = factor * np.sqrt((n + 1) / (n + 2)) * amps[n]
        n += 2
    captured = float(np.sum(np.abs(amps) ** 2))
    deficit = 1.0 - captured / np.cosh(r)
    if deficit > NORM_DEFICIT_TOL:
        raise CutoffTooSmallError(f"even-Fock tail {deficit:.3e} > 1e-12")
    amps /= np.sqrt(captured)
    rho = np.outer(amps, amps.conj())
    b = bogoliubov_op(space, r, theta)
    self_check = float(np.linalg.norm(b @ rho))
    if self_check > 1e-8:
        raise CutoffTooSmallError(f"||b rho|| = {self_check:.3e} fails the self-check")
    return rho


@dataclass(frozen=True)
class SpinSector:
    """Maximal angular momentum sector of N spin-1/2 particles (dim N + 1)."""

    n_spins: int

    def __post_init__(self):
        if self.n_spins < 1:
            raise ValueError("n_spins must be >= 1")

    @property
    def total_spin(self) -> float:
        return self.n_spins / 2.0

    @property
    def dim(self) -> int:
        return self.n_spins + 1


@dataclass(frozen=True)
class SpinOps:
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    sp: np.ndarray
    sm: np.ndarray


def spin_ops(sector: SpinSector) -> SpinOps:
    """Collective spin operators on the maximal sector, Sz diagonal S .. -S."""
    s = sector.total_spin
    m = s - np.arange(sector.dim)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((sector.dim, sector.dim), dtype=complex)
    for i in range(1, sector.dim):
        mm = m[i]
        sp[i - 1, i] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    sm = sp.conj().T
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


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise if ``rho`` is not Hermitian, unit-trace, and PSD within ``tol``."""
    rho = np.asarray(rho)
    if not is_hermitian(rho, tol):
        raise DimMismatchError("state is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > tol:
        raise DimMismatchError(f"trace {np.trace(rho)} differs from 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w[0] < -tol:
        raise DimMismatchError(f"negative eigenvalue {w[0]:.3e}")
