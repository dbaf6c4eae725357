"""Operators and states: truncated bosonic Fock space, the maximal collective
spin sector, and the white-noise mixing map.

States are built from explicit basis amplitudes rather than by exponentiating
displacement or squeeze operators, so truncation errors stay controlled and
each constructor can verify its own defining relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, DimMismatchError, EpsOutOfRangeError

# Acceptable norm lost to the Fock truncation.
NORM_DEFICIT_TOL = 1e-12


@dataclass(frozen=True)
class BosonOps:
    a: np.ndarray
    a_dag: np.ndarray
    x: np.ndarray
    p: np.ndarray


def boson_ops(n_max: int) -> BosonOps:
    """Ladder operators on the Fock states |0> .. |n_max> and the quadratures
    x = (a + a^dag)/sqrt2, p = i(a^dag - a)/sqrt2."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(1, n_max + 1)
    a = np.diag(np.sqrt(n), 1).astype(complex)
    a_dag = a.conj().T
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
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    sp: np.ndarray
    sm: np.ndarray


def spin_ops(n_spins: int) -> SpinOps:
    """Collective spin operators on the maximal angular momentum sector of
    ``n_spins`` spin-1/2 particles (dim n_spins + 1), Sz diagonal S .. -S."""
    if n_spins < 1:
        raise ValueError("n_spins must be >= 1")
    s = n_spins / 2.0
    m = s - np.arange(n_spins + 1)
    sz = np.diag(m).astype(complex)
    sp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
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

