import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from lindrec.engine import (
    LindbladAnsatz,
    LindbladianParams,
    build_correlation_matrix,
    hermitian_parameter_basis,
)
from lindrec.errors import DimMismatchError
from lindrec.numerics import asymmetry
from lindrec.quantum_ops import boson_ops


def random_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def check_density_matrix(rho, tol=1e-10):
    """Raise if ``rho`` is not Hermitian, unit-trace, and PSD within ``tol``."""
    rho = np.asarray(rho)
    if not asymmetry(rho) <= tol:
        raise DimMismatchError("state is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > tol:
        raise DimMismatchError(f"trace {np.trace(rho)} differs from 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w[0] < -tol:
        raise DimMismatchError(f"negative eigenvalue {w[0]:.3e}")


def apply_h_term(h, rho):
    """Drive term image -i (h rho - rho h) from its definition: the reference
    for ``engine.term_images``."""
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if h.shape != rho.shape:
        raise DimMismatchError(f"shape mismatch {h.shape} vs {rho.shape}")
    return -1j * (h @ rho - rho @ h)


def apply_d_term(l_j, l_k, rho):
    """Dissipator term image l_j rho l_k^dag - (l_k^dag l_j rho + rho l_k^dag l_j)/2
    from its definition: the reference for ``engine.term_images``."""
    l_j = np.asarray(l_j, dtype=complex)
    l_k = np.asarray(l_k, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if l_j.shape != rho.shape or l_k.shape != rho.shape:
        raise DimMismatchError("jump operator and state dimensions differ")
    kd_j = l_k.conj().T @ l_j
    return l_j @ rho @ l_k.conj().T - 0.5 * (kd_j @ rho + rho @ kd_j)


def correlation_matrix(ansatz, rho):
    """The Gram matrix M of the term images, P R^T R P^dag for the factor R of
    ``build_correlation_matrix`` and P = ``hermitian_parameter_basis(J, K)``."""
    factor = build_correlation_matrix(ansatz, rho)
    basis = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump)
    return basis @ (factor.T @ factor) @ basis.conj().T


def dense_ops(ops):
    """The dense matrices of the operators of a ``SpinOps`` or ``BosonOps``,
    under the same field names."""
    return SimpleNamespace(
        **{f.name: getattr(ops, f.name).dense() for f in dataclasses.fields(ops)}
    )


def bogoliubov_op(n_max, r, theta):
    """b = a cosh(r) + a^dag e^{i theta} sinh(r), which annihilates the
    squeezed vacuum, from the matrices of a and a^dag."""
    ops = dense_ops(boson_ops(n_max))
    return np.cosh(r) * ops.a + np.exp(1j * theta) * np.sinh(r) * ops.a_dag


def random_ansatz(rng, dim, n_drive, n_jump):
    drives = tuple(random_hermitian(rng, dim) for _ in range(n_drive))
    jumps = tuple(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n_jump)
    )
    return LindbladAnsatz(h_ops=drives, jump_ops=jumps)


def hermitian_basis(dim):
    """Dense unitary U of the Hermitian operator basis, column by column from
    its definition, on column-stacked matrices."""
    basis = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            if i == j:
                unit[i, i] = 1.0
            elif i < j:
                unit[i, j] = unit[j, i] = 2**-0.5
            else:
                unit[j, i], unit[i, j] = 1j * 2**-0.5, -1j * 2**-0.5
            basis[:, i + j * dim] = unit.reshape(-1, order="F")
    return basis


def random_params(rng, n_drive, n_jump, hermitian_gamma=False):
    gamma = rng.standard_normal((n_jump, n_jump)) + 1j * rng.standard_normal(
        (n_jump, n_jump)
    )
    if hermitian_gamma:
        gamma = (gamma + gamma.conj().T) / 2
    return LindbladianParams(c=rng.standard_normal(n_drive), gamma=gamma)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
