"""Generated-input checks of the reconstruction and the Markovian search.

Each example is drawn by hypothesis from a seed and a few sizes; the runs are
derandomized, so the suite sees the same examples every time.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindrec.engine import (
    FEASIBLE,
    MARKOV_TOL,
    LindbladAnsatz,
    LindbladianParams,
    build_correlation_matrix,
    markovian_superposition_search,
    reverse_engineer,
)
from lindrec.models import SqueezedSpec, analytic_kernel_vectors
from lindrec.verification import steady_state_of

from conftest import random_ansatz, random_density

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)
SQUEEZE_R = st.floats(0.05, 1.5)
ANGLES = st.floats(0.0, 2 * np.pi)


def random_unitary(rng, k):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q


def random_psd(rng, k):
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return a @ a.conj().T + 0.1 * np.eye(k)


@SETTINGS
@given(
    seed=SEEDS,
    dim=st.integers(2, 4),
    n_drive=st.integers(0, 2),
    n_jump=st.integers(1, 2),
)
def test_planted_markovian_generator_is_recovered(seed, dim, n_drive, n_jump):
    rng = np.random.default_rng(seed)
    ansatz = random_ansatz(rng, dim, n_drive, n_jump)
    planted = LindbladianParams(c=rng.standard_normal(n_drive), gamma=random_psd(rng, n_jump))
    ss = steady_state_of(planted, ansatz)
    assume(ss.unique)
    res = reverse_engineer(ansatz, ss.rho)
    assert res.verdict == FEASIBLE
    q, _ = np.linalg.qr(np.array(res.kernel_vectors).T)
    phi = planted.to_vector() / np.linalg.norm(planted.to_vector())
    assert np.linalg.norm(q.conj().T @ phi) > 1 - 1e-8
    search = markovian_superposition_search(res.kernel_vectors, n_drive, n_jump)
    assert search.solutions
    assert all(params.markovian for params in search.solutions)
    assert search.max_min_rate is not None
    assert search.max_min_rate >= -MARKOV_TOL


@SETTINGS
@given(r=SQUEEZE_R, theta=ANGLES)
def test_squeezed_kernel_search(r, theta):
    vectors = [v / np.linalg.norm(v) for v in analytic_kernel_vectors(SqueezedSpec(r=r, theta=theta))]
    full = markovian_superposition_search(vectors, 2, 2)
    assert len(full.solutions) == 1
    assert full.direction_supported == [False, False, True]
    assert abs(full.max_min_rate) <= MARKOV_TOL
    # the two drive directions have traceless, indefinite rate matrices, so
    # no real combination of them is PSD and the search certifies it
    traceless = markovian_superposition_search(vectors[:2], 2, 2)
    assert traceless.solutions == []
    assert traceless.direction_supported == [False, False]
    assert traceless.max_min_rate is None


@SETTINGS
@given(seed=SEEDS, n_drive=st.integers(0, 2))
def test_indefinite_single_direction_has_negative_optimum(seed, n_drive):
    # gamma = U diag(1, -1/2) U^dag: on the slice tr gamma = 1 it is
    # diag(2, -1), so the optimum is exactly -1
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2)
    gamma = u @ np.diag([1.0, -0.5]) @ u.conj().T
    vec = np.concatenate([rng.standard_normal(n_drive), gamma.reshape(-1)])
    phase = np.exp(2j * np.pi * rng.uniform())
    res = markovian_superposition_search([phase * vec], n_drive, 2)
    assert res.solutions == []
    assert res.direction_supported == [False]
    assert res.max_min_rate == pytest.approx(-1.0, abs=1e-12)


@SETTINGS
@given(seed=SEEDS, n_jump=st.integers(2, 4))
def test_optimum_at_an_eigenvalue_crossing(seed, n_jump):
    # direction i: coupling alpha_i on drive i and gamma = U E_ii U^dag.  In
    # the orthonormal basis the rate matrices are U diag(t_i b_i) U^dag with
    # t_i = 1 / sqrt(1 + alpha_i^2), so the slice tr gamma = 1 starts at
    # unequal eigenvalues and lambda_min peaks where all K of them meet, at
    # 1/K with gamma = I/K and c = alpha/K: a point where it is not smooth
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n_jump)
    alpha = rng.uniform(0.1, 3.0, n_jump)
    vectors = [
        np.concatenate([alpha[i] * np.eye(n_jump)[i], np.outer(u[:, i], u[:, i].conj()).reshape(-1)])
        for i in range(n_jump)
    ]
    res = markovian_superposition_search(vectors, n_jump, n_jump)
    assert res.max_min_rate == pytest.approx(1.0 / n_jump, abs=1e-10)
    assert len(res.solutions) == 1
    sol = res.solutions[0]
    np.testing.assert_allclose(sol.gamma, sol.gamma[0, 0] * np.eye(n_jump), atol=1e-8)
    np.testing.assert_allclose(sol.c / sol.gamma[0, 0].real, alpha, rtol=1e-7)
    assert res.direction_supported == [True] * n_jump


@SETTINGS
@given(
    seed=SEEDS,
    dim=st.integers(2, 5),
    n_drive=st.integers(0, 2),
    n_jump=st.integers(1, 3),
)
def test_correlation_matrix_is_unitarily_covariant(seed, dim, n_drive, n_jump):
    # rotating the state and every ansatz operator by one unitary U maps each
    # term image O to U O U^dag, which leaves every trace pairing unchanged
    rng = np.random.default_rng(seed)
    ansatz = random_ansatz(rng, dim, n_drive, n_jump)
    rho = random_density(rng, dim)
    u = random_unitary(rng, dim)
    rotated = LindbladAnsatz(
        h_ops=tuple(u @ h @ u.conj().T for h in ansatz.h_ops),
        jump_ops=tuple(u @ l @ u.conj().T for l in ansatz.jump_ops),
    )
    mat = build_correlation_matrix(ansatz, rho).mat
    mat_rotated = build_correlation_matrix(rotated, u @ rho @ u.conj().T).mat
    assert np.linalg.norm(mat_rotated - mat) <= 1e-10 * np.linalg.norm(mat)
