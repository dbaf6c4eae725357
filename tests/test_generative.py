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
    markovian_superposition_search,
    reverse_engineer,
)
from lindrec.models import SqueezedSpec, analytic_kernel_vectors
from lindrec.quantum_ops import Operator
from lindrec.verification import steady_state_of

from conftest import correlation_matrix, random_ansatz, random_density

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
    mat = correlation_matrix(ansatz, rho)
    mat_rotated = correlation_matrix(rotated, u @ rho @ u.conj().T)
    assert np.linalg.norm(mat_rotated - mat) <= 1e-10 * np.linalg.norm(mat)


@SETTINGS
@given(
    seed=SEEDS,
    dim=st.integers(2, 4),
    n_drive=st.integers(0, 1),
    n_jump=st.integers(1, 3),
)
def test_search_is_invariant_under_complex_remixing_of_the_basis(seed, dim, n_drive, n_jump):
    # the search reads only the span of the kernel basis, so a basis remixed
    # by a complex unitary, whose vectors are not physical one by one, gives
    # the same optimum and the same solutions
    rng = np.random.default_rng(seed)
    ansatz = random_ansatz(rng, dim, n_drive, n_jump)
    planted = LindbladianParams(c=rng.standard_normal(n_drive), gamma=random_psd(rng, n_jump))
    ss = steady_state_of(planted, ansatz)
    assume(ss.unique)
    # operators that commute with the state add drive-only kernel directions
    # and a block of dephasing rates, so the kernel is degenerate and the
    # optimum is interior
    commuting = (ss.rho, ss.rho @ ss.rho)
    ansatz = LindbladAnsatz(h_ops=ansatz.h_ops + commuting, jump_ops=ansatz.jump_ops + commuting)
    basis = np.array(reverse_engineer(ansatz, ss.rho).kernel_vectors).T
    remixed = basis @ random_unitary(rng, basis.shape[1])
    sizes = (ansatz.n_drive, ansatz.n_jump)
    a = markovian_superposition_search(list(basis.T), *sizes)
    b = markovian_superposition_search(list(remixed.T), *sizes)
    assert len(a.solutions) == len(b.solutions) >= 1
    assert a.max_min_rate > 0
    assert abs(a.max_min_rate - b.max_min_rate) <= 1e-12
    span_a, _ = np.linalg.qr(np.array([p.to_vector() for p in a.solutions]).T)
    for params in b.solutions:
        vec = params.to_vector() / np.linalg.norm(params.to_vector())
        assert np.linalg.norm(span_a.conj().T @ vec) > 1 - 1e-8


@SETTINGS
@given(
    seed=SEEDS,
    dim=st.integers(40, 130),
    corners=st.booleans(),
)
def test_banded_products_match_matmul(seed, dim, corners):
    # one to d / 40 complex diagonals at random offsets; with ``corners`` the
    # outermost offsets +-(d - 1) are among them
    rng = np.random.default_rng(seed)
    n_diag = int(rng.integers(1, dim // 40 + 1))
    offsets = rng.choice(np.arange(1 - dim, dim), n_diag, replace=False)
    if corners:
        offsets[:2] = (dim - 1, 1 - dim)[:n_diag]
    mat = np.zeros((dim, dim), dtype=complex)
    for o in offsets:
        size = dim - abs(o)
        mat += np.diag(rng.standard_normal(size) + 1j * rng.standard_normal(size), o)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = Operator.from_dense(mat)
    assert sorted(o for o, _ in op.diagonals) == sorted(set(offsets.tolist()))
    # the same operator given by its diagonals holds the same values
    given = Operator(dim, [(o, np.diagonal(mat, o)) for o in set(offsets.tolist())])
    for (o, values), (o_given, values_given) in zip(op.diagonals, given.diagonals):
        assert o == o_given
        np.testing.assert_array_equal(values, values_given)
    out = np.full((dim, dim), np.nan, dtype=complex)
    op.left(x, out)
    scale = np.abs(mat).max() * np.abs(x).max()
    np.testing.assert_allclose(out, mat @ x, rtol=0, atol=1e-14 * scale)
    out[:] = np.nan
    op.left(x.T, out)
    np.testing.assert_allclose(out, mat @ x.T, rtol=0, atol=1e-14 * scale)
    # rows first .. first + n alone, reading only the rows of x they need
    first = int(rng.integers(0, dim))
    rows = np.full((int(rng.integers(1, dim - first + 1)), dim), np.nan, dtype=complex)
    op.left(x, rows, first)
    expected = (mat @ x)[first:first + len(rows)]
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-14 * scale)


@SETTINGS
@given(seed=SEEDS, dim=st.integers(1, 60))
def test_banded_operator_product_matches_matmul(seed, dim):
    # random diagonals, the outermost offsets +-(d - 1) among them
    rng = np.random.default_rng(seed)

    def banded():
        offsets = {1 - dim, dim - 1} | set(rng.integers(1 - dim, dim, 3).tolist())
        return Operator(dim, [
            (o, rng.standard_normal(dim - abs(o)) + 1j * rng.standard_normal(dim - abs(o)))
            for o in offsets
        ])

    a, b = banded(), banded()
    product = (a @ b).dense()
    expected = a.dense() @ b.dense()
    scale = np.abs(a.dense()).sum(axis=1).max() * np.abs(b.dense()).max()
    np.testing.assert_allclose(product, expected, rtol=0, atol=1e-14 * scale)
    nonzero = {o for o in range(1 - dim, dim) if np.diagonal(expected, o).any()}
    assert {o for o, _ in (a @ b).diagonals} == nonzero
