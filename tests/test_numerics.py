import numpy as np
import pytest

from lindrec.errors import (
    NonPositiveDataError,
    NonSquareError,
    NotHermitianError,
    TooFewPointsError,
)
from lindrec.models import CoherentSpec, analytic_corr_matrix
from lindrec.numerics import (
    eigh,
    extract_kernel,
    is_hermitian,
    is_psd,
    loglog_fit,
    positive_part,
)

from conftest import random_hermitian


class TestEigh:
    def test_identity(self):
        w, _ = eigh(np.eye(3, dtype=complex))
        np.testing.assert_allclose(w, [1, 1, 1])

    def test_diagonal_sorted_ascending(self):
        w, v = eigh(np.diag([2.0, -1.0]).astype(complex))
        np.testing.assert_allclose(w, [-1.0, 2.0])
        # eigenvectors are the permuted standard basis
        np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)

    def test_coherent_matrix_has_null_mode(self):
        m = analytic_corr_matrix(CoherentSpec(alpha=1.0))
        w, _ = eigh(m)
        assert abs(w[0]) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            eigh(np.zeros((2, 3)))

    def test_rejects_strong_asymmetry(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            eigh(a)

    def test_symmetrizes_roundoff_asymmetry(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        a[0, 1] = 1e-12
        w, _ = eigh(a)
        np.testing.assert_allclose(w, [1.0, 2.0], atol=1e-10)

    def test_residual_and_orthonormality(self, rng):
        for dim in (3, 6, 11):
            a = random_hermitian(rng, dim)
            w, v = eigh(a)
            scale = np.linalg.norm(a)
            for k in range(dim):
                vec = v[:, k]
                assert np.linalg.norm(a @ vec - w[k] * vec) <= 1e-10 * scale
            gram = v.conj().T @ v
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10

    def test_spectral_reconstruction(self, rng):
        a = random_hermitian(rng, 8)
        w, v = eigh(a)
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - a) <= 1e-9 * np.linalg.norm(a)


class TestExtractKernel:
    # extract_kernel takes a factor a and reports the null space of a^H a

    def test_simple_diagonal(self):
        spectrum, vectors, kernel_dim = extract_kernel(np.diag([0.0, 3.0]).astype(complex))
        assert kernel_dim == 1
        np.testing.assert_allclose(np.abs(vectors[:, 0]), [1, 0], atol=1e-14)
        np.testing.assert_allclose(spectrum, [0.0, 9.0])

    def test_no_kernel(self):
        _, vectors, kernel_dim = extract_kernel(np.diag([1.0, 3.0]).astype(complex))
        assert kernel_dim == 0
        assert vectors[:, :kernel_dim].size == 0

    def test_threshold_is_relative_to_scale(self):
        # a 1e-8 eigenvalue of a^H a is null next to 1e4 but not next to 1
        assert extract_kernel(np.diag([1e-4, 1e2]).astype(complex))[2] == 1
        assert extract_kernel(np.diag([1e-4, 1.0]).astype(complex))[2] == 0

    def test_spectrum_of_gram_matrix_without_forming_it(self, rng):
        a = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        spectrum, vectors, _ = extract_kernel(a)
        reference = np.linalg.eigh(a.conj().T @ a)
        np.testing.assert_allclose(spectrum, reference.eigenvalues, rtol=1e-12)
        gram = a.conj().T @ a
        for k, vec in enumerate(vectors.T):
            np.testing.assert_allclose(gram @ vec, spectrum[k] * vec, atol=1e-12)

    def test_wide_factor_pads_zero_eigenvalues(self, rng):
        # a 2 x 4 factor has rank at most 2, so a^H a has two zero eigenvalues
        a = rng.standard_normal((2, 4))
        spectrum, vectors, kernel_dim = extract_kernel(a)
        assert spectrum.shape == (4,)
        np.testing.assert_array_equal(spectrum[:2], [0.0, 0.0])
        assert kernel_dim == 2
        for vec in vectors.T[:kernel_dim]:
            assert np.linalg.norm(a @ vec) < 1e-14

    def test_small_eigenvalue_keeps_its_accuracy(self):
        # a^H a has eigenvalues 1 and 1e-20; formed explicitly, the small one
        # is lost below the roundoff of the large one
        q = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]]))[0]
        a = np.diag([1.0, 1e-10]) @ q.T
        spectrum, _, _ = extract_kernel(a)
        assert spectrum[0] == pytest.approx(1e-20, rel=1e-5)

    def test_kernel_dim_reduces_when_direction_is_lifted(self, rng):
        a = random_hermitian(rng, 6)
        a = a @ a.conj().T  # PSD
        w, v = eigh(a)
        v0 = v[:, 0]
        a_null = a - w[0] * np.outer(v0, v0.conj())
        _, vectors, dim_before = extract_kernel(a_null)
        assert dim_before >= 1
        lifted = a_null + 0.5 * np.outer(vectors[:, 0], vectors[:, 0].conj())
        _, _, dim_after = extract_kernel(lifted)
        assert dim_after == dim_before - 1

    def test_kernel_basis_orthonormal(self, rng):
        vecs = np.linalg.qr(
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        )[0]
        a = (vecs * np.array([0.0, 0.0, 1.0, 2.0, 3.0])) @ vecs.conj().T
        _, vectors, kernel_dim = extract_kernel(a)
        assert kernel_dim == 2
        basis = vectors[:, :kernel_dim]
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(2), atol=1e-10
        )


class TestPositivePart:
    def test_clamps_negative(self):
        out = positive_part(np.diag([2.0, -1e-6]).astype(complex))
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [0.0, 2.0], atol=1e-15)

    def test_psd_fixed_point(self, rng):
        a = random_hermitian(rng, 5)
        a = a @ a.conj().T
        assert np.linalg.norm(positive_part(a) - a) <= 1e-12 * np.linalg.norm(a)

    def test_idempotent(self, rng):
        a = random_hermitian(rng, 6)
        once = positive_part(a)
        twice = positive_part(once)
        assert np.linalg.norm(twice - once) <= 1e-12 * max(1.0, np.linalg.norm(once))

    def test_monotone_in_each_eigenvalue(self, rng):
        a = random_hermitian(rng, 6)
        before = np.linalg.eigvalsh(a)
        after = np.linalg.eigvalsh(positive_part(a))
        np.testing.assert_allclose(after, np.maximum(before, 0.0), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            positive_part(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestPredicates:
    def test_is_hermitian(self, rng):
        assert is_hermitian(random_hermitian(rng, 4))
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not is_hermitian(np.zeros((2, 3)))

    def test_is_psd(self, rng):
        a = random_hermitian(rng, 4)
        assert is_psd(a @ a.conj().T)
        assert not is_psd(np.diag([1.0, -1.0]).astype(complex))
        # tiny negative within tolerance still counts
        assert is_psd(np.diag([1.0, -1e-12]).astype(complex))


class TestLogLogFit:
    def test_quadratic(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = loglog_fit(xs, xs**2)
        assert abs(fit.slope - 2.0) < 1e-12
        assert fit.r_squared == pytest.approx(1.0)

    def test_inverse(self):
        xs = np.array([1.0, 2.0, 4.0])
        fit = loglog_fit(xs, 5.0 / xs)
        assert abs(fit.slope + 1.0) < 1e-12
        assert abs(np.exp(fit.intercept) - 5.0) < 1e-10

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveDataError):
            loglog_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 3.0]))

    def test_rejects_too_few(self):
        with pytest.raises(TooFewPointsError):
            loglog_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_r_squared_below_one_for_noisy_data(self, rng):
        xs = np.logspace(0, 2, 20)
        ys = xs**1.5 * np.exp(rng.normal(0, 0.1, 20))
        fit = loglog_fit(xs, ys)
        assert 1.3 < fit.slope < 1.7
        assert fit.r_squared < 1.0
