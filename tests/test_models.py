import numpy as np
import pytest

from lindrec.engine import (
    apply_lindbladian,
    build_correlation_matrix,
    rapidity,
    reverse_engineer,
    unpack_kernel_vector,
)
from lindrec.errors import DegenerateParamsError, UnsupportedVariantError
from lindrec.models import (
    CoherentSpec,
    CollectiveSpec,
    SqueezedSpec,
    analytic_corr_matrix,
    analytic_kernel_vectors,
    build_model,
    collective_generator_params,
    collective_steady_state,
    default_cutoff,
)
from lindrec.quantum_ops import SpinSector, spin_ops

from conftest import check_density_matrix

R_GRID = [0.0, 0.25, 0.5, 1.0]
THETA_GRID = [0.0, np.pi / 3, np.pi]
ALPHA_GRID = [0.0, 1.0, 1 + 1j, 2j]


class TestBuildModel:
    def test_coherent_shapes(self):
        model = build_model(CoherentSpec(alpha=1.0))
        assert model.ansatz.n_drive == 2
        assert model.ansatz.n_jump == 2
        assert model.ansatz.n_params == 6
        check_density_matrix(model.rho_ss)

    def test_explicit_cutoff_is_used_even_when_zero(self):
        # both default cutoffs are 40 here
        assert build_model(CoherentSpec(alpha=0.0, n_max=50)).ansatz.dim == 51
        assert build_model(SqueezedSpec(r=0.0, n_max=50)).ansatz.dim == 51
        for spec in (CoherentSpec(alpha=0.0, n_max=0), SqueezedSpec(r=0.0, n_max=0)):
            with pytest.raises(ValueError):
                build_model(spec)

    def test_collective_full_basis_shapes(self):
        model = build_model(CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0))
        assert model.ansatz.n_drive == 3
        assert model.ansatz.n_jump == 3
        assert model.ansatz.n_params == 12
        assert model.ansatz.dim == 11

    def test_two_particle_jump_order(self):
        model = build_model(SqueezedSpec(r=0.3, jumps="two"))
        space_dim = model.ansatz.dim
        a = np.diag(np.sqrt(np.arange(1, space_dim)), 1).astype(complex)
        np.testing.assert_allclose(model.ansatz.jump_ops[0], a @ a)
        np.testing.assert_allclose(model.ansatz.jump_ops[1], (a @ a).conj().T)

    def test_reduced_basis_jump_normalization(self):
        spec = CollectiveSpec(n_spins=8, omega0=1.0, kappa=2.0, basis="xy2")
        model = build_model(spec)
        ops = spin_ops(SpinSector(8))
        scale = np.sqrt(4.0)
        np.testing.assert_allclose(model.ansatz.h_ops[0], ops.sx)
        np.testing.assert_allclose(model.ansatz.jump_ops[0], ops.sx / scale)

    def test_default_cutoffs_grow_with_squeezing(self):
        assert default_cutoff(SqueezedSpec(r=1.0)) > default_cutoff(SqueezedSpec(r=0.5))
        assert default_cutoff(CoherentSpec(alpha=3.0)) == 90


class TestCollectiveSteadyState:
    @pytest.mark.parametrize("n_spins,ratio", [(6, 2.0), (11, 0.5), (20, 2.0)])
    def test_valid_state(self, n_spins, ratio):
        rho = collective_steady_state(n_spins, ratio * 1.0, 1.0)
        check_density_matrix(rho)

    def test_strong_drive_regime_points_down(self):
        # kappa/omega0 > 1: spins mostly aligned along -z
        rho = collective_steady_state(20, 0.5, 1.0)
        sz = spin_ops(SpinSector(20)).sz
        assert np.trace(sz @ rho).real < 0

    def test_exact_steady_state_of_generator(self):
        for n_spins, ratio in ((10, 2.0), (16, 0.5)):
            spec = CollectiveSpec(n_spins=n_spins, omega0=ratio, kappa=1.0)
            model = build_model(spec)
            params = collective_generator_params(spec)
            assert rapidity(params, model.ansatz, model.rho_ss) < 1e-20 * max(
                1.0, np.linalg.norm(params.to_vector()) ** 2
            )

    def test_generator_params_match_reduced_basis(self):
        spec = CollectiveSpec(n_spins=12, omega0=2.0, kappa=1.0, basis="xy2")
        model = build_model(spec)
        params = collective_generator_params(spec)
        flow = apply_lindbladian(params, model.ansatz, model.rho_ss)
        assert np.linalg.norm(flow) < 1e-10

    @pytest.mark.parametrize("n_spins", [2, 3, 10, 60, 200])
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_matches_dense_horner_reference(self, n_spins, ratio):
        # eta = sum_j (S_- / beta)^j accumulated with one dense product per step
        ops = spin_ops(SpinSector(n_spins))
        step = ops.sm / (-1j * ratio * n_spins / 2.0)
        eye = np.eye(n_spins + 1, dtype=complex)
        eta = eye.copy()
        for _ in range(n_spins + 1):
            eta = eye + step @ eta
        reference = eta @ eta.conj().T
        reference /= np.trace(reference).real
        rho = collective_steady_state(n_spins, ratio, 1.0)
        np.testing.assert_allclose(rho, reference, rtol=1e-15, atol=0)

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateParamsError):
            collective_steady_state(10, 0.0, 1.0)
        with pytest.raises(DegenerateParamsError):
            collective_steady_state(10, 1.0, -1.0)


class TestAnalyticKernelVectors:
    def test_coherent_imaginary_alpha(self):
        vec = analytic_kernel_vectors(CoherentSpec(alpha=2j))[0]
        np.testing.assert_allclose(vec, [-np.sqrt(2), 0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_second_squeezed_vector_has_no_decay_diagonal(self):
        vec = analytic_kernel_vectors(SqueezedSpec(r=0.7, theta=0.0))[1]
        assert vec[2] == 0.0
        assert vec[5] == 0.0

    def test_dissipative_vector_at_zero_squeezing_is_pure_decay(self):
        vec = analytic_kernel_vectors(SqueezedSpec(r=0.0))[2]
        np.testing.assert_allclose(vec, [0, 0, 1.0, 0, 0, 0], atol=1e-15)

    def test_mutually_orthogonal(self):
        vecs = analytic_kernel_vectors(SqueezedSpec(r=0.5, theta=np.pi / 3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.vdot(vecs[i], vecs[j])) < 1e-12

    def test_unsupported_variant(self):
        with pytest.raises(UnsupportedVariantError):
            analytic_kernel_vectors(CollectiveSpec(n_spins=4, omega0=1.0, kappa=1.0))


class TestAnalyticCorrMatrix:
    def test_single_jump_dissipator_diagonal_at_zero_squeezing(self):
        m = analytic_corr_matrix(SqueezedSpec(r=0.0))
        assert abs(m[3, 3] - 0.5) < 1e-14
        assert abs(m[4, 4] - 0.5) < 1e-14

    def test_two_jump_cross_entry_vanishes_at_zero_squeezing(self):
        m = analytic_corr_matrix(SqueezedSpec(r=0.0, jumps="two"))
        assert abs(m[2, 5]) < 1e-14

    def test_coherent_vacuum_diagonal(self):
        m = analytic_corr_matrix(CoherentSpec(alpha=0.0))
        np.testing.assert_allclose(m, np.diag([1, 1, 0, 0.5, 0.5, 2.0]), atol=1e-14)

    def test_hermitian(self):
        m = analytic_corr_matrix(SqueezedSpec(r=0.8, theta=1.1, jumps="two"))
        assert np.linalg.norm(m - m.conj().T) < 1e-12


class TestOracleEquivalence:
    """The transcribed closed forms and the numerical Gram builder must agree;
    each side validates the other."""

    @pytest.mark.parametrize("jumps", ["single", "two"])
    def test_squeezed_grid(self, jumps):
        for r in R_GRID:
            for theta in THETA_GRID:
                spec = SqueezedSpec(r=r, theta=theta, jumps=jumps)
                model = build_model(spec)
                numeric = build_correlation_matrix(model.ansatz, model.rho_ss).mat
                closed = analytic_corr_matrix(spec)
                np.testing.assert_allclose(
                    numeric, closed, atol=1e-8, rtol=1e-8,
                    err_msg=f"r={r} theta={theta} jumps={jumps}",
                )

    def test_coherent_grid(self):
        for alpha in ALPHA_GRID:
            spec = CoherentSpec(alpha=alpha)
            model = build_model(spec)
            numeric = build_correlation_matrix(model.ansatz, model.rho_ss).mat
            np.testing.assert_allclose(
                numeric, analytic_corr_matrix(spec), atol=1e-8, rtol=1e-8
            )

    @pytest.mark.parametrize("jumps", ["single", "two"])
    def test_kernel_vectors_annihilate_closed_form(self, jumps):
        for r in R_GRID:
            if r == 0.0 and jumps == "single":
                continue  # degenerate limit, handled by the subspace test
            for theta in THETA_GRID:
                spec = SqueezedSpec(r=r, theta=theta, jumps=jumps)
                m = analytic_corr_matrix(spec)
                for vec in analytic_kernel_vectors(spec):
                    bound = 1e-10 * np.linalg.norm(m) * np.linalg.norm(vec)
                    assert np.linalg.norm(m @ vec) <= bound

    def test_coherent_kernel_annihilates_closed_form(self):
        for alpha in ALPHA_GRID:
            spec = CoherentSpec(alpha=alpha)
            m = analytic_corr_matrix(spec)
            vec = analytic_kernel_vectors(spec)[0]
            assert np.linalg.norm(m @ vec) <= 1e-10 * np.linalg.norm(m) * np.linalg.norm(vec)

    def test_numeric_kernel_spans_analytic_subspace(self):
        spec = SqueezedSpec(r=0.5, theta=np.pi / 3)
        model = build_model(spec)
        res = reverse_engineer(model.ansatz, model.rho_ss)
        assert res.kernel_dim == 3
        q_num, _ = np.linalg.qr(np.array(res.kernel_vectors).T)
        q_ana, _ = np.linalg.qr(np.array(analytic_kernel_vectors(spec)).T)
        # largest principal angle via the projection residual
        resid = q_ana - q_num @ (q_num.conj().T @ q_ana)
        assert np.linalg.norm(resid, 2) < 1e-6

    def test_unpacked_analytic_vectors_annihilate_target(self):
        spec = SqueezedSpec(r=0.5, theta=np.pi / 3)
        model = build_model(spec)
        for vec in analytic_kernel_vectors(spec):
            params = unpack_kernel_vector(vec, 2, 2)
            assert rapidity(params, model.ansatz, model.rho_ss) < 1e-16 * np.linalg.norm(
                vec
            ) ** 2 * np.linalg.norm(build_correlation_matrix(model.ansatz, model.rho_ss).mat)
