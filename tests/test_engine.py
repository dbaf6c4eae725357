import numpy as np
import pytest

from lindrec.engine import (
    LindbladAnsatz,
    LindbladianParams,
    apply_d_term,
    apply_h_term,
    apply_lindbladian,
    build_correlation_matrix,
    hermitian_parameter_basis,
    markovian_postselect,
    markovian_superposition_search,
    rapidity,
    repair_markovianity,
    reverse_engineer,
    unpack_kernel_vector,
)
from lindrec.errors import DimMismatchError, NonPhysicalVectorError, NotHermitianError
from lindrec.models import (
    CoherentSpec,
    CollectiveSpec,
    SqueezedSpec,
    analytic_corr_matrix,
    analytic_kernel_vectors,
    build_model,
)
from lindrec.quantum_ops import FockSpace, boson_ops, mix_with_identity

from conftest import random_ansatz, random_density, random_hermitian, random_params


class TestTermMaps:
    def test_h_term_of_commuting_pair_vanishes(self, rng):
        rho = random_density(rng, 5)
        assert np.linalg.norm(apply_h_term(rho, rho)) < 1e-14

    def test_h_term_hermitian_traceless(self, rng):
        h = random_hermitian(rng, 6)
        rho = random_density(rng, 6)
        out = apply_h_term(h, rho)
        assert np.linalg.norm(out - out.conj().T) < 1e-12
        assert abs(np.trace(out)) < 1e-12

    def test_d_term_vacuum_is_dark_for_decay(self):
        space = FockSpace(10)
        ops = boson_ops(space)
        vac = np.zeros((space.dim, space.dim), dtype=complex)
        vac[0, 0] = 1.0
        assert np.linalg.norm(apply_d_term(ops.a, ops.a, vac)) < 1e-14

    def test_d_term_traceless(self, rng):
        dim = 5
        l1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        l2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = random_density(rng, dim)
        assert abs(np.trace(apply_d_term(l1, l2, rho))) < 1e-12

    def test_d_term_adjoint_symmetry(self, rng):
        # (D_{j,k}[rho])^dag = D_{k,j}[rho]
        dim = 6
        l1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        l2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = random_density(rng, dim)
        lhs = apply_d_term(l1, l2, rho).conj().T
        rhs = apply_d_term(l2, l1, rho)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(DimMismatchError):
            apply_h_term(np.eye(3), random_density(rng, 4))
        with pytest.raises(DimMismatchError):
            apply_d_term(np.eye(3), np.eye(4), random_density(rng, 4))


class TestApplyLindbladian:
    def test_zero_params_zero_flow(self, rng):
        ansatz = random_ansatz(rng, 4, 2, 2)
        params = LindbladianParams(c=np.zeros(2), gamma=np.zeros((2, 2)))
        rho = random_density(rng, 4)
        assert np.linalg.norm(apply_lindbladian(params, ansatz, rho)) == 0.0

    def test_coherent_solution_annihilates_target(self):
        model = build_model(CoherentSpec(alpha=1 + 1j))
        alpha = 1 + 1j
        # drive -(i/2) a* a + (i/2) a a^dag written in the x, p basis
        c = np.array([-np.sqrt(2) / 2 * alpha.imag, np.sqrt(2) / 2 * alpha.real])
        gamma = np.diag([1.0, 0.0]).astype(complex)
        params = LindbladianParams(c=c, gamma=gamma)
        flow = apply_lindbladian(params, model.ansatz, model.rho_ss)
        assert np.linalg.norm(flow) < 1e-9

    def test_trace_preserved(self, rng):
        ansatz = random_ansatz(rng, 5, 2, 2)
        params = random_params(rng, 2, 2)
        rho = random_density(rng, 5)
        assert abs(np.trace(apply_lindbladian(params, ansatz, rho))) < 1e-11


class TestRapidity:
    def test_steady_state_gives_zero(self):
        model = build_model(CollectiveSpec(n_spins=8, omega0=2.0, kappa=1.0))
        res = reverse_engineer(model.ansatz, model.rho_ss)
        sol = res.solutions[0]
        assert rapidity(sol, model.ansatz, model.rho_ss) < 1e-18

    def test_quadratic_scaling(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 2)
        params = random_params(rng, 1, 2)
        rho = random_density(rng, 4)
        doubled = LindbladianParams(c=2 * params.c, gamma=2 * params.gamma)
        r1 = rapidity(params, ansatz, rho)
        r2 = rapidity(doubled, ansatz, rho)
        assert abs(r2 - 4 * r1) < 1e-9 * (1 + r2)

    def test_matches_quadratic_form_of_correlation_matrix(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 8))
            n_drive = int(rng.integers(1, 4))
            n_jump = int(rng.integers(1, 4))
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            params = random_params(rng, n_drive, n_jump)
            rho = random_density(rng, dim)
            corr = build_correlation_matrix(ansatz, rho)
            phi = params.to_vector()
            quad = float((phi.conj() @ corr.mat @ phi).real)
            rap = rapidity(params, ansatz, rho)
            assert abs(rap - quad) <= 1e-9 * (1 + rap)

    def test_reconstruction_reuses_term_images(self, rng):
        ansatz = random_ansatz(rng, 5, 2, 2)
        rho = random_density(rng, 5)
        res = reverse_engineer(ansatz, rho)
        for _ in range(5):
            params = random_params(rng, 2, 2)
            assert res.rapidity(params) == rapidity(params, ansatz, rho)
        with pytest.raises(DimMismatchError):
            res.rapidity(random_params(rng, 1, 2))


class TestCorrelationMatrix:
    def test_coherent_vacuum_is_diagonal(self):
        model = build_model(CoherentSpec(alpha=0.0))
        corr = build_correlation_matrix(model.ansatz, model.rho_ss)
        np.testing.assert_allclose(
            corr.mat, np.diag([1, 1, 0, 0.5, 0.5, 2.0]), atol=1e-12
        )

    def test_coherent_displaced_entry(self):
        model = build_model(CoherentSpec(alpha=1.0))
        corr = build_correlation_matrix(model.ansatz, model.rho_ss)
        # drive-p against the a^dag a^dag dissipator column
        assert abs(corr.mat[1, 5] - np.sqrt(2) / 2) < 1e-10

    def test_matches_closed_form_for_squeezed_target(self):
        spec = SqueezedSpec(r=0.5, theta=np.pi / 3)
        model = build_model(spec)
        corr = build_correlation_matrix(model.ansatz, model.rho_ss)
        np.testing.assert_allclose(corr.mat, analytic_corr_matrix(spec), atol=1e-8)

    def test_gram_matrix_hermitian_before_symmetrization(self, rng):
        # M is formed as P R^T R P^dag and never symmetrized afterwards
        ansatz = random_ansatz(rng, 5, 2, 2)
        rho = random_density(rng, 5)
        mat = build_correlation_matrix(ansatz, rho).mat
        assert np.linalg.norm(mat - mat.conj().T) <= 1e-9 * np.linalg.norm(mat)

    def test_factor_reproduces_gram_matrix_of_images(self, rng):
        # reference: the pairwise traces Tr(O_mu^dag O_nu) written out
        for dim, n_drive, n_jump in ((5, 2, 2), (3, 0, 3), (4, 3, 1), (2, 1, 3)):
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            corr = build_correlation_matrix(ansatz, random_density(rng, dim))
            images = corr.images
            gram = np.array([[np.vdot(a, b) for b in images] for a in images])
            scale = np.linalg.norm(gram)
            assert np.linalg.norm(corr.mat - gram) <= 1e-13 * scale
            p = hermitian_parameter_basis(n_drive, n_jump)
            rebuilt = p @ corr.factor.T @ corr.factor @ p.conj().T
            assert np.linalg.norm(rebuilt - gram) <= 1e-13 * scale
            assert not np.iscomplexobj(corr.factor)
            assert np.array_equal(corr.factor, np.triu(corr.factor))

    def test_factor_is_built_block_by_block(self, rng, monkeypatch):
        # more image entries than one block, so several QR folds happen
        import lindrec.engine as engine

        ansatz = random_ansatz(rng, 9, 2, 2)
        rho = random_density(rng, 9)
        whole = build_correlation_matrix(ansatz, rho)
        monkeypatch.setattr(engine, "FACTOR_BLOCK_ROWS", 7)
        blocked = build_correlation_matrix(ansatz, rho)
        scale = np.linalg.norm(whole.mat)
        assert np.linalg.norm(blocked.mat - whole.mat) <= 1e-13 * scale

    def test_non_hermitian_state_rejected(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 1)
        rho = random_density(rng, 4)
        rho[0, 1] += 1e-3
        with pytest.raises(NotHermitianError):
            build_correlation_matrix(ansatz, rho)

    def test_gram_matrix_psd(self, rng):
        for _ in range(5):
            ansatz = random_ansatz(rng, 4, 2, 2)
            rho = random_density(rng, 4)
            w = np.linalg.eigvalsh(build_correlation_matrix(ansatz, rho).mat)
            assert w[0] >= -1e-9 * max(1.0, w[-1])

    def test_dissipator_block_index_map(self):
        # dissipator (j, k) sits at J + j K + k, row-major after the drives
        model = build_model(CoherentSpec(alpha=0.0))
        corr = build_correlation_matrix(model.ansatz, model.rho_ss)
        jumps = model.ansatz.jump_ops
        for j, k, index in ((0, 0, 2), (0, 1, 3), (1, 0, 4), (1, 1, 5)):
            expected = apply_d_term(jumps[j], jumps[k], model.rho_ss)
            np.testing.assert_array_equal(corr.images[index], expected)
        assert corr.dim == 6


class TestHermitianParameterBasis:
    def test_unitary_and_physical(self):
        for n_drive, n_jump in ((0, 1), (2, 2), (3, 3), (1, 4)):
            p = hermitian_parameter_basis(n_drive, n_jump)
            n = n_drive + n_jump**2
            np.testing.assert_allclose(p.conj().T @ p, np.eye(n), atol=1e-15)
            for column in p.T:
                unpack_kernel_vector(column, n_drive, n_jump)

    def test_term_images_hermitian_in_the_basis(self, rng):
        ansatz = random_ansatz(rng, 5, 2, 3)
        images = build_correlation_matrix(ansatz, random_density(rng, 5)).images
        mapped = np.tensordot(hermitian_parameter_basis(2, 3).T, images, axes=1)
        scale = np.linalg.norm(images)
        assert np.linalg.norm(mapped - mapped.conj().transpose(0, 2, 1)) <= 1e-13 * scale


class TestUnpack:
    def test_coherent_kernel_vector(self):
        vec = analytic_kernel_vectors(CoherentSpec(alpha=1.0))[0]
        params = unpack_kernel_vector(vec, 2, 2)
        np.testing.assert_allclose(params.c, [0.0, np.sqrt(2) / 2], atol=1e-14)
        np.testing.assert_allclose(
            params.gamma, [[1.0, 0.0], [0.0, 0.0]], atol=1e-14
        )
        assert params.markovian

    def test_purely_dissipative_squeezed_vector(self):
        r = 0.5
        vec = analytic_kernel_vectors(SqueezedSpec(r=r))[2]
        params = unpack_kernel_vector(vec, 2, 2)
        np.testing.assert_allclose(params.c, [0.0, 0.0], atol=1e-14)
        expected = 0.5 * np.array(
            [
                [np.cosh(2 * r) + 1, np.sinh(2 * r)],
                [np.sinh(2 * r), np.cosh(2 * r) - 1],
            ]
        )
        np.testing.assert_allclose(params.gamma, expected, atol=1e-12)
        assert params.markovian

    def test_global_phase_rejected(self):
        # only the sign is fixed: a complex global phase is not physical
        vec = analytic_kernel_vectors(CoherentSpec(alpha=2j))[0]
        with pytest.raises(NonPhysicalVectorError):
            unpack_kernel_vector(np.exp(0.7j) * vec, 2, 2)
        flipped = unpack_kernel_vector(-vec, 2, 2)
        reference = unpack_kernel_vector(vec, 2, 2)
        np.testing.assert_array_equal(flipped.c, reference.c)
        np.testing.assert_array_equal(flipped.gamma, reference.gamma)

    def test_sign_picks_nonnegative_dissipative_trace(self):
        vec = -analytic_kernel_vectors(CoherentSpec(alpha=1.0))[0]
        params = unpack_kernel_vector(vec, 2, 2)
        assert params.gamma[0, 0].real > 0
        assert params.markovian

    def test_imaginary_couplings_rejected(self):
        vec = np.array([1.0, 0.5j, 1.0, 0.0, 0.0, 1.0], dtype=complex)
        with pytest.raises(NonPhysicalVectorError):
            unpack_kernel_vector(vec, 2, 2)

    def test_asymmetric_gamma_rejected(self):
        vec = np.array([1.0, 0.0, 1.0, 0.5j, 0.5j, 1.0], dtype=complex)
        with pytest.raises(NonPhysicalVectorError):
            unpack_kernel_vector(vec, 2, 2)

    def test_zero_vector_unfixable(self):
        with pytest.raises(NonPhysicalVectorError):
            unpack_kernel_vector(np.zeros(6, dtype=complex), 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(DimMismatchError):
            unpack_kernel_vector(np.ones(5, dtype=complex), 2, 2)


class TestReverseEngineer:
    def test_coherent_target_unique_solution(self):
        model = build_model(CoherentSpec(alpha=1 + 1j))
        res = reverse_engineer(model.ansatz, model.rho_ss)
        assert res.verdict == "feasible"
        assert res.kernel_dim == 1
        assert len(res.solutions) == 1

    def test_two_particle_squeezed_unique_solution(self):
        spec = SqueezedSpec(r=0.5, theta=0.3, jumps="two")
        model = build_model(spec)
        res = reverse_engineer(model.ansatz, model.rho_ss)
        assert res.kernel_dim == 1
        vec = res.kernel_vectors[0]
        ana = analytic_kernel_vectors(spec)[0]
        overlap = abs(np.vdot(ana, vec)) / (np.linalg.norm(ana) * np.linalg.norm(vec))
        assert overlap > 1 - 1e-10

    def test_noisy_collective_target_infeasible(self):
        model = build_model(CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0, basis="xy2"))
        rho_eps = mix_with_identity(model.rho_ss, 1e-3)
        res = reverse_engineer(model.ansatz, rho_eps)
        assert res.verdict == "infeasible"
        assert res.kernel_dim == 0
        assert res.spectrum[0] > 1e-10

    def test_kernel_soundness(self):
        # every kernel solution annihilates the target,
        # independently of the eigensolver that found it
        for spec in (
            CoherentSpec(alpha=2j),
            SqueezedSpec(r=0.5, theta=0.0, jumps="two"),
            CollectiveSpec(n_spins=12, omega0=2.0, kappa=1.0),
        ):
            model = build_model(spec)
            res = reverse_engineer(model.ansatz, model.rho_ss)
            scale = np.linalg.norm(res.corr.mat)
            for sol in res.solutions:
                assert rapidity(sol, model.ansatz, model.rho_ss) <= 1e-16 * scale

    def test_degenerate_kernel_is_surfaced(self):
        model = build_model(SqueezedSpec(r=0.5, theta=0.0))
        res = reverse_engineer(model.ansatz, model.rho_ss)
        assert res.kernel_dim == 3
        assert len(res.solutions) == 3
        for entry in res.solutions:
            assert isinstance(entry, LindbladianParams)

    def test_every_kernel_vector_is_physical(self, rng):
        # every drive commutes with the maximally mixed state, so the kernel
        # is at least J-dimensional; every eigenvector of M, kernel or not,
        # comes in ascending order and unpacks
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            ansatz = random_ansatz(rng, dim, int(rng.integers(0, 3)), int(rng.integers(1, 4)))
            res = reverse_engineer(ansatz, np.eye(dim) / dim)
            vectors = res.eigenvectors
            assert np.all(np.diff(res.spectrum) >= 0)
            for vec in vectors.T:
                unpack_kernel_vector(vec, ansatz.n_drive, ansatz.n_jump)
            assert len(res.solutions) == res.kernel_dim

    def test_scale_covariance_of_drive_coefficient(self):
        # doubling a drive operator halves its recovered coefficient
        alpha = 1 + 0.5j
        base = build_model(CoherentSpec(alpha=alpha))
        doubled = LindbladAnsatz(
            h_ops=(2 * base.ansatz.h_ops[0], base.ansatz.h_ops[1]),
            jump_ops=base.ansatz.jump_ops,
        )
        sol_base = reverse_engineer(base.ansatz, base.rho_ss).solutions[0]
        sol_doubled = reverse_engineer(doubled, base.rho_ss).solutions[0]
        ratio_base = sol_base.c[0] / sol_base.gamma[0, 0].real
        ratio_doubled = sol_doubled.c[0] / sol_doubled.gamma[0, 0].real
        assert abs(ratio_doubled - ratio_base / 2) < 1e-9


class TestMarkovianPostprocessing:
    def test_postselect_keeps_only_dissipative_squeezed_solution(self):
        spec = SqueezedSpec(r=0.5, theta=np.pi / 3)
        vectors = analytic_kernel_vectors(spec)
        unpacked = [unpack_kernel_vector(v, 2, 2) for v in vectors]
        kept = markovian_postselect(unpacked)
        assert len(kept) == 1
        np.testing.assert_allclose(kept[0].c, [0.0, 0.0], atol=1e-12)

    def test_indefinite_spectra_of_rejected_solutions(self):
        r = 0.5
        vectors = analytic_kernel_vectors(SqueezedSpec(r=r))
        g1 = unpack_kernel_vector(vectors[0], 2, 2).gamma_eigenvalues
        g2 = unpack_kernel_vector(vectors[1], 2, 2).gamma_eigenvalues
        np.testing.assert_allclose(g1, [-1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(
            g2, [-np.cosh(2 * r), np.cosh(2 * r)], atol=1e-10
        )

    def test_postselect_empty_input(self):
        assert markovian_postselect([]) == []

    def test_repair_leaves_psd_untouched(self, rng):
        m = random_hermitian(rng, 3)
        params = LindbladianParams(c=np.array([1.0]), gamma=m @ m.conj().T)
        repaired = repair_markovianity(params)
        assert np.linalg.norm(repaired.gamma - params.gamma) < 1e-12
        np.testing.assert_allclose(repaired.c, params.c)

    def test_repair_clamps_negative_rate(self):
        params = LindbladianParams(
            c=np.zeros(0), gamma=np.diag([1.0, -0.01]).astype(complex)
        )
        repaired = repair_markovianity(params)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(repaired.gamma), [0.0, 1.0], atol=1e-14
        )
        assert repaired.markovian


class TestSuperpositionSearch:
    def test_single_psd_vector_passes_through(self):
        vec = analytic_kernel_vectors(CoherentSpec(alpha=1.0))[0]
        res = markovian_superposition_search([vec], 2, 2)
        assert len(res.solutions) == 1
        assert res.direction_supported == [True]

    def test_single_indefinite_vector_yields_nothing(self):
        vec = analytic_kernel_vectors(SqueezedSpec(r=0.5))[0]
        res = markovian_superposition_search([vec], 2, 2)
        assert res.solutions == []
        assert res.direction_supported == [False]

    def test_squeezed_kernel_admits_only_the_dissipative_direction(self):
        spec = SqueezedSpec(r=0.5, theta=np.pi / 3)
        basis = [v / np.linalg.norm(v) for v in analytic_kernel_vectors(spec)]
        res = markovian_superposition_search(basis, 2, 2)
        assert len(res.solutions) >= 1
        assert res.direction_supported == [False, False, True]
        for coeffs in res.coefficients:
            assert np.max(np.abs(coeffs[:2])) < 1e-6 * abs(coeffs[2])

    def test_search_is_deterministic(self):
        spec = SqueezedSpec(r=0.25, theta=0.0)
        basis = [v / np.linalg.norm(v) for v in analytic_kernel_vectors(spec)]
        a = markovian_superposition_search(basis, 2, 2)
        b = markovian_superposition_search(basis, 2, 2)
        assert len(a.solutions) == len(b.solutions)
        for pa, pb in zip(a.solutions, b.solutions):
            np.testing.assert_array_equal(pa.gamma, pb.gamma)

    def test_drive_only_and_jump_only_ansatze(self):
        # thermal state of a truncated mode: n = a^dag a commutes with it, and
        # decay at rate 1 plus pumping at rate q balance it exactly
        q = 0.4
        ops = boson_ops(FockSpace(6))
        rho = np.diag(q ** np.arange(7)).astype(complex)
        rho /= np.trace(rho)
        n_op = ops.a_dag @ ops.a
        drive_only = LindbladAnsatz(h_ops=(n_op,), jump_ops=())
        jump_only = LindbladAnsatz(h_ops=(), jump_ops=(ops.a, ops.a_dag))
        for ansatz in (drive_only, jump_only):
            res = reverse_engineer(ansatz, rho)
            assert res.kernel_dim == 1
            kept = markovian_postselect(res.solutions)
            assert len(kept) == 1
            search = markovian_superposition_search(
                res.kernel_vectors, ansatz.n_drive, ansatz.n_jump
            )
            assert len(search.solutions) == 1
            assert search.direction_supported == [True]
            for params in (kept[0], search.solutions[0]):
                assert params.markovian
                assert rapidity(params, ansatz, rho) < 1e-24
        assert kept[0].gamma.shape == (2, 2)
        np.testing.assert_allclose(
            search.solutions[0].gamma / search.solutions[0].gamma[0, 0],
            np.diag([1.0, q]), atol=1e-12,
        )
        # the slice point gamma / tr(gamma) has smallest eigenvalue q / (1 + q)
        assert search.max_min_rate == pytest.approx(q / (1 + q), abs=1e-12)
        drive_search = markovian_superposition_search(
            reverse_engineer(drive_only, rho).kernel_vectors, 1, 0
        )
        assert drive_search.solutions[0].gamma.shape == (0, 0)
        np.testing.assert_allclose(drive_search.solutions[0].c, [1.0])
        assert drive_search.max_min_rate is None

    def test_numeric_kernel_basis_works_after_gauge_mapping(self):
        # eigensolver output (arbitrary complex mixtures) goes through the
        # same search thanks to the internal physical-gauge construction
        model = build_model(SqueezedSpec(r=0.5, theta=0.0))
        res = reverse_engineer(model.ansatz, model.rho_ss)
        search = markovian_superposition_search(list(res.kernel_vectors), 2, 2)
        assert len(search.solutions) >= 1
        ana = analytic_kernel_vectors(SqueezedSpec(r=0.5, theta=0.0))[2]
        best = max(
            abs(np.vdot(ana, sol.to_vector()))
            / (np.linalg.norm(ana) * np.linalg.norm(sol.to_vector()))
            for sol in search.solutions
        )
        assert best > 1 - 1e-8
