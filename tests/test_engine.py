import tracemalloc

import numpy as np
import pytest

from lindrec.engine import (
    LindbladAnsatz,
    LindbladianParams,
    apply_lindbladian,
    build_correlation_matrix,
    hermitian_parameter_basis,
    markovian_postselect,
    markovian_superposition_search,
    rapidity,
    repair_markovianity,
    reverse_engineer,
    term_images,
    unpack_kernel_vector,
)
from lindrec.errors import (
    DimMismatchError,
    NonFiniteError,
    NonPhysicalVectorError,
    NotHermitianError,
)
from lindrec import engine, models
from lindrec.models import (
    CoherentSpec,
    CollectiveSpec,
    SqueezedSpec,
    analytic_corr_matrix,
    analytic_kernel_vectors,
    build_model,
)
from lindrec.numerics import hermitian_coordinates, hermitian_part
from lindrec.quantum_ops import (
    Operator,
    boson_ops,
    mix_with_identity,
    spin_ops,
)

from conftest import (
    ansatz_matrices,
    apply_d_term,
    apply_h_term,
    correlation_matrix,
    random_ansatz,
    random_density,
    random_hermitian,
    random_params,
)


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
        ops = boson_ops(10)
        vac = np.zeros((11, 11), dtype=complex)
        vac[0, 0] = 1.0
        a = ops.a.dense()
        assert np.linalg.norm(apply_d_term(a, a, vac)) < 1e-14

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


def term_by_term_images(ansatz, rho):
    """The J + K^2 image stack from the reference term maps, in index-map order."""
    drives, jumps = ansatz_matrices(ansatz)
    drives = [apply_h_term(h, rho) for h in drives]
    jumps = [apply_d_term(l_j, l_k, rho) for l_j in jumps for l_k in jumps]
    return np.array(drives + jumps).reshape(ansatz.n_params, ansatz.dim, ansatz.dim)


def reference_rows(ansatz, rho, lo, hi):
    """Entries (r, c), lo <= r < hi, lo <= c < d, of the reference images
    combined by the basis P, sum_mu P[mu, q] O_mu."""
    p = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump)
    return np.tensordot(p.T, term_by_term_images(ansatz, rho), axes=1)[:, lo:hi, lo:]


def re_im_gram(ansatz, rho):
    """A^T A from the real and imaginary parts of all d^2 entries of the
    reference images in the basis P."""
    p = hermitian_parameter_basis(ansatz.n_drive, ansatz.n_jump)
    entries = term_by_term_images(ansatz, rho).reshape(ansatz.n_params, -1).T @ p
    re_im = np.vstack([entries.real, entries.imag])
    return re_im.T @ re_im


# model ansaetze at d = 101 and 165
LARGE_SPECS = [
    CollectiveSpec(n_spins=100, omega0=1.5, kappa=1.0),
    SqueezedSpec(r=1.0, n_max=164),
    SqueezedSpec(r=1.0, jumps="two", n_max=164),
]

# every model ansatz, from d = 3 to d = 401
MODEL_SPECS = [
    *(CollectiveSpec(n_spins=n, omega0=1.5, kappa=1.0, basis=basis)
      for n in (2, 3, 40, 400) for basis in ("full3", "xy2")),
    CoherentSpec(alpha=1.5 - 0.5j),
    SqueezedSpec(r=1.0, n_max=164),
    SqueezedSpec(r=1.0, jumps="two", n_max=164),
]


class TestBandedProducts:
    @staticmethod
    def products(mat, rng):
        """The products of ``Operator.from_dense(mat)`` with a random dense
        matrix and with its transposed view, with their ``np.matmul``
        references."""
        dim = mat.shape[0]
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = Operator.from_dense(mat)
        left, left_t = np.full((2, dim, dim), np.nan, dtype=complex)
        op.left(x, left)
        op.left(x.T, left_t)
        return op, (left, mat @ x), (left_t, mat @ x.T)

    def test_single_off_diagonal(self, rng):
        sp = spin_ops(60).sp.dense()
        op, *pairs = self.products(sp, rng)
        assert [offset for offset, _ in op.diagonals] == [1]
        for got, expected in pairs:
            np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0)

    def test_zero_operator(self, rng):
        op, *pairs = self.products(np.zeros((45, 45), dtype=complex), rng)
        assert op.diagonals == []
        for got, _ in pairs:
            np.testing.assert_array_equal(got, 0)


class TestTermImages:
    @pytest.mark.parametrize("n_drive, n_jump", [
        (2, 0), *((j, k) for j in range(4) for k in range(1, 4)),
    ])
    def test_matches_term_maps_on_random_ansatze(self, rng, n_drive, n_jump):
        for dim in (2, 5, 9):
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            rho = random_density(rng, dim)
            # the whole state, one row, and rows in the middle
            for lo, hi in ((0, dim), (dim - 1, dim), (dim // 3, dim // 3 + 2)):
                expected = reference_rows(ansatz, rho, lo, hi)
                got = term_images(ansatz, rho, lo, hi)
                assert got.shape == (ansatz.n_params, hi - lo, dim - lo)
                assert got.dtype == complex
                assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("spec", [
        CoherentSpec(alpha=1.5 - 0.5j),
        SqueezedSpec(r=0.7, theta=0.4),
        SqueezedSpec(r=0.7, theta=0.4, jumps="two", n_max=60),
        CollectiveSpec(n_spins=12, omega0=2.0, kappa=1.0),
        CollectiveSpec(n_spins=12, omega0=0.5, kappa=1.0, basis="xy2"),
        *LARGE_SPECS,
        CollectiveSpec(n_spins=40, omega0=1.5, kappa=1.0),
    ])
    def test_matches_term_maps_on_model_ansatze(self, spec):
        model = build_model(spec)
        dim = model.ansatz.dim
        for lo, hi in ((0, dim), (dim // 2, dim // 2 + 7)):
            expected = reference_rows(model.ansatz, model.rho_ss, lo, hi)
            got = term_images(model.ansatz, model.rho_ss, lo, hi)
            assert got.shape == (model.ansatz.n_params, hi - lo, dim - lo)
            assert got.dtype == complex
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_model_ansatze_are_banded(self, spec):
        operators = build_model(spec).ansatz._operators
        assert all(isinstance(op, Operator) for group in operators for op in group)

    def test_non_finite_state_rejected(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 2)
        params = random_params(rng, 1, 2)
        for bad in (np.nan, np.inf):
            rho = random_density(rng, 4)
            rho[2, 2] = bad
            for call in (
                lambda: build_correlation_matrix(ansatz, rho),
                lambda: apply_lindbladian(params, ansatz, rho),
                lambda: reverse_engineer(ansatz, rho),
                lambda: rapidity(params, ansatz, rho),
            ):
                with pytest.raises(NonFiniteError, match="state"):
                    call()

    def test_non_finite_operator_rejected(self, rng):
        h = random_hermitian(rng, 3)
        h[0, 1] = h[1, 0] = np.nan
        with pytest.raises(NonFiniteError, match="drive operator 0"):
            LindbladAnsatz(h_ops=(h,), jump_ops=())
        jumps = (np.eye(3), np.diag([1.0, np.inf, 0.0]))
        with pytest.raises(NonFiniteError, match="jump operator 1"):
            LindbladAnsatz(h_ops=(random_hermitian(rng, 3),), jump_ops=jumps)

    def test_non_hermitian_drive_rejected(self):
        with pytest.raises(NotHermitianError, match="drive operator 0"):
            LindbladAnsatz(h_ops=(np.array([[0, 1], [0, 0]]),), jump_ops=())

    def test_non_hermitian_state_rejected(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 2)
        params = random_params(rng, 1, 2)
        rho = random_density(rng, 4)
        rho[0, 1] += 1e-6
        for call in (
            lambda: build_correlation_matrix(ansatz, rho),
            lambda: apply_lindbladian(params, ansatz, rho),
            lambda: rapidity(params, ansatz, rho),
        ):
            with pytest.raises(NotHermitianError):
                call()

    def test_hermitian_part_of_a_nearly_hermitian_state_is_used(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 2)
        rho = random_density(rng, 4)
        skew = random_hermitian(rng, 4) * 1j
        expected = correlation_matrix(ansatz, rho)
        got = correlation_matrix(ansatz, rho + 1e-10 * skew)
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("spec", [
        CoherentSpec(alpha=1.5 * np.exp(0.7j)),
        SqueezedSpec(r=0.6, theta=1.1, n_max=164),
    ])
    def test_bosonic_states_are_exactly_hermitian(self, spec):
        # so the reconstruction reads them as they are, with no averaged copy
        rho = build_model(spec).rho_ss
        assert hermitian_part(rho, "state") is rho

    def test_drives_stored_exactly_hermitian(self, rng):
        h = random_hermitian(rng, 4)
        h[0, 1] += 1e-12
        ((stored,), _) = ansatz_matrices(LindbladAnsatz(h_ops=(h,), jump_ops=()))
        np.testing.assert_array_equal(stored, stored.conj().T)
        np.testing.assert_allclose(stored, h, atol=1e-12)
        # an exactly Hermitian drive is kept as given, not copied
        exact = random_hermitian(rng, 4)
        assert LindbladAnsatz(h_ops=(exact,), jump_ops=())._operators[0][0] is exact


class TestAnsatzStorage:
    @pytest.mark.parametrize("spec", MODEL_SPECS)
    def test_stored_operators_are_the_operators_passed_in(self, monkeypatch, spec):
        built = []

        def recording(h_ops, jump_ops):
            built.append((LindbladAnsatz(h_ops=h_ops, jump_ops=jump_ops), h_ops, jump_ops))
            return built[-1][0]

        monkeypatch.setattr(models, "LindbladAnsatz", recording)
        ansatz = build_model(spec).ansatz
        h_ops, jump_ops = next(ops for a, *ops in built if a is ansatz)
        for stored, given in zip(ansatz_matrices(ansatz), (h_ops, jump_ops)):
            assert len(stored) == len(given)
            for got, expected in zip(stored, given):
                assert got.dtype == complex
                np.testing.assert_array_equal(got, expected.dense())

    def test_banded_operator_holds_no_square_array(self):
        # every spin and boson operator is built from its diagonals
        for ops, dim in ((spin_ops(400), 401), (boson_ops(164), 165)):
            for name in vars(ops):
                op = getattr(ops, name)
                assert op.dim == dim, name
                arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
                arrays += [values for _, values in op.diagonals]
                assert arrays and all(a.ndim == 1 and len(a) <= dim for a in arrays), name

    def test_build_model_keeps_only_the_state_dense(self):
        # the state takes 16 d^2 = 2.6 MB at d = 401, and a dense Sx, Sy or
        # Sz would take as much again each.  The operators are built from
        # their diagonals, and the state build holds two d x d arrays at a
        # time (eta and rho, then rho and its adjoint), as does its residual
        # check (rho and L[rho], assembled block by block): 2.6 states at the
        # peak, with the comparison mask of eta
        for omega0 in (0.7, 1.5):
            tracemalloc.start()
            try:
                model = build_model(CollectiveSpec(n_spins=400, omega0=omega0, kappa=1.0))
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert all(
                isinstance(op, Operator) for group in model.ansatz._operators for op in group
            )
            assert kept <= 4e6
            assert peak <= 3 * 16 * 401**2

    @pytest.mark.parametrize("dim", [1, 2, 41, 401])
    def test_operators_stored_as_given(self, rng, dim):
        # an Operator stays that object, and a matrix, banded or dense, is
        # held by reference and multiplied by np.matmul, bitwise
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sx = spin_ops(dim - 1).sx if dim > 1 else Operator(1, [(0, [0.5])])
        banded = sx.dense()
        dense = random_hermitian(rng, dim)
        ansatz = LindbladAnsatz(h_ops=(sx, banded, dense), jump_ops=(sx, banded, dense))
        drives, jumps, _ = ansatz._operators
        for stored in (drives, jumps):
            assert [id(op) for op in stored] == [id(sx), id(banded), id(dense)]
        for mat in (banded, dense):
            for operand in (x, x.T):
                out = np.empty((dim, dim), dtype=complex)
                engine._left(mat, operand, out, 0)
                assert out.tobytes() == (mat @ operand).tobytes()

    def test_dense_operators_held_by_reference(self, rng):
        h, l = random_hermitian(rng, 30), rng.standard_normal((30, 30)) + 0j
        ansatz = LindbladAnsatz(h_ops=(h,), jump_ops=(l,))
        (drive,), (jump,), (anticommutator,) = ansatz._operators
        assert drive is h and jump is l
        # the anticommutator operator of a matrix jump is a matrix
        n = l.conj().T @ l
        np.testing.assert_array_equal(anticommutator, (n + n.conj().T) * 0.25)
        # an Operator with every diagonal nonzero is kept as given too
        op = Operator.from_dense(h)
        assert len(op.diagonals) == 59
        ansatz = LindbladAnsatz(h_ops=(op,), jump_ops=())
        (stored,), _, _ = ansatz._operators
        assert stored is op
        np.testing.assert_array_equal(ansatz_matrices(ansatz)[0][0], h)

    def test_ansatz_without_operators_rejected(self):
        with pytest.raises(DimMismatchError):
            LindbladAnsatz((), ())

    def test_identity_semantics(self):
        drive = np.array([[1.0, 0.5], [0.5, -1.0]])
        first, second = (LindbladAnsatz(h_ops=(drive,), jump_ops=()) for _ in range(2))
        assert first == first and not first != first
        assert first != second and not first == second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2


class TestLindbladianParams:
    def test_complex_couplings_rejected(self):
        # the imaginary part is not dropped with a ComplexWarning
        with pytest.raises(NonPhysicalVectorError):
            LindbladianParams(c=[1j], gamma=np.eye(1))
        with pytest.raises(NonPhysicalVectorError):
            LindbladianParams(c=np.array([1.0, 2.0 + 1e-9j]), gamma=np.eye(1))

    def test_complex_dtype_with_zero_imaginary_part_accepted(self):
        params = LindbladianParams(c=np.array([1.0 + 0j, -2.0]), gamma=np.eye(1))
        assert params.c.dtype == float
        np.testing.assert_array_equal(params.c, [1.0, -2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["c", "diagonal", "off-diagonal"])
    def test_non_finite_entries_rejected(self, bad, entry):
        # rapidity, apply_lindbladian and markovian would read them as nan
        c, gamma = np.array([1.0, -0.5]), np.eye(2, dtype=complex)
        if entry == "c":
            c[1] = bad
        else:
            gamma[0, 0 if entry == "diagonal" else 1] = bad
        name = "coupling vector c" if entry == "c" else "rate matrix gamma"
        with pytest.raises(NonFiniteError, match=name):
            LindbladianParams(c=c, gamma=gamma)

    @pytest.mark.parametrize("gamma", [1.0, np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))])
    def test_rate_matrix_must_be_square(self, gamma):
        with pytest.raises(DimMismatchError, match="gamma must be a square matrix"):
            LindbladianParams(c=[], gamma=gamma)


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

    def test_state_of_another_dimension_rejected(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 1)
        params = random_params(rng, 1, 1, hermitian_gamma=True)
        with pytest.raises(DimMismatchError):
            apply_lindbladian(params, ansatz, random_density(rng, 5))

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

    @pytest.mark.parametrize("case", [
        (2, 1, 1), (5, 2, 2), (9, 3, 3), (7, 0, 2),
        CollectiveSpec(n_spins=40, omega0=1.5, kappa=1.0),
        CoherentSpec(alpha=1.5 - 0.5j),
        SqueezedSpec(r=0.6, theta=1.1, jumps="two", n_max=60),
    ], ids=repr)
    def test_factor_gives_the_flow_norm(self, rng, case):
        # ||R Re z||^2 + ||R Im z||^2 against ||L[rho]||_F^2 from the
        # reference term maps, for random parameters and for the kernel
        # solutions, whose flow vanishes up to the roundoff floor of R
        if isinstance(case, tuple):
            ansatz, rho = random_ansatz(rng, *case), random_density(rng, case[0])
        else:
            model = build_model(case)
            ansatz, rho = model.ansatz, model.rho_ss
        result = reverse_engineer(ansatz, rho)
        floor = 1e-14 * np.linalg.norm(result.factor) ** 2
        images = term_by_term_images(ansatz, rho)
        candidates = [random_params(rng, ansatz.n_drive, ansatz.n_jump) for _ in range(3)]
        for params in candidates + result.solutions:
            flow = np.tensordot(params.to_vector(), images, axes=1)
            expected = float(np.vdot(flow, flow).real)
            got = rapidity(params, ansatz, rho)
            assert abs(got - expected) <= 1e-12 * expected + floor
            assert result.rapidity(params) == got

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
            phi = params.to_vector()
            quad = float((phi.conj() @ correlation_matrix(ansatz, rho) @ phi).real)
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
        # parameters of the same length J + K^2 = 6, but of another (J, K)
        for other in (random_params(rng, 6, 0), random_params(rng, 5, 1)):
            for call in (
                lambda: res.rapidity(other),
                lambda: rapidity(other, ansatz, rho),
                lambda: apply_lindbladian(other, ansatz, rho),
            ):
                with pytest.raises(DimMismatchError):
                    call()


class TestCorrelationMatrix:
    def test_coherent_vacuum_is_diagonal(self):
        model = build_model(CoherentSpec(alpha=0.0))
        np.testing.assert_allclose(
            correlation_matrix(model.ansatz, model.rho_ss),
            np.diag([1, 1, 0, 0.5, 0.5, 2.0]),
            atol=1e-12,
        )

    def test_coherent_displaced_entry(self):
        model = build_model(CoherentSpec(alpha=1.0))
        mat = correlation_matrix(model.ansatz, model.rho_ss)
        # drive-p against the a^dag a^dag dissipator column
        assert abs(mat[1, 5] - np.sqrt(2) / 2) < 1e-10

    def test_matches_closed_form_for_squeezed_target(self):
        spec = SqueezedSpec(r=0.5, theta=np.pi / 3)
        model = build_model(spec)
        mat = correlation_matrix(model.ansatz, model.rho_ss)
        np.testing.assert_allclose(mat, analytic_corr_matrix(spec), atol=1e-8)

    def test_gram_matrix_hermitian_before_symmetrization(self, rng):
        # M is formed as P R^T R P^dag and never symmetrized afterwards
        ansatz = random_ansatz(rng, 5, 2, 2)
        rho = random_density(rng, 5)
        mat = correlation_matrix(ansatz, rho)
        assert np.linalg.norm(mat - mat.conj().T) <= 1e-9 * np.linalg.norm(mat)

    def test_factor_reproduces_gram_matrix_of_images(self, rng):
        # reference: the pairwise traces Tr(O_mu^dag O_nu) written out
        for dim, n_drive, n_jump in ((5, 2, 2), (3, 0, 3), (4, 3, 1), (2, 1, 3)):
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            rho = random_density(rng, dim)
            factor = build_correlation_matrix(ansatz, rho)
            images = term_by_term_images(ansatz, rho)
            gram = np.array([[np.vdot(a, b) for b in images] for a in images])
            mat = correlation_matrix(ansatz, rho)
            assert np.linalg.norm(mat - gram) <= 1e-13 * np.linalg.norm(gram)
            assert isinstance(factor, np.ndarray) and factor.dtype == float
            assert factor.shape[1] == n_drive + n_jump**2
            assert np.array_equal(factor, np.triu(factor))

    @pytest.mark.parametrize("case", [
        # (d, J, K): random, drive-only, jump-only, d = 1 and d = 2
        (7, 2, 3), (6, 3, 0), (6, 0, 3), (1, 1, 2), (2, 2, 2),
        *LARGE_SPECS,
    ])
    def test_factor_matches_the_re_im_fold(self, rng, case):
        # reference: the real and imaginary parts of all d^2 entries of the
        # reference images in the basis P, 2 d^2 rows
        if isinstance(case, tuple):
            dim, n_drive, n_jump = case
            ansatz, rho = random_ansatz(rng, dim, n_drive, n_jump), random_density(rng, dim)
        else:
            model = build_model(case)
            ansatz, rho = model.ansatz, model.rho_ss
        factor = build_correlation_matrix(ansatz, rho)
        expected = re_im_gram(ansatz, rho)
        got = factor.T @ factor
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("case", [
        # Operators, matrices, both in one ansatz, and the offset +-2 jumps
        # a^2, a_dag^2
        CollectiveSpec(n_spins=40, omega0=1.5, kappa=1.0),
        (9, 2, 2),
        "mixed",
        SqueezedSpec(r=0.6, theta=1.1, jumps="two", n_max=60),
    ], ids=repr)
    @pytest.mark.parametrize("rows", ["1", "7", "non-divisor", "all"])
    def test_factor_does_not_depend_on_the_blocks(self, rng, monkeypatch, case, rows):
        if isinstance(case, tuple):
            ansatz, rho = random_ansatz(rng, *case), random_density(rng, case[0])
        elif case == "mixed":
            ops, (drives, jumps) = spin_ops(12), ansatz_matrices(random_ansatz(rng, 13, 1, 1))
            ansatz = LindbladAnsatz(h_ops=(ops.sx, *drives), jump_ops=(ops.sm, *jumps))
            rho = random_density(rng, 13)
        else:
            model = build_model(case)
            ansatz, rho = model.ansatz, model.rho_ss
        dim = ansatz.dim
        size = {"1": 1, "7": 7, "non-divisor": dim // 2 + 1, "all": dim + 3}[rows]
        assert size == 1 or dim % size
        blocks = [(lo, min(lo + size, dim)) for lo in range(0, dim, size)]
        monkeypatch.setattr(engine, "_blocks", lambda _: blocks)
        factor = build_correlation_matrix(ansatz, rho)
        expected = re_im_gram(ansatz, rho)
        got = factor.T @ factor
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)
        # the generator assembled from the same blocks
        params = random_params(rng, ansatz.n_drive, ansatz.n_jump)
        flow = apply_lindbladian(params, ansatz, rho)
        reference = np.tensordot(params.to_vector(), term_by_term_images(ansatz, rho), axes=1)
        assert np.linalg.norm(flow - reference) <= 1e-13 * np.linalg.norm(reference)

    def test_blocks_cover_the_rows_and_outweigh_no_state(self):
        # BLOCK_ROWS rows, fewer where the images of a block would take more
        # bytes than the state, 16 d^2
        for dim, n_drive, n_jump in ((401, 3, 3), (101, 3, 3), (11, 2, 2), (3, 0, 3), (1, 1, 1)):
            ansatz = LindbladAnsatz(
                h_ops=(np.eye(dim),) * n_drive, jump_ops=(np.eye(dim),) * n_jump
            )
            blocks = engine._blocks(ansatz)
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == dim
            rows = max(hi - lo for lo, hi in blocks)
            assert rows <= engine.BLOCK_ROWS
            assert rows == 1 or 16 * rows * dim * ansatz.n_params <= 16 * dim**2

    def test_non_hermitian_state_rejected(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 1)
        rho = random_density(rng, 4)
        rho[0, 1] += 1e-3
        with pytest.raises(NotHermitianError):
            build_correlation_matrix(ansatz, rho)

    def test_state_of_another_dimension_rejected(self, rng):
        ansatz = random_ansatz(rng, 4, 1, 1)
        with pytest.raises(DimMismatchError):
            build_correlation_matrix(ansatz, random_density(rng, 5))

    @pytest.mark.parametrize("basis", ["full3", "xy2"])
    def test_peak_memory_does_not_grow_with_the_ansatz(self, basis):
        # the coordinates A of the images would take 8 (J + K^2) d^2 bytes,
        # 12 states' worth in the full basis; the blocks of A are folded
        # into R as they are formed, so the reconstruction's heap stays
        # within four d x d complex arrays whatever J + K^2 is
        model = build_model(CollectiveSpec(n_spins=100, omega0=1.5, kappa=1.0, basis=basis))
        tracemalloc.start()
        try:
            result = reverse_engineer(model.ansatz, model.rho_ss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result holds the (J + K^2) x (J + K^2) factor, not the images
        assert result.factor.nbytes <= 8 * model.ansatz.n_params**2
        assert peak <= 4 * 16 * model.ansatz.dim**2

    def test_gram_matrix_psd(self, rng):
        for _ in range(5):
            ansatz = random_ansatz(rng, 4, 2, 2)
            rho = random_density(rng, 4)
            w = np.linalg.eigvalsh(correlation_matrix(ansatz, rho))
            assert w[0] >= -1e-9 * max(1.0, w[-1])

    def test_dissipator_block_index_map(self):
        # dissipator (j, k) sits at J + j K + k, row-major after the drives
        model = build_model(CoherentSpec(alpha=1.0 + 0.5j))
        mat = correlation_matrix(model.ansatz, model.rho_ss)
        drives, jumps = ansatz_matrices(model.ansatz)
        images = [apply_h_term(h, model.rho_ss) for h in drives]
        images += [None] * 4
        for j, k, index in ((0, 0, 2), (0, 1, 3), (1, 0, 4), (1, 1, 5)):
            images[index] = apply_d_term(jumps[j], jumps[k], model.rho_ss)
        gram = np.array([[np.vdot(a, b) for b in images] for a in images])
        assert np.linalg.norm(mat - gram) <= 1e-13 * np.linalg.norm(gram)
        assert mat.shape == (6, 6)


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
        rho = random_density(rng, 5)
        images = term_by_term_images(ansatz, rho)
        mapped = np.tensordot(hermitian_parameter_basis(2, 3).T, images, axes=1)
        scale = np.linalg.norm(images)
        assert np.linalg.norm(mapped - mapped.conj().transpose(0, 2, 1)) <= 1e-13 * scale
        # the factor's Gram matrix is that of their coordinates
        factor = build_correlation_matrix(ansatz, rho)
        coords = hermitian_coordinates(mapped)
        gram = coords @ coords.T
        assert np.linalg.norm(factor.T @ factor - gram) <= 1e-13 * np.linalg.norm(gram)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_vector_rejected(self, bad):
        # NaN fails both the zero-norm and the imaginary-part comparison, so
        # without the finiteness check it would unpack to NaN parameters
        with pytest.raises(NonFiniteError, match="parameter vector"):
            unpack_kernel_vector(np.full(6, bad, dtype=complex), 2, 2)
        vec = analytic_kernel_vectors(CoherentSpec(alpha=1.0))[0].astype(complex)
        vec[3] = bad
        with pytest.raises(NonFiniteError, match="parameter vector"):
            unpack_kernel_vector(vec, 2, 2)


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

    @pytest.mark.parametrize("tol_null", [np.nan, 0.0, -1e-10, 1.0, 2.0])
    def test_null_tolerance_outside_the_unit_interval_rejected(self, tol_null):
        # on this feasible target NaN, 0 and a negative tolerance would
        # certify an empty kernel, and 2.0 would call every direction null
        model = build_model(CoherentSpec(alpha=1.0))
        with pytest.raises(ValueError, match="tol_null"):
            reverse_engineer(model.ansatz, model.rho_ss, tol_null)

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
            scale = np.linalg.norm(correlation_matrix(model.ansatz, model.rho_ss))
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
        (h_0, h_1), jumps = ansatz_matrices(base.ansatz)
        doubled = LindbladAnsatz(h_ops=(2 * h_0, h_1), jump_ops=jumps)
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

    def test_repair_rejects_a_nan_rate(self):
        with pytest.raises(NonFiniteError):
            params = LindbladianParams(c=np.array([1.0]), gamma=np.diag([1.0, np.nan]))
            repair_markovianity(params)

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
    def test_empty_basis_yields_nothing(self):
        res = markovian_superposition_search([], 2, 2)
        assert res.solutions == [] and res.direction_supported == []
        assert res.max_min_rate is None

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
        for sol in res.solutions:
            coeffs = np.linalg.lstsq(np.array(basis).T, sol.to_vector(), rcond=None)[0]
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
        ops = boson_ops(6)
        rho = np.diag(q ** np.arange(7)).astype(complex)
        rho /= np.trace(rho)
        n_op = ops.a_dag.dense() @ ops.a.dense()
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
