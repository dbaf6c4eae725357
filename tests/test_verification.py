import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindrec
from lindrec.engine import (
    LindbladAnsatz,
    LindbladianParams,
    apply_lindbladian,
    rapidity,
    repair_markovianity,
    reverse_engineer,
    unpack_kernel_vector,
)
from lindrec.errors import (
    DimMismatchError,
    DimTooLargeError,
    NonFiniteError,
    NotHermitianError,
)
from lindrec.models import (
    XY_BASIS,
    CoherentSpec,
    CollectiveSpec,
    SqueezedSpec,
    build_model,
    collective_generator_params,
)
from lindrec.numerics import asymmetry, hermitian_coordinates, hermitian_from_coordinates
from lindrec.quantum_ops import Operator, mix_with_identity
from lindrec.verification import (
    MAX_SUPEROP_DIM,
    NULL_SV_TOL,
    SteadyStateResult,
    _bordered,
    _canonicalize_state,
    _one_inf,
    _steady_state_factored,
    _steady_state_svd,
    norm_difference,
    steady_state_of,
    vectorize_liouvillian,
)

from conftest import (
    ansatz_matrices,
    hermitian_basis,
    random_ansatz,
    random_density,
    random_hermitian,
    random_params,
)


def random_generators(rng, trials):
    """Seeded random ansaetze of dimension 2 to 8 with repaired Markovian
    rates, as (dim, ansatz, params)."""
    for trial in range(trials):
        dim = 2 + trial % 7
        n_drive, n_jump = int(rng.integers(0, 3)), int(rng.integers(1, 4))
        ansatz = random_ansatz(rng, dim, n_drive, n_jump)
        params = repair_markovianity(random_params(rng, n_drive, n_jump, hermitian_gamma=True))
        yield dim, ansatz, params


def master_equation(params, ansatz, rho):
    """L[rho] written out term by term from the Lindblad form."""
    out = np.zeros_like(rho, dtype=complex)
    drives, jumps = ansatz_matrices(ansatz)
    for c_j, h_j in zip(params.c, drives):
        out += -1j * c_j * (h_j @ rho - rho @ h_j)
    for j, l_j in enumerate(jumps):
        for k, l_k in enumerate(jumps):
            kd_j = l_k.conj().T @ l_j
            out += params.gamma[j, k] * (
                l_j @ rho @ l_k.conj().T - 0.5 * (kd_j @ rho + rho @ kd_j)
            )
    return out


def dense_superop(params, ansatz):
    """The dense d^2 x d^2 generator term by term from the Lindblad form,
    with vec(A rho B) = (B^T kron A) vec(rho)."""
    dim = ansatz.dim
    eye = np.eye(dim)
    left = np.zeros((dim, dim), dtype=complex)
    drives, jumps = ansatz_matrices(ansatz)
    for c_j, h_j in zip(params.c, drives):
        left -= 1j * c_j * h_j
    right = -left
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for j, l_j in enumerate(jumps):
        for k, l_k in enumerate(jumps):
            out += params.gamma[j, k] * np.kron(l_k.conj(), l_j)
            kd_j = params.gamma[j, k] * (l_k.conj().T @ l_j)
            left -= 0.5 * kd_j
            right -= 0.5 * kd_j
    out += np.kron(eye, left)
    out += np.kron(right.T, eye)
    return out


def mixed_ansatz(rng, dim):
    """Two drives and three jumps of dimension ``dim``, each kind mixing
    ``Operator``s (banded and from a full matrix) with dense matrices."""

    def random_op():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    off = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
    banded_drive = Operator(dim, [(-1, off.conj()), (0, rng.standard_normal(dim)), (1, off)])
    banded_jump = Operator(dim, [(offset, random_op().diagonal(offset)) for offset in (-1, 1)])
    return LindbladAnsatz(
        h_ops=(banded_drive, random_hermitian(rng, dim)),
        jump_ops=(banded_jump, random_op(), Operator.from_dense(random_op())),
    )


def gamma_with_zero_rate(rng, n_jump):
    """Hermitian PSD rate matrix with one zero rate (up to roundoff)."""
    _, chans = np.linalg.eigh(random_hermitian(rng, n_jump))
    rates = rng.uniform(0.5, 2.0, n_jump)
    rates[0] = 0.0
    return (chans * rates) @ chans.conj().T


class TestVectorize:
    def test_matches_direct_application(self, rng):
        ansatz = random_ansatz(rng, 4, 2, 2)
        params = random_params(rng, 2, 2, hermitian_gamma=True)
        rho = random_density(rng, 4)
        gen = vectorize_liouvillian(params, ansatz)
        direct = hermitian_coordinates(apply_lindbladian(params, ansatz, rho))
        got = gen @ hermitian_coordinates(rho)
        assert np.linalg.norm(got - direct) <= 1e-10 * max(1.0, np.linalg.norm(direct))

    @pytest.mark.parametrize("case", ["hermitian", "no_drive", "no_jump", "zero_rate"])
    def test_definition_on_random_states(self, rng, case):
        n_drive = 0 if case == "no_drive" else 2
        n_jump = 0 if case == "no_jump" else 3
        for dim in (2, 3, 5):
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            params = random_params(rng, n_drive, n_jump, hermitian_gamma=True)
            if case == "zero_rate":
                params = LindbladianParams(
                    c=params.c, gamma=gamma_with_zero_rate(rng, n_jump)
                )
            gen = vectorize_liouvillian(params, ansatz)
            assert gen.dtype == np.float64 and gen.format == "csr"
            rho = random_hermitian(rng, dim)
            expected = hermitian_coordinates(master_equation(params, ansatz, rho))
            got = gen @ hermitian_coordinates(rho)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "spec",
        [CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0, basis="xy2"), CoherentSpec(alpha=1.5)],
        ids=["collective", "coherent"],
    )
    def test_generator_is_canonical(self, spec):
        # abs() of a CSR array sorts its indices in place unless they are
        # sorted already; the certificate takes abs() of T itself
        model = build_model(spec)
        params = reverse_engineer(model.ansatz, model.rho_ss).solutions[0]
        gen = vectorize_liouvillian(params, model.ansatz)
        assert gen.has_canonical_format
        indices, data = gen.indices.copy(), gen.data.copy()
        out = _steady_state_factored(gen, model.ansatz.dim, certify=True)
        assert out.method == "inverse"
        np.testing.assert_array_equal(gen.indices, indices)
        np.testing.assert_array_equal(gen.data, data)

    def test_zero_params_zero_matrix(self, rng):
        params = LindbladianParams(c=np.zeros(1), gamma=np.zeros((1, 1)))
        assert vectorize_liouvillian(params, random_ansatz(rng, 3, 1, 1)).nnz == 0
        # zero operators hold no diagonals at all
        zero = LindbladAnsatz(h_ops=(Operator(3),), jump_ops=(Operator(3),))
        params = LindbladianParams(c=np.ones(1), gamma=np.ones((1, 1)))
        assert vectorize_liouvillian(params, zero).nnz == 0

    def test_vectorized_identity_is_left_null(self, rng):
        # the identity's coordinates are 1 at the diagonal positions, 0 elsewhere
        ansatz = random_ansatz(rng, 4, 2, 2)
        params = random_params(rng, 2, 2, hermitian_gamma=True)
        gen = vectorize_liouvillian(params, ansatz)
        residual = gen[np.arange(4) * 5].sum(axis=0)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(gen.toarray())

    def test_non_hermitian_rate_matrix_rejected(self, rng):
        ansatz = random_ansatz(rng, 3, 2, 3)
        params = random_params(rng, 2, 3)
        with pytest.raises(NotHermitianError, match="rate matrix gamma"):
            vectorize_liouvillian(params, ansatz)

    def test_non_finite_parameters_rejected(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        params = random_params(rng, 1, 2, hermitian_gamma=True)
        gamma = params.gamma.copy()
        gamma[1, 1] = np.inf
        with pytest.raises(NonFiniteError, match="rate matrix gamma"):
            vectorize_liouvillian(LindbladianParams(c=params.c, gamma=gamma), ansatz)
        with pytest.raises(NonFiniteError, match="coupling"):
            vectorize_liouvillian(LindbladianParams(c=[np.nan], gamma=params.gamma), ansatz)

    def test_dimension_guard(self):
        dim = 101
        ansatz = LindbladAnsatz(
            h_ops=(np.eye(dim, dtype=complex),), jump_ops=()
        )
        params = LindbladianParams(c=np.ones(1), gamma=np.zeros((0, 0)))
        with pytest.raises(DimTooLargeError):
            vectorize_liouvillian(params, ansatz)


class TestAllBandedAnsatz:
    """Coherent n_max = 99: d^2 = MAX_SUPEROP_DIM, and every operator of the
    ansatz is stored by its diagonals, from which verification forms its
    sparse matrices."""

    @pytest.fixture(scope="class")
    def reconstructed(self):
        model = build_model(CoherentSpec(alpha=1.0, n_max=99))
        assert model.ansatz.dim**2 == MAX_SUPEROP_DIM
        assert all(
            isinstance(op, Operator) for group in model.ansatz._operators for op in group
        )
        return model, reverse_engineer(model.ansatz, model.rho_ss).solutions[0]

    def test_vectorized_generator_matches_the_master_equation(self, rng, reconstructed):
        model, params = reconstructed
        gen = vectorize_liouvillian(params, model.ansatz)
        for _ in range(3):
            rho = random_hermitian(rng, 100)
            expected = hermitian_coordinates(master_equation(params, model.ansatz, rho))
            got = gen @ hermitian_coordinates(rho)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_lu_steady_state_is_the_coherent_state(self, reconstructed):
        model, params = reconstructed
        out = steady_state_of(params, model.ansatz, method="lu")
        assert out.method == "lu"
        assert norm_difference(out.rho, model.rho_ss) <= 1e-10


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_real_matrix_is_the_dense_change_of_basis(self, rng, dim):
        basis = hermitian_basis(dim)
        assert np.allclose(basis.conj().T @ basis, np.eye(dim * dim), atol=1e-15)
        for case in ("random", "no_drive", "no_jump", "zero_gamma", "zero_rate", "mixed"):
            n_drive = 0 if case == "no_drive" else 2
            n_jump = 0 if case == "no_jump" else 3
            if case == "mixed":
                ansatz = mixed_ansatz(rng, dim)
            else:
                ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            params = random_params(rng, n_drive, n_jump, hermitian_gamma=True)
            # a complex rate matrix of full rank, unless a case zeroes rates
            assert np.abs(params.gamma.imag).max(initial=0) > 0 or n_jump == 0
            assert np.linalg.matrix_rank(params.gamma) == n_jump
            if case == "zero_gamma":
                params = LindbladianParams(c=params.c, gamma=np.zeros((n_jump, n_jump)))
            elif case == "zero_rate":
                params = LindbladianParams(c=params.c, gamma=gamma_with_zero_rate(rng, n_jump))
            superop = dense_superop(params, ansatz)
            dense = basis.conj().T @ superop @ basis
            scale = np.abs(dense).max()
            assert np.abs(dense.imag).max() <= 1e-14 * scale, case
            real = vectorize_liouvillian(params, ansatz)
            assert real.dtype == np.float64
            assert np.abs(real.toarray() - dense.real).max() <= 1e-14 * scale, case
            s_real = np.linalg.svd(real.toarray(), compute_uv=False)
            s_complex = np.linalg.svd(superop, compute_uv=False)
            assert np.abs(s_real - s_complex).max() <= 1e-12 * s_complex[0], case

    @pytest.mark.parametrize(
        "spec",
        [
            CollectiveSpec(n_spins=40, omega0=2.0, kappa=1.0, basis="xy2"),
            CoherentSpec(alpha=1.5),
            SqueezedSpec(r=0.5, theta=0.3, jumps="single", n_max=40),
            SqueezedSpec(r=0.5, theta=0.3, jumps="two", n_max=40),
        ],
        ids=["collective", "coherent", "squeezed_single", "squeezed_two"],
    )
    def test_model_generators_are_the_dense_change_of_basis(self, spec):
        from scipy import sparse

        model = build_model(spec)
        ansatz = model.ansatz
        params = reverse_engineer(ansatz, model.rho_ss).solutions[0]
        # U stored sparse only to keep the d^4-sized products cheap
        basis = sparse.csc_array(hermitian_basis(ansatz.dim))
        dense = basis.conj().T @ (dense_superop(params, ansatz) @ basis)
        scale = np.abs(dense).max()
        # the largest column norm is a lower bound on s_0
        lower = np.linalg.norm(dense, axis=0).max()
        real = vectorize_liouvillian(params, ansatz)
        assert real.dtype == np.float64
        # T has at most d nonzeros per row on average, not d^2
        assert real.nnz <= ansatz.dim * real.shape[0]
        diff = real.toarray() - dense
        assert np.abs(diff).max() <= 1e-14 * scale
        # by Weyl's inequality every singular value of T is within ||T - U^H S U||_2
        # <= ||T - U^H S U||_F of that of S, and lower <= s_0(S)
        assert np.linalg.norm(diff) <= 1e-12 * lower


class TestSteadyState:
    @pytest.mark.parametrize("method", ["svd", "lu"])
    def test_dense_solves_are_real(self, monkeypatch, method):
        import scipy.linalg.lapack
        import scipy.sparse.linalg

        seen = []
        for module, name in ((scipy.linalg.lapack, "dgetri"), (scipy.sparse.linalg, "splu")):
            original = getattr(module, name)

            def spy(a, *args, _original=original, **kwargs):
                seen.append(a.dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        spec = CollectiveSpec(n_spins=6, omega0=2.0, kappa=1.0)
        model = build_model(spec)
        out = steady_state_of(collective_generator_params(spec), model.ansatz, method=method)
        assert out.method == ("inverse" if method == "svd" else "lu")
        assert seen and all(dtype == np.float64 for dtype in seen)
        assert norm_difference(out.rho, model.rho_ss) < 1e-8

    def test_certified_inverse_overwrites_its_inputs(self, monkeypatch):
        # getri copies an input that is not Fortran-ordered float64 instead of
        # overwriting it, which would add a second d^2 x d^2 array
        import scipy.linalg.lapack

        original = scipy.linalg.lapack.dgetri
        calls = []

        def spy(lu, piv, **kwargs):
            out = original(lu, piv, **kwargs)
            calls.append((out[0] is lu, kwargs["overwrite_lu"]))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dgetri", spy)
        spec = CollectiveSpec(n_spins=6, omega0=2.0, kappa=1.0)
        out = steady_state_of(collective_generator_params(spec), build_model(spec).ansatz)
        assert out.method == "inverse"
        assert calls == [(True, True)]

    def test_certified_inverse_is_as_accurate_as_a_dense_inverse(self, monkeypatch, rng):
        import scipy.linalg.lapack
        import scipy.sparse.linalg

        kept = {}
        splu, dgetri = scipy.sparse.linalg.splu, scipy.linalg.lapack.dgetri

        def spy_splu(a, *args, **kwargs):
            kept["lu"] = splu(a, *args, **kwargs)
            return kept["lu"]

        def spy_dgetri(a, *args, **kwargs):
            out = dgetri(a, *args, **kwargs)
            # the certified path overwrites the inverse with its magnitudes
            kept["inv"] = out[0].copy()
            return out

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy_splu)
        monkeypatch.setattr(scipy.linalg.lapack, "dgetri", spy_dgetri)
        # the weak-regime robustness row at N = 40, eps = 1e-3 (d^2 = 1681)
        spec = CollectiveSpec(n_spins=40, omega0=2.0, kappa=1.0, basis="xy2")
        model = build_model(spec)
        result = reverse_engineer(model.ansatz, mix_with_identity(model.rho_ss, 1e-3))
        ansatz = model.ansatz
        params = unpack_kernel_vector(result.eigenvectors[:, 0], ansatz.n_drive, ansatz.n_jump)
        cases = [(ansatz.dim, ansatz, params), *random_generators(rng, 16)]
        certified = []
        for dim, ansatz, params in cases:
            kept.clear()
            out = steady_state_of(params, ansatz)
            if out.method != "inverse":
                continue
            certified.append(dim)
            gen = vectorize_liouvillian(params, ansatz)
            bordered = _bordered(gen, dim).toarray()
            reference = np.linalg.inv(bordered)
            ref_bound = 1.0 / np.sqrt(_one_inf(np.abs(reference)) * _one_inf(abs(gen)))
            assert out.uniqueness_bound == pytest.approx(ref_bound, rel=1e-12)
            # getri inverts Pr B Pc = LU, so with X = Pc inv Pr the residual
            # B X - I is a permutation of (Pr B Pc) inv - I
            lu, inv = kept["lu"], kept["inv"]
            permuted = bordered[np.argsort(lu.perm_r)][:, np.argsort(lu.perm_c)]
            ident = np.eye(dim * dim)
            ref_residual = np.linalg.norm(bordered @ reference - ident)
            assert np.linalg.norm(permuted @ inv - ident) <= 4 * ref_residual
            # both methods take the same factorization and solve
            solved = steady_state_of(params, ansatz, method="lu")
            np.testing.assert_array_equal(out.rho, solved.rho)
            assert out.residual == solved.residual
        assert certified[0] == 41 and len(certified) >= 10

    @pytest.mark.parametrize(
        "certify, case, outcome",
        [
            (True, "unique", "inverse"),
            (True, "zero", "singular"),
            (True, "tol_one", "bound"),
            (True, "tol_tiny", "residual"),
            (True, "tol_between", "residual"),
            (False, "unique", "lu"),
            (False, "zero", "singular"),
            (False, "tol_tiny", "residual"),
            (False, "tol_between", "lu"),
        ],
    )
    def test_factored_solve_outcomes(self, monkeypatch, certify, case, outcome):
        spec = CollectiveSpec(n_spins=6, omega0=2.0, kappa=1.0)
        model = build_model(spec)
        params = collective_generator_params(spec)
        if case == "zero":
            params = LindbladianParams(c=0 * params.c, gamma=0 * params.gamma)
        dim = model.ansatz.dim
        gen = vectorize_liouvillian(params, model.ansatz)
        # the uniqueness bound is below s_{n-1}/s_0 <= 1, and a residual of
        # roundoff exceeds either gate scaled by 1e-300
        tols = {"tol_one": 1.0, "tol_tiny": 1e-300}
        if case == "tol_between":
            # between the certified gate tol * scale * ||rho|| and the LU gate
            # tol * max(1, scale), as ||rho|| < 1 < scale for this state
            state = _steady_state_factored(gen, dim, False)
            scale = np.linalg.norm(gen.data) / dim
            assert np.linalg.norm(state.rho) < 1 < scale
            tols[case] = state.residual / (scale * np.linalg.norm(state.rho) ** 0.5)
        if case in tols:
            monkeypatch.setattr("lindrec.verification.NULL_SV_TOL", tols[case])
        out = _steady_state_factored(gen, dim, certify)
        if outcome in ("singular", "bound", "residual"):
            assert out == outcome
            return
        assert isinstance(out, SteadyStateResult)
        assert out.method == outcome and out.fallback is None
        assert out.null_space_dim == (1 if certify else None)
        assert (out.uniqueness_bound is not None) == certify
        assert norm_difference(out.rho, model.rho_ss) < 1e-8

    def test_non_hermitian_rate_matrix_rejected(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        params = random_params(rng, 1, 2, hermitian_gamma=True)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        gamma = params.gamma + 1e-3 * max(1.0, np.linalg.norm(params.gamma)) / 8**0.5 * skew
        assert asymmetry(gamma) == pytest.approx(1e-3, rel=1e-2)
        with pytest.raises(NotHermitianError):
            steady_state_of(LindbladianParams(c=params.c, gamma=gamma), ansatz)

    def test_non_finite_parameters_rejected(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        params = random_params(rng, 1, 2, hermitian_gamma=True)
        gamma = params.gamma.copy()
        gamma[0, 1] = np.nan
        with pytest.raises(NonFiniteError, match="rate matrix gamma"):
            steady_state_of(LindbladianParams(c=params.c, gamma=gamma), ansatz)
        with pytest.raises(NonFiniteError, match="coupling"):
            steady_state_of(LindbladianParams(c=[np.inf], gamma=params.gamma), ansatz)

    def test_coherent_reconstruction_recovers_target(self):
        model = build_model(CoherentSpec(alpha=1.0, n_max=40))
        sol = reverse_engineer(model.ansatz, model.rho_ss).solutions[0]
        out = steady_state_of(sol, model.ansatz)
        assert out.unique
        assert norm_difference(out.rho, model.rho_ss) < 1e-7
        fidelity = np.trace(out.rho @ model.rho_ss).real
        assert fidelity > 1 - 1e-8

    def test_collective_generator_reaches_analytic_state(self):
        spec = CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0)
        model = build_model(spec)
        params = collective_generator_params(spec)
        out = steady_state_of(params, model.ansatz)
        assert out.unique
        assert norm_difference(out.rho, model.rho_ss) < 1e-8

    def test_lu_and_svd_paths_agree(self):
        spec = CollectiveSpec(n_spins=8, omega0=0.5, kappa=1.0)
        model = build_model(spec)
        params = collective_generator_params(spec)
        fast = steady_state_of(params, model.ansatz, method="lu")
        robust = steady_state_of(params, model.ansatz, method="svd")
        assert fast.method == "lu"
        assert fast.unique is None  # the trace-constrained solve counts no multiplicity
        assert norm_difference(fast.rho, robust.rho) < 1e-9

    def test_unknown_method_and_parameters_of_another_shape_rejected(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        params = random_params(rng, 1, 2, hermitian_gamma=True)
        with pytest.raises(ValueError, match="unknown method"):
            steady_state_of(params, ansatz, method="qr")
        for c, gamma in ((np.zeros(2), params.gamma), (params.c, np.eye(1))):
            with pytest.raises(DimMismatchError):
                steady_state_of(LindbladianParams(c=c, gamma=gamma), ansatz)

    def test_zero_generator_reports_multiplicity(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 1)
        params = LindbladianParams(c=np.zeros(1), gamma=np.zeros((1, 1)))
        for method in ("svd", "lu"):
            out = steady_state_of(params, ansatz, method=method)
            assert out.null_space_dim == 9
            assert out.unique is False
            assert out.method == "svd"
            assert out.fallback == "singular"
            assert out.uniqueness_bound is None

    def test_certified_state_matches_svd_verdict(self, rng):
        certified = 0
        for dim, ansatz, params in random_generators(rng, 40):
            out = steady_state_of(params, ansatz)
            if out.method != "inverse":
                # only degenerate draws (a zero repaired gamma) fall back here
                assert out.method == "svd" and out.fallback is not None
                assert out.null_space_dim >= 2
                continue
            certified += 1
            assert out.unique and out.fallback is None
            assert out.uniqueness_bound > NULL_SV_TOL
            gen = vectorize_liouvillian(params, ansatz)
            robust = _steady_state_svd(gen, dim)
            assert robust.null_space_dim == 1
            assert norm_difference(out.rho, robust.rho) <= 1e-10
            # the certificate is a lower bound on the true singular-value ratio
            s = np.linalg.svd(dense_superop(params, ansatz), compute_uv=False)
            assert out.uniqueness_bound <= s[-2] / s[0]
            limit = NULL_SV_TOL * max(1.0, np.linalg.norm(gen.toarray()) / dim)
            assert out.residual <= limit
        assert certified >= 30

    def test_dephasing_falls_back_to_svd(self):
        sz = np.diag([0.5, -0.5]).astype(complex)
        ansatz = LindbladAnsatz(h_ops=(), jump_ops=(sz,))
        params = LindbladianParams(c=np.zeros(0), gamma=np.eye(1, dtype=complex))
        out = steady_state_of(params, ansatz)
        assert out.method == "svd"
        assert out.fallback in ("singular", "bound")
        assert out.null_space_dim >= 2

    def test_decoupled_blocks_fall_back_with_multiplicity(self, rng):
        # two invariant blocks, each with its own steady state
        def block_diag(a, b):
            out = np.zeros((4, 4), dtype=complex)
            out[:2, :2] = a
            out[2:, 2:] = b
            return out

        def random_op():
            return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

        ansatz = LindbladAnsatz(
            h_ops=(block_diag(random_hermitian(rng, 2), random_hermitian(rng, 2)),),
            jump_ops=(
                block_diag(random_op(), random_op()),
                block_diag(random_op(), random_op()),
            ),
        )
        params = repair_markovianity(random_params(rng, 1, 2, hermitian_gamma=True))
        out = steady_state_of(params, ansatz)
        assert out.method == "svd"
        assert out.fallback in ("singular", "bound")
        assert out.null_space_dim >= 2
        assert out.unique is False

    def test_two_jump_squeezed_state_is_not_unique(self):
        # a^2 and a^dag^2 conserve parity, so the Markovian reconstruction
        # annihilates rho without making it its only steady state
        model = build_model(SqueezedSpec(r=0.25, theta=0.3, jumps="two", n_max=24))
        params = reverse_engineer(model.ansatz, model.rho_ss).solutions[0]
        assert params.markovian
        out = steady_state_of(params, model.ansatz, method="svd")
        assert out.unique is False and out.null_space_dim > 1
        assert out.fallback in ("singular", "bound")
        solved = steady_state_of(params, model.ansatz, method="lu")
        assert solved.method == "lu"
        assert norm_difference(solved.rho, model.rho_ss) <= 1e-8

    def test_lu_falls_back_on_degenerate_generator(self, rng):
        # dephasing in a fixed basis leaves every diagonal state steady
        sz = np.diag([0.5, -0.5]).astype(complex)
        ansatz = LindbladAnsatz(h_ops=(), jump_ops=(sz,))
        params = LindbladianParams(c=np.zeros(0), gamma=np.eye(1, dtype=complex))
        out = steady_state_of(params, ansatz, method="lu")
        assert out.method == "svd"
        assert out.fallback is not None
        assert out.null_space_dim >= 2


def canonical_state_with_eigenvectors(rho):
    """``_canonicalize_state`` written with one ``eigh`` on every call: the
    reference that the eigenvalue test before the clamp must reproduce bit
    for bit."""
    if np.trace(rho).real < 0:
        rho = -rho
    w, v = np.linalg.eigh(rho)
    if w[0] < 0 and w[0] > -1e-8:
        w = np.maximum(w, 0.0)
        rho = (v * w) @ v.conj().T
    return rho / np.trace(rho).real


class TestCanonicalState:
    def test_bitwise_the_reference_on_each_branch(self, rng):
        dim = 5
        full = random_density(rng, dim)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real - 1e-12 * np.eye(dim)
        negative = hermitian_from_coordinates(-2.5 * hermitian_coordinates(full), dim)
        assert np.linalg.eigvalsh(full)[0] > 0
        assert -1e-8 < np.linalg.eigvalsh(pure)[0] < 0  # the clamp applies
        assert np.trace(negative).real < 0
        for state in (full, pure, negative):
            got = _canonicalize_state(state)
            expected = canonical_state_with_eigenvectors(state)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        assert np.linalg.eigvalsh(_canonicalize_state(pure))[0] > -1e-15


class TestNoThreadedNumpyBlas:
    """numpy and scipy each bundle an OpenBLAS whose idle workers spin after
    a threaded call, so verification keeps numpy's pool idle: it calls
    neither ``tensordot`` nor ``eigh`` on a full-rank state."""

    def test_weak_collective_row_needs_neither(self, monkeypatch):
        spec = CollectiveSpec(n_spins=6, omega0=2.0, kappa=1.0, basis=XY_BASIS)
        model = build_model(spec)
        ansatz = model.ansatz
        result = reverse_engineer(ansatz, mix_with_identity(model.rho_ss, 1e-3))
        params = unpack_kernel_vector(result.eigenvectors[:, 0], ansatz.n_drive, ansatz.n_jump)
        repaired = repair_markovianity(params)

        def forbidden(*args, **kwargs):
            raise AssertionError("verification made a call it must not make")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np, "tensordot", forbidden)
        certified = steady_state_of(params, ansatz, method="svd")
        assert certified.method == "inverse" and certified.fallback is None
        solved = steady_state_of(repaired, ansatz, method="lu")
        assert solved.method == "lu" and solved.fallback is None


class TestLazyScipy:
    def test_importing_the_package_and_cli_loads_no_scipy(self):
        # nor does one collective reconstruction
        code = (
            "import sys, lindrec, lindrec.cli; "
            "model = lindrec.build_model(lindrec.CollectiveSpec(n_spins=20, omega0=1.5, kappa=1.0)); "
            "assert lindrec.reverse_engineer(model.ansatz, model.rho_ss).feasible; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        # the child finds lindrec where this process found it
        path = os.pathsep.join(
            filter(None, [str(Path(lindrec.__file__).parents[1]), os.environ.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "[]"


class TestDiagnostics:
    def test_norm_difference_basics(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert norm_difference(a, a) == 0.0
        assert abs(norm_difference(a, b) - np.sqrt(2)) < 1e-14
        with pytest.raises(DimMismatchError):
            norm_difference(a, np.eye(3))


class TestConsistency:
    def test_trace_preserved_under_euler_steps(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        # positive rates only: clamp to the PSD part
        params = repair_markovianity(random_params(rng, 1, 2, hermitian_gamma=True))
        gen = vectorize_liouvillian(params, ansatz)
        coords = hermitian_coordinates(random_density(rng, 3))
        start = coords.copy()
        dt = 1e-3
        for _ in range(1000):
            coords = coords + dt * (gen @ coords)
        # the state has moved, but its trace has not
        assert np.linalg.norm(coords - start) > 1e-3
        assert abs(coords[np.arange(3) * 4].sum() - 1.0) < 1e-12

    def test_three_way_steady_state_agreement(self):
        # kernel nonempty <=> unpacked rapidity vanishes <=> the stacked
        # target is a null vector of the vectorized generator
        model = build_model(CoherentSpec(alpha=1 + 1j))
        res = reverse_engineer(model.ansatz, model.rho_ss)
        assert res.feasible
        sol = res.solutions[0]
        assert rapidity(sol, model.ansatz, model.rho_ss) < 1e-16
        gen = vectorize_liouvillian(sol, model.ansatz)
        residual = np.linalg.norm(gen @ hermitian_coordinates(model.rho_ss))
        assert residual < 1e-8

    def test_three_way_negative_case(self):
        model = build_model(
            CollectiveSpec(n_spins=8, omega0=2.0, kappa=1.0, basis="xy2")
        )
        rho_eps = mix_with_identity(model.rho_ss, 1e-2)
        res = reverse_engineer(model.ansatz, rho_eps)
        assert not res.feasible
        # the best direction still fails to annihilate the noisy target
        vec = res.eigenvectors[:, 0]
        params = unpack_kernel_vector(vec, 2, 2)
        assert rapidity(params, model.ansatz, rho_eps) > 1e-10
        gen = vectorize_liouvillian(params, model.ansatz)
        assert np.linalg.norm(gen @ hermitian_coordinates(rho_eps)) > 1e-6

    def test_round_trip_collective(self):
        spec = CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0)
        model = build_model(spec)
        sol = reverse_engineer(model.ansatz, model.rho_ss).solutions[0]
        out = steady_state_of(sol, model.ansatz)
        assert out.unique
        assert norm_difference(out.rho, model.rho_ss) < 1e-7
