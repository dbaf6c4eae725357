import numpy as np
import pytest

from lindrec.engine import (
    LindbladAnsatz,
    LindbladianParams,
    apply_lindbladian,
    rapidity,
    repair_markovianity,
    reverse_engineer,
)
from lindrec.errors import DimMismatchError, DimTooLargeError, NotHermitianError
from lindrec.models import (
    CoherentSpec,
    CollectiveSpec,
    build_model,
    collective_generator_params,
)
from lindrec.numerics import asymmetry
from lindrec.quantum_ops import mix_with_identity
from lindrec.verification import (
    NULL_SV_TOL,
    _real_superop,
    _steady_state_svd,
    hermitian_coordinates,
    hermitian_from_coordinates,
    norm_difference,
    steady_state_of,
    vectorize_liouvillian,
)

from conftest import random_ansatz, random_density, random_hermitian, random_params


def stack_state(rho):
    """Column-stack a d x d matrix into a d^2 vector."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unstack_state(vec, dim):
    """Inverse of ``stack_state``."""
    return np.asarray(vec, dtype=complex).reshape(dim, dim, order="F")


def master_equation(params, ansatz, rho):
    """L[rho] written out term by term from the Lindblad form."""
    out = np.zeros_like(rho, dtype=complex)
    for c_j, h_j in zip(params.c, ansatz.h_ops):
        out += -1j * c_j * (h_j @ rho - rho @ h_j)
    for j, l_j in enumerate(ansatz.jump_ops):
        for k, l_k in enumerate(ansatz.jump_ops):
            kd_j = l_k.conj().T @ l_j
            out += params.gamma[j, k] * (
                l_j @ rho @ l_k.conj().T - 0.5 * (kd_j @ rho + rho @ kd_j)
            )
    return out


def gamma_with_zero_rate(rng, n_jump):
    """Hermitian PSD rate matrix with one zero rate (up to roundoff)."""
    _, chans = np.linalg.eigh(random_hermitian(rng, n_jump))
    rates = rng.uniform(0.5, 2.0, n_jump)
    rates[0] = 0.0
    return (chans * rates) @ chans.conj().T


class TestVectorize:
    def test_matches_direct_application(self, rng):
        for hermitian_gamma in (True, False):
            ansatz = random_ansatz(rng, 4, 2, 2)
            params = random_params(rng, 2, 2, hermitian_gamma=hermitian_gamma)
            rho = random_density(rng, 4)
            superop = vectorize_liouvillian(params, ansatz)
            via_matrix = unstack_state(superop @ stack_state(rho), 4)
            direct = apply_lindbladian(params, ansatz, rho)
            assert np.linalg.norm(via_matrix - direct) <= 1e-10 * max(
                1.0, np.linalg.norm(direct)
            )

    @pytest.mark.parametrize(
        "case", ["hermitian", "non_hermitian", "no_drive", "no_jump", "zero_rate"]
    )
    def test_definition_on_random_states(self, rng, case):
        n_drive = 0 if case == "no_drive" else 2
        n_jump = 0 if case == "no_jump" else 3
        for dim in (2, 3, 5):
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            params = random_params(
                rng, n_drive, n_jump, hermitian_gamma=case != "non_hermitian"
            )
            if case == "zero_rate":
                params = LindbladianParams(
                    c=params.c, gamma=gamma_with_zero_rate(rng, n_jump)
                )
            superop = vectorize_liouvillian(params, ansatz)
            rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            expected = master_equation(params, ansatz, rho)
            got = unstack_state(superop @ stack_state(rho), dim)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_zero_params_zero_matrix(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 1)
        params = LindbladianParams(c=np.zeros(1), gamma=np.zeros((1, 1)))
        superop = vectorize_liouvillian(params, ansatz)
        assert np.all(superop == 0)

    def test_vectorized_identity_is_left_null(self, rng):
        ansatz = random_ansatz(rng, 4, 2, 2)
        params = random_params(rng, 2, 2, hermitian_gamma=True)
        superop = vectorize_liouvillian(params, ansatz)
        ident = stack_state(np.eye(4, dtype=complex))
        residual = ident.conj() @ superop
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(superop)

    def test_dimension_guard(self):
        dim = 101
        ansatz = LindbladAnsatz(
            h_ops=(np.eye(dim, dtype=complex),), jump_ops=()
        )
        params = LindbladianParams(c=np.ones(1), gamma=np.zeros((0, 0)))
        with pytest.raises(DimTooLargeError):
            vectorize_liouvillian(params, ansatz)


def hermitian_basis(dim):
    """Dense unitary U, column by column from its definition."""
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
            basis[:, i + j * dim] = stack_state(unit)
    return basis


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_real_matrix_is_the_dense_change_of_basis(self, rng, dim):
        basis = hermitian_basis(dim)
        assert np.allclose(basis.conj().T @ basis, np.eye(dim * dim), atol=1e-15)
        ansatz = random_ansatz(rng, dim, 2, 3)
        params = random_params(rng, 2, 3, hermitian_gamma=True)
        superop = vectorize_liouvillian(params, ansatz)
        dense = basis.conj().T @ superop @ basis
        scale = np.abs(dense).max()
        assert np.abs(dense.imag).max() <= 1e-14 * scale
        real = _real_superop(superop.copy(), dim)
        assert real.dtype == np.float64
        assert np.abs(real - dense.real).max() <= 1e-14 * scale
        s_real = np.linalg.svd(real, compute_uv=False)
        s_complex = np.linalg.svd(superop, compute_uv=False)
        assert np.abs(s_real - s_complex).max() <= 1e-12 * s_complex[0]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_coordinate_maps_round_trip(self, rng, dim):
        basis = hermitian_basis(dim)
        rho = random_hermitian(rng, dim)
        coords = hermitian_coordinates(rho)
        assert coords.dtype == np.float64
        assert np.allclose(coords, basis.conj().T @ stack_state(rho), atol=1e-14)
        assert np.allclose(hermitian_from_coordinates(coords, dim), rho, atol=1e-14)
        x = rng.standard_normal(dim * dim)
        back = hermitian_from_coordinates(x, dim)
        assert np.allclose(stack_state(back), basis @ x, atol=1e-14)
        assert np.allclose(hermitian_coordinates(back), x, atol=1e-14)


class TestSteadyState:
    @pytest.mark.parametrize("method", ["svd", "lu"])
    def test_dense_solves_are_real(self, monkeypatch, method):
        seen = []
        for name in ("inv", "solve"):
            original = getattr(np.linalg, name)

            def spy(a, *args, _original=original, **kwargs):
                seen.append(np.asarray(a).dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        spec = CollectiveSpec(n_spins=6, omega0=2.0, kappa=1.0)
        model = build_model(spec)
        out = steady_state_of(collective_generator_params(spec), model.ansatz, method=method)
        assert out.method == ("inverse" if method == "svd" else "lu")
        assert seen and all(dtype == np.float64 for dtype in seen)
        assert norm_difference(out.rho, model.rho_ss) < 1e-8

    def test_non_hermitian_rate_matrix_rejected(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        params = random_params(rng, 1, 2, hermitian_gamma=True)
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        gamma = params.gamma + 1e-3 * max(1.0, np.linalg.norm(params.gamma)) / 8**0.5 * skew
        assert asymmetry(gamma) == pytest.approx(1e-3, rel=1e-2)
        with pytest.raises(NotHermitianError):
            steady_state_of(LindbladianParams(c=params.c, gamma=gamma), ansatz)

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
        assert norm_difference(fast.rho, robust.rho) < 1e-9

    def test_zero_generator_reports_multiplicity(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 1)
        params = LindbladianParams(c=np.zeros(1), gamma=np.zeros((1, 1)))
        out = steady_state_of(params, ansatz)
        assert out.null_space_dim == 9
        assert out.unique is False
        assert out.method == "svd"
        assert out.fallback == "singular"
        assert out.uniqueness_bound is None

    def test_certified_state_matches_svd_verdict(self, rng):
        certified = 0
        for trial in range(40):
            dim = 2 + trial % 7
            n_drive, n_jump = int(rng.integers(0, 3)), int(rng.integers(1, 4))
            ansatz = random_ansatz(rng, dim, n_drive, n_jump)
            params = repair_markovianity(
                random_params(rng, n_drive, n_jump, hermitian_gamma=True)
            )
            out = steady_state_of(params, ansatz)
            if out.method != "inverse":
                # only degenerate draws (a zero repaired gamma) fall back here
                assert out.method == "svd" and out.fallback is not None
                assert out.null_space_dim >= 2
                continue
            certified += 1
            assert out.unique and out.fallback is None
            assert out.uniqueness_bound > NULL_SV_TOL
            superop = vectorize_liouvillian(params, ansatz)
            robust = _steady_state_svd(_real_superop(superop.copy(), dim), dim)
            assert robust.null_space_dim == 1
            assert norm_difference(out.rho, robust.rho) <= 1e-10
            # the certificate is a lower bound on the true singular-value ratio
            s = np.linalg.svd(superop, compute_uv=False)
            assert out.uniqueness_bound <= s[-2] / s[0]
            limit = NULL_SV_TOL * max(1.0, np.linalg.norm(superop) / dim)
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

    def test_lu_falls_back_on_degenerate_generator(self, rng):
        # dephasing in a fixed basis leaves every diagonal state steady
        sz = np.diag([0.5, -0.5]).astype(complex)
        ansatz = LindbladAnsatz(h_ops=(), jump_ops=(sz,))
        params = LindbladianParams(c=np.zeros(0), gamma=np.eye(1, dtype=complex))
        out = steady_state_of(params, ansatz, method="lu")
        assert out.method == "svd"
        assert out.fallback is not None
        assert out.null_space_dim >= 2


class TestDiagnostics:
    def test_norm_difference_basics(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert norm_difference(a, a) == 0.0
        assert abs(norm_difference(a, b) - np.sqrt(2)) < 1e-14
        with pytest.raises(DimMismatchError):
            norm_difference(a, np.eye(3))


class TestConsistency:
    def test_hermiticity_preserved_under_euler_steps(self, rng):
        ansatz = random_ansatz(rng, 3, 1, 2)
        params = random_params(rng, 1, 2, hermitian_gamma=True)
        # positive rates only: clamp to the PSD part
        from lindrec.engine import repair_markovianity

        params = repair_markovianity(params)
        superop = vectorize_liouvillian(params, ansatz)
        vec = stack_state(random_density(rng, 3))
        dt = 1e-3
        for _ in range(1000):
            vec = vec + dt * (superop @ vec)
        rho = unstack_state(vec, 3)
        drift = np.linalg.norm(rho - rho.conj().T) / np.linalg.norm(rho)
        assert drift < 1e-6

    def test_three_way_steady_state_agreement(self):
        # kernel nonempty <=> unpacked rapidity vanishes <=> the stacked
        # target is a null vector of the vectorized generator
        model = build_model(CoherentSpec(alpha=1 + 1j))
        res = reverse_engineer(model.ansatz, model.rho_ss)
        assert res.feasible
        sol = res.solutions[0]
        assert rapidity(sol, model.ansatz, model.rho_ss) < 1e-16
        superop = vectorize_liouvillian(sol, model.ansatz)
        residual = np.linalg.norm(superop @ stack_state(model.rho_ss))
        assert residual < 1e-8

    def test_three_way_negative_case(self):
        model = build_model(
            CollectiveSpec(n_spins=8, omega0=2.0, kappa=1.0, basis="xy2")
        )
        rho_eps = mix_with_identity(model.rho_ss, 1e-2)
        res = reverse_engineer(model.ansatz, rho_eps)
        assert not res.feasible
        # the best direction still fails to annihilate the noisy target
        from lindrec.engine import unpack_kernel_vector

        vec = res.eigenvectors[:, 0]
        params = unpack_kernel_vector(vec, 2, 2)
        assert rapidity(params, model.ansatz, rho_eps) > 1e-10
        superop = vectorize_liouvillian(params, model.ansatz)
        assert np.linalg.norm(superop @ stack_state(rho_eps)) > 1e-6

    def test_round_trip_collective(self):
        spec = CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0)
        model = build_model(spec)
        sol = reverse_engineer(model.ansatz, model.rho_ss).solutions[0]
        out = steady_state_of(sol, model.ansatz)
        assert out.unique
        assert norm_difference(out.rho, model.rho_ss) < 1e-7
