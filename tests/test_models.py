import dataclasses
import warnings

import numpy as np
import pytest

from lindrec import models
from lindrec.engine import (
    apply_lindbladian,
    rapidity,
    reverse_engineer,
    unpack_kernel_vector,
)
from lindrec.errors import DegenerateParamsError, DimMismatchError, UnsupportedVariantError
from lindrec.models import (
    MAX_HILBERT_DIM,
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
from lindrec.numerics import hermitian_part
from lindrec.quantum_ops import boson_ops, spin_ops

from conftest import ansatz_matrices, check_density_matrix, correlation_matrix, dense_ops

R_GRID = [0.0, 0.25, 0.5, 1.0]
THETA_GRID = [0.0, np.pi / 3, np.pi]
ALPHA_GRID = [0.0, 1.0, 1 + 1j, 2j]


class TestSpecRules:
    # a valid value of each field that has no default, and of theta
    VALID = {
        CoherentSpec: {"alpha": 1.0},
        SqueezedSpec: {"r": 0.5, "theta": 0.0},
        CollectiveSpec: {"n_spins": 4, "omega0": 1.0, "kappa": 1.0},
    }

    @pytest.mark.parametrize("cls, name, bad", [
        *((cls, name, bad)
          for cls, name in ((CoherentSpec, "alpha"), (SqueezedSpec, "r"), (SqueezedSpec, "theta"),
                            (CollectiveSpec, "omega0"), (CollectiveSpec, "kappa"))
          for bad in (np.nan, np.inf, -np.inf)),
        (CoherentSpec, "alpha", complex(1.0, np.inf)),
    ])
    def test_non_finite_parameter_rejected(self, cls, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{**self.VALID[cls], name: bad})

    @pytest.mark.parametrize("n_max", [0, -3, 2.5, True])
    @pytest.mark.parametrize("cls", [CoherentSpec, SqueezedSpec])
    def test_cutoff_that_is_no_positive_integer_rejected(self, cls, n_max):
        # a bool is an int to Python, and True would build a 2-level space
        with pytest.raises(ValueError, match="n_max must be"):
            cls(**self.VALID[cls], n_max=n_max)

    @pytest.mark.parametrize("omega0, kappa", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_ratio_beyond_the_float_range_rejected(self, omega0, kappa):
        # the state and its gate read omega0/kappa, which overflows or underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega0/kappa must be finite and nonzero"):
                CollectiveSpec(n_spins=4, omega0=np.float64(omega0), kappa=np.float64(kappa))

    def test_unknown_collective_basis_rejected(self):
        with pytest.raises(ValueError, match="basis must be"):
            CollectiveSpec(**self.VALID[CollectiveSpec], basis="xyz")


class TestBuildModel:
    def test_coherent_shapes(self):
        model = build_model(CoherentSpec(alpha=1.0))
        assert model.ansatz.n_drive == 2
        assert model.ansatz.n_jump == 2
        assert model.ansatz.n_params == 6
        check_density_matrix(model.rho_ss)

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(UnsupportedVariantError):
            build_model(object())

    def test_explicit_cutoff_is_used_even_when_zero(self):
        # both default cutoffs are 40 here
        assert build_model(CoherentSpec(alpha=0.0, n_max=50)).ansatz.dim == 51
        assert build_model(SqueezedSpec(r=0.0, n_max=50)).ansatz.dim == 51
        assert build_model(SqueezedSpec(r=0.0, n_max=np.int64(50))).ansatz.dim == 51
        for cls, value in ((CoherentSpec, {"alpha": 0.0}), (SqueezedSpec, {"r": 0.0})):
            with pytest.raises(ValueError, match="n_max"):
                cls(**value, n_max=0)

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
        _, (a2, ad2) = ansatz_matrices(model.ansatz)
        np.testing.assert_allclose(a2, a @ a)
        np.testing.assert_allclose(ad2, (a @ a).conj().T)

    @pytest.mark.parametrize("n_max", [40, 164, 1212])
    def test_squared_ladder_operators_from_the_superdiagonal(self, n_max):
        # a^2 and a^dag^2 formed from one diagonal equal the dense products
        ops = dense_ops(boson_ops(n_max))
        model = build_model(SqueezedSpec(r=0.5, jumps="two", n_max=n_max))
        _, (a2, ad2) = ansatz_matrices(model.ansatz)
        np.testing.assert_array_equal(a2, ops.a @ ops.a)
        np.testing.assert_array_equal(ad2, ops.a_dag @ ops.a_dag)

    def test_reduced_basis_jump_normalization(self):
        spec = CollectiveSpec(n_spins=8, omega0=1.0, kappa=2.0, basis="xy2")
        model = build_model(spec)
        ops = dense_ops(spin_ops(8))
        scale = np.sqrt(4.0)
        drives, jumps = ansatz_matrices(model.ansatz)
        np.testing.assert_allclose(drives[0], ops.sx)
        np.testing.assert_allclose(jumps[0], ops.sx / scale)

    def test_default_cutoffs_grow_with_squeezing(self):
        assert default_cutoff(SqueezedSpec(r=1.0)) > default_cutoff(SqueezedSpec(r=0.5))
        assert default_cutoff(CoherentSpec(alpha=3.0)) == 90

    @pytest.mark.parametrize("spec", [
        SqueezedSpec(r=3.0), SqueezedSpec(r=20.0), SqueezedSpec(r=1e3),
        CoherentSpec(alpha=30.0), CoherentSpec(alpha=1e200j),
    ])
    def test_default_cutoff_beyond_the_bound_is_clipped(self, spec):
        with np.errstate(all="raise"):
            assert default_cutoff(spec) == MAX_HILBERT_DIM

    @pytest.mark.parametrize("spec", [
        *(CoherentSpec(alpha=a) for a in
          (0.0, 0.5, 1 + 1j, 2j, 3.0, 6.3, 14.0, 14.3, 30.0, 1e154, 1e200, 1e200j, 1e308)),
        *(SqueezedSpec(r=r) for r in
          (0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 2.25, 2.3, 3.0, 20.0, 400.0, 710.0, 1e3)),
    ])
    def test_default_cutoff_matches_the_reference_rule(self, spec):
        # the whole cutoff rule written out, independent of the floors that
        # default_cutoff shares with the state constructors
        if isinstance(spec, CoherentSpec):
            alpha = abs(spec.alpha)
            need = 10 * max(4.0, alpha * alpha)
        else:
            with np.errstate(over="ignore"):
                need = 20 + 20 * np.sinh(spec.r) ** 2
            t2 = np.tanh(spec.r) ** 2
            if t2 == 1:
                need = np.inf
            elif t2 > 0:
                pairs = np.ceil(np.log(1e-18 * (1 - t2)) / np.log(t2))
                need = max(need, 2 * pairs + 8)
        expected = int(min(max(40.0, np.ceil(need)), MAX_HILBERT_DIM))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_cutoff(spec) == expected


def steady_state(n_spins, omega0, kappa):
    """``collective_steady_state`` of the spec, with its sector's operators."""
    spec = CollectiveSpec(n_spins=n_spins, omega0=omega0, kappa=kappa)
    return collective_steady_state(spec, spin_ops(n_spins))


class TestCollectiveSteadyState:
    @pytest.mark.parametrize("n_spins,ratio", [(6, 2.0), (11, 0.5), (20, 2.0)])
    def test_valid_state(self, n_spins, ratio):
        rho = steady_state(n_spins, ratio * 1.0, 1.0)
        check_density_matrix(rho)

    def test_strong_drive_regime_points_down(self):
        # kappa/omega0 > 1: spins mostly aligned along -z
        rho = steady_state(20, 0.5, 1.0)
        sz = spin_ops(20).sz.dense()
        assert np.trace(sz @ rho).real < 0

    @pytest.mark.parametrize("basis", ["full3", "xy2"])
    def test_state_is_exactly_hermitian(self, basis):
        # so hermitian_part hands it on without averaging a copy
        model = build_model(CollectiveSpec(n_spins=40, omega0=0.7, kappa=1.0, basis=basis))
        assert hermitian_part(model.rho_ss, "state") is model.rho_ss

    def test_spin_operators_are_formed_once(self, monkeypatch):
        calls = []

        def counting_spin_ops(n_spins):
            calls.append(n_spins)
            return spin_ops(n_spins)

        monkeypatch.setattr(models, "spin_ops", counting_spin_ops)
        for basis in ("full3", "xy2"):
            calls.clear()
            build_model(CollectiveSpec(n_spins=12, omega0=2.0, kappa=1.0, basis=basis))
            assert calls == [12]

    def test_operators_of_another_sector_rejected(self):
        # eta built from another sector's S_- is that sector's exact steady
        # state, so the residual check alone would pass it
        spec = CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0)
        for n_spins in (8, 12):
            with pytest.raises(DimMismatchError):
                collective_steady_state(spec, spin_ops(n_spins))

    def test_residual_check_rejects_operators_that_do_not_annihilate_the_state(self):
        spec = CollectiveSpec(n_spins=10, omega0=2.0, kappa=1.0)
        ops = spin_ops(10)
        with pytest.raises(DegenerateParamsError, match="residual"):
            collective_steady_state(spec, dataclasses.replace(ops, sx=ops.sz))

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

    @pytest.mark.parametrize("n_spins", [2, 7, 8, 31, 32, 39, 40, 63, 64, 71, 72, 128, 400])
    @pytest.mark.parametrize("ratio", [0.1, 0.7, 1.5])
    def test_column_blocks_give_the_bits_of_one_product(self, n_spins, ratio):
        # eta eta^dag is formed a block of columns at a time; the reference
        # forms eta, the product and the Hermitian average whole
        spec = CollectiveSpec(n_spins=n_spins, omega0=ratio, kappa=1.0)
        step = spin_ops(n_spins).sm.diagonal(-1) / (-1j * ratio * n_spins / 2.0)
        logs = np.concatenate(([0.0], np.cumsum(np.log2(np.abs(step)))))
        top = np.max(logs - np.minimum.accumulate(logs))
        rows = np.arange(n_spins + 1)
        factors = np.where(rows[:, None] > rows[None, :], np.append(1.0, step)[:, None], 1.0)
        factors[0] = 2.0 ** -max(0.0, np.ceil(top + np.log2(n_spins + 1) - 511.5))
        eta = np.tril(np.cumprod(factors, axis=0))
        reference = eta @ eta.conj().T
        reference /= np.trace(reference).real
        reference = (reference + reference.conj().T) / 2
        rho = collective_steady_state(spec, spin_ops(n_spins))
        assert rho.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_spins", [2, 3, 10, 60, 200])
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_matches_dense_horner_reference(self, n_spins, ratio):
        # eta = sum_j (S_- / beta)^j accumulated with one dense product per step
        step = spin_ops(n_spins).sm.dense() / (-1j * ratio * n_spins / 2.0)
        eye = np.eye(n_spins + 1, dtype=complex)
        eta = eye.copy()
        for _ in range(n_spins + 1):
            eta = eye + step @ eta
        reference = eta @ eta.conj().T
        reference /= np.trace(reference).real
        rho = steady_state(n_spins, ratio, 1.0)
        np.testing.assert_allclose(rho, reference, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n_spins, ratio", [(400, 0.1), (400, 0.3), (200, 0.05)])
    def test_weak_drive_at_large_n_matches_a_log_domain_reference(self, n_spins, ratio):
        # the ladder products reach 2^1157 at N = 400, omega/kappa = 0.1, so
        # the reference sums eta eta^dag by its logarithms, in extended
        # precision: log eta[i, c] = logs[i] - logs[c], and
        # rho[i, j] = exp(logs[i] + conj(logs[j])) sum_{c <= min(i, j)} exp(-2 Re logs[c])
        step = spin_ops(n_spins).sm.diagonal(-1) / (-1j * ratio * n_spins / 2.0)
        logs = np.concatenate(([0], np.cumsum(np.log(step.astype(np.clongdouble)))))
        sums = np.logaddexp.accumulate(-2 * logs.real)
        norm = np.logaddexp.reduce(2 * logs.real + sums)
        rows = np.arange(n_spins + 1)
        exponent = logs[:, None] + logs.conj()[None, :] + sums[np.minimum.outer(rows, rows)]
        reference = np.exp(exponent - norm).astype(complex)
        rho = steady_state(n_spins, ratio, 1.0)
        assert np.isfinite(rho).all()
        assert abs(np.trace(rho) - 1) <= 1e-14
        assert hermitian_part(rho, "state") is rho  # exactly Hermitian
        np.testing.assert_allclose(rho, reference, rtol=1e-12, atol=0)

    def test_products_beyond_the_float_range_rejected(self):
        # at omega/kappa = 0.05 the ladder products of N = 400 reach 2^1557:
        # no power of two brings their squares into the float range
        with pytest.raises(DegenerateParamsError, match="2\\^1557"):
            steady_state(400, 0.05, 1.0)

    @pytest.mark.parametrize("kappa", [1e6, 1e12, 1e200, 1e-200])
    def test_state_reads_omega0_over_kappa_alone(self, kappa):
        # the state and its residual gate see the model through omega0/kappa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = steady_state(40, 1.5 * kappa, kappa)
        np.testing.assert_array_equal(rho, steady_state(40, 1.5, 1.0))

    def test_degenerate_parameters_rejected(self):
        # the spec owns the parameter rules, so no degenerate spec reaches
        # the state constructor
        for omega0, kappa in ((0.0, 1.0), (1.0, -1.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                steady_state(10, omega0, kappa)


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
    def test_unsupported_variant(self):
        with pytest.raises(UnsupportedVariantError):
            analytic_corr_matrix(CollectiveSpec(n_spins=4, omega0=1.0, kappa=1.0))

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
                numeric = correlation_matrix(model.ansatz, model.rho_ss)
                closed = analytic_corr_matrix(spec)
                np.testing.assert_allclose(
                    numeric, closed, atol=1e-8, rtol=1e-8,
                    err_msg=f"r={r} theta={theta} jumps={jumps}",
                )

    def test_coherent_grid(self):
        for alpha in ALPHA_GRID:
            spec = CoherentSpec(alpha=alpha)
            model = build_model(spec)
            numeric = correlation_matrix(model.ansatz, model.rho_ss)
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
            ) ** 2 * np.linalg.norm(correlation_matrix(model.ansatz, model.rho_ss))
