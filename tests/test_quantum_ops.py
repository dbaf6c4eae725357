import numpy as np
import pytest

from lindrec.errors import CutoffTooSmallError, EpsOutOfRangeError
from lindrec.quantum_ops import (
    FockSpace,
    SpinSector,
    bogoliubov_op,
    boson_ops,
    check_density_matrix,
    coherent_state,
    mix_with_identity,
    spin_ops,
    squeezed_vacuum,
)


def variance(op, rho):
    mean = np.trace(op @ rho).real
    return np.trace(op @ op @ rho).real - mean**2


class TestBosonOps:
    def test_two_level_ladder(self):
        ops = boson_ops(FockSpace(1))
        np.testing.assert_allclose(ops.a, [[0, 1], [0, 0]])
        np.testing.assert_allclose(ops.a_dag, [[0, 0], [1, 0]])

    def test_quadratures_hermitian(self):
        ops = boson_ops(FockSpace(12))
        assert np.allclose(ops.x, ops.x.conj().T)
        assert np.allclose(ops.p, ops.p.conj().T)

    def test_canonical_commutator_up_to_truncation_corner(self):
        n_max = 9
        ops = boson_ops(FockSpace(n_max))
        comm = ops.x @ ops.p - ops.p @ ops.x
        expected = 1j * np.eye(n_max + 1, dtype=complex)
        expected[n_max, n_max] = -1j * n_max  # the truncated corner
        np.testing.assert_allclose(comm, expected, atol=1e-13)

    def test_coherent_state_is_ladder_eigenstate(self):
        space = FockSpace(40)
        ops = boson_ops(space)
        rho = coherent_state(space, 1.0)
        assert abs(np.trace(ops.a @ rho) - 1.0) < 1e-10


class TestCoherentState:
    def test_vacuum(self):
        rho = coherent_state(FockSpace(40), 0.0)
        expected = np.zeros_like(rho)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_purity(self):
        rho = coherent_state(FockSpace(60), 1 + 1j)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_minimum_uncertainty(self):
        # the quoted numbers dX = dP = 1/2 and dX dP = 1/4 are stated for
        # quadratures (a + a^dag)/2 and i(a^dag - a)/2
        space = FockSpace(60)
        ops = boson_ops(space)
        rho = coherent_state(space, 1 + 1j)
        dx = np.sqrt(variance(ops.x / np.sqrt(2), rho))
        dp = np.sqrt(variance(ops.p / np.sqrt(2), rho))
        assert abs(dx - 0.5) < 1e-10
        assert abs(dp - 0.5) < 1e-10
        assert abs(dx * dp - 0.25) < 1e-10

    def test_cutoff_floor_enforced(self):
        with pytest.raises(CutoffTooSmallError):
            coherent_state(FockSpace(30), 2.0)

    def test_is_valid_density_matrix(self):
        check_density_matrix(coherent_state(FockSpace(50), 2j))


class TestSqueezedVacuum:
    def test_zero_squeezing_is_vacuum(self):
        rho = squeezed_vacuum(FockSpace(40), 0.0)
        assert abs(rho[0, 0] - 1.0) < 1e-14

    def test_annihilated_by_bogoliubov_operator(self):
        space = FockSpace(80)
        rho = squeezed_vacuum(space, 0.5, np.pi / 3)
        b = bogoliubov_op(space, 0.5, np.pi / 3)
        assert np.linalg.norm(b @ rho @ b.conj().T) < 1e-10
        assert np.linalg.norm(b @ rho) < 1e-10

    def test_quadrature_squeezing(self):
        # dX = e^{-r}/2 and dP = e^{r}/2 in the (a + a^dag)/2 convention
        space = FockSpace(80)
        ops = boson_ops(space)
        r = 0.5
        rho = squeezed_vacuum(space, r, 0.0)
        dx = np.sqrt(variance(ops.x / np.sqrt(2), rho))
        dp = np.sqrt(variance(ops.p / np.sqrt(2), rho))
        assert abs(dx - 0.5 * np.exp(-r)) < 1e-10
        assert abs(dp - 0.5 * np.exp(r)) < 1e-10

    def test_cutoff_floor_enforced(self):
        with pytest.raises(CutoffTooSmallError):
            squeezed_vacuum(FockSpace(21), 1.0)

    def test_is_valid_density_matrix(self):
        check_density_matrix(squeezed_vacuum(FockSpace(90), 0.8, 1.0))

    def test_cutoff_stability(self):
        # doubling the cutoff moves observables by less than 1e-8
        r, th = 0.5, np.pi / 3
        moments = []
        for n_max in (80, 160):
            space = FockSpace(n_max)
            ops = boson_ops(space)
            rho = squeezed_vacuum(space, r, th)
            moments.append(
                [
                    np.trace(ops.a_dag @ ops.a @ rho).real,
                    variance(ops.x, rho),
                    variance(ops.p, rho),
                ]
            )
        np.testing.assert_allclose(moments[0], moments[1], atol=1e-8)


class TestSpinOps:
    def test_single_spin_is_half_pauli(self):
        ops = spin_ops(SpinSector(1))
        np.testing.assert_allclose(ops.sx, [[0, 0.5], [0.5, 0]])
        np.testing.assert_allclose(ops.sy, [[0, -0.5j], [0.5j, 0]])
        np.testing.assert_allclose(ops.sz, [[0.5, 0], [0, -0.5]])

    @pytest.mark.parametrize("n_spins", [1, 4, 17])
    def test_su2_algebra(self, n_spins):
        ops = spin_ops(SpinSector(n_spins))
        pairs = [
            (ops.sx, ops.sy, ops.sz),
            (ops.sy, ops.sz, ops.sx),
            (ops.sz, ops.sx, ops.sy),
        ]
        for a, b, c in pairs:
            comm = a @ b - b @ a
            assert np.linalg.norm(comm - 1j * c) < 1e-12 * max(1.0, np.linalg.norm(c))

    @pytest.mark.parametrize("n_spins", [2, 9])
    def test_total_spin_casimir(self, n_spins):
        sector = SpinSector(n_spins)
        ops = spin_ops(sector)
        s2 = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        s = sector.total_spin
        np.testing.assert_allclose(
            s2, s * (s + 1) * np.eye(sector.dim), atol=1e-10
        )

    def test_lowering_nilpotent_on_sector(self):
        n_spins = 6
        ops = spin_ops(SpinSector(n_spins))
        power = np.linalg.matrix_power(ops.sm, n_spins + 1)
        assert np.all(power == 0)


class TestMixWithIdentity:
    def test_zero_strength_is_identity_map(self):
        rho = coherent_state(FockSpace(40), 1.0)
        np.testing.assert_allclose(mix_with_identity(rho, 0.0), rho)

    def test_full_strength_is_maximally_mixed(self):
        rho = coherent_state(FockSpace(40), 1.0)
        out = mix_with_identity(rho, 1.0)
        np.testing.assert_allclose(out, np.eye(41) / 41, atol=1e-14)

    def test_pure_qubit_arithmetic(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = mix_with_identity(rho, 0.5)
        # 0.5 rho + 0.5 I / 2, already of unit trace
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [0.25, 0.75], atol=1e-14)
        assert np.trace(out) == 1.0

    def test_documented_form_without_renormalization(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        for eps in (1e-4, 0.3):
            expected = (1.0 - eps) * rho + eps * np.eye(6) / 6
            assert np.array_equal(mix_with_identity(rho, eps), expected)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 1.0])
    def test_preserves_state_validity(self, rng, eps):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        check_density_matrix(mix_with_identity(rho, eps))

    def test_rejects_out_of_range(self):
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(EpsOutOfRangeError):
            mix_with_identity(rho, 1.5)
        with pytest.raises(EpsOutOfRangeError):
            mix_with_identity(rho, -0.1)
