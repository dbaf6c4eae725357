"""Operators built from their diagonals against the same operators given as
dense matrices."""

import numpy as np
import pytest

from lindrec import models
from lindrec.engine import LindbladAnsatz, reverse_engineer, term_images
from lindrec.errors import DimMismatchError, NonFiniteError, NonSquareError, NotHermitianError
from lindrec.models import CoherentSpec, CollectiveSpec, SqueezedSpec, build_model
from lindrec.numerics import hermitian_part
from lindrec.quantum_ops import (
    BosonOps,
    Operator,
    SpinOps,
    boson_ops,
    spin_ops,
)

from conftest import ansatz_matrices, random_density


def dense_spin_ops(n_spins):
    """The spin operators as dense matrices, by the dense arithmetic of the
    definitions."""
    s = n_spins / 2.0
    m = s - np.arange(n_spins + 1)
    sz = np.diag(m).astype(complex)
    sp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    sm = sp.conj().T
    return SpinOps(sx=(sp + sm) / 2.0, sy=(sp - sm) / 2.0j, sz=sz, sp=sp, sm=sm)


def dense_boson_ops(n_max):
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    a_dag = a.conj().T
    return BosonOps(
        a=a, a_dag=a_dag, x=(a + a_dag) / np.sqrt(2), p=1j * (a_dag - a) / np.sqrt(2)
    )


def dense_operators(spec):
    """Drives and jumps of ``build_model(spec)`` as dense matrices."""
    if isinstance(spec, CollectiveSpec):
        ops = dense_spin_ops(spec.n_spins)
        if spec.basis == models.FULL_BASIS:
            return (ops.sx, ops.sy, ops.sz), (ops.sx, ops.sy, ops.sz)
        scale = np.sqrt(spec.n_spins / 2.0)
        return (ops.sx, ops.sy), (ops.sx / scale, ops.sy / scale)
    ops = dense_boson_ops(spec.n_max)
    if isinstance(spec, CoherentSpec):
        return (ops.x, ops.p), (ops.a, ops.a_dag)
    a2 = ops.a @ ops.a
    ad2 = ops.a_dag @ ops.a_dag
    drives = ((a2 + ad2) / np.sqrt(2), (a2 - ad2) / (1j * np.sqrt(2)))
    return drives, ((ops.a, ops.a_dag) if spec.jumps == models.SINGLE_JUMPS else (a2, ad2))


def assert_bitwise_equal(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# model ansaetze from d = 3 to d = 401
SPECS = [
    *(CollectiveSpec(n_spins=n, omega0=0.7, kappa=1.0, basis=basis)
      for n in (2, 39, 78, 79, 400) for basis in (models.FULL_BASIS, models.XY_BASIS)),
    *(spec for n_max in (40, 78, 79, 164) for spec in (
        CoherentSpec(alpha=1.5 * np.exp(0.7j), n_max=n_max),
        SqueezedSpec(r=0.25, theta=0.3, n_max=n_max),
        SqueezedSpec(r=0.25, theta=0.3, jumps=models.TWO_JUMPS, n_max=n_max),
    )),
]


class TestDiagonalConstruction:
    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_model_matches_the_dense_operators(self, monkeypatch, spec):
        model = build_model(spec)
        drives, jumps = dense_operators(spec)
        # the same operators given as dense matrices, and scanned from them
        dense = LindbladAnsatz(h_ops=drives, jump_ops=jumps)
        scanned = LindbladAnsatz(
            h_ops=[Operator.from_dense(m) for m in drives],
            jump_ops=[Operator.from_dense(m) for m in jumps],
        )
        for stored, matrices in zip(ansatz_matrices(model.ansatz), (drives, jumps)):
            for got, matrix in zip(stored, matrices, strict=True):
                # equal entries; a zero may carry the other sign where the
                # dense arithmetic met the conjugated zero of an adjoint
                np.testing.assert_array_equal(got, matrix)
        dim = model.ansatz.dim
        images = term_images(model.ansatz, model.rho_ss, 0, dim)
        # the same products through the same kernel
        assert_bitwise_equal(images, term_images(scanned, model.rho_ss, 0, dim))
        # np.matmul sums the products of a row in another order
        expected = term_images(dense, model.rho_ss, 0, dim)
        assert np.linalg.norm(images - expected) <= 1e-13 * np.linalg.norm(expected)
        if isinstance(spec, CollectiveSpec):
            # the state and its residual check from the dense sector operators
            ops = dense_spin_ops(spec.n_spins)
            scanned = SpinOps(**{
                name: Operator.from_dense(getattr(ops, name))
                for name in ("sx", "sy", "sz", "sp", "sm")
            })
            monkeypatch.setattr(models, "spin_ops", lambda n_spins: scanned)
            assert_bitwise_equal(model.rho_ss, build_model(spec).rho_ss)

    @pytest.mark.parametrize("n", [1, 2, 39, 40, 79, 80, 400])
    def test_operators_equal_their_dense_definitions(self, n):
        for built, dense in ((spin_ops(n), dense_spin_ops(n)),
                             (boson_ops(n), dense_boson_ops(n))):
            for name in vars(dense):
                op, matrix = getattr(built, name), getattr(dense, name)
                np.testing.assert_array_equal(op.dense(), matrix)
                scanned = Operator.from_dense(matrix)
                assert [o for o, _ in op.diagonals] == [o for o, _ in scanned.diagonals]


class TestStorageIndependence:
    @pytest.mark.parametrize("spec", [
        *(CollectiveSpec(n_spins=n, omega0=1.5, kappa=1.0) for n in (2, 3, 100, 400)),
        CollectiveSpec(n_spins=40, omega0=1.5, kappa=1.0, basis=models.XY_BASIS),
        CoherentSpec(alpha=1.5 * np.exp(0.7j)),
        *(SqueezedSpec(r=0.6, theta=1.1, jumps=jumps)
          for jumps in (models.SINGLE_JUMPS, models.TWO_JUMPS)),
    ], ids=repr)
    def test_kernel_does_not_depend_on_the_storage(self, spec):
        # the model's Operators against the same operators as dense matrices:
        # the products differ in roundoff, the kernel and spectrum do not
        model = build_model(spec)
        dense = LindbladAnsatz(*ansatz_matrices(model.ansatz))
        banded, given = (reverse_engineer(a, model.rho_ss) for a in (model.ansatz, dense))
        assert banded.kernel_dim == given.kernel_dim >= 1
        projectors = [
            r.eigenvectors[:, :r.kernel_dim] @ r.eigenvectors[:, :r.kernel_dim].conj().T
            for r in (banded, given)
        ]
        assert np.abs(projectors[0] - projectors[1]).max() <= 1e-12
        scale = max(1.0, given.spectrum.max())
        assert np.abs(banded.spectrum - given.spectrum).max() <= 1e-13 * scale


class TestEdgeCases:
    @staticmethod
    def assert_same_images(operators, rng):
        """An ansatz of ``operators`` as drives' Hermitian parts and as jumps
        gives the same term images as one of their dense matrices."""
        dim = operators[0].dim
        rho = random_density(rng, dim)
        drives = [op + op.adjoint() for op in operators]
        given = LindbladAnsatz(h_ops=drives, jump_ops=operators)
        dense = LindbladAnsatz(
            h_ops=[op.dense() for op in drives], jump_ops=[op.dense() for op in operators]
        )
        assert_bitwise_equal(term_images(given, rho, 0, dim), term_images(dense, rho, 0, dim))

    @pytest.mark.parametrize("dim", [1, 2, 45])
    def test_zero_operator(self, rng, dim):
        for zero in (Operator(dim), Operator(dim, [(0, np.zeros(dim))])):
            assert zero.diagonals == []
            np.testing.assert_array_equal(zero.dense(), np.zeros((dim, dim)))
            np.testing.assert_array_equal(zero.diagonal(min(1, dim - 1)), 0)
            ansatz = LindbladAnsatz(h_ops=(zero,), jump_ops=(zero,))
            assert ansatz._operators[0][0] is zero
            assert not term_images(ansatz, random_density(rng, dim), 0, dim).any()

    @pytest.mark.parametrize("dim", [81, 120])
    def test_outermost_offsets(self, rng, dim):
        corners = Operator(dim, [(dim - 1, [2.0 - 1j]), (1 - dim, [0.5j])])
        assert [o for o, _ in corners.diagonals] == [1 - dim, dim - 1]
        expected = np.zeros((dim, dim), dtype=complex)
        expected[0, -1], expected[-1, 0] = 2.0 - 1j, 0.5j
        np.testing.assert_array_equal(corners.dense(), expected)
        np.testing.assert_array_equal(corners.adjoint().dense(), expected.conj().T)
        self.assert_same_images([corners], rng)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_smallest_dimensions(self, rng, dim):
        ops = [Operator(dim, [(0, np.arange(1, dim + 1) * (1 + 1j))])]
        if dim == 2:
            ops.append(Operator(dim, [(1, [3.0]), (-1, [1j])]))
        stored = LindbladAnsatz(h_ops=(), jump_ops=ops).jump_operators
        assert all(got is op for got, op in zip(stored, ops, strict=True))
        self.assert_same_images(ops, rng)

    def test_non_finite_diagonal_rejected(self):
        values = np.ones(99)
        values[7] = np.nan
        bad = Operator(100, [(1, values), (-1, values)])
        with pytest.raises(NonFiniteError, match="drive operator 0"):
            LindbladAnsatz(h_ops=(bad,), jump_ops=())
        with pytest.raises(NonFiniteError, match="jump operator 1"):
            LindbladAnsatz(h_ops=(), jump_ops=(boson_ops(99).a, bad))

    def test_hermiticity_checked_on_the_diagonals(self):
        dim = 100
        upper = Operator(dim, [(1, np.ones(dim - 1))])
        with pytest.raises(NotHermitianError, match="drive operator 0"):
            LindbladAnsatz(h_ops=(upper,), jump_ops=())
        # within 1e-10 the stored drive is the Hermitian part, as the dense rule gives it
        near = upper + (upper.adjoint() + Operator(dim, [(-1, np.full(dim - 1, 1e-12j))]))
        ((stored,), _) = ansatz_matrices(LindbladAnsatz(h_ops=(near,), jump_ops=()))
        assert_bitwise_equal(stored, hermitian_part(near.dense(), "drive", tol=1e-10))
        exact = spin_ops(dim - 1).sx
        assert LindbladAnsatz(h_ops=(exact,), jump_ops=())._operators[0][0] is exact

    def test_dimensions_must_agree(self):
        with pytest.raises(DimMismatchError):
            LindbladAnsatz(h_ops=(spin_ops(99).sx,), jump_ops=(boson_ops(100).a,))
        with pytest.raises(DimMismatchError):
            LindbladAnsatz(h_ops=(spin_ops(99).sx,), jump_ops=(np.eye(99),))
        with pytest.raises(DimMismatchError):
            spin_ops(99).sx + boson_ops(100).x
        with pytest.raises(DimMismatchError):
            Operator(3) @ Operator(4)
        # a diagonal of the wrong length, one outside the matrix, a repeated one
        for diagonals in ([(1, np.ones(5))], [(7, np.ones(1))], [(0, np.ones(7))] * 2):
            with pytest.raises(DimMismatchError):
                Operator(7, diagonals)

    @pytest.mark.parametrize("apply", [
        lambda op: op + 1, lambda op: op - 1, lambda op: op * "a", lambda op: op / "a",
        lambda op: op @ 1,
    ], ids=["add", "sub", "mul", "truediv", "matmul"])
    def test_arithmetic_with_a_non_operator_rejected(self, apply):
        with pytest.raises(TypeError):
            apply(spin_ops(3).sx)

    def test_empty_dimension_rejected(self):
        # an ansatz on no state would report a kernel for nothing
        empty = np.zeros((0, 0))
        for h_ops, jump_ops in (((empty,), (empty,)), ((), (empty,)), ((empty,), ())):
            with pytest.raises(DimMismatchError, match="below 1 x 1"):
                LindbladAnsatz(h_ops=h_ops, jump_ops=jump_ops)
        for dim in (0, -2, np.int64(-1), 2.0, "3", None):
            with pytest.raises(DimMismatchError, match="not an integer >= 1"):
                Operator(dim)
        with pytest.raises(DimMismatchError, match="not an integer >= 1"):
            Operator.from_dense(empty)
        assert Operator(np.int64(3)).shape == (3, 3)


    def test_non_square_matrix_rejected(self):
        for shape in ((3, 4), (4, 3), (4,)):
            with pytest.raises(NonSquareError):
                Operator.from_dense(np.ones(shape))

    @pytest.mark.parametrize("dim", [5, 80, 81])
    def test_diagonals_are_held_unpadded(self, dim):
        op = Operator(dim, [(o, np.arange(1, dim - abs(o) + 1)) for o in (-2, 0, 1)])
        assert [(o, len(values)) for o, values in op.diagonals] == [
            (-2, dim - 2), (0, dim), (1, dim - 1)
        ]
        mat = op.dense()
        for o in range(1 - dim, dim):
            np.testing.assert_array_equal(op.diagonal(o), np.diagonal(mat, o))
        for derived, expected in ((op.adjoint(), mat.conj().T),
                                  (op + op.adjoint(), mat + mat.conj().T), (2j * op, 2j * mat)):
            np.testing.assert_array_equal(derived.dense(), expected)
