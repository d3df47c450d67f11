"""Operator algebra, expectation/variance, and eigenstructure."""

import math

import numpy as np
import pytest

from entnum import bipartite as bp
from entnum import contexts as cx
from entnum import mixed as mx
from entnum import operators as op
from entnum.errors import DimensionMismatch, InvariantViolation
from entnum.measures import ProbMeasure


def mat(rows):
    return op.Operator(np.array(rows, dtype=complex))


def vstate(*amps):
    v = np.array(amps, dtype=complex)
    return op.VectorState(v / np.linalg.norm(v))


class TestBasics:
    def test_adjoint(self):
        np.testing.assert_allclose(op.adjoint(mat([[1j]])).mat, [[-1j]])
        h = mat([[1, 2 + 1j], [2 - 1j, 3]])
        np.testing.assert_allclose(op.adjoint(h).mat, h.mat)
        a = mat([[1, 2j], [3, 4]])
        np.testing.assert_allclose(op.adjoint(op.adjoint(a)).mat, a.mat)

    def test_hs_inner(self):
        eye2 = op.identity(2)
        assert op.hs_inner(eye2, eye2) == pytest.approx(2)
        p1 = mat([[1, 0], [0, 0]])
        p2 = mat([[0, 0], [0, 1]])
        assert op.hs_inner(p1, p2) == 0
        a = mat([[1, 2j], [3, 4]])
        assert op.hs_inner(a, a).real == pytest.approx(op.hs_norm(a) ** 2)

    def test_hs_norm(self):
        assert op.hs_norm(op.identity(3)) == pytest.approx(math.sqrt(3))
        assert op.hs_norm(mat([[0, 0], [0, 0]])) == 0.0
        assert op.hs_norm(mat([[0, 2j], [3, 0]])) == pytest.approx(math.sqrt(13))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            op.hs_inner(op.identity(2), op.identity(3))

    def test_operator_must_be_square(self):
        with pytest.raises(DimensionMismatch):
            op.Operator(np.zeros((2, 3)))


class TestExpectation:
    def test_pure_state_matches_sandwich(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            phi = op.random_vector_state(3, rng)
            a = op.random_operator(3, rng)
            sandwich = complex(np.vdot(phi.vec, a.mat @ phi.vec))
            assert op.expectation(op.pure_state(phi), a) == pytest.approx(sandwich)

    def test_identity_expectation_is_one(self):
        rng = np.random.default_rng(11)
        rho = op.random_density(4, rng)
        assert op.expectation(rho, op.identity(4)) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        a = mat([[1, 5], [7, 2]])
        rho = op.DensityState(np.eye(2) / 2)
        assert op.expectation(rho, a) == pytest.approx(1.5)


class TestVariance:
    def test_eigenvector_gives_zero(self):
        a = mat([[3, 0], [0, 1]])
        assert op.variance(op.pure_state(vstate(1, 0)), a) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_operator_gives_zero(self):
        rng = np.random.default_rng(12)
        rho = op.random_density(3, rng)
        assert op.variance(rho, mat(2.5j * np.eye(3))) == pytest.approx(0.0, abs=1e-12)

    def test_flip_operator_on_basis_state(self):
        # <e1, A^2 e1> - |<e1, A e1>|^2 = 1 - 0
        a = mat([[0, 1], [1, 0]])
        assert op.variance(op.pure_state(vstate(1, 0)), a) == pytest.approx(1.0, abs=1e-12)

    def test_defining_formula_agrees(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            rho = op.random_density(dim, rng)
            a = op.random_operator(dim, rng)
            mean = op.expectation(rho, a)
            shifted = a.mat - mean * np.eye(dim)
            direct = float(np.real(np.trace(rho.mat @ (shifted.conj().T @ shifted))))
            assert op.variance(rho, a) == pytest.approx(direct, abs=1e-10)

    def test_mean_square_dominates_mean(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            rho = op.random_density(dim, rng)
            a = op.random_operator(dim, rng)
            second = float(np.real(np.trace(rho.mat @ (a.mat.conj().T @ a.mat))))
            assert abs(op.expectation(rho, a)) ** 2 <= second + 1e-12


class TestVarianceWitness:
    def test_eigenvalue_case(self):
        a = mat([[3, 0], [0, 1]])
        c = op.variance_zero_witness(op.pure_state(vstate(1, 0)), a)
        assert c == pytest.approx(3.0)

    def test_absent_when_variance_positive(self):
        rho = op.DensityState(np.eye(2) / 2)
        a = mat([[0, 1], [0, 0]])
        assert op.variance(rho, a) == pytest.approx(0.5)
        assert op.variance_zero_witness(rho, a) is None

    def test_scalar_case(self):
        rng = np.random.default_rng(15)
        rho = op.random_density(3, rng)
        c = op.variance_zero_witness(rho, mat((1 - 2j) * np.eye(3)))
        assert c == pytest.approx(1 - 2j)


class TestPureStateVarianceCharacterization:
    """Zero variance on a vector state is equivalent to being an eigenvector."""

    def test_both_directions(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            a = op.random_operator(dim, rng)
            h = op.Operator((a.mat + a.mat.conj().T) / 2)
            _, vecs = op.hermitian_eigen(h)
            phi = op.VectorState(vecs[:, 0])
            v = op.variance(op.pure_state(phi), h)
            resid = np.linalg.norm(
                h.mat @ phi.vec - np.vdot(phi.vec, h.mat @ phi.vec) * phi.vec
            )
            if v <= 1e-10:
                assert resid <= 1e-5
            psi = op.random_vector_state(dim, rng)
            resid2 = np.linalg.norm(
                h.mat @ psi.vec - np.vdot(psi.vec, h.mat @ psi.vec) * psi.vec
            )
            if resid2 <= 1e-10:
                assert op.variance(op.pure_state(psi), h) <= 1e-5


class TestHermitianEigen:
    def test_diagonal(self):
        w, v = op.hermitian_eigen(mat([[3, 0], [0, 1]]))
        np.testing.assert_allclose(w, [3, 1])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_flip(self):
        w, _ = op.hermitian_eigen(mat([[0, 1], [1, 0]]))
        np.testing.assert_allclose(w, [1, -1], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dim = int(rng.integers(2, 8))
            a = op.random_operator(dim, rng)
            h = op.Operator((a.mat + a.mat.conj().T) / 2)
            w, v = op.hermitian_eigen(h)
            assert np.all(np.diff(w) <= 1e-12)
            rebuilt = (v * w) @ v.conj().T
            assert np.linalg.norm(rebuilt - h.mat) <= 1e-9 * dim
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)

    def test_degenerate_order_is_deterministic(self):
        w, v = op.hermitian_eigen(op.identity(3))
        np.testing.assert_allclose(w, np.ones(3))
        np.testing.assert_allclose(v, np.eye(3), atol=1e-12)

    def test_rank_two_product_mixture(self):
        # equal mixture of the projectors onto (e1+e2)(x)(e1+e2)/2 and e1(x)e1
        m = np.full((4, 4), 0.125)
        m[0, 0] += 0.5
        w, _ = op.hermitian_eigen(op.Operator(m))
        np.testing.assert_allclose(w, [0.75, 0.25, 0.0, 0.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            op.hermitian_eigen(mat([[0, 1], [0, 0]]))


class TestPsdSqrt:
    def test_diagonal(self):
        rho = op.DensityState(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(
            op.psd_sqrt(rho).mat, np.diag([0.5, math.sqrt(3) / 2]), atol=1e-12
        )

    def test_pure_state_is_fixed(self):
        rng = np.random.default_rng(18)
        p = op.pure_state(op.random_vector_state(3, rng))
        np.testing.assert_allclose(op.psd_sqrt(p).mat, p.mat, atol=1e-9)

    def test_maximally_mixed(self):
        rho = op.DensityState(np.eye(4) / 4)
        np.testing.assert_allclose(op.psd_sqrt(rho).mat, np.eye(4) / 2, atol=1e-12)

    def test_square_recovers_state_and_unit_norm(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            rho = op.random_density(int(rng.integers(2, 7)), rng)
            s = op.psd_sqrt(rho)
            assert np.linalg.norm(s.mat @ s.mat - rho.mat) <= 1e-9
            assert op.hs_norm(s) == pytest.approx(1.0, abs=1e-9)


class TestStateValidation:
    def test_vector_state_norm(self):
        with pytest.raises(InvariantViolation):
            op.VectorState(np.array([1.0, 1.0]))

    def test_density_trace(self):
        with pytest.raises(InvariantViolation):
            op.DensityState(np.eye(2))

    def test_density_hermitian(self):
        with pytest.raises(InvariantViolation):
            op.DensityState(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_psd(self):
        with pytest.raises(InvariantViolation):
            op.DensityState(np.array([[1.5, 0], [0, -0.5]]))

    def test_factor_dims_must_factor(self):
        with pytest.raises(DimensionMismatch):
            op.DensityState(np.eye(4) / 4, factor_dims=(2, 3))

    @pytest.mark.parametrize("dims", [(2.5, 1.6), (True, 4), (0, 4)])
    def test_factor_dims_must_be_positive_integers(self, dims):
        with pytest.raises(DimensionMismatch):
            op.DensityState(np.eye(4) / 4, factor_dims=dims)

    def test_numpy_integer_factor_dims_stored_as_ints(self):
        rho = op.DensityState(np.eye(4) / 4, factor_dims=(np.int64(2), np.int32(2)))
        assert rho.factor_dims == (2, 2)
        assert all(type(d) is int for d in rho.factor_dims)


# (constructor from a complex array, stored array of the value, a valid input)
VALUE_TYPES = {
    "Operator": (op.Operator, lambda v: v.mat, np.eye(2)),
    "DensityState": (op.DensityState, lambda v: v.mat, np.eye(2) / 2),
    "VectorState": (op.VectorState, lambda v: v.vec, np.array([1.0, 0.0])),
    "BipartiteVectorState": (bp.BipartiteVectorState, lambda v: v.coeff,
                             np.array([[1.0, 0.0], [0.0, 0.0]])),
    "PureDecomposition": (lambda a: mx.PureDecomposition(ProbMeasure(np.ones(1)), a),
                          lambda v: v.vectors, np.array([[1.0, 0.0]])),
    "Context": (cx.Context, lambda v: v.matrix, np.eye(2)),
}


class TestValueTypesOwnTheirArrays:
    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_caller_array_stays_writeable_and_unshared(self, name):
        build, stored, valid = VALUE_TYPES[name]
        a = valid.astype(complex)
        value = build(a)
        assert a.flags.writeable
        assert not np.shares_memory(stored(value), a)
        assert not stored(value).flags.writeable

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_shared_intake(self, name):
        build, stored, valid = VALUE_TYPES[name]
        for entry in (np.nan, np.inf):
            bad = valid.astype(complex)
            bad.flat[0] = entry
            with pytest.raises(InvariantViolation):
                build(bad)
        with pytest.raises(DimensionMismatch):
            build(valid[:0])
        kept = stored(build(np.asfortranarray(valid.astype(complex))))
        assert kept.flags.c_contiguous
        assert not kept.flags.writeable
