"""Contexts, context coefficients, residual maps, and the solvable spectra."""

import math

import numpy as np
import pytest

from entnum import contexts as cx
from entnum import operators as op
from entnum.errors import DimensionMismatch, InvariantViolation


def mat(rows):
    return op.Operator(np.array(rows, dtype=complex))


class TestContextValidation:
    def test_standard(self):
        ctx = cx.standard_context(3)
        np.testing.assert_allclose(ctx.matrix, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvariantViolation):
            cx.context_from_rows(np.array([[1, 0], [1, 0]], dtype=complex))

    def test_rejects_wrong_count(self):
        with pytest.raises(DimensionMismatch):
            cx.Context(np.array([[1, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # a NaN makes every Gram deviation NaN, which no "> tol" test catches
        rows = np.eye(3, dtype=complex)
        rows[1, 2] = bad
        with pytest.raises(InvariantViolation):
            cx.Context(rows)

    def test_matrix_is_a_c_ordered_read_only_copy(self):
        rng = np.random.default_rng(24)
        q = cx.random_context(4, rng).matrix
        cols = np.array(q.T)
        herm = op.random_operator(4, rng).mat
        for ctx in (
            cx.random_context(4, rng),
            cx.context_from_columns(cols),
            cx.eigenvector_context(op.Operator(herm + herm.conj().T)),
        ):
            assert ctx.matrix.flags.c_contiguous
            assert not ctx.matrix.flags.writeable
        ctx = cx.context_from_columns(cols)
        cols[0, 0] = 0.0
        np.testing.assert_array_equal(ctx.matrix, q)

    def test_random_contexts_are_valid(self):
        rng = np.random.default_rng(20)
        for dim in range(2, 7):
            ctx = cx.random_context(dim, rng)
            np.testing.assert_allclose(
                ctx.matrix.conj() @ ctx.matrix.T, np.eye(dim), atol=1e-10
            )

    def test_random_context_deterministic_per_seed(self):
        a = cx.random_context(4, np.random.default_rng(5))
        b = cx.random_context(4, np.random.default_rng(5))
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestContextCoefficient:
    def test_measurable_operator_scores_zero(self):
        ctx = cx.standard_context(3)
        a = mat(np.diag([1.0, 2.0, 3.0]))
        assert cx.context_coefficient(a, ctx) == pytest.approx(0.0, abs=1e-12)

    def test_flip_operator(self):
        ctx = cx.standard_context(2)
        assert cx.context_coefficient(mat([[0, 1], [1, 0]]), ctx) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            a = op.random_operator(dim, rng)
            ctx = cx.random_context(dim, rng)
            alpha = complex(rng.normal(), rng.normal())
            scaled = op.Operator(alpha * a.mat)
            assert cx.context_coefficient(scaled, ctx) == pytest.approx(
                abs(alpha) * cx.context_coefficient(a, ctx), abs=1e-10
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            a = op.random_operator(dim, rng)
            b = op.random_operator(dim, rng)
            ctx = cx.random_context(dim, rng)
            lhs = cx.context_coefficient(op.Operator(a.mat + b.mat), ctx)
            assert lhs <= cx.context_coefficient(a, ctx) + cx.context_coefficient(b, ctx) + 1e-10

    def test_matches_summed_pure_state_variances(self):
        # same quantity through the trace-form variance; that route carries a
        # sqrt-of-roundoff floor near measurable operators, hence the coarser
        # tolerance
        rng = np.random.default_rng(31)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            a = op.random_operator(dim, rng)
            ctx = cx.random_context(dim, rng)
            total = sum(op.variance(op.pure_state(op.VectorState(r)), a) for r in ctx.matrix)
            assert cx.context_coefficient(a, ctx) == pytest.approx(
                math.sqrt(total), abs=1e-7
            )

    def test_residual_norm_matches_coefficient(self):
        rng = np.random.default_rng(23)
        for dim in range(2, 7):
            for _ in range(20):
                a = op.random_operator(dim, rng)
                ctx = cx.random_context(dim, rng)
                assert op.hs_norm(cx.residual_map(a, ctx)) == pytest.approx(
                    cx.context_coefficient(a, ctx), abs=1e-9
                )


class TestContextAndResidualMaps:
    def test_diagonal_fixed(self):
        ctx = cx.standard_context(2)
        a = mat(np.diag([4.0, 7.0]))
        np.testing.assert_allclose(cx.context_map(a, ctx).mat, a.mat, atol=1e-12)

    def test_keeps_diagonal(self):
        ctx = cx.standard_context(2)
        a = mat([[1, 5], [7, 2]])
        np.testing.assert_allclose(cx.context_map(a, ctx).mat, np.diag([1.0, 2.0]))
        np.testing.assert_allclose(cx.residual_map(a, ctx).mat, [[0, 5], [7, 0]])

    def test_idempotent_and_complementary(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            a = op.random_operator(dim, rng)
            ctx = cx.random_context(dim, rng)
            l1 = cx.context_map(a, ctx)
            l2 = cx.context_map(l1, ctx)
            np.testing.assert_allclose(l2.mat, l1.mat, atol=1e-10)
            np.testing.assert_allclose(
                l1.mat + cx.residual_map(a, ctx).mat, a.mat, atol=1e-10
            )

    def test_preserves_hermitian_psd_density(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            ctx = cx.random_context(dim, rng)
            h = op.random_operator(dim, rng)
            herm = op.Operator((h.mat + h.mat.conj().T) / 2)
            lh = cx.context_map(herm, ctx).mat
            assert np.max(np.abs(lh - lh.conj().T)) <= 1e-10
            rho = op.random_density(dim, rng)
            # constructing a DensityState re-checks hermiticity, PSD, and trace
            op.DensityState(cx.context_map(op.Operator(rho.mat), ctx).mat)

    def test_measurable_iff_zero_coefficient(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            ctx = cx.random_context(dim, rng)
            a = op.random_operator(dim, rng)
            la = cx.context_map(a, ctx)
            assert cx.is_measurable(la, ctx, tol=1e-8)
            assert cx.context_coefficient(la, ctx) <= 1e-9
            if cx.context_coefficient(a, ctx) > 1e-6:
                assert not cx.is_measurable(a, ctx)

    def test_measurable_examples(self):
        ctx = cx.standard_context(2)
        assert cx.is_measurable(mat(np.diag([1.0, 2.0])), ctx)
        assert not cx.is_measurable(mat([[0, 1], [0, 0]]), ctx)

    def test_hermitian_operators_have_a_measuring_context(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            h = op.random_operator(dim, rng)
            herm = op.Operator((h.mat + h.mat.conj().T) / 2)
            ctx = cx.eigenvector_context(herm)
            assert cx.context_coefficient(herm, ctx) <= 1e-9


class TestOffdiagUniform:
    def test_dim2(self):
        ctx = cx.standard_context(2)
        np.testing.assert_allclose(cx.offdiag_uniform(ctx, 1.0).mat, [[0, 1], [1, 0]])

    def test_dim3_all_ones_minus_identity(self):
        ctx = cx.standard_context(3)
        np.testing.assert_allclose(
            cx.offdiag_uniform(ctx, 1.0).mat, np.ones((3, 3)) - np.eye(3), atol=1e-12
        )

    def test_spectrum_dim4(self):
        ctx = cx.standard_context(4)
        eigs = np.sort(np.linalg.eigvalsh(cx.offdiag_uniform(ctx, 1.0).mat))
        np.testing.assert_allclose(eigs, [-1, -1, -1, 3], atol=1e-12)

    def test_normality_for_complex_alpha(self):
        rng = np.random.default_rng(28)
        ctx = cx.random_context(3, rng)
        alpha = 0.7 - 1.9j
        r = cx.offdiag_uniform(ctx, alpha).mat
        np.testing.assert_allclose(r.conj().T, (alpha.conjugate() / alpha) * r, atol=1e-10)
        np.testing.assert_allclose(r @ r.conj().T, r.conj().T @ r, atol=1e-10)

    def test_spectrum_random_contexts(self):
        rng = np.random.default_rng(29)
        for n in range(2, 9):
            ctx = cx.random_context(n, rng)
            eigs = np.sort(np.linalg.eigvalsh(cx.offdiag_uniform(ctx, 1.0).mat))
            expected = np.sort([n - 1.0] + [-1.0] * (n - 1))
            np.testing.assert_allclose(eigs, expected, atol=1e-9)

    def test_rejects_zero_alpha(self):
        with pytest.raises(InvariantViolation):
            cx.offdiag_uniform(cx.standard_context(2), 0.0)


class TestOffdiagUniformSpectrum:
    def test_dim2_explicit(self):
        pairs = cx.offdiag_uniform_spectrum(2)
        assert pairs[0][0] == 1.0
        np.testing.assert_allclose(pairs[0][1], np.ones(2) / math.sqrt(2))
        assert pairs[1][0] == -1.0
        np.testing.assert_allclose(pairs[1][1], np.array([1, -1]) / math.sqrt(2))

    @pytest.mark.parametrize("n", [3, 5])
    def test_multiplicities(self, n):
        pairs = cx.offdiag_uniform_spectrum(n)
        values = sorted(v for v, _ in pairs)
        assert values == [-1.0] * (n - 1) + [float(n - 1)]

    @pytest.mark.parametrize("n", list(range(2, 10)))
    def test_pairs_apply(self, n):
        r = np.ones((n, n)) - np.eye(n)
        pairs = cx.offdiag_uniform_spectrum(n)
        vectors = []
        for lam, vec in pairs:
            assert np.linalg.norm(r @ vec - lam * vec) <= 1e-10
            vectors.append(vec)
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(InvariantViolation):
            cx.offdiag_uniform_spectrum(1)


class TestDim2ResidualEigen:
    def test_real_symmetric_case(self):
        ctx = cx.standard_context(2)
        (l1, v1), (l2, v2) = cx.dim2_residual_eigen(1.0, 1.0, ctx)
        assert l1 == pytest.approx(1.0)
        assert l2 == pytest.approx(-1.0)
        np.testing.assert_allclose(np.abs(v1), np.ones(2) / math.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(v2), np.ones(2) / math.sqrt(2), atol=1e-12)

    def test_not_normal_returns_none(self):
        assert cx.dim2_residual_eigen(1.0, 2.0, cx.standard_context(2)) is None

    def test_imaginary_pair(self):
        # eigenvalues of [[0, i], [-i, 0]] are +-1: cross-check by eigvalsh
        ctx = cx.standard_context(2)
        (l1, _), (l2, _) = cx.dim2_residual_eigen(1j, -1j, ctx)
        herm = np.array([[0, 1j], [-1j, 0]])
        np.testing.assert_allclose(
            sorted([l1.real, l2.real]), np.sort(np.linalg.eigvalsh(herm)), atol=1e-12
        )
        assert abs(l1.imag) <= 1e-12 and abs(l2.imag) <= 1e-12

    def test_application_on_random_contexts(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            ctx = cx.random_context(2, rng)
            theta, phi = rng.uniform(-math.pi, math.pi, 2)
            r = float(rng.uniform(0.1, 3.0))
            a = r * np.exp(1j * theta)
            b = r * np.exp(1j * phi)
            p1, p2 = ctx.vector(0), ctx.vector(1)
            residual = a * np.outer(p1, p2.conj()) + b * np.outer(p2, p1.conj())
            for lam, vec in cx.dim2_residual_eigen(a, b, ctx):
                assert np.linalg.norm(residual @ vec - lam * vec) <= 1e-10

    def test_rejects_zero_coefficients(self):
        with pytest.raises(InvariantViolation):
            cx.dim2_residual_eigen(0.0, 1.0, cx.standard_context(2))
