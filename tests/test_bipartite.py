"""Schmidt structure, entanglement triples, and the coupling operator."""

import math

import numpy as np
import pytest

from entnum import bipartite as bp
from entnum import contexts as cx
from entnum import measures as ms
from entnum import operators as op
from entnum.errors import DimensionMismatch, InvariantViolation

SQRT_HALF = 1 / math.sqrt(2)


def meas(*w):
    return ms.ProbMeasure(np.array(w, dtype=float))


def standard_pair(n):
    return cx.standard_context(n), cx.standard_context(n)


def bell_state():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = SQRT_HALF
    return bp.bipartite_from_vector(vec, (2, 2))


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(
            bp.tensor(op.identity(2), op.identity(2)).mat, np.eye(4)
        )

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(40)
        a = op.random_operator(2, rng)
        b = op.random_operator(3, rng)
        assert np.trace(bp.tensor(a, b).mat) == pytest.approx(
            np.trace(a.mat) * np.trace(b.mat)
        )

    def test_projector_of_product_vector(self):
        e1 = np.array([1, 0], dtype=complex)
        f2 = np.array([0, 1], dtype=complex)
        proj = np.outer(np.kron(e1, f2), np.kron(e1, f2).conj())
        np.testing.assert_allclose(
            proj,
            bp.tensor(op.Operator(np.outer(e1, e1.conj())),
                      op.Operator(np.outer(f2, f2.conj()))).mat,
        )

    def test_action_on_product_vectors(self):
        rng = np.random.default_rng(41)
        a = op.random_operator(2, rng)
        b = op.random_operator(3, rng)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        np.testing.assert_allclose(
            bp.tensor(a, b).mat @ np.kron(phi, psi),
            np.kron(a.mat @ phi, b.mat @ psi),
            atol=1e-12,
        )

    @pytest.mark.parametrize("dims", [(2, 3), (4, 4)])
    def test_product_context_equals_kron_of_each_row_pair(self, dims):
        rng = np.random.default_rng(42)
        a, b = (cx.random_context(d, rng) for d in dims)
        rows = np.stack([np.kron(ra, rb) for ra in a.matrix for rb in b.matrix])
        assert np.array_equal(bp.product_context(a, b).matrix, rows)


class TestPsiFromEntanglement:
    def test_point_measure_factorizes(self):
        rng = np.random.default_rng(42)
        e = bp.Entanglement(meas(1.0), cx.random_context(2, rng), cx.random_context(2, rng))
        psi = bp.psi_from_entanglement(e)
        expected = np.kron(e.ctx_a.vector(0), e.ctx_b.vector(0))
        np.testing.assert_allclose(psi.vector, expected, atol=1e-12)

    def test_bell_from_standard_contexts(self):
        e = bp.Entanglement(meas(0.5, 0.5), *standard_pair(2))
        np.testing.assert_allclose(
            bp.psi_from_entanglement(e).coeff, np.eye(2) * SQRT_HALF, atol=1e-12
        )

    def test_three_term_amplitudes(self):
        e = bp.Entanglement(meas(0.5, 1 / 3, 1 / 6), *standard_pair(3))
        np.testing.assert_allclose(
            bp.psi_from_entanglement(e).coeff,
            np.diag([math.sqrt(0.5), math.sqrt(1 / 3), math.sqrt(1 / 6)]),
            atol=1e-12,
        )


class TestSchmidt:
    def test_factorized_vector(self):
        rng = np.random.default_rng(43)
        phi = op.random_vector_state(3, rng).vec
        chi = op.random_vector_state(3, rng).vec
        psi = bp.bipartite_from_vector(np.kron(phi, chi), (3, 3))
        lam = bp.schmidt_decompose(psi).lam.weights
        np.testing.assert_allclose(lam, [1, 0, 0], atol=1e-12)
        assert bp.is_factorized_state(psi)

    def test_bell(self):
        np.testing.assert_allclose(
            bp.schmidt_decompose(bell_state()).lam.weights, [0.5, 0.5], atol=1e-12
        )

    def test_hadamard_type_coefficients(self):
        # singular values of [[1/2, 1/2], [1/2, -1/2]] are both 1/sqrt(2)
        psi = bp.BipartiteVectorState(np.array([[0.5, 0.5], [0.5, -0.5]]))
        s = np.linalg.svd(psi.coeff, compute_uv=False)  # independent oracle
        np.testing.assert_allclose(s, [SQRT_HALF, SQRT_HALF], atol=1e-12)
        np.testing.assert_allclose(
            bp.schmidt_decompose(psi).lam.weights, [0.5, 0.5], atol=1e-12
        )

    def test_round_trip_recovers_state_and_weights(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            e = bp.random_entanglement(n, rng)
            psi = bp.psi_from_entanglement(e)
            back = bp.schmidt_decompose(psi)
            np.testing.assert_allclose(
                np.sort(back.lam.weights), np.sort(e.lam.weights), atol=1e-10
            )
            rebuilt = bp.psi_from_entanglement(back)
            phase = np.vdot(rebuilt.vector, psi.vector)
            np.testing.assert_allclose(
                psi.vector, rebuilt.vector * phase / abs(phase), atol=1e-9
            )

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            psi = bp.BipartiteVectorState(
                (lambda z: z / np.linalg.norm(z))(
                    rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                )
            )
            u = cx.random_context(n, rng).matrix.T
            v = cx.random_context(n, rng).matrix.T
            rotated = bp.BipartiteVectorState(u @ psi.coeff @ v.T)
            np.testing.assert_allclose(
                bp.schmidt_decompose(rotated).lam.weights,
                bp.schmidt_decompose(psi).lam.weights,
                atol=1e-9,
            )

    def test_unequal_dims_pad(self):
        vec = np.zeros(6, dtype=complex)
        vec[0] = vec[4] = SQRT_HALF  # e1 (x) f1 + e2 (x) f2 in a 2x3 split
        psi = bp.bipartite_from_vector(vec, (2, 3))
        e = bp.schmidt_decompose(psi)
        assert e.dim == 3
        np.testing.assert_allclose(e.lam.weights, [0.5, 0.5, 0.0], atol=1e-12)
        rebuilt = bp.psi_from_entanglement(e)
        np.testing.assert_allclose(rebuilt.coeff[:2, :3], psi.coeff, atol=1e-10)


class TestPureEntanglementNumber:
    def test_worked_values(self):
        ca, cb = standard_pair(3)
        for weights, expected in [
            ((0.5, 0.5), SQRT_HALF),
            ((1 / 3, 1 / 3, 1 / 3), math.sqrt(2 / 3)),
            ((0.5, 1 / 3, 1 / 6), math.sqrt(11 / 18)),
            ((1 / 9, 1 / 9, 7 / 9), math.sqrt(30) / 9),
        ]:
            e = bp.Entanglement(meas(*weights), ca, cb)
            psi = bp.psi_from_entanglement(e)
            assert bp.pure_entanglement_number(psi) == pytest.approx(expected, abs=1e-12)

    def test_factorized_scores_zero(self):
        rng = np.random.default_rng(46)
        phi = op.random_vector_state(2, rng).vec
        chi = op.random_vector_state(2, rng).vec
        psi = bp.bipartite_from_vector(np.kron(phi, chi), (2, 2))
        assert bp.pure_entanglement_number(psi) <= 1e-7

    def test_matches_classical_number_of_weights(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            e = bp.random_entanglement(int(rng.integers(2, 5)), rng)
            psi = bp.psi_from_entanglement(e)
            assert bp.pure_entanglement_number(psi) == pytest.approx(
                ms.entanglement_number(e.lam), abs=1e-10
            )


    @pytest.mark.parametrize("delta", [1e-10, 1e-4])
    def test_near_product_closed_form(self, delta):
        # psi ~ (1, 0, 0, delta) has Schmidt weights (1, delta^2) / (1 + delta^2)
        vec = np.array([1.0, 0.0, 0.0, delta]) / math.sqrt(1 + delta**2)
        psi = bp.bipartite_from_vector(vec, (2, 2))
        expected = math.sqrt(2) * delta / (1 + delta**2)
        assert bp.pure_entanglement_number(psi) == pytest.approx(expected, rel=1e-12)

    def test_two_by_three_matches_explicit_minor_sum(self):
        rng = np.random.default_rng(49)
        c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        c /= np.linalg.norm(c)
        minors = sum(abs(c[0, j] * c[1, k] - c[0, k] * c[1, j]) ** 2
                     for j in range(3) for k in range(j + 1, 3))
        got = bp.pure_entanglement_number(bp.BipartiteVectorState(c))
        assert got == pytest.approx(math.sqrt(2 * minors), rel=1e-12)


class TestSeparableStateAndCoupling:
    def test_point_measure(self):
        rng = np.random.default_rng(48)
        e = bp.Entanglement(meas(1.0), cx.random_context(2, rng), cx.random_context(2, rng))
        t = np.kron(e.ctx_a.vector(0), e.ctx_b.vector(0))
        np.testing.assert_allclose(
            bp.separable_state(e).mat, np.outer(t, t.conj()), atol=1e-12
        )
        assert op.hs_norm(bp.entanglement_operator(e)) == pytest.approx(0.0, abs=1e-12)

    def test_equal_pair(self):
        e = bp.Entanglement(meas(0.5, 0.5), *standard_pair(2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(bp.separable_state(e).mat, expected, atol=1e-12)
        coupling = np.zeros((4, 4))
        coupling[0, 3] = coupling[3, 0] = 0.5
        np.testing.assert_allclose(bp.entanglement_operator(e).mat, coupling, atol=1e-12)

    def test_trace_one_and_measurable(self):
        rng = np.random.default_rng(49)
        e = bp.random_entanglement(3, rng)
        rho = bp.separable_state(e)
        assert np.trace(rho.mat) == pytest.approx(1.0)
        d = bp.product_context(e.ctx_a, e.ctx_b)
        assert cx.is_measurable(op.Operator(rho.mat), d, tol=1e-9)

    def test_two_term_closed_form(self):
        rng = np.random.default_rng(50)
        lam1 = 0.3
        e = bp.Entanglement(
            meas(lam1, 1 - lam1), cx.random_context(2, rng), cx.random_context(2, rng)
        )
        t1 = np.kron(e.ctx_a.vector(0), e.ctx_b.vector(0))
        t2 = np.kron(e.ctx_a.vector(1), e.ctx_b.vector(1))
        g = math.sqrt(lam1 * (1 - lam1))
        expected = g * (np.outer(t1, t2.conj()) + np.outer(t2, t1.conj()))
        np.testing.assert_allclose(bp.entanglement_operator(e).mat, expected, atol=1e-12)

    def test_uniform_weights_closed_form(self):
        n = 3
        e = bp.Entanglement(meas(*([1 / n] * n)), *standard_pair(n))
        b = bp.entanglement_operator(e).mat
        expected = np.zeros((9, 9))
        for i in range(n):
            for j in range(n):
                if i != j:
                    expected[i * n + i, j * n + j] = 1 / n
        np.testing.assert_allclose(b, expected, atol=1e-12)

    def test_hermitian_traceless_and_projector_split(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            e = bp.random_entanglement(int(rng.integers(2, 5)), rng)
            b = bp.entanglement_operator(e)
            assert np.max(np.abs(b.mat - b.mat.conj().T)) <= 1e-12
            assert abs(np.trace(b.mat)) <= 1e-12
            psi = bp.psi_from_entanglement(e)
            projector = np.outer(psi.vector, psi.vector.conj())
            np.testing.assert_allclose(
                projector, bp.separable_state(e).mat + b.mat, atol=1e-10
            )

    def test_split_is_the_context_residual_split(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            e = bp.random_entanglement(int(rng.integers(2, 4)), rng)
            psi = bp.psi_from_entanglement(e)
            p = op.Operator(np.outer(psi.vector, psi.vector.conj()))
            d = bp.product_context(e.ctx_a, e.ctx_b)
            np.testing.assert_allclose(
                cx.context_map(p, d).mat, bp.separable_state(e).mat, atol=1e-10
            )
            np.testing.assert_allclose(
                cx.residual_map(p, d).mat, bp.entanglement_operator(e).mat, atol=1e-10
            )


class TestTripleEquality:
    def test_equal_pair(self):
        e = bp.Entanglement(meas(0.5, 0.5), *standard_pair(2))
        t = bp.verify_entanglement_triple(e)
        for value in t:
            assert value == pytest.approx(SQRT_HALF, abs=1e-12)

    def test_point(self):
        e = bp.Entanglement(meas(1.0), *standard_pair(2))
        t = bp.verify_entanglement_triple(e)
        for value in t:
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_uniform_triple(self):
        e = bp.Entanglement(meas(1 / 3, 1 / 3, 1 / 3), *standard_pair(3))
        t = bp.verify_entanglement_triple(e)
        for value in t:
            assert value == pytest.approx(math.sqrt(2 / 3), abs=1e-12)

    def test_random_triples_agree(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            e = bp.random_entanglement(int(rng.integers(2, 6)), rng)
            t = bp.verify_entanglement_triple(e)
            assert t.context_coeff == pytest.approx(t.operator_norm, abs=1e-9)
            assert t.operator_norm == pytest.approx(t.measure_number, abs=1e-9)

    def test_concavity_transfers_to_states(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            ca, cb = cx.random_context(n, rng), cx.random_context(n, rng)
            alpha = ms.ProbMeasure(rng.dirichlet(np.ones(n)))
            beta = ms.ProbMeasure(rng.dirichlet(np.ones(n)))
            lam = float(rng.uniform())
            e_mix = bp.psi_from_entanglement(
                bp.Entanglement(ms.mixture(alpha, beta, lam), ca, cb)
            )
            ea = bp.psi_from_entanglement(bp.Entanglement(alpha, ca, cb))
            eb = bp.psi_from_entanglement(bp.Entanglement(beta, ca, cb))
            assert bp.pure_entanglement_number(e_mix) >= (
                lam * bp.pure_entanglement_number(ea)
                + (1 - lam) * bp.pure_entanglement_number(eb)
                - 1e-12
            )


class TestDim2Spectrum:
    def test_equal_weights(self):
        values = sorted(v for v, _ in bp.dim2_entanglement_spectrum(0.5, 0.5))
        np.testing.assert_allclose(values, [-0.5, 0, 0, 0.5], atol=1e-15)

    def test_degenerate_pair(self):
        values = [v for v, _ in bp.dim2_entanglement_spectrum(1.0, 0.0)]
        np.testing.assert_allclose(values, np.zeros(4), atol=1e-15)

    def test_uneven_pair_against_eigensolver(self):
        e = bp.Entanglement(meas(1 / 3, 2 / 3), *standard_pair(2))
        b = bp.entanglement_operator(e).mat
        oracle = np.sort(np.linalg.eigvalsh(b))
        values = np.sort([v for v, _ in bp.dim2_entanglement_spectrum(1 / 3, 2 / 3)])
        np.testing.assert_allclose(values, oracle, atol=1e-12)
        assert values[-1] == pytest.approx(math.sqrt(2) / 3, abs=1e-12)

    def test_pairs_apply(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            lam1 = float(rng.uniform())
            e = bp.Entanglement(meas(lam1, 1 - lam1), *standard_pair(2))
            b = bp.entanglement_operator(e).mat
            for lam, vec in bp.dim2_entanglement_spectrum(lam1, 1 - lam1):
                assert np.linalg.norm(b @ vec - lam * vec) <= 1e-10

    def test_rejects_bad_pair(self):
        with pytest.raises(InvariantViolation):
            bp.dim2_entanglement_spectrum(0.7, 0.7)


class TestMaximallyEntangled:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectrum_and_number(self, n):
        rng = np.random.default_rng(60 + n)
        e = bp.maximally_entangled(n, cx.random_context(n, rng), cx.random_context(n, rng))
        psi = bp.psi_from_entanglement(e)
        assert bp.pure_entanglement_number(psi) == pytest.approx(
            math.sqrt((n - 1) / n), abs=1e-12
        )
        eigs = np.sort(np.linalg.eigvalsh(bp.entanglement_operator(e).mat))
        expected = np.sort([1 - 1 / n] + [-1 / n] * (n - 1) + [0.0] * (n * n - n))
        np.testing.assert_allclose(eigs, expected, atol=1e-9)

    def test_rejects_small_n(self):
        with pytest.raises(InvariantViolation):
            bp.maximally_entangled(1, cx.standard_context(1), cx.standard_context(1))


class TestSymmetricAntisymmetricBasis:
    def test_dim2_explicit(self):
        sa = bp.symmetric_antisymmetric_basis(cx.standard_context(2))
        np.testing.assert_allclose(sa.vector(0), [1, 0, 0, 0])
        np.testing.assert_allclose(sa.vector(1), [0, 0, 0, 1])
        np.testing.assert_allclose(sa.vector(2), [0, SQRT_HALF, SQRT_HALF, 0])
        np.testing.assert_allclose(sa.vector(3), [0, SQRT_HALF, -SQRT_HALF, 0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_and_entanglement_numbers(self, n):
        rng = np.random.default_rng(70 + n)
        ctx = cx.random_context(n, rng)
        sa = bp.symmetric_antisymmetric_basis(ctx)
        assert sa.dim == n * n  # valid context on the doubled space
        n_sym = n * (n + 1) // 2
        swap = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                swap[i * n + j, j * n + i] = 1.0
        for k in range(n * n):
            vec = sa.vector(k)
            sign = 1.0 if k < n_sym else -1.0
            np.testing.assert_allclose(swap @ vec, sign * vec, atol=1e-10)
            e = bp.pure_entanglement_number(bp.BipartiteVectorState(vec.reshape(n, n)))
            if k < n:
                assert e <= 1e-7
            else:
                assert e == pytest.approx(SQRT_HALF, abs=1e-10)

    def test_pair_projector_split(self):
        rng = np.random.default_rng(75)
        ctx = cx.random_context(2, rng)
        e = bp.Entanglement(
            meas(0.5, 0.5),
            cx.context_from_rows(ctx.matrix),
            cx.context_from_rows(ctx.matrix[::-1]),
        )
        a_part = bp.separable_state(e).mat
        b_part = bp.entanglement_operator(e).mat
        plus = np.kron(ctx.vector(0), ctx.vector(1)) + np.kron(ctx.vector(1), ctx.vector(0))
        plus /= math.sqrt(2)
        minus = np.kron(ctx.vector(0), ctx.vector(1)) - np.kron(ctx.vector(1), ctx.vector(0))
        minus /= math.sqrt(2)
        np.testing.assert_allclose(np.outer(plus, plus.conj()), a_part + b_part, atol=1e-10)
        np.testing.assert_allclose(np.outer(minus, minus.conj()), a_part - b_part, atol=1e-10)


class TestEntanglementValidation:
    def test_pads_short_measure(self):
        e = bp.Entanglement(meas(1.0), *standard_pair(3))
        assert len(e.lam.weights) == 3

    def test_rejects_mass_beyond_dimension(self):
        with pytest.raises(InvariantViolation):
            bp.Entanglement(meas(0.5, 0.25, 0.25), *standard_pair(2))

    def test_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            bp.Entanglement(meas(1.0), cx.standard_context(2), cx.standard_context(3))

    def test_dims_must_factor_vector(self):
        with pytest.raises(DimensionMismatch):
            bp.bipartite_from_vector(np.array([1.0, 0, 0]), (2, 2))

    @pytest.mark.parametrize("dims", [(2.5, 1.6), (True, 4), (0, 4)])
    def test_dims_must_be_positive_integers(self, dims):
        with pytest.raises(DimensionMismatch):
            bp.bipartite_from_vector(np.array([1.0, 0, 0, 0]), dims)

    def test_numpy_integer_dims(self):
        psi = bp.bipartite_from_vector(np.array([1.0, 0, 0, 0]), (np.int64(2), np.int64(2)))
        assert psi.dims == (2, 2)
