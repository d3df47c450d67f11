"""Mixed-state entanglement: decompositions, the search, and certificates."""

import math

import numpy as np
import pytest

from entnum import bipartite as bp
from entnum import mixed as mx
from entnum import operators as op
from entnum import serialize
from entnum.errors import DimensionMismatch, InvariantViolation
from entnum.measures import ProbMeasure

SQRT_HALF = 1 / math.sqrt(2)

FAST = mx.OptimizerOptions(restarts=30, seed=0)


def product_vector(rng):
    a = op.random_vector_state(2, rng).vec
    b = op.random_vector_state(2, rng).vec
    return np.kron(a, b)


def bell_projector():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = SQRT_HALF
    return op.DensityState(np.outer(vec, vec.conj()), factor_dims=(2, 2))


class TestSpectralDecomposition:
    def test_pure_state(self):
        rng = np.random.default_rng(80)
        psi = op.random_vector_state(4, rng)
        d = mx.spectral_pure_decomposition(op.pure_state(psi, factor_dims=(2, 2)))
        assert len(d) == 1
        assert abs(np.vdot(d.vectors[0], psi.vec)) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        d = mx.spectral_pure_decomposition(op.DensityState(np.eye(3) / 3))
        assert len(d) == 3
        np.testing.assert_allclose(d.weights.weights, np.full(3, 1 / 3), atol=1e-12)

    def test_canonical_demo_state(self):
        rho, d = mx.separable_with_entangled_spectrum()
        np.testing.assert_allclose(d.weights.weights, [0.75, 0.25], atol=1e-12)
        psi3 = np.array([3, 1, 1, 1]) / (2 * math.sqrt(3))
        psi4 = np.array([-1, 1, 1, 1]) / 2
        assert abs(np.vdot(d.vectors[0], psi3)) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(d.vectors[1], psi4)) == pytest.approx(1.0, abs=1e-10)
        assert d.reconstruction_error(rho) <= 1e-10

    def test_vectors_orthogonal(self):
        rng = np.random.default_rng(81)
        rho = op.random_density(5, rng)
        d = mx.spectral_pure_decomposition(rho)
        gram = d.vectors.conj() @ d.vectors.T
        np.testing.assert_allclose(gram, np.eye(len(d)), atol=1e-9)


class TestDecompositionFromParam:
    """``mx._decompose``: the decomposition an m x r isometry generates from the spectral one."""

    def test_identity_recovers_spectral(self):
        rng = np.random.default_rng(82)
        rho = op.random_density(4, rng, factor_dims=(2, 2))
        spectral = mx.spectral_pure_decomposition(rho)
        d = mx._decompose(rho, spectral, np.eye(len(spectral)))
        np.testing.assert_allclose(d.weights.weights, spectral.weights.weights, atol=1e-10)
        for got, want in zip(d.vectors, spectral.vectors):
            assert abs(np.vdot(got, want)) == pytest.approx(1.0, abs=1e-10)

    def test_hadamard_mix_of_maximally_mixed(self):
        rho = op.DensityState(np.eye(2) / 2)
        spectral = mx.spectral_pure_decomposition(rho)
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        d = mx._decompose(rho, spectral, h)
        np.testing.assert_allclose(d.weights.weights, [0.5, 0.5], atol=1e-12)
        chi = spectral.vectors
        expect = [(chi[0] + chi[1]) / math.sqrt(2), (chi[0] - chi[1]) / math.sqrt(2)]
        for got, want in zip(d.vectors, expect):
            assert abs(np.vdot(got, want)) == pytest.approx(1.0, abs=1e-10)

    def test_recovers_defining_separable_decomposition(self):
        # derive the isometry mapping the spectral frame onto the known
        # product decomposition, then confirm it scores (numerically) zero
        rho, spectral = mx.separable_with_entangled_spectrum()
        h = np.array([1.0, 1.0]) / math.sqrt(2)
        targets = [np.kron(h, h), np.array([1.0, 0, 0, 0])]
        mu = spectral.weights.weights
        v = np.zeros((2, 2), dtype=complex)
        for i, t in enumerate(targets):
            w = math.sqrt(0.5) * t
            for j in range(2):
                v[i, j] = np.vdot(spectral.vectors[j], w) / math.sqrt(mu[j])
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-10)
        d = mx._decompose(rho, spectral, v)
        np.testing.assert_allclose(d.weights.weights, [0.5, 0.5], atol=1e-10)
        assert mx.decomposition_entanglement(rho, d) <= 1e-7

    def test_reconstruction_for_random_isometries(self):
        rng = np.random.default_rng(83)
        rho = op.random_density(4, rng, factor_dims=(2, 2))
        spectral = mx.spectral_pure_decomposition(rho)
        r = len(spectral)
        for m in (r, r + 2, 2 * r):
            z = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
            q, _ = np.linalg.qr(z)
            d = mx._decompose(rho, spectral, q[:, :r])
            assert d.reconstruction_error(rho) <= 1e-9

    def test_rejects_non_isometry(self):
        # the spectral rows are independent, so only an isometry reconstructs rho
        rho, spectral = mx.separable_with_entangled_spectrum()
        rank_one = np.array([[1.0, 0.0], [1.0, 0.0]])
        long_column = np.array([[1.0, 0.0], [0.0, 1.0 + 1e-6], [0.0, 0.0]])
        for v in (rank_one, long_column):
            with pytest.raises(InvariantViolation, match="misses rho"):
                mx._decompose(rho, spectral, v)

    def test_rejects_nan_entries(self):
        # a NaN makes every norm and reconstruction error NaN, which no "> tol" test catches
        nan_row = np.array([[np.nan, 0.0]])
        with pytest.raises(InvariantViolation):
            mx.PureDecomposition(ProbMeasure(np.ones(1)), nan_row)
        rho, spectral = mx.separable_with_entangled_spectrum()
        with pytest.raises(InvariantViolation):
            mx._decompose(rho, spectral, np.vstack([nan_row, [0.0, 1.0]]))


class TestDecompositionEntanglement:
    def test_spectral_value_of_demo_state(self):
        rho, spectral = mx.separable_with_entangled_spectrum()
        # 3/4 * sqrt(1/18) + 1/4 * sqrt(1/2) = 1/(2 sqrt 2)
        assert mx.decomposition_entanglement(rho, spectral) == pytest.approx(
            1 / (2 * math.sqrt(2)), abs=1e-9
        )

    def test_pure_state_single_term(self):
        rng = np.random.default_rng(84)
        coeff = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coeff /= np.linalg.norm(coeff)
        psi = bp.BipartiteVectorState(coeff)
        rho = op.DensityState(
            np.outer(psi.vector, psi.vector.conj()), factor_dims=(2, 2)
        )
        d = mx.PureDecomposition(ProbMeasure(np.array([1.0])), psi.vector[None, :])
        assert mx.decomposition_entanglement(rho, d) == pytest.approx(
            bp.pure_entanglement_number(psi), abs=1e-12
        )

    def test_all_factorized_scores_zero(self):
        rng = np.random.default_rng(85)
        vecs = np.stack([product_vector(rng) for _ in range(3)])
        w = rng.dirichlet(np.ones(3))
        rho = op.DensityState(
            np.einsum("i,ia,ib->ab", w, vecs, vecs.conj()), factor_dims=(2, 2)
        )
        d = mx.PureDecomposition(ProbMeasure(w), vecs)
        assert mx.decomposition_entanglement(rho, d) <= 1e-7

    def test_rejects_wrong_state(self):
        rng = np.random.default_rng(86)
        rho = op.random_density(4, rng, factor_dims=(2, 2))
        other = op.random_density(4, rng, factor_dims=(2, 2))
        d = mx.spectral_pure_decomposition(other)
        with pytest.raises(InvariantViolation):
            mx.decomposition_entanglement(rho, d)

    def test_requires_factor_dims(self):
        rho = op.DensityState(np.eye(4) / 4)
        d = mx.spectral_pure_decomposition(rho)
        with pytest.raises(DimensionMismatch):
            mx.decomposition_entanglement(rho, d)


def bell_with_01():
    """0.7 |Phi+><Phi+| + 0.3 |01><01|, an entangled rank-2 state."""
    e01 = np.array([0, 1, 0, 0], dtype=complex)
    bell = bell_projector().mat
    return op.DensityState(0.7 * bell + 0.3 * np.outer(e01, e01), factor_dims=(2, 2))


def wootters_e(rho):
    """Two-qubit entanglement number: concurrence / sqrt 2 (Wootters, PRL 80, 2245 (1998))."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    flipped = yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(rho @ flipped).real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3]) / math.sqrt(2)


def werner(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    return p * np.outer(singlet, singlet) + (1 - p) / 4 * np.eye(4)


def haar_isometry(m, r, rng):
    return mx._qr_isometry(rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r)))


def wishart_state(dims, rank, rng):
    """G G* / tr with G a complex Gaussian (d_A d_B) x rank matrix."""
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    mat = g @ g.conj().T
    return op.DensityState(mat / np.trace(mat).real, factor_dims=dims)


def search_and_start(dims, rng):
    """Search over a random full-rank state, and a random 2r x r isometry to start from."""
    rho = op.random_density(dims[0] * dims[1], rng, factor_dims=dims)
    spectral = mx.spectral_pure_decomposition(rho)
    r = len(spectral)
    return rho, mx._DecompositionSearch(rho, spectral), haar_isometry(2 * r, r, rng)


class TestSearchKernel:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 5)])
    def test_cross_terms_match_singular_values(self, dims):
        rng = np.random.default_rng(92)
        da, db = dims
        rows = rng.normal(size=(7, da * db)) + 1j * rng.normal(size=(7, da * db))
        lam = np.linalg.svd(rows.reshape(7, da, db), compute_uv=False) ** 2
        iu = np.triu_indices(lam.shape[1], k=1)
        expected = 2 * np.sum(lam[:, iu[0]] * lam[:, iu[1]], axis=1)
        got = bp._cross_terms(rows, bp._minor_positions(da, db))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 5)])
    def test_cross_terms_vanish_on_product_rows(self, dims):
        rng = np.random.default_rng(93)
        da, db = dims
        a = rng.normal(size=(5, da)) + 1j * rng.normal(size=(5, da))
        b = rng.normal(size=(5, db)) + 1j * rng.normal(size=(5, db))
        rows = np.einsum("ia,ib->iab", a, b).reshape(5, da * db)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        minors = bp._minor_positions(da, db)
        assert np.all(bp._cross_terms(rows, minors) <= 1e-30)
        assert np.all(bp._cross_terms(np.zeros((2, da * db), dtype=complex), minors) == 0.0)

    def test_objective_matches_decomposition_entanglement(self):
        rng = np.random.default_rng(95)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            rho, search, v = search_and_start(dims, rng)
            d = mx._decompose(rho, mx.spectral_pure_decomposition(rho), v)
            assert search.objective(v) == pytest.approx(
                mx.decomposition_entanglement(rho, d), abs=1e-12)

    @pytest.mark.parametrize("dims, rank", [((2, 2), 4), ((3, 3), 5), ((4, 4), 4), ((4, 4), 16)])
    def test_support_form_matches_minor_form(self, dims, rank):
        rng = np.random.default_rng(100)
        rho = wishart_state(dims, rank, rng)
        spectral = mx.spectral_pure_decomposition(rho)
        search = mx._DecompositionSearch(rho, spectral)
        v = haar_isometry(2 * rank, rank, rng)
        x, c = search.terms(v)
        rows = np.sqrt(spectral.weights.weights)[:, None] * spectral.vectors
        w = v @ rows
        np.testing.assert_allclose(c, bp._cross_terms(w, bp._minor_positions(*dims)),
                                   rtol=1e-12, atol=0)
        # reference: the gradient through the rows w, 2 (||X||^2 X - X X* X) / sqrt(c + eps^2)
        # for each coefficient matrix X, pulled back by rows*
        x3 = w.reshape(-1, *dims)
        norm2 = np.sum(np.abs(x3) ** 2, axis=(1, 2))[:, None, None]
        dc = 2.0 * (norm2 * x3 - x3 @ x3.conj().transpose(0, 2, 1) @ x3)
        for eps in (1e-2, 1e-8):
            got = search.gradient(v, x, c, eps)
            want = mx._tangent(v, (dc / np.sqrt(c + eps * eps)[:, None, None]).reshape(w.shape)
                               @ rows.conj().T)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_gradient_matches_finite_difference(self, dims):
        rng = np.random.default_rng(96)
        _, search, v = search_and_start(dims, rng)
        z = mx._tangent(v, rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape))
        eps, h = 1e-2, 1e-6

        def f(t):
            return mx._smoothed(search.terms(mx._qr_isometry(v + t * z))[1], eps)

        grad = search.gradient(v, *search.terms(v), eps)
        slope = np.vdot(grad, z).real
        assert (f(h) - f(-h)) / (2 * h) == pytest.approx(slope, rel=1e-6)

    @pytest.mark.parametrize("shape", [(1, 1), (4, 2), (9, 3), (32, 16), (16, 4)])
    def test_retraction_is_isometry(self, shape):
        rng = np.random.default_rng(97)
        v = haar_isometry(*shape, rng)
        moved = mx._qr_isometry(v + 0.7 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        for q in (v, moved):
            np.testing.assert_allclose(q.conj().T @ q, np.eye(shape[1]), rtol=0, atol=1e-12)
        # the descent's Cholesky QR on tangent steps t d, up to t ||d||_2 = 30
        d = mx._tangent(v, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        d /= np.linalg.norm(d, 2)
        for t in (1e-6, 0.7, 3.0, 30.0):
            q = mx._cholesky_retraction(v + t * d)
            np.testing.assert_allclose(q, mx._qr_isometry(v + t * d), rtol=0, atol=1e-13)
            np.testing.assert_allclose(q.conj().T @ q, np.eye(shape[1]), rtol=0, atol=1e-12)

    def test_zero_rows_stay_zero(self):
        rng = np.random.default_rng(98)
        _, search, v = search_and_start((2, 3), rng)
        m, r = v.shape
        start = np.vstack([haar_isometry(r, r, rng), np.zeros((m - r, r))])
        value, v = search.descend(start, 300, 0.0)
        assert np.all(v[r:] == 0)
        assert value < search.objective(start)


class TestMixedOptimizer:
    def test_pure_state_returns_its_entanglement_number(self):
        rng = np.random.default_rng(87)
        coeff = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coeff /= np.linalg.norm(coeff)
        psi = bp.BipartiteVectorState(coeff)
        rho = op.DensityState(np.outer(psi.vector, psi.vector.conj()), factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(rho, FAST)
        assert result.value == pytest.approx(bp.pure_entanglement_number(psi), abs=1e-9)

    def test_equal_bell_mixture_is_separable(self):
        plus = np.zeros(4)
        plus[0] = plus[3] = SQRT_HALF
        minus = np.zeros(4)
        minus[0], minus[3] = SQRT_HALF, -SQRT_HALF
        rho = op.DensityState(
            0.5 * np.outer(plus, plus) + 0.5 * np.outer(minus, minus),
            factor_dims=(2, 2),
        )
        result = mx.entanglement_number_mixed(rho, FAST)
        assert result.value <= 1e-3

    def test_demo_state_reaches_zero(self):
        rho, spectral = mx.separable_with_entangled_spectrum()
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=60, seed=0))
        assert result.value <= 1e-3
        assert result.value <= mx.decomposition_entanglement(rho, spectral) + 1e-12
        assert result.best.reconstruction_error(rho) <= 1e-9

    def test_never_exceeds_supplied_decomposition(self):
        rng = np.random.default_rng(88)
        vecs = np.stack([product_vector(rng) for _ in range(2)])
        w = np.array([0.4, 0.6])
        rho = op.DensityState(
            np.einsum("i,ia,ib->ab", w, vecs, vecs.conj()), factor_dims=(2, 2)
        )
        supplied = mx.PureDecomposition(ProbMeasure(w), vecs)
        result = mx.entanglement_number_mixed(rho, FAST)
        # dominance holds up to the optimizer's early-stop floor; the supplied
        # decomposition here is already optimal (score ~ machine noise)
        assert result.value <= mx.decomposition_entanglement(rho, supplied) + mx.STOP_AT

    @pytest.mark.parametrize("name", ["werner0.8", "werner0.3", "wishart89", "products3"])
    def test_rank_three_and_four_reach_exact_value(self, name):
        rng = np.random.default_rng(41)
        vecs = np.stack([product_vector(rng) for _ in range(3)])
        states = {
            "werner0.8": (werner(0.8), (3 * 0.8 - 1) / 2 / math.sqrt(2)),
            "werner0.3": (werner(0.3), 0.0),
            "wishart89": (op.random_density(4, np.random.default_rng(89)).mat, 0.0157310121),
            "products3": (np.einsum("i,ia,ib->ab", rng.dirichlet(np.ones(3)), vecs, vecs.conj()),
                          0.0),
        }
        mat, exact = states[name]
        assert wootters_e(mat) == pytest.approx(exact, abs=1e-10)
        rho = op.DensityState(mat, factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=2, max_iters=500, seed=0))
        assert result.value == pytest.approx(exact, abs=1e-6)

    def test_default_m_reaches_full_rank_isotropic_value(self):
        d, fidelity = 4, 0.5
        phi = np.eye(d).reshape(-1) / math.sqrt(d)
        proj = np.outer(phi, phi)
        mat = fidelity * proj + (1 - fidelity) * (np.eye(d * d) - proj) / (d * d - 1)
        rho = op.DensityState(mat, factor_dims=(d, d))
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=2, seed=0))
        assert result.value == pytest.approx(math.sqrt(d / (d - 1)) * (fidelity - 1 / d),
                                             abs=1e-4)

    def test_value_at_most_spectral(self):
        rng = np.random.default_rng(89)
        rho = op.random_density(4, rng, factor_dims=(2, 2))
        spectral_value = mx.decomposition_entanglement(
            rho, mx.spectral_pure_decomposition(rho)
        )
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=8, seed=0))
        assert result.value <= spectral_value + 1e-12

    def test_more_terms_never_hurts(self):
        rho, _ = mx.separable_with_entangled_spectrum()
        v2 = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=25, seed=1, m=2))
        v4 = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=25, seed=1, m=4))
        assert v4.value <= v2.value + 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(90)
        from entnum.contexts import random_context

        coeff = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coeff /= np.linalg.norm(coeff)
        psi = bp.BipartiteVectorState(coeff)
        rho = op.DensityState(np.outer(psi.vector, psi.vector.conj()), factor_dims=(2, 2))
        u = random_context(2, rng).matrix.T
        v = random_context(2, rng).matrix.T
        uv = np.kron(u, v)
        rotated = op.DensityState(uv @ rho.mat @ uv.conj().T, factor_dims=(2, 2))
        a = mx.entanglement_number_mixed(rho, FAST).value
        b = mx.entanglement_number_mixed(rotated, FAST).value
        assert a == pytest.approx(b, abs=1e-6)

    def test_deterministic_for_fixed_seed(self):
        # Example 9 stops early; the Wishart state runs every restart
        opts = mx.OptimizerOptions(restarts=3, max_iters=200, seed=3)
        for rho in (mx.separable_with_entangled_spectrum()[0],
                    wishart_state((2, 2), 3, np.random.default_rng(7))):
            a = mx.entanglement_number_mixed(rho, opts)
            b = mx.entanglement_number_mixed(rho, opts)
            assert (a.value, a.evaluations) == (b.value, b.evaluations)

    def test_requires_factor_dims(self):
        with pytest.raises(DimensionMismatch):
            mx.entanglement_number_mixed(op.DensityState(np.eye(4) / 4), FAST)

    def test_rejects_m_below_rank(self):
        rho = op.DensityState(np.eye(4) / 4, factor_dims=(2, 2))
        with pytest.raises(DimensionMismatch):
            mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=2, m=2))

    def test_rejects_negative_seed(self):
        # numpy's generator refuses a negative seed; the search says so as an invariant
        for opts in (mx.OptimizerOptions(restarts=2, seed=-1),
                     serialize.decode_optimizer_options({"seed": -4})):
            with pytest.raises(InvariantViolation, match="seed must be non-negative"):
                mx.entanglement_number_mixed(bell_with_01(), opts)

    def test_converged_flags(self):
        rho = bell_with_01()
        long_run = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=40, seed=0)
        )
        assert long_run.converged
        short_run = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=2, seed=0)
        )
        assert not short_run.converged

    def test_pure_state_skips_the_search(self):
        result = mx.entanglement_number_mixed(bell_projector(),
                                              mx.OptimizerOptions(restarts=200, seed=0))
        assert result.evaluations == 1
        assert abs(result.value - SQRT_HALF) <= 1e-15
        assert result.converged and result.certificate is None
        product = product_vector(np.random.default_rng(99))
        rho = op.DensityState(np.outer(product, product.conj()), factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=2, seed=0))
        assert result.evaluations == 1 and result.converged
        assert result.certificate is not None

    def test_converged_descents_end_at_the_rounding_floor(self):
        # a converged stage ends once no step could lower the value beyond its rounding
        # error, so no evaluations are spent on rounding noise
        rho = op.DensityState(werner(0.8), factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=2, max_iters=500, seed=1))
        assert result.value == pytest.approx((3 * 0.8 - 1) / 2 / math.sqrt(2), abs=1e-12)
        assert result.evaluations <= 400

    def test_nan_descent_ends(self):
        rng = np.random.default_rng(94)
        for dims in [(2, 2), (4, 4)]:
            _, search, v = search_and_start(dims, rng)
            finite_basis = search.basis  # what every evaluation multiplies v by first
            search.basis = np.full_like(finite_basis, np.nan)
            with np.errstate(invalid="ignore"):
                search.descend(v, 500, 0.0)
            assert search.evaluations <= 2
            # a finite value with a NaN gradient: the floor test itself must end each stage
            search.basis, search.evaluations = finite_basis, 0
            search.gradient = lambda v, x, c, eps: np.full_like(v, np.nan)
            search.descend(v, 500, 0.0)
            assert search.evaluations <= 2


class TestSeparabilityCertificate:
    def test_demo_state_certifies_near_the_product_states(self):
        rho, _ = mx.separable_with_entangled_spectrum()
        cert = mx.separability_certificate(rho, mx.OptimizerOptions(restarts=60, seed=0))
        assert cert is not None
        h = np.array([1.0, 1.0]) / math.sqrt(2)
        targets = [np.kron(h, h), np.array([1.0, 0, 0, 0])]
        for vec in cert.vectors:
            e = bp.pure_entanglement_number(bp.BipartiteVectorState(vec.reshape(2, 2)))
            assert e <= 0.05
            best = max(abs(np.vdot(t, vec)) for t in targets)
            assert best >= 0.95

    def test_bell_projector_never_certifies(self):
        cert = mx.separability_certificate(
            bell_projector(), mx.OptimizerOptions(restarts=50, seed=0)
        )
        assert cert is None

    def test_maximally_mixed_certifies(self):
        rho = op.DensityState(np.eye(4) / 4, factor_dims=(2, 2))
        cert = mx.separability_certificate(rho, mx.OptimizerOptions(restarts=5, seed=0))
        assert cert is not None

    def test_random_two_term_separable_certifies(self):
        rng = np.random.default_rng(91)
        vecs = np.stack([product_vector(rng) for _ in range(2)])
        w = float(rng.uniform(0.25, 0.75))
        rho = op.DensityState(
            w * np.outer(vecs[0], vecs[0].conj())
            + (1 - w) * np.outer(vecs[1], vecs[1].conj()),
            factor_dims=(2, 2),
        )
        cert = mx.separability_certificate(rho, mx.OptimizerOptions(restarts=60, seed=0))
        assert cert is not None


class TestResultCertificate:
    """``MixedResult.certificate`` is exactly what ``separability_certificate`` returns."""

    @staticmethod
    def certificates(rho, opts):
        from_result = mx.entanglement_number_mixed(rho, opts).certificate
        from_search = mx.separability_certificate(rho, opts)
        if from_result is not None and from_search is not None:
            np.testing.assert_array_equal(from_result.weights.weights,
                                          from_search.weights.weights)
            np.testing.assert_array_equal(from_result.vectors, from_search.vectors)
        return from_result, from_search

    def test_example9_state_certificate_present(self):
        rho, _ = mx.separable_with_entangled_spectrum()
        cert, again = self.certificates(rho, mx.OptimizerOptions(restarts=60, seed=0))
        assert cert is not None and again is not None
        assert cert.reconstruction_error(rho) <= 1e-9

    def test_bell_state_certificate_absent(self):
        cert, again = self.certificates(bell_projector(),
                                        mx.OptimizerOptions(restarts=50, seed=0))
        assert cert is None and again is None

    def test_entangled_rank2_certificate_absent(self):
        cert, again = self.certificates(bell_with_01(), mx.OptimizerOptions(restarts=3,
                                                                            max_iters=400, seed=0))
        assert cert is None and again is None
