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


def example9_product_isometry(spectral):
    """The 2 x 2 isometry that maps the spectral frame of Example 9 onto its product
    decomposition (|hh><hh| + |00><00|) / 2."""
    h = np.array([1.0, 1.0]) / math.sqrt(2)
    targets = [np.kron(h, h), np.array([1.0, 0, 0, 0])]
    mu = spectral.weights.weights
    v = np.zeros((2, 2), dtype=complex)
    for i, t in enumerate(targets):
        w = math.sqrt(0.5) * t
        for j in range(2):
            v[i, j] = np.vdot(spectral.vectors[j], w) / math.sqrt(mu[j])
    return v


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
        # the isometry mapping the spectral frame onto the known product decomposition
        # scores (numerically) zero
        rho, spectral = mx.separable_with_entangled_spectrum()
        v = example9_product_isometry(spectral)
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

    def test_rejects_vectors_of_another_dimension(self):
        rho, _ = mx.separable_with_entangled_spectrum()
        d = mx.PureDecomposition(ProbMeasure(np.array([1.0])), np.array([[1.0, 0.0]]))
        with pytest.raises(DimensionMismatch, match="vector dimension 2, rho 4"):
            mx.decomposition_entanglement(rho, d)
        with pytest.raises(DimensionMismatch):
            d.reconstruction_error(rho)

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


def wootters_from_factor(g):
    """C / sqrt 2 of rho = g g* / tr(g g*) from the spin-flip form g^T (Y x Y) g of its columns.

    The singular values of that form are Wootters' lambda_i for any factor g
    (Wootters, PRL 80, 2245 (1998)); no eigendecomposition of rho is taken.
    """
    g = g / math.sqrt(np.vdot(g, g).real)
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    lam = np.linalg.svd(g.T @ yy @ g, compute_uv=False)
    return max(0.0, lam[0] - lam[1:].sum()) / math.sqrt(2)


def werner(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    return p * np.outer(singlet, singlet) + (1 - p) / 4 * np.eye(4)


def werner_dd(d, fidelity):
    """Werner state on d x d: weight fidelity on the antisymmetric subspace."""
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    anti, sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
    return fidelity * anti / np.trace(anti) + (1 - fidelity) * sym / np.trace(sym)


def isotropic(d, fidelity):
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    proj = np.outer(phi, phi)
    return fidelity * proj + (1 - fidelity) * (np.eye(d * d) - proj) / (d * d - 1)


def unit_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def dirichlet_mixture(seed, terms, product):
    """Two-qubit Dirichlet mixture of random product (or pure) states."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(terms))
    vecs = (np.kron(unit_vector(rng, 2), unit_vector(rng, 2)) if product else unit_vector(rng, 4)
            for _ in w)
    return sum(wi * np.outer(x, x.conj()) for wi, x in zip(w, vecs))


def rank2_mixture(dims, seed):
    rng = np.random.default_rng(seed)
    a, b = (unit_vector(rng, dims[0] * dims[1]) for _ in range(2))
    return 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())


def highrank_options(seed):
    return mx.OptimizerOptions(restarts=2, max_iters=500, seed=seed)


# (matrix, dims, options) of every state the line-search tests run with and
# without speculation; the first six are the benchmark's ``mixed-highrank`` states
SPECULATION_PANEL = {
    "wishart89": lambda: (op.random_density(4, np.random.default_rng(89)).mat, (2, 2),
                          highrank_options(0)),
    "werner0.8": lambda: (werner(0.8), (2, 2), highrank_options(1)),
    "werner0.3": lambda: (werner(0.3), (2, 2), highrank_options(2)),
    "products4": lambda: (dirichlet_mixture(41, 4, True), (2, 2), highrank_options(3)),
    "products3": lambda: (dirichlet_mixture(31, 3, True), (2, 2), highrank_options(4)),
    "pure-mix3": lambda: (dirichlet_mixture(32, 3, False), (2, 2), highrank_options(5)),
    "rank2-2x2": lambda: (rank2_mixture((2, 2), 11), (2, 2),
                          mx.OptimizerOptions(restarts=4, seed=1)),
    "rank2-2x3": lambda: (rank2_mixture((2, 3), 12), (2, 3),
                          mx.OptimizerOptions(restarts=4, seed=2)),
    "rank2-3x3": lambda: (rank2_mixture((3, 3), 13), (3, 3),
                          mx.OptimizerOptions(restarts=4, seed=3)),
    # stall-limited, so the most sensitive to rounding
    "wishart-3x3-rank5": lambda: (wishart_state((3, 3), 5, np.random.default_rng(12)).mat, (3, 3),
                                  mx.OptimizerOptions(restarts=2, seed=1)),
    "werner-3x3-0.8": lambda: (werner_dd(3, 0.8), (3, 3), mx.OptimizerOptions(restarts=3, seed=0)),
    # m s r^2 = 294,912, far above the default threshold
    "isotropic-4x4-0.6": lambda: (isotropic(4, 0.6), (4, 4),
                                  mx.OptimizerOptions(restarts=2, seed=0)),
}


@pytest.fixture
def descents_only(monkeypatch):
    """Searches without the closed-form start, so two-qubit states run their descents."""
    monkeypatch.setattr(mx._DecompositionSearch, "closed_form", lambda search, m: None)


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


def near_separable_start(size, rng):
    """Search over Example 9, and a 4 x 2 isometry about size away from its product
    decomposition padded with two zero rows."""
    rho, spectral = mx.separable_with_entangled_spectrum()
    v = np.vstack([example9_product_isometry(spectral), np.zeros((2, 2))])
    kick = rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)
    return mx._DecompositionSearch(rho, spectral), mx._qr_isometry(v + size * kick)


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
            _, c, value = search.objective(v)
            assert value == pytest.approx(mx.decomposition_entanglement(rho, d), abs=1e-12)
            # the terms the descent starts from, counted as one evaluation
            assert c.tobytes() == search.terms(v)[1].tobytes() and search.evaluations == 1

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
            got = mx._tangent(v, search.gradient(x, np.sqrt(c + eps * eps)))
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
            return mx._smoothed(search.terms(mx._qr_isometry(v + t * z))[1], eps)[0]

        x, c = search.terms(v)
        grad = mx._tangent(v, search.gradient(x, np.sqrt(c + eps * eps)))
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
        assert value < search.objective(start)[2]


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
        rho = op.DensityState(isotropic(d, fidelity), factor_dims=(d, d))
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
        # Example 9 and the 2x2 Wishart state stop on the closed form; the 2x3 one runs
        # every restart
        opts = mx.OptimizerOptions(restarts=3, max_iters=200, seed=3)
        for rho in (mx.separable_with_entangled_spectrum()[0],
                    wishart_state((2, 2), 3, np.random.default_rng(7)),
                    wishart_state((2, 3), 3, np.random.default_rng(7))):
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
        # numpy's generator refuses a negative seed; the options say so as an invariant
        for make in (lambda: mx.OptimizerOptions(restarts=2, seed=-1),
                     lambda: serialize.decode_optimizer_options({"seed": -4})):
            with pytest.raises(InvariantViolation, match="seed must be non-negative"):
                mx.entanglement_number_mixed(bell_with_01(), make())

    def test_converged_flags(self):
        rho = wishart_state((3, 3), 2, np.random.default_rng(3))
        long_run = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=40, seed=0)
        )
        # the bracket stays open, so only stagnation can end the search converged
        assert long_run.value - long_run.lower_bound > 1e-3
        assert long_run.converged
        short_run = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=2, seed=0)
        )
        assert not short_run.converged

    def test_closed_bracket_ends_the_search(self):
        # the spectral decomposition of 0.7 Bell + 0.3 |01> is optimal and meets the bound
        result = mx.entanglement_number_mixed(bell_with_01(),
                                              mx.OptimizerOptions(restarts=4, seed=0))
        assert result.evaluations == 1 and result.converged
        assert result.value - result.lower_bound <= mx.STOP_AT

    def test_entangled_rank2_search_stops_at_the_bound(self):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        assert wootters_from_factor(g) > 0.05
        rho = op.DensityState(g @ g.conj().T / np.vdot(g, g).real, factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=100, seed=0))
        assert result.converged and result.evaluations <= 500
        assert result.value - result.lower_bound <= mx.STOP_AT

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_lower_bound_is_the_wootters_value(self, rank):
        rng = np.random.default_rng(100 + rank)
        for _ in range(5):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = op.DensityState(g @ g.conj().T / np.vdot(g, g).real, factor_dims=(2, 2))
            result = mx.entanglement_number_mixed(
                rho, mx.OptimizerOptions(restarts=1, max_iters=1, seed=0))
            assert abs(result.lower_bound - wootters_from_factor(g)) <= 1e-12

    def test_lower_bound_refuses_a_false_certificate(self):
        # Werner with e = 5e-4: the search gets within SEP_THRESHOLD, but the bound
        # shows the state is entangled
        p = (1 + 2 * 5e-4 * math.sqrt(2)) / 3
        rho = op.DensityState(werner(p), factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=4, seed=0))
        assert result.value <= mx.SEP_THRESHOLD
        assert result.lower_bound == pytest.approx(5e-4, abs=1e-12)
        assert result.certificate is None

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("e", [5e-4, 2e-4, 5e-5])
    def test_npt_states_get_no_certificate(self, d, e):
        # Werner above 2x2: the lower bound is 0 and the best decomposition passes the
        # value and per-vector tests, but the partial transpose is not positive
        rho = op.DensityState(werner_dd(d, 0.5 + e / math.sqrt(2)), factor_dims=(d, d))
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=2, seed=0))
        assert result.lower_bound <= mx.STOP_AT and result.value <= mx.SEP_THRESHOLD
        assert np.all(bp._pure_numbers(result.best.vectors, (d, d))
                      <= mx.CERT_SCALE * math.sqrt(mx.SEP_THRESHOLD))
        pt = rho.mat.reshape(d, d, d, d).swapaxes(1, 3).reshape(d * d, -1)
        assert np.linalg.eigvalsh(pt)[0] < -1e-5
        assert result.certificate is None

    def test_rejects_max_iters_below_1(self):
        for make in (lambda: mx.OptimizerOptions(max_iters=-5, restarts=20),
                     lambda: mx.OptimizerOptions(max_iters=0, restarts=2),
                     lambda: serialize.decode_optimizer_options({"max_iters": -5})):
            with pytest.raises(InvariantViolation, match="max_iters must be at least 1"):
                mx.entanglement_number_mixed(bell_with_01(), make())

    def test_options_refuse_invalid_values_on_construction(self):
        for obj, message in (({"restarts": 0}, "need at least one restart"),
                             ({"seed": -4}, "seed must be non-negative"),
                             ({"max_iters": -5}, "max_iters must be at least 1")):
            with pytest.raises(InvariantViolation, match=message):
                mx.OptimizerOptions(**obj)
            with pytest.raises(InvariantViolation, match=message):
                serialize.decode_optimizer_options(obj)

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

    @pytest.mark.usefixtures("descents_only")
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
            search.gradient = lambda x, root: np.full_like(v, np.nan)
            search.descend(v, 500, 0.0)
            assert search.evaluations <= 2
        # below SEP_THRESHOLD the LM steps need no gradient; once they stop halving the
        # value, the NaN gradient ends each stage
        search, v = near_separable_start(1e-4, rng)
        start = search.objective(v)[2]
        assert start <= mx.SEP_THRESHOLD
        search.gradient = lambda x, root: np.full_like(v, np.nan)
        search.evaluations = 0
        value, _ = search.descend(v, 500, 0.0)
        assert value < start and search.evaluations <= 10


@pytest.mark.usefixtures("descents_only")
class TestSpeculativeLineSearch:
    """Scoring the Armijo step t and its halving t/2 as one stack changes no answer."""

    @pytest.mark.parametrize("name", list(SPECULATION_PANEL))
    def test_speculation_is_bit_identical(self, name, monkeypatch):
        mat, dims, opts = SPECULATION_PANEL[name]()
        rho = op.DensityState(mat, factor_dims=dims)
        runs = []
        for work in (0, 10**12):  # never speculate, always speculate
            monkeypatch.setattr(mx, "_SPECULATION_WORK", work)
            runs.append(mx.entanglement_number_mixed(rho, opts))
        never, always = runs
        assert never.evaluations > 2  # descents ran, not the spectral and closed-form starts
        assert float.hex(always.value) == float.hex(never.value)
        assert always.evaluations == never.evaluations
        assert always.converged == never.converged
        assert always.best.vectors.tobytes() == never.best.vectors.tobytes()

    def test_half_steps_share_a_call(self, monkeypatch):
        # a pair whose t fails is two evaluations in one ``terms`` call
        calls = []
        terms = mx._DecompositionSearch.terms

        def counting(search, v):
            calls.append(v.ndim)
            return terms(search, v)

        monkeypatch.setattr(mx._DecompositionSearch, "terms", counting)
        rho = op.DensityState(werner(0.8), factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(
            rho, mx.OptimizerOptions(restarts=2, max_iters=500, seed=1))
        assert 3 in calls
        assert len(calls) < result.evaluations

    @pytest.mark.parametrize("dims, rank", [((2, 2), 4), ((3, 3), 5), ((4, 4), 16)])
    def test_stacked_kernels_match_each_slice(self, dims, rank):
        rng = np.random.default_rng(101)
        rho = wishart_state(dims, rank, rng)
        search = mx._DecompositionSearch(rho, mx.spectral_pure_decomposition(rho))
        v = haar_isometry(2 * rank, rank, rng)
        d = mx._tangent(v, rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape))
        steps = (0.3, 0.15)
        z = v + np.array(steps)[:, None, None] * d
        stacked = mx._cholesky_retraction(z)
        (ys, nvs), cs = search.terms(stacked)
        fs, roots = mx._smoothed(cs, 1e-4)
        projected = mx._tangent(v, z)
        for k, t in enumerate(steps):
            assert z[k].tobytes() == (v + t * d).tobytes()
            q = mx._cholesky_retraction(v + t * d)
            assert stacked[k].tobytes() == q.tobytes()
            (y, nv), c = search.terms(q)
            assert ys[k].tobytes() == y.tobytes() and nvs[k].tobytes() == nv.tobytes()
            assert cs[k].tobytes() == c.tobytes()
            f, root = mx._smoothed(c, 1e-4)
            assert float.hex(float(fs[k])) == float.hex(float(f))
            assert roots[k].tobytes() == root.tobytes()
            assert projected[k].tobytes() == mx._tangent(v, z[k]).tobytes()


def lm_reference(search, v):
    """The Levenberg-Marquardt step by brute force: the damped least squares over an
    orthonormal real basis of the tangent space at v, solved by ``lstsq``."""
    (y, nv), _ = search.terms(v)
    m, r = v.shape
    n = m * r

    def unpack(t):
        return (t[:n] + 1j * t[n:]).reshape(m, r)

    def pack(z):
        return np.concatenate([z.real.ravel(), z.imag.ravel()])

    eye = np.eye(2 * n)
    u, sv, _ = np.linalg.svd(np.array([pack(mx._tangent(v, unpack(e))) for e in eye]).T)
    basis = u[:, sv > 0.5]
    # the residuals of row i move by 2 sum_j xi_ij (N_p v_i)_j
    jac = np.array([pack(2.0 * np.einsum("ij,ipj->ip", unpack(e), nv)) for e in eye]).T @ basis
    mu = float(np.vdot(y, y).real)
    damped = np.vstack([jac, math.sqrt(mu) * np.eye(basis.shape[1])])
    rhs = -np.concatenate([pack(y), np.zeros(basis.shape[1])])
    return unpack(basis @ np.linalg.lstsq(damped, rhs, rcond=None)[0])


SEPARABLE_PANEL = ("werner0.3", "products4", "products3")


@pytest.mark.usefixtures("descents_only")
class TestLevenbergMarquardt:
    """The Levenberg-Marquardt finish of descents that reach SEP_THRESHOLD."""

    @pytest.mark.parametrize("name", [n for n in SPECULATION_PANEL if n not in SEPARABLE_PANEL])
    def test_entangled_searches_are_bit_identical(self, name, monkeypatch):
        mat, dims, opts = SPECULATION_PANEL[name]()
        rho = op.DensityState(mat, factor_dims=dims)
        runs = []
        for trigger in (mx.SEP_THRESHOLD, 0.0):  # as shipped, never
            monkeypatch.setattr(mx, "SEP_THRESHOLD", trigger)
            runs.append(mx.entanglement_number_mixed(rho, opts))
        shipped, never = runs
        assert never.evaluations > 2  # descents ran, not the spectral and closed-form starts
        assert float.hex(shipped.value) == float.hex(never.value)
        assert shipped.evaluations == never.evaluations
        assert shipped.converged == never.converged
        assert shipped.best.vectors.tobytes() == never.best.vectors.tobytes()

    @pytest.mark.parametrize("name", SEPARABLE_PANEL)
    def test_separable_searches_reach_stop_at_within_100_evaluations(self, name):
        # conjugate gradients alone took 304 (products3), 188 (products4) and 307 (werner0.3)
        mat, dims, opts = SPECULATION_PANEL[name]()
        result = mx.entanglement_number_mixed(op.DensityState(mat, factor_dims=dims), opts)
        assert result.value <= mx.STOP_AT and result.evaluations <= 100
        assert result.certificate is not None

    @pytest.mark.parametrize("dims, rank", [((2, 2), 3), ((2, 3), 2), ((3, 3), 3)])
    def test_step_matches_brute_force(self, dims, rank):
        rng = np.random.default_rng(104)
        rho = wishart_state(dims, rank, rng)
        search = mx._DecompositionSearch(rho, mx.spectral_pure_decomposition(rho))
        v = haar_isometry(min(rank * rank, max(16, 2 * rank)), rank, rng)
        want = lm_reference(search, v)
        got = search.lm_step(v, search.terms(v)[0])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # near a zero residual the damping falls to about 1e-9, below a_i's small singular
        # values squared, and the step still matches
        search, v = near_separable_start(1e-4, rng)
        want = lm_reference(search, v)
        got = search.lm_step(v, search.terms(v)[0])
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("dims, rank", [((2, 2), 4), ((3, 3), 5), ((4, 4), 16)])
    def test_step_is_tangent_and_keeps_zero_rows(self, dims, rank):
        rng = np.random.default_rng(103)
        rho = wishart_state(dims, rank, rng)
        wishart = mx._DecompositionSearch(rho, mx.spectral_pure_decomposition(rho))
        padded = np.vstack([haar_isometry(rank, rank, rng), np.zeros((rank, rank))])
        for search, v in ((wishart, haar_isometry(2 * rank, rank, rng)), (wishart, padded),
                          near_separable_start(1e-4, rng)):
            xi = search.lm_step(v, search.terms(v)[0])
            vx = v.conj().T @ xi
            assert np.linalg.norm(vx + vx.conj().T) <= 1e-12 * np.linalg.norm(xi)
            assert np.all(xi[~v.any(axis=1)] == 0)

    def test_steps_reach_stop_at_from_1e_4(self):
        search, v = near_separable_start(1e-4, np.random.default_rng(102))
        values = [search.objective(v)[2]]
        assert 1e-5 <= values[0] <= 1e-3
        while values[-1] > mx.STOP_AT and len(values) <= 6:
            v = mx._cholesky_retraction(v + search.lm_step(v, search.terms(v)[0]))
            values.append(search.objective(v)[2])
        assert values[-1] <= mx.STOP_AT, values

    @pytest.mark.parametrize("failure", ["nan", "lapack", "no-gain"])
    def test_failed_step_leaves_conjugate_gradients_as_they_were(self, failure, monkeypatch):
        # a failed try moves nothing; a scored one (NaN, or a zero step that does not
        # halve the value) costs one evaluation, and the next try waits for a tenfold drop
        def broken(search, v, x):
            if failure == "lapack":
                raise np.linalg.LinAlgError("broken")
            return np.full_like(v, np.nan if failure == "nan" else 0.0)

        runs = []
        for trigger, step in ((0.0, mx._DecompositionSearch.lm_step), (mx.SEP_THRESHOLD, broken)):
            monkeypatch.setattr(mx, "SEP_THRESHOLD", trigger)
            monkeypatch.setattr(mx._DecompositionSearch, "lm_step", step)
            search, v = near_separable_start(1e-4, np.random.default_rng(105))
            start = search.objective(v)[2]
            runs.append((search.descend(v, 500, mx.STOP_AT), search.evaluations))
        ((never, v_never), n_never), ((failed, v_failed), n_failed) = runs
        assert float.hex(failed) == float.hex(never) and v_failed.tobytes() == v_never.tobytes()
        assert never < start / 100
        tries = n_failed - n_never
        assert tries == 0 if failure == "lapack" else 1 <= tries <= 6


def singular_form_mixture(seed):
    """Rank-2 two-qubit mixture of a product state a (x) b and a state psi orthogonal to
    a' (x) b', with a' and b' orthogonal to a and b: the form on its support is singular."""
    rng = np.random.default_rng(seed)
    a, b = unit_vector(rng, 2), unit_vector(rng, 2)
    perp = np.kron([-a[1].conj(), a[0].conj()], [-b[1].conj(), b[0].conj()])
    psi = unit_vector(rng, 4)
    psi -= np.vdot(perp, psi) * perp
    psi /= np.linalg.norm(psi)
    ab = np.kron(a, b)
    w = rng.uniform(0.2, 0.8)
    return w * np.outer(ab, ab.conj()) + (1 - w) * np.outer(psi, psi.conj())


def near_rank2(seed, rank, eps):
    """A random rank-2 two-qubit state mixed with eps of a random state of the given rank:
    its form has rank - 2 singular values near 0."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    h = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    return ((1 - eps) * g @ g.conj().T / np.vdot(g, g).real
            + eps * h @ h.conj().T / np.vdot(h, h).real)


def closed_form_states():
    """Two-qubit states whose spectral decomposition misses the lower bound: seeded
    random states of rank 2 to 4, Werner and isotropic states p P + (1 - p) / 4 on a grid
    through the separability boundary p = 1/3, Example 9, rank-2 mixtures whose form is
    singular, and rank-2 states with 1e-10 of noise, whose eigenvectors for the small
    singular values are not orthogonal without the polar factor."""
    rng = np.random.default_rng(106)
    states = {}
    for rank in (2, 3, 4):
        for i in range(5):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states[f"rank{rank}-{i}"] = g @ g.conj().T / np.vdot(g, g).real
    for p in [0.05 * j for j in range(1, 20)] + [1 / 3]:
        states[f"werner-{p:.4f}"] = werner(p)
        states[f"isotropic-{p:.4f}"] = isotropic(2, (1 + 3 * p) / 4)
    states["example9"] = mx.separable_with_entangled_spectrum()[0].mat
    for seed in range(3):
        states[f"singular-form-{seed}"] = singular_form_mixture(seed)
    for rank in (3, 4):
        for seed in range(2):
            states[f"near-rank2-{rank}-{seed}"] = near_rank2(seed, rank, 1e-10)
    return states


CLOSED_FORM_STATES = closed_form_states()


def with_and_without_closed_form(rho, opts, monkeypatch):
    """The search as shipped and with the closed-form start turned off; they must be
    bit for bit the same search."""
    shipped = mx.entanglement_number_mixed(rho, opts)
    monkeypatch.setattr(mx._DecompositionSearch, "closed_form", lambda search, m: None)
    never = mx.entanglement_number_mixed(rho, opts)
    assert float.hex(shipped.value) == float.hex(never.value)
    assert shipped.evaluations == never.evaluations
    assert shipped.converged == never.converged
    assert shipped.best.vectors.tobytes() == never.best.vectors.tobytes()
    return never


class TestClosedForm:
    """The isometry that attains Uhlmann's bound on the one form of a two-qubit search."""

    @pytest.mark.parametrize("name", list(CLOSED_FORM_STATES))
    def test_isometry_scores_the_lower_bound(self, name):
        rho = op.DensityState(CLOSED_FORM_STATES[name], factor_dims=(2, 2))
        spectral = mx.spectral_pure_decomposition(rho)
        search = mx._DecompositionSearch(rho, spectral)
        r = len(spectral)
        if name.startswith("singular-form"):
            assert r == 2 and np.linalg.svd(search.form, compute_uv=False)[1] <= 1e-12
        v = search.closed_form(min(r * r, max(16, 2 * r)))
        np.testing.assert_allclose(v.conj().T @ v, np.eye(r), rtol=0, atol=1e-12)
        assert search.objective(v)[2] - search.lower <= mx.STOP_AT

    @pytest.mark.parametrize("name", list(CLOSED_FORM_STATES))
    def test_search_closes_on_the_second_evaluation(self, name):
        mat = CLOSED_FORM_STATES[name]
        rho = op.DensityState(mat, factor_dims=(2, 2))
        result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=100, seed=0))
        # a singular form sigma u u^T scores sqrt(2) sigma ||V u||^2 = sqrt(2) sigma at every
        # isometry V, so the spectral start meets the bound already
        assert result.evaluations == (1 if name.startswith("singular-form") else 2)
        assert result.converged
        assert result.value - result.lower_bound <= mx.STOP_AT
        # Wootters' value from a factor g g* of rho, by the spin-flip form, not the minors
        mu, chi = np.linalg.eigh(mat)
        assert abs(result.value - wootters_from_factor(chi * np.sqrt(np.maximum(mu, 0.0)))) \
            <= 1e-8
        pt = mat.reshape(2, 2, 2, 2).swapaxes(1, 3).reshape(4, 4)
        ppt = np.linalg.eigvalsh(pt)[0] >= -mx.PPT_TOL
        assert (result.certificate is not None) == (result.lower_bound <= mx.STOP_AT and ppt)

    def test_too_few_rows_keep_the_descents(self, monkeypatch):
        # rank 3 needs a Hadamard block of 4 rows; with m = 3 the search is the one
        # without the closed form
        rho = wishart_state((2, 2), 3, np.random.default_rng(107))
        assert mx._DecompositionSearch(rho, mx.spectral_pure_decomposition(rho)).closed_form(3) \
            is None
        never = with_and_without_closed_form(rho, mx.OptimizerOptions(restarts=3, seed=0, m=3),
                                             monkeypatch)
        assert never.evaluations > 2

    @pytest.mark.parametrize("name", [n for n, make in SPECULATION_PANEL.items()
                                      if make()[1] != (2, 2)])
    def test_searches_above_2x2_are_unchanged(self, name, monkeypatch):
        mat, dims, opts = SPECULATION_PANEL[name]()
        with_and_without_closed_form(op.DensityState(mat, factor_dims=dims), opts, monkeypatch)


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
