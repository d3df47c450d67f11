"""Classical probability measures: worked examples and seeded invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from entnum import measures as m
from entnum.errors import InvariantViolation


def meas(*w):
    return m.ProbMeasure(np.array(w, dtype=float))


def pmeas(rows):
    return m.ProductMeasure(np.array(rows, dtype=float))


class TestSupport:
    def test_three_atoms(self):
        assert m.support(meas(0.5, 1 / 3, 1 / 6)) == {1, 2, 3}

    def test_point(self):
        assert m.support(meas(1, 0, 0)) == {1}

    def test_zero_excluded(self):
        assert m.support(meas(0.5, 0, 0.5)) == {1, 3}

    def test_index(self):
        assert m.entanglement_index(meas(0.5, 0.5)) == 2
        assert m.entanglement_index(meas(1, 0)) == 1
        assert m.entanglement_index(meas(1 / 3, 1 / 3, 1 / 3)) == 3


class TestEntanglementNumber:
    @pytest.mark.parametrize(
        "weights,expected",
        [
            ((0.5, 0.5), 1 / math.sqrt(2)),
            ((0.5, 1 / 3, 1 / 6), math.sqrt(11 / 18)),
            ((1 / 9, 1 / 9, 7 / 9), math.sqrt(30) / 9),
            ((1, 0, 0), 0.0),
        ],
    )
    def test_examples(self, weights, expected):
        assert m.entanglement_number(meas(*weights)) == pytest.approx(expected, abs=1e-12)

    def test_cross_term_formula_agrees(self):
        # independent form: sqrt(sum_{i != j} u_i u_j)
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = m.ProbMeasure(rng.dirichlet(np.ones(rng.integers(1, 9))))
            w = u.weights
            cross = math.sqrt(max(np.sum(np.outer(w, w)) - np.sum(w**2), 0.0))
            assert m.entanglement_number(u) == pytest.approx(cross, abs=1e-12)

    @pytest.mark.parametrize(
        "number,u",
        [
            (m.entanglement_number, meas(1 - 4.7e-15, 4.7e-15)),
            (m.entanglement_number, meas(1 - 1e-10, 1e-10)),
            (m.entanglement_number, meas(1 - 3e-12, 1e-12, 2e-12)),
            (m.product_entanglement_number, pmeas([[1 - 3e-12, 1e-12], [2e-12, 0.0]])),
        ],
        ids=["two-atom-4.7e-15", "two-atom-1e-10", "three-atom", "product"],
    )
    def test_exact_on_stored_weights_near_point_measures(self, number, u):
        # e(u)^2 = (sum w)^2 - sum w^2, evaluated exactly on the stored floats
        w = [Fraction(float(x)) for x in u.weights.reshape(-1)]
        exact = math.sqrt(sum(w) ** 2 - sum(x * x for x in w))
        assert number(u) == pytest.approx(exact, rel=1e-14)


class TestFlags:
    def test_point_examples(self):
        assert m.is_point(meas(0, 1, 0))
        assert not m.is_point(meas(0.5, 0.5))
        assert m.is_point(meas(1 - 1e-15, 1e-15))

    def test_uniform_examples(self):
        assert m.is_uniform(meas(1 / 3, 1 / 3, 1 / 3))
        assert not m.is_uniform(meas(0.5, 1 / 3, 1 / 6))
        assert m.is_uniform(meas(0.5, 0, 0.5))

    def test_zero_score_iff_point(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = m.ProbMeasure(rng.dirichlet(np.ones(rng.integers(1, 8))))
            assert (m.entanglement_number(u) <= 1e-9) == m.is_point(u)

    def test_score_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            e = m.entanglement_number(m.ProbMeasure(rng.dirichlet(np.ones(6))))
            assert 0.0 <= e < 1.0


class TestBound:
    def test_examples(self):
        assert m.max_entanglement_bound(2) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert m.max_entanglement_bound(1) == 0.0
        assert m.max_entanglement_bound(3) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(InvariantViolation):
            m.max_entanglement_bound(0)

    def test_bound_holds_with_equality_iff_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            u = m.ProbMeasure(rng.dirichlet(np.ones(n)))
            bound = m.max_entanglement_bound(m.entanglement_index(u))
            e = m.entanglement_number(u)
            assert e <= bound + 1e-12
            if m.is_uniform(u):
                assert e == pytest.approx(bound, abs=1e-12)
            k = int(rng.integers(1, 8))
            uniform = m.ProbMeasure(np.full(k, 1.0 / k))
            assert m.entanglement_number(uniform) == pytest.approx(
                m.max_entanglement_bound(k), abs=1e-12
            )


class TestMixture:
    def test_examples(self):
        mix = m.mixture(meas(1, 0), meas(0, 1), 0.5)
        np.testing.assert_allclose(mix.weights, [0.5, 0.5])
        u = meas(0.3, 0.7)
        np.testing.assert_allclose(m.mixture(u, u, 0.42).weights, u.weights)
        np.testing.assert_allclose(
            m.mixture(meas(0.5, 0.5), meas(1, 0), 0.5).weights, [0.75, 0.25]
        )

    def test_pads_shorter(self):
        mix = m.mixture(meas(1.0), meas(0, 0, 1), 0.25)
        np.testing.assert_allclose(mix.weights, [0.25, 0, 0.75])

    def test_rejects_bad_lambda(self):
        with pytest.raises(InvariantViolation):
            m.mixture(meas(1.0), meas(1.0), 1.5)
        with pytest.raises(InvariantViolation):
            m.mixture(meas(1.0), meas(1.0), -0.1)

    def test_concave(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            u = m.ProbMeasure(rng.dirichlet(np.ones(rng.integers(1, 7))))
            v = m.ProbMeasure(rng.dirichlet(np.ones(rng.integers(1, 7))))
            lam = float(rng.uniform())
            mixed_e = m.entanglement_number(m.mixture(u, v, lam))
            avg = lam * m.entanglement_number(u) + (1 - lam) * m.entanglement_number(v)
            assert mixed_e >= avg - 1e-12

    def test_strictly_concave_when_distinct(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(500):
            n = int(rng.integers(1, 7))
            u = m.ProbMeasure(rng.dirichlet(np.ones(n)))
            v = m.ProbMeasure(rng.dirichlet(np.ones(int(rng.integers(1, 7)))))
            lam = float(rng.uniform(0.05, 0.95))
            width = max(len(u), len(v))
            uw = np.zeros(width)
            vw = np.zeros(width)
            uw[: len(u)] = u.weights
            vw[: len(v)] = v.weights
            if np.linalg.norm(uw - vw) < 1e-3:
                continue
            checked += 1
            mixed_e = m.entanglement_number(m.mixture(u, v, lam))
            avg = lam * m.entanglement_number(u) + (1 - lam) * m.entanglement_number(v)
            assert mixed_e > avg
        assert checked > 300

    def test_index_additive_on_disjoint_supports(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            u = np.concatenate([rng.dirichlet(np.ones(n1)), np.zeros(n2)])
            v = np.concatenate([np.zeros(n1), rng.dirichlet(np.ones(n2))])
            lam = float(rng.uniform(0.05, 0.95))
            mix = m.mixture(m.ProbMeasure(u), m.ProbMeasure(v), lam)
            assert m.entanglement_index(mix) == n1 + n2


class TestProductMeasure:
    def test_product_examples(self):
        np.testing.assert_allclose(
            m.product(meas(1.0), meas(0.5, 0.5)).weights, [[0.5, 0.5]]
        )
        np.testing.assert_allclose(m.product(meas(1.0), meas(1.0)).weights, [[1.0]])
        np.testing.assert_allclose(
            m.product(meas(0.5, 0.5), meas(0.5, 0.5)).weights, np.full((2, 2), 0.25)
        )

    def test_factorized_examples(self):
        assert m.is_factorized(pmeas([[0.5, 0.5]]))
        assert not m.is_factorized(pmeas([[1 / 3, 1 / 3], [0, 1 / 3]]))

    def test_products_always_factorize(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = m.ProbMeasure(rng.dirichlet(np.ones(rng.integers(1, 6))))
            w = m.ProbMeasure(rng.dirichlet(np.ones(rng.integers(1, 6))))
            assert m.is_factorized(m.product(v, w))

    def test_entanglement_number_examples(self):
        assert m.product_entanglement_number(pmeas([[0.5, 0.5]])) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )
        assert m.product_entanglement_number(
            pmeas([[1 / 3, 1 / 3], [0, 1 / 3]])
        ) == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert m.product_entanglement_number(pmeas([[1.0]])) == 0.0

    def test_zero_score_implies_factorized(self):
        # the only zero-score product measures are point masses
        for i in range(3):
            for j in range(3):
                w = np.zeros((3, 3))
                w[i, j] = 1.0
                u = pmeas(w)
                assert m.product_entanglement_number(u) == 0.0
                assert m.is_factorized(u)

    def test_factorized_does_not_imply_zero_score(self):
        u = pmeas([[0.5, 0.5]])
        assert m.is_factorized(u)
        assert m.product_entanglement_number(u) > 0.5

    def test_marginals(self):
        row, col = m.marginals(pmeas([[1 / 3, 1 / 3], [0, 1 / 3]]))
        np.testing.assert_allclose(row.weights, [2 / 3, 1 / 3])
        np.testing.assert_allclose(col.weights, [1 / 3, 2 / 3])


class TestValidation:
    def test_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            meas(1.2, -0.2)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantViolation):
            meas(0.5, 0.6)
        with pytest.raises(InvariantViolation):
            pmeas([[0.5, 0.2]])

    def test_accepts_tiny_negative_roundoff(self):
        u = m.ProbMeasure(np.array([1.0 + 1e-13, -1e-13]))
        assert u.weights[1] == 0.0
