"""verify-paper's stacked property suites against per-draw loops, and the stacked kernels.

The reference loops below are the per-draw forms of the suites: each draw is
scored through the public per-value functions.  The suites draw the same
samples in the same order and score them as stacks, so every row must match,
down to the last bit of each float.  The kernel tests check the same thing one
level down: each slice of a stacked kernel call equals the public function on
that slice alone, byte for byte.
"""

import math

import numpy as np
import pytest

from entnum import bipartite, contexts, measures, operators, verify
from entnum.measures import ProbMeasure, ProductMeasure

SEEDS = (0, 3, 7, 42)


def _reference_thm11(seed):
    rng = np.random.default_rng(seed + 11)
    point_max = 0.0
    bound_violation = -1.0
    uniform_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        point = np.zeros(n)
        point[rng.integers(0, n)] = 1.0
        point_max = max(point_max, measures.entanglement_number(ProbMeasure(point)))
        u = ProbMeasure(rng.dirichlet(np.ones(n)))
        bound = measures.max_entanglement_bound(measures.entanglement_index(u))
        bound_violation = max(bound_violation, measures.entanglement_number(u) - bound)
        k = int(rng.integers(1, 8))
        uniform = ProbMeasure(np.full(k, 1.0 / k))
        uniform_gap = max(uniform_gap, abs(measures.entanglement_number(uniform)
                                           - measures.max_entanglement_bound(k)))
    yield verify._row("point measures score zero (200 draws)", 0.0, point_max, 1e-12, "property")
    yield verify._bound_row("e <= sqrt((n-1)/n) (200 draws)", 1e-12, bound_violation, "property")
    yield verify._row("uniform measures attain the bound (200 draws)", 0.0, uniform_gap, 1e-12,
                      "property")


def _reference_thm12(seed):
    rng = np.random.default_rng(seed + 12)
    worst = math.inf
    strict_worst = math.inf
    strict_count = 0
    for _ in range(1000):
        u = ProbMeasure(rng.dirichlet(np.ones(int(rng.integers(1, 7)))))
        v = ProbMeasure(rng.dirichlet(np.ones(int(rng.integers(1, 7)))))
        lam = float(rng.uniform(0.0, 1.0))
        mix = measures.mixture(u, v, lam)
        margin = (measures.entanglement_number(mix)
                  - lam * measures.entanglement_number(u)
                  - (1.0 - lam) * measures.entanglement_number(v))
        worst = min(worst, margin)
        nu = np.zeros(max(len(u), len(v)))
        nv = nu.copy()
        nu[: len(u)] = u.weights
        nv[: len(v)] = v.weights
        if 0.2 <= lam <= 0.8 and float(np.linalg.norm(nu - nv)) >= 0.1:
            strict_worst = min(strict_worst, margin)
            strict_count += 1
    yield verify._bound_row("concavity margin >= -1e-12 (1000 draws)", 1e-12, -worst, "property")
    yield verify._row("strict cases sampled (count > 100)", 1.0, float(strict_count > 100), 0,
                      "property")
    yield verify._row("strict concavity margin >= 1e-6", 1.0, float(strict_worst >= 1e-6), 0,
                      "property")


def _reference_thm23(seed):
    rng = np.random.default_rng(seed + 23)
    for dim in range(2, 7):
        worst = 0.0
        for _ in range(100):
            a = operators.random_operator(dim, rng)
            ctx = contexts.random_context(dim, rng)
            worst = max(worst, abs(operators.hs_norm(contexts.residual_map(a, ctx))
                                   - contexts.context_coefficient(a, ctx)))
        yield verify._row(f"residual norm = context coefficient, dim {dim} (100 draws)", 0.0,
                          worst, 1e-9, "property")


def _reference_thm32(seed):
    rng = np.random.default_rng(seed + 32)
    worst_triple = 0.0
    worst_split = 0.0
    for k in range(100):
        e = bipartite.random_entanglement(int(rng.integers(2, 6)), rng)
        triple = bipartite.verify_entanglement_triple(e)
        worst_triple = max(worst_triple,
                           abs(triple.context_coeff - triple.operator_norm),
                           abs(triple.operator_norm - triple.measure_number),
                           abs(triple.context_coeff - triple.measure_number))
        if k < 20:
            psi = bipartite.psi_from_entanglement(e)
            p = operators.Operator(np.outer(psi.vector, psi.vector.conj()))
            d = bipartite.product_context(e.ctx_a, e.ctx_b)
            worst_split = max(
                worst_split,
                float(np.max(np.abs(contexts.context_map(p, d).mat
                                    - bipartite.separable_state(e).mat))),
                float(np.max(np.abs(contexts.residual_map(p, d).mat
                                    - bipartite.entanglement_operator(e).mat))))
    yield verify._row("triple equality, dims 2-5 (100 draws)", 0.0, worst_triple, 1e-9, "property")
    yield verify._row("diagonal/off-diagonal split matches (20 draws)", 0.0, worst_split, 1e-10,
                      "property")


REFERENCES = {"thm11": _reference_thm11, "thm12": _reference_thm12,
              "thm23": _reference_thm23, "thm32": _reference_thm32}


def _exact(label, expected, computed, tol, source, passed):
    return label, source, passed, expected.hex(), computed.hex(), tol.hex()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check_id", sorted(REFERENCES))
def test_stacked_suite_matches_per_draw_loop(check_id, seed):
    rows = verify.CHECKS[check_id](seed)
    assert {r.check_id for r in rows} == {check_id}
    got = [_exact(r.label, r.expected, r.computed, r.tol, r.source, r.passed) for r in rows]
    assert got == [_exact(*row) for row in REFERENCES[check_id](seed)]


# ---------------------------------------------------------------------------
# stacked kernels, slice by slice
# ---------------------------------------------------------------------------

def _same(stacked, single):
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape
    assert stacked.tobytes() == single.tobytes()


def _padded_measures(rng, count=60, width=7):
    """``count`` measures of 1..width atoms: the ProbMeasures, and their draws padded to width."""
    raw = np.zeros((count, width))
    found = []
    for i in range(count):
        n = 1 + i % width
        raw[i, :n] = rng.dirichlet(np.ones(n))
        found.append(ProbMeasure(raw[i, :n]))
    return found, raw


def test_normalize_and_e_kernel_match_per_measure():
    found, raw = _padded_measures(np.random.default_rng(5))
    weights = measures._normalize(raw)[0]
    e = measures._e_kernel(weights)
    for i, u in enumerate(found):
        _same(weights[i, :len(u)], u.weights)
        assert not weights[i, len(u):].any()
        _same(e[i], measures.entanglement_number(u))


def test_e_kernel_of_flattened_product_measures():
    rng = np.random.default_rng(6)
    found = [ProductMeasure(w.reshape(3, 4)) for w in rng.dirichlet(np.ones(12), size=20)]
    e = measures._e_kernel(np.array([u.weights.reshape(-1) for u in found]))
    for i, u in enumerate(found):
        _same(e[i], measures.product_entanglement_number(u))


def test_mixture_weights_match_mixture():
    rng = np.random.default_rng(7)
    us, u_raw = _padded_measures(rng)
    vs, v_raw = _padded_measures(rng)
    vs, v_raw = vs[::-1], v_raw[::-1]
    lam = rng.uniform(0.0, 1.0, size=len(us))
    u, v = measures._normalize(u_raw)[0], measures._normalize(v_raw)[0]
    mix = measures._normalize(measures._mixture_weights(u, v, lam[:, None]))[0]
    for i in range(len(us)):
        want = measures.mixture(us[i], vs[i], float(lam[i])).weights
        _same(mix[i, :len(want)], want)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (6, 2), (9, 4)])
def test_qr_isometry_slices_match_the_matrix_call(shape):
    rng = np.random.default_rng(sum(shape))
    z = rng.normal(size=(8, *shape)) + 1j * rng.normal(size=(8, *shape))
    q = operators._qr_isometry(z)
    for k in range(len(z)):
        _same(q[k], operators._qr_isometry(z[k]))


@pytest.mark.parametrize("dim", range(2, 7))
def test_context_kernels_match_per_operator(dim):
    rng = np.random.default_rng(dim)
    ops = [operators.random_operator(dim, rng) for _ in range(12)]
    ctxs = [contexts.random_context(dim, rng) for _ in range(12)]
    a = np.array([x.mat for x in ops])
    rows = np.array([c.matrix for c in ctxs])
    residuals = contexts._residuals(a, rows)
    coefficient = contexts._coefficient(a, rows)
    diag = contexts._context_map(a, rows)
    norms = operators._hs_norm(a - diag)
    for k, (x, c) in enumerate(zip(ops, ctxs)):
        _same(residuals[k], contexts._residuals(x.mat, c.matrix))
        _same(coefficient[k], contexts.context_coefficient(x, c))
        _same(diag[k], contexts.context_map(x, c).mat)
        _same(norms[k], operators.hs_norm(contexts.residual_map(x, c)))


@pytest.mark.parametrize("dim", range(2, 7))
def test_bipartite_kernels_match_per_triple(dim):
    rng = np.random.default_rng(10 + dim)
    triples = [bipartite.random_entanglement(dim, rng) for _ in range(8)]
    lam = np.array([e.lam.weights for e in triples])
    rows_a = np.array([e.ctx_a.matrix for e in triples])
    rows_b = np.array([e.ctx_b.matrix for e in triples])
    t = bipartite._product_terms(rows_a, rows_b)
    coupling = bipartite._coupling(t, lam)
    separable = bipartite._separable(t, lam)
    kron = bipartite._kron(rows_a, rows_b)
    psi = bipartite._psi_coeff(lam, rows_a, rows_b)
    for k, e in enumerate(triples):
        _same(coupling[k], bipartite.entanglement_operator(e).mat)
        _same(separable[k], bipartite.separable_state(e).mat)
        _same(kron[k], bipartite.product_context(e.ctx_a, e.ctx_b).matrix)
        _same(kron[k], np.kron(e.ctx_a.matrix, e.ctx_b.matrix))
        _same(psi[k], bipartite.psi_from_entanglement(e).coeff)


def test_gaussian_stack_fills_the_per_matrix_stream():
    shape = (3, 2, 4, 5)
    stacked = operators._gaussian(shape, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for index in np.ndindex(shape[:-2]):
        single = (rng.normal(size=shape[-2:]) + 1j * rng.normal(size=shape[-2:])) / math.sqrt(2.0)
        _same(stacked[index], single)
