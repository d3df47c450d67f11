"""Closed-form tests of the benchmark's numpy references.

Run with ``python3 -m pytest bench/test_reference.py``; nothing here imports
entnum.
"""

import math

import numpy as np
import pytest

import reference as ref

SQRT_HALF = 1.0 / math.sqrt(2.0)


def projector(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def werner(p):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * projector(singlet) + (1.0 - p) / 4.0 * np.eye(4)


def random_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_bell_state_is_one_over_root_two():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert ref.pure_e(bell, 2, 2) == pytest.approx(SQRT_HALF, abs=1e-15)
    assert ref.pure_e_trace_form(bell, 2, 2) == pytest.approx(SQRT_HALF, abs=1e-15)
    assert ref.wootters_e(projector(bell)) == pytest.approx(SQRT_HALF, abs=1e-15)
    assert ref.ppt_lower_bound(projector(bell), 2, 2) == pytest.approx(SQRT_HALF, abs=1e-15)
    assert ref.realignment_lower_bound(projector(bell), 2, 2) == pytest.approx(SQRT_HALF, abs=1e-14)
    assert ref.schmidt_weights(bell, 2, 2) == pytest.approx([0.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
def test_werner_state_closed_form(p):
    exact = max(0.0, (3.0 * p - 1.0) / 2.0) / math.sqrt(2.0)
    assert abs(ref.wootters_e(werner(p)) - exact) <= 1e-15
    assert abs(ref.ppt_lower_bound(werner(p), 2, 2) - exact) <= 1e-15


def test_separable_werner_state_scores_zero():
    assert ref.wootters_e(werner(0.3)) == 0.0
    assert ref.lower_bound(werner(0.3), 2, 2) == 0.0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (6, 6)])
def test_product_states_give_zero(dims):
    rng = np.random.default_rng(sum(dims))
    da, db = dims
    vec = np.kron(random_vector(rng, da), random_vector(rng, db))
    assert ref.pure_e(vec, da, db) <= 1e-15
    weights = ref.schmidt_weights(vec, da, db)
    assert weights[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(weights[1:]) <= 1e-14)
    rho = projector(vec)
    assert ref.lower_bound(rho, da, db) <= 1e-14
    value, unique = ref.spectral_upper_bound(rho, da, db)
    assert unique and value <= 1e-15
    if dims == (2, 2):
        assert ref.wootters_e(rho) <= 1e-7


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (5, 6)])
def test_pure_e_forms_agree(dims):
    rng = np.random.default_rng(7)
    da, db = dims
    for _ in range(20):
        vec = random_vector(rng, da * db)
        minors = ref.pure_e(vec, da, db)
        assert minors == pytest.approx(ref.pure_e_trace_form(vec, da, db), abs=1e-13)
        weights = ref.schmidt_weights(vec, da, db)
        assert weights.size == max(da, db)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert minors == pytest.approx(ref.measure_e(weights), abs=1e-13)


def test_pure_state_bounds_are_tight_for_two_qubits():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vec = random_vector(rng, 4)
        e = ref.pure_e(vec, 2, 2)
        assert ref.wootters_e(projector(vec)) == pytest.approx(e, abs=1e-7)
        assert ref.ppt_lower_bound(projector(vec), 2, 2) == pytest.approx(e, abs=1e-13)


def test_lower_bounds_never_exceed_wootters():
    rng = np.random.default_rng(11)
    for rank in (2, 3, 4):
        for _ in range(25):
            vecs = [random_vector(rng, 4) for _ in range(rank)]
            w = rng.dirichlet(np.ones(rank))
            rho = sum(wi * projector(v) for wi, v in zip(w, vecs))
            exact = ref.wootters_e(rho)
            assert ref.ppt_lower_bound(rho, 2, 2) <= exact + 1e-12
            assert ref.realignment_lower_bound(rho, 2, 2) <= exact + 1e-12
            spectral, _ = ref.spectral_upper_bound(rho, 2, 2)
            assert exact <= spectral + 1e-12


def test_measure_references():
    assert ref.measure_e([1.0, 0.0, 0.0]) == 0.0
    assert ref.measure_e([0.5, 1 / 3, 1 / 6]) == pytest.approx(math.sqrt(11 / 18), abs=1e-15)
    assert ref.is_factorized(np.outer([0.2, 0.8], [0.5, 0.25, 0.25]), 1e-10)
    assert not ref.is_factorized(np.array([[1 / 3, 1 / 3], [0.0, 1 / 3]]), 1e-10)


def test_context_coefficient_reference():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rows = q.T
    diagonal = q @ np.diag([1.0, -2.0, 0.5, 3.0]) @ q.conj().T
    assert ref.context_offdiag_norm(diagonal, rows) <= 1e-14
    # in the standard context the off-diagonal part is read off directly
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    off = a - np.diag(np.diag(a))
    assert ref.context_offdiag_norm(a, np.eye(4)) == pytest.approx(np.linalg.norm(off), rel=1e-15)


def test_certificate_checks():
    rng = np.random.default_rng(2)
    vecs = [np.kron(random_vector(rng, 2), random_vector(rng, 3)) for _ in range(2)]
    rho = 0.3 * projector(vecs[0]) + 0.7 * projector(vecs[1])

    def encode(weights, vectors):
        return {"weights": list(weights),
                "vectors": [[[z.real, z.imag] for z in v] for v in vectors]}

    assert ref.certificate_problems(encode([0.3, 0.7], vecs), rho, 2, 3) == []
    assert ref.certificate_problems(encode([0.4, 0.6], vecs), rho, 2, 3)
    entangled = [random_vector(rng, 6) for _ in range(2)]
    bad = ref.certificate_problems(encode([0.5, 0.5], entangled),
                                   0.5 * projector(entangled[0]) + 0.5 * projector(entangled[1]),
                                   2, 3)
    assert any("certificate vector has e" in p for p in bad)
