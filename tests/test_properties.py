"""Randomized properties of entanglement triples, deterministic eigenbases and search kernels."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from entnum import bipartite as bp  # noqa: E402
from entnum import contexts as cx  # noqa: E402
from entnum import measures as ms  # noqa: E402
from entnum import mixed as mx  # noqa: E402
from entnum import operators as op  # noqa: E402

PROPERTY = settings(deadline=None, max_examples=60)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def triples(draw):
    """Entanglement triple with n = 2..5: weights (some may be 0) and two random contexts."""
    n = draw(st.integers(2, 5))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
                        .filter(lambda w: sum(w) > 1e-3)))
    rng = np.random.default_rng(draw(SEEDS))
    return bp.Entanglement(ms.ProbMeasure(raw / raw.sum()),
                           cx.random_context(n, rng), cx.random_context(n, rng))


@st.composite
def hermitian(draw):
    """Random Hermitian matrix of dimension 1..6, half of them with repeated eigenvalues."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(SEEDS))
    if draw(st.booleans()):
        h = op.random_operator(n, rng).mat
        return op.Operator((h + h.conj().T) / 2)
    q = cx.random_context(n, rng).matrix
    return op.Operator(q.conj().T @ np.diag(rng.integers(-2, 3, size=n).astype(float)) @ q)


@PROPERTY
@given(triples())
def test_separable_part_plus_coupling_is_the_projector(e):
    psi = bp.psi_from_entanglement(e).vector
    total = bp.separable_state(e).mat + bp.entanglement_operator(e).mat
    assert np.max(np.abs(total - np.outer(psi, psi.conj()))) <= 1e-12


@PROPERTY
@given(triples())
def test_coupling_is_hermitian_traceless_with_norm_e(e):
    b = bp.entanglement_operator(e)
    assert np.max(np.abs(b.mat - b.mat.conj().T)) <= 1e-12
    assert abs(np.trace(b.mat)) <= 1e-12
    lam = e.lam.weights
    cross = np.outer(lam, lam)[~np.eye(len(lam), dtype=bool)]  # lam_i lam_j, i != j
    assert abs(op.hs_norm(b) - np.sqrt(np.sum(cross))) <= 1e-12
    # measures' kernel takes sum(lam) = 1, which holds to len(lam) * eps: e^2 may be
    # off by that much, a large error in e itself when lam is nearly a point measure
    assert abs(op.hs_norm(b) ** 2 - ms.entanglement_number(e.lam) ** 2) <= 1e-12


@PROPERTY
@given(st.integers(1, 5), SEEDS)
def test_symmetric_antisymmetric_basis_is_orthonormal(n, seed):
    m = bp.symmetric_antisymmetric_basis(cx.random_context(n, np.random.default_rng(seed))).matrix
    assert m.shape == (n * n, n * n)
    assert np.max(np.abs(m.conj() @ m.T - np.eye(n * n))) <= 1e-12


@PROPERTY
@given(hermitian())
def test_hermitian_eigen_is_descending_with_real_positive_top_entries(a):
    w, v = op.hermitian_eigen(a)
    scale = max(1.0, op.hs_norm(a))
    # descending; a cluster of ties is ordered by the position of its vectors' largest entries
    assert np.all(w[:-1] - w[1:] >= -op.EIGEN_TIE_TOL * scale)
    # entries that tie in magnitude up to rounding may trade places in the phase fix, so
    # some entry within a relative 1e-12 of each column's largest magnitude is real positive
    mag = np.abs(v)
    top = mag >= (1.0 - 1e-12) * mag.max(axis=0)
    real_positive = (v.real > 0) & (np.abs(v.imag) <= 1e-15)
    assert np.all((top & real_positive).any(axis=0))
    assert np.max(np.abs(a.mat @ v - v * w)) <= 1e-10 * scale


@PROPERTY
@given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 16), SEEDS)
def test_support_forms_give_the_minor_cross_terms(da, db, rank, seed):
    rng = np.random.default_rng(seed)
    r = min(rank, da * db)
    rows = rng.normal(size=(r, da * db)) + 1j * rng.normal(size=(r, da * db))
    minors = bp._minor_positions(da, db)
    forms = mx._support_forms(rows, minors)
    assert len(forms) == min(minors.shape[-1], r * (r + 1) // 2)
    v = rng.normal(size=(5, r)) + 1j * rng.normal(size=(5, r))
    y = np.einsum("ij,pjl,il->ip", v, forms, v)
    expected = bp._cross_terms(v @ rows, minors)
    assert np.all(np.abs(2.0 * np.sum(np.abs(y) ** 2, axis=1) - expected) <= 1e-12 * expected)


@PROPERTY
@given(st.integers(2, 8), st.sampled_from(["random", "measurable", "near-measurable"]), SEEDS)
def test_commutator_norms_match_the_explicit_commutators(n, kind, seed):
    rng = np.random.default_rng(seed)
    ctx = cx.random_context(n, rng)
    rows = ctx.matrix
    eigenvalues = rng.normal(size=n) + 1j * rng.normal(size=n)
    diagonal = (rows.T * eigenvalues) @ rows.conj()  # commutes with every P_i
    noise = op.random_operator(n, rng).mat
    a = op.Operator({"random": noise, "measurable": diagonal,
                     "near-measurable": diagonal + 1e-6 * noise}[kind])
    # reference: each commutator formed explicitly, one basis vector at a time
    reference = []
    for row in rows:
        p = np.outer(row, row.conj())
        reference.append(float(np.linalg.norm(a.mat @ p - p @ a.mat)))
    reference = np.array(reference)
    norms = cx._commutator_norms(a, ctx)
    assert np.all(np.abs(norms - reference) <= 1e-9 * reference + 1e-13)
    assert abs(norms.max() - reference.max()) <= 1e-9 * reference.max() + 1e-13
    assert cx.is_measurable(a, ctx, tol=1e-10) == (reference.max() <= 1e-10)


@PROPERTY
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 4), SEEDS)
def test_lower_bound_never_exceeds_the_search_value(da, db, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(da * db, rank)) + 1j * rng.normal(size=(da * db, rank))
    rho = op.DensityState(g @ g.conj().T / np.vdot(g, g).real, factor_dims=(da, db))
    result = mx.entanglement_number_mixed(rho, mx.OptimizerOptions(restarts=2, seed=0))
    assert result.lower_bound <= result.value + 1e-12
