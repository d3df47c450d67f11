"""Bipartite tensor structure and pure-state entanglement.

A bipartite unit vector is stored through its coefficient matrix C with
psi = sum_ij C[i, j] e_i (x) f_j, using the row-major index convention
(i, j) -> i * dimB + j throughout (matching ``numpy.kron``).  The Schmidt
decomposition is the SVD of C; the squared singular values form a probability
measure whose classical entanglement number is the entanglement number of the
state.

An entanglement triple bundles a probability measure with one context per
factor.  It generates a vector state, its projector, a separable state (the
diagonal part in the product context), and a Hermitian traceless coupling
operator (the off-diagonal part); the Hilbert-Schmidt norm of that operator,
its context coefficient in the product context, and the classical
entanglement number of the measure all coincide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contexts import Context, context_coefficient, context_from_rows, random_context
from .errors import DimensionMismatch, InvariantViolation
from .measures import ProbMeasure, entanglement_number
from .operators import (DensityState, Operator, _check_dims, _check_unit, _factor_dims, _fix_phases,
                        _intake, hs_norm)

# is_factorized_state accepts a largest Schmidt weight of at least 1 - FACTORIZED_TOL.
FACTORIZED_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BipartiteVectorState:
    """Unit vector on a product space, stored as its dimA x dimB coefficient matrix."""

    coeff: np.ndarray

    def __post_init__(self):
        c = _intake(self.coeff, "a coefficient matrix")
        _check_unit(c, "coefficient matrix")
        object.__setattr__(self, "coeff", c)

    @property
    def dims(self) -> tuple[int, int]:
        return self.coeff.shape

    @property
    def vector(self) -> np.ndarray:
        """The state as a flat vector of length dimA * dimB (row-major)."""
        return self.coeff.reshape(-1)


def bipartite_from_vector(vec, dims: tuple[int, int]) -> BipartiteVectorState:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return BipartiteVectorState(v.reshape(_factor_dims(dims, v.size)))


@dataclass(frozen=True, eq=False)
class Entanglement:
    """Probability measure plus one context per factor, factors of equal dimension.

    The measure may be shorter than the context dimension; it is zero-padded.
    Mass beyond the context dimension is rejected.
    """

    lam: ProbMeasure
    ctx_a: Context
    ctx_b: Context

    def __post_init__(self):
        _check_dims(self.ctx_a, self.ctx_b)
        n = self.ctx_a.dim
        w = self.lam.weights
        if len(w) > n:
            if np.any(w[n:] > 1e-12):
                raise InvariantViolation(
                    f"measure has mass outside the first {n} atoms"
                )
            w = w[:n] / w[:n].sum()
        elif len(w) < n:
            w = np.concatenate([w, np.zeros(n - len(w))])
        object.__setattr__(self, "lam", ProbMeasure(w))

    @property
    def dim(self) -> int:
        return self.ctx_a.dim


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with the left factor as the major index."""
    return Operator(np.kron(a.mat, b.mat))


def product_context(ctx_a: Context, ctx_b: Context) -> Context:
    """Context {phi_i (x) psi_j} on the product space, ordered i-major."""
    return context_from_rows(np.kron(ctx_a.matrix, ctx_b.matrix))


def psi_from_entanglement(e: Entanglement) -> BipartiteVectorState:
    """sum_i sqrt(lam_i) phi_i (x) psi_i in computational coordinates."""
    amps = np.sqrt(e.lam.weights)
    coeff = np.einsum("i,ia,ib->ab", amps, e.ctx_a.matrix, e.ctx_b.matrix)
    return BipartiteVectorState(coeff)


def schmidt_coefficients(psi: BipartiteVectorState) -> np.ndarray:
    """Singular values of the coefficient matrix, descending."""
    return np.linalg.svd(psi.coeff, compute_uv=False)


def schmidt_decompose(psi: BipartiteVectorState) -> Entanglement:
    """Schmidt decomposition as an entanglement triple.

    Unequal factor dimensions are handled by zero-padding the smaller factor.
    Phases are fixed by making the first component of largest magnitude of
    each left singular vector real positive, so the output is deterministic;
    the weight measure itself is unique.
    """
    da, db = psi.dims
    n = max(da, db)
    c = np.zeros((n, n), dtype=complex)
    c[:da, :db] = psi.coeff
    u, s, vh = np.linalg.svd(c)
    vh *= _fix_phases(u).conj()[:, None]
    lam = ProbMeasure(np.maximum(s, 0.0) ** 2 / float(np.sum(s**2)))
    return Entanglement(lam, context_from_rows(u.T), context_from_rows(vh))


@functools.lru_cache(maxsize=None)
def _minor_positions(da: int, db: int) -> np.ndarray:
    """Flat row-major positions [[ac, bd], [ad, bc]] of every 2x2 minor, a < b, c < d."""
    a, b = (i[:, None] for i in np.triu_indices(da, k=1))
    c, d = np.triu_indices(db, k=1)
    pos = np.stack([r * db + q for r, q in ((a, c), (b, d), (a, d), (b, c))]).reshape(2, 2, -1)
    pos.setflags(write=False)
    return pos


def _cross_terms(rows: np.ndarray, minors: np.ndarray) -> np.ndarray:
    """2 sum_{j<k} lam_j lam_k (lam the squared singular values) of each flat coefficient row.

    By Cauchy-Binet, 2 sum |X_ac X_bd - X_ad X_bc|^2 over the 2x2 minors of X: a
    sum of squares, so no SVD, no cancellation near product vectors, 0 on a zero row.
    """
    t = rows.take(minors, axis=-1)
    pairs = t[..., 0, :] * t[..., 1, :]
    det = pairs[..., 0, :] - pairs[..., 1, :]
    return 2.0 * np.einsum("...i,...i->...", det, det.conj()).real


def _pure_numbers(rows: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Pure entanglement number sqrt(cross terms) / ||X||^2 of each flat coefficient row."""
    norms = np.sum(rows.real**2 + rows.imag**2, axis=-1)
    return np.sqrt(_cross_terms(rows, _minor_positions(*dims))) / norms


def pure_entanglement_number(psi: BipartiteVectorState) -> float:
    """Classical entanglement number of the Schmidt weights: sqrt(1 - sum s_k^4).

    Evaluated as sqrt(sum_{i != j} lam_i lam_j) through the 2x2 minors of the
    coefficient matrix (``_cross_terms``), whose error stays near machine epsilon.
    """
    return float(_pure_numbers(psi.vector, psi.dims))


def is_factorized_state(psi: BipartiteVectorState) -> bool:
    """True when the largest Schmidt weight carries all the mass within ``FACTORIZED_TOL``."""
    s = schmidt_coefficients(psi)
    return bool(s[0] ** 2 >= 1.0 - FACTORIZED_TOL)


def _product_terms(e: Entanglement) -> np.ndarray:
    """(n, n^2) array T whose row i is phi_i (x) psi_i."""
    return np.kron(e.ctx_a.matrix, e.ctx_b.matrix)[:: e.dim + 1]


def separable_state(e: Entanglement) -> DensityState:
    """sum_i lam_i P_{phi_i} (x) P_{psi_i} = T^T diag(lam) conj(T): the diagonal part of P_psi."""
    t = _product_terms(e)
    return DensityState(t.T @ (e.lam.weights[:, None] * t.conj()), factor_dims=(e.dim, e.dim))


def entanglement_operator(e: Entanglement) -> Operator:
    """sum_{i != j} sqrt(lam_i lam_j) |phi_i (x) psi_i><phi_j (x) psi_j| = T^T C conj(T).

    Hermitian and traceless; adding it to the separable part recovers the
    projector onto the generated vector state.
    """
    t = _product_terms(e)
    amps = np.sqrt(e.lam.weights)
    c = np.outer(amps, amps)
    np.fill_diagonal(c, 0.0)
    return Operator(t.T @ c @ t.conj())


class EntanglementTriple(NamedTuple):
    """The three independently computed entanglement measures of a triple."""

    context_coeff: float
    operator_norm: float
    measure_number: float


def verify_entanglement_triple(e: Entanglement) -> EntanglementTriple:
    """Compute the context coefficient, operator norm, and measure number separately.

    The three values agree mathematically; the caller asserts the tolerance.
    """
    b = entanglement_operator(e)
    d = product_context(e.ctx_a, e.ctx_b)
    return EntanglementTriple(
        context_coeff=context_coefficient(b, d),
        operator_norm=hs_norm(b),
        measure_number=entanglement_number(e.lam),
    )


def dim2_entanglement_spectrum(lam1: float, lam2: float) -> list[tuple[float, np.ndarray]]:
    """Closed-form spectrum of the coupling operator for a two-level pair.

    For weights (lam1, lam2) in the standard contexts, the eigenvalues are
    {0, 0, +sqrt(lam1 lam2), -sqrt(lam1 lam2)}; the zero eigenvectors are the
    factorized cross terms and the nonzero ones the symmetric/antisymmetric
    combinations of the diagonal product vectors.
    """
    if lam1 < -1e-12 or lam2 < -1e-12 or abs(lam1 + lam2 - 1.0) > 1e-12:
        raise InvariantViolation(f"({lam1}, {lam2}) is not a probability pair")
    g = math.sqrt(max(lam1 * lam2, 0.0))
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    e01 = np.array([0, 1, 0, 0], dtype=complex)
    e10 = np.array([0, 0, 1, 0], dtype=complex)
    e11 = np.array([0, 0, 0, 1], dtype=complex)
    plus = (e00 + e11) / math.sqrt(2.0)
    minus = (e00 - e11) / math.sqrt(2.0)
    return [(0.0, e01), (0.0, e10), (g, plus), (-g, minus)]


def maximally_entangled(n: int, ctx_a: Context, ctx_b: Context) -> Entanglement:
    """Entanglement with uniform weights 1/n; attains the bound sqrt((n-1)/n)."""
    if n < 2:
        raise InvariantViolation(f"need n >= 2, got {n}")
    if ctx_a.dim != n or ctx_b.dim != n:
        raise DimensionMismatch("contexts must have dimension n")
    return Entanglement(ProbMeasure(np.full(n, 1.0 / n)), ctx_a, ctx_b)


def symmetric_antisymmetric_basis(ctx: Context) -> Context:
    """Symmetric/antisymmetric product basis on the doubled space.

    Ordering: the n diagonal vectors phi_i (x) phi_i, then the symmetric
    combinations (phi_i (x) phi_j + phi_j (x) phi_i)/sqrt(2) for i < j, then
    the antisymmetric ones.  The first n(n+1)/2 vectors are symmetric and the
    remaining n(n-1)/2 antisymmetric.
    """
    n = ctx.dim
    pairs = np.kron(ctx.matrix, ctx.matrix).reshape(n, n, -1)  # pairs[i, j] = phi_i (x) phi_j
    i, j = np.triu_indices(n, k=1)
    diag = pairs[np.arange(n), np.arange(n)]
    sym = (pairs[i, j] + pairs[j, i]) / math.sqrt(2.0)
    anti = (pairs[i, j] - pairs[j, i]) / math.sqrt(2.0)
    return context_from_rows(np.vstack([diag, sym, anti]))


def random_entanglement(n: int, rng: np.random.Generator) -> Entanglement:
    """Random triple: Dirichlet weights with Haar-like random factor contexts."""
    lam = ProbMeasure(rng.dirichlet(np.ones(n)))
    return Entanglement(lam, random_context(n, rng), random_context(n, rng))
