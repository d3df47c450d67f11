"""Contexts (orthonormal bases), context coefficients, and residual structure.

A context is an ordered orthonormal basis, equivalently a complete family of
rank-one projections.  Relative to a context every operator splits into a
diagonal part (the context map) and an off-diagonal part (the residual map);
the Hilbert-Schmidt norm of the residual equals the context coefficient

    c(A) = sqrt(sum_i Var_{phi_i}(A))

which vanishes exactly when A commutes with every basis projection.  The two
solvable residual eigenproblems, dimension two and constant off-diagonal
entries, get closed-form spectra here.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .operators import (Operator, _check_dims, _check_tol, _intake, _qr_isometry, hermitian_eigen,
                        hs_norm)

ORTHO_TOL = 1e-10
COMPLETE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Context:
    """Ordered orthonormal basis; ``matrix`` holds its vectors as rows, read-only."""

    matrix: np.ndarray

    def __post_init__(self):
        rows = _intake(self.matrix, "a square basis matrix", rule=operator.eq)
        eye = np.eye(rows.shape[0])
        if np.abs(rows.conj() @ rows.T - eye).max() > ORTHO_TOL:
            raise InvariantViolation("context basis is not orthonormal within tolerance")
        if np.abs(rows.T @ rows.conj() - eye).max() > COMPLETE_TOL:
            raise InvariantViolation("context projections do not sum to the identity")
        object.__setattr__(self, "matrix", rows)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def vector(self, i: int) -> np.ndarray:
        """i-th basis vector (0-based)."""
        return self.matrix[i]


def context_from_rows(rows) -> Context:
    return Context(rows)


def context_from_columns(cols) -> Context:
    return context_from_rows(np.asarray(cols, dtype=complex).T)


def standard_context(dim: int) -> Context:
    return context_from_rows(np.eye(dim))


def random_context(dim: int, rng: np.random.Generator) -> Context:
    """Haar-like random context: QR of a complex Gaussian matrix, phases fixed."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2.0)
    return context_from_columns(_qr_isometry(z))


def eigenvector_context(a: Operator) -> Context:
    """Context formed by the eigenvectors of a Hermitian operator."""
    _, v = hermitian_eigen(a)
    return context_from_columns(v)


def context_coefficient(a: Operator, ctx: Context) -> float:
    """sqrt of the summed pure-state variances of A over the context basis.

    Each variance is evaluated in the residual form || A phi - <phi, A phi> phi ||^2,
    which equals the trace form exactly but stays accurate when A is close to
    measurable (the trace form bottoms out at sqrt of machine noise there).
    """
    _check_dims(a, ctx)
    rows = ctx.matrix
    images = rows @ a.mat.T  # row i is A phi_i
    means = np.einsum("ij,ij->i", rows.conj(), images)
    residuals = images - means[:, None] * rows
    total = float(np.sum(np.abs(residuals) ** 2))
    return math.sqrt(max(total, 0.0))


def context_map(a: Operator, ctx: Context) -> Operator:
    """Diagonal part of A relative to the context: sum_i <phi_i, A phi_i> |phi_i><phi_i|."""
    _check_dims(a, ctx)
    rows = ctx.matrix
    diag = np.einsum("ia,ab,ib->i", rows.conj(), a.mat, rows)
    return Operator((rows.T * diag) @ rows.conj())


def residual_map(a: Operator, ctx: Context) -> Operator:
    """Off-diagonal part of A relative to the context: A minus the context map."""
    return Operator(a.mat - context_map(a, ctx).mat)


def _commutator_norms(a: Operator, ctx: Context) -> np.ndarray:
    """||[A, P_i]||_F for every basis projection P_i, by the identity in ``is_measurable``."""
    rows = ctx.matrix
    images = rows @ a.mat.T  # row i is A phi_i
    adjoint_images = rows @ a.mat.conj()  # row i is A* phi_i
    means = np.einsum("ij,ij->i", rows.conj(), images)
    squared = (np.sum(np.abs(images - means[:, None] * rows) ** 2, axis=1)
               + np.sum(np.abs(adjoint_images - means.conj()[:, None] * rows) ** 2, axis=1))
    return np.sqrt(squared)


def is_measurable(a: Operator, ctx: Context, tol: float = 1e-10) -> bool:
    """True when A commutes with every basis projection P_i = |phi_i><phi_i| of the context.

    Uses the commutator criterion max_i ||A P_i - P_i A||_F <= tol.  With
    mu_i = <phi_i, A phi_i>, the commutator is
    |(A - mu_i) phi_i><phi_i| - |phi_i><(A - mu_i)* phi_i|, and its two
    rank-one parts are orthogonal because <phi_i, (A - mu_i) phi_i> = 0, so

        ||[A, P_i]||_F^2 = ||(A - mu_i) phi_i||^2 + ||(A - mu_i)* phi_i||^2.

    All n norms come from two batched products in the residual form of
    ``context_coefficient``: O(n^3), with no per-row loop.  A commuting
    operator is cross checked against the residual-norm criterion at the
    coarser scale tol * dim; disagreement would indicate a numerical
    inconsistency.
    """
    _check_dims(a, ctx)
    _check_tol(tol)
    commutes = float(_commutator_norms(a, ctx).max()) <= tol
    if commutes and not hs_norm(residual_map(a, ctx)) <= tol * ctx.dim:
        raise InvariantViolation("commutation and residual-norm criteria disagree")
    return commutes


def offdiag_uniform(ctx: Context, alpha: complex) -> Operator:
    """Operator with constant entry alpha on every off-diagonal pair of the context.

    alpha * sum_{i != j} |phi_i><phi_j|; normal for every alpha.
    """
    if alpha == 0:
        raise InvariantViolation("alpha must be nonzero")
    rows = ctx.matrix
    total = rows.sum(axis=0)
    full = np.outer(total, total.conj())
    return Operator(alpha * (full - np.eye(ctx.dim)))


def _paired_difference_basis(n: int) -> list[np.ndarray]:
    """Deterministic orthonormal basis of the orthocomplement of the all-ones direction.

    Blocks of indices are merged pairwise left to right; each merge emits the
    normalized weighted difference of the two block sums, which is orthogonal
    to every block sum and to the total.
    """
    eye = np.eye(n)
    blocks: list[tuple[int, np.ndarray]] = [(1, eye[i]) for i in range(n)]
    out: list[np.ndarray] = []
    while len(blocks) > 1:
        merged: list[tuple[int, np.ndarray]] = []
        i = 0
        while i + 1 < len(blocks):
            (ka, sa), (kb, sb) = blocks[i], blocks[i + 1]
            vec = kb * sa - ka * sb
            out.append(vec / np.linalg.norm(vec))
            merged.append((ka + kb, sa + sb))
            i += 2
        if i < len(blocks):
            merged.append(blocks[i])
        blocks = merged
    return out


def offdiag_uniform_spectrum(n: int) -> list[tuple[float, np.ndarray]]:
    """Full spectrum of the constant off-diagonal operator with alpha = 1.

    Returns ``[(n-1, psi), (-1, v_1), ..., (-1, v_{n-1})]`` in standard
    coordinates, where psi is the normalized all-ones vector and the v_k form
    an orthonormal basis of its orthocomplement, from the paired-difference
    construction.
    """
    if n < 2:
        raise InvariantViolation(f"need dimension >= 2, got {n}")
    psi = np.ones(n) / math.sqrt(n)
    return [(float(n - 1), psi)] + [(-1.0, v) for v in _paired_difference_basis(n)]


def dim2_residual_eigen(
    a: complex, b: complex, ctx: Context
) -> Optional[tuple[tuple[complex, np.ndarray], tuple[complex, np.ndarray]]]:
    """Eigenpairs of a |phi_1><phi_2| + b |phi_2><phi_1| on a two-dimensional space.

    The operator is normal exactly when |a| = |b|; in that case, writing
    a = r e^(i theta) and b = r e^(i phi), the eigenvalues are
    +- r e^(i (theta + phi) / 2) with eigenvectors

        (phi_1 + e^(i (phi - theta) / 2) phi_2) / sqrt(2)
        (-e^(i (theta - phi) / 2) phi_1 + phi_2) / sqrt(2)

    Returns None when |a| != |b| (non-normal case, no orthonormal eigenbasis).
    """
    if ctx.dim != 2:
        raise DimensionMismatch(f"context must have dimension 2, got {ctx.dim}")
    if a == 0 or b == 0:
        raise InvariantViolation("coefficients a and b must be nonzero")
    r = abs(a)
    if abs(r - abs(b)) > 1e-10:
        return None
    theta = cmath.phase(a)
    phi = cmath.phase(b)
    lam1 = r * cmath.exp(1j * (theta + phi) / 2.0)
    p1, p2 = ctx.vector(0), ctx.vector(1)
    v1 = (p1 + cmath.exp(1j * (phi - theta) / 2.0) * p2) / math.sqrt(2.0)
    v2 = (-cmath.exp(1j * (theta - phi) / 2.0) * p1 + p2) / math.sqrt(2.0)
    return (lam1, v1), (-lam1, v2)
