"""Finite discrete probability measures and their entanglement numbers.

A measure lives on the positive integers and is stored as a dense weight
vector (weights indexed from 1 in all reported index sets).  The central
quantity is

    e(u) = sqrt(1 - sum_i u_i^2)

which is zero exactly on point measures and maximal, at sqrt((n-1)/n),
on uniform measures supported on n atoms.  Measures on a product index
set carry the same functional together with a marginal factorization
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .operators import _check_tol

# Support membership and normalization both use this cutoff.
ZERO_TOL = 1e-12


def _clean_weights(raw, ndim: int) -> np.ndarray:
    w = np.asarray(raw, dtype=float)
    if w.ndim != ndim or w.size == 0:
        raise InvariantViolation(f"expected a non-empty {ndim}-d weight array, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise InvariantViolation("weights must be finite")
    if w.min() < -ZERO_TOL:
        raise InvariantViolation(f"negative weight {w.min():.3e}")
    normalized, total = _normalize(w.reshape(-1))
    if abs(total - 1.0) > ZERO_TOL:
        raise InvariantViolation(f"weights sum to {float(total)!r}, expected 1 within {ZERO_TOL}")
    normalized = normalized.reshape(w.shape)
    normalized.setflags(write=False)
    return normalized


def _normalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w / total, total) along the last axis, for w clamped at 0 and total its sum.

    Every measure stores its weights in this exactly normalized form, so point
    measures are exact and the entanglement number is cancellation-free near them.
    Each row of a stack rounds as the row alone, and as the row padded with zeros
    up to 7 entries, as ``_e_kernel`` does.
    """
    w = np.maximum(w, 0.0)
    total = w.sum(axis=-1, keepdims=True)
    return w / total, total[..., 0]


@dataclass(frozen=True, eq=False)
class ProbMeasure:
    """Probability measure with finite support; weights[i] is the mass of atom i+1."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _clean_weights(self.weights, 1))

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class ProductMeasure:
    """Probability measure on a product index set; weights[i, j] is the mass of atom (i+1, j+1)."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _clean_weights(self.weights, 2))

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape


def support(u: ProbMeasure) -> frozenset[int]:
    """1-based indices of the atoms carrying mass above ``ZERO_TOL``."""
    return frozenset(int(i) + 1 for i in np.nonzero(u.weights > ZERO_TOL)[0])


def entanglement_index(u: ProbMeasure) -> int:
    """Number of atoms in the support."""
    return len(support(u))


def _e_kernel(w: np.ndarray) -> np.ndarray:
    """sqrt(sum_i w_i sum_{j != i} w_j) along the last axis; does not assume sum w = 1.

    Each row of a stack rounds as the row alone.  Zeros padded at the end of a row,
    up to 7 entries, leave its value unchanged bit for bit: numpy adds fewer than 8
    terms in order.
    """
    others = np.zeros(w.shape)  # sum_{j != i} w_j as an exclusive prefix plus suffix sum
    others[..., 1:] = np.cumsum(w[..., :-1], axis=-1)
    others[..., :-1] += np.cumsum(w[..., :0:-1], axis=-1)[..., ::-1]
    return np.sqrt(np.sum(w * others, axis=-1))


def entanglement_number(u: ProbMeasure) -> float:
    """e(u) = sqrt(1 - sum u_i^2), in [0, 1).

    Evaluated as sqrt(sum_i u_i sum_{j != i} u_j), a sum of nonnegative terms,
    which is equal and stays relatively accurate near point measures where the
    1 - sum u_i^2 form cancels catastrophically.
    """
    return float(_e_kernel(u.weights))


def is_point(u: ProbMeasure) -> bool:
    """True when a single atom carries all the mass (within ``ZERO_TOL``)."""
    return bool(np.max(u.weights) >= 1.0 - ZERO_TOL)


def is_uniform(u: ProbMeasure) -> bool:
    """True when all weights above ``ZERO_TOL`` are equal within ``ZERO_TOL``."""
    nz = u.weights[u.weights > ZERO_TOL]
    if nz.size == 0:
        return False
    return bool(np.ptp(nz) <= ZERO_TOL)


def max_entanglement_bound(n: int) -> float:
    """Largest entanglement number attainable with support size n: sqrt((n-1)/n).

    Attained exactly by the uniform measure on n atoms.
    """
    if n < 1:
        raise InvariantViolation(f"support size must be >= 1, got {n}")
    return math.sqrt((n - 1) / n)


def mixture(u: ProbMeasure, v: ProbMeasure, lam: float) -> ProbMeasure:
    """Convex combination lam*u + (1-lam)*v; the shorter measure is zero-padded."""
    if not 0.0 <= lam <= 1.0:
        raise InvariantViolation(f"mixture parameter {lam!r} outside [0, 1]")
    n = max(len(u), len(v))
    uw = np.zeros(n)
    vw = np.zeros(n)
    uw[: len(u)] = u.weights
    vw[: len(v)] = v.weights
    return ProbMeasure(_mixture_weights(uw, vw, lam))


def _mixture_weights(uw: np.ndarray, vw: np.ndarray, lam) -> np.ndarray:
    """lam * uw + (1 - lam) * vw for weight rows of equal length; lam broadcasts over a stack."""
    return lam * uw + (1.0 - lam) * vw


def product(v: ProbMeasure, w: ProbMeasure) -> ProductMeasure:
    """Product measure with entries v_i * w_j."""
    return ProductMeasure(np.outer(v.weights, w.weights))


def marginals(u: ProductMeasure) -> tuple[ProbMeasure, ProbMeasure]:
    """Row and column marginals, each a valid ProbMeasure."""
    return ProbMeasure(u.weights.sum(axis=1)), ProbMeasure(u.weights.sum(axis=0))


def is_factorized(u: ProductMeasure, tol: float = 1e-10) -> bool:
    """True when u equals the product of its own marginals, entrywise within tol."""
    _check_tol(tol)
    row = u.weights.sum(axis=1)
    col = u.weights.sum(axis=0)
    return bool(np.max(np.abs(u.weights - np.outer(row, col))) <= tol)


def product_entanglement_number(u: ProductMeasure) -> float:
    """e(u) = sqrt(1 - sum u_ij^2), evaluated in the cancellation-free form."""
    return float(_e_kernel(u.weights.reshape(-1)))
