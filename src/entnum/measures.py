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
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if abs(total - 1.0) > ZERO_TOL:
        raise InvariantViolation(f"weights sum to {total!r}, expected 1 within {ZERO_TOL}")
    # store exactly normalized so point measures are exact and the
    # entanglement number is cancellation-free near them
    w = w / total
    w.setflags(write=False)
    return w


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


def _e_kernel(w: np.ndarray) -> float:
    """sqrt(sum_i w_i sum_{j != i} w_j) over every entry of w; does not assume sum w = 1."""
    w = w.reshape(-1)
    others = np.zeros(w.size)  # sum_{j != i} w_j as an exclusive prefix plus suffix sum
    others[1:] = np.cumsum(w[:-1])
    others[:-1] += np.cumsum(w[:0:-1])[::-1]
    return math.sqrt(float(np.sum(w * others)))


def entanglement_number(u: ProbMeasure) -> float:
    """e(u) = sqrt(1 - sum u_i^2), in [0, 1).

    Evaluated as sqrt(sum_i u_i sum_{j != i} u_j), a sum of nonnegative terms,
    which is equal and stays relatively accurate near point measures where the
    1 - sum u_i^2 form cancels catastrophically.
    """
    return _e_kernel(u.weights)


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
    return ProbMeasure(lam * uw + (1.0 - lam) * vw)


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
    return _e_kernel(u.weights)
