"""Dense complex operators, states, and quantum statistics.

Everything here is desk scale (dimensions up to a few dozen): operators are
dense complex matrices, states are validated at construction, and the
Hilbert-Schmidt inner product tr(A* B) supplies the geometry.  Variance is
computed as E[|A|^2] - |E[A]|^2; the defining mean-square form is kept in the
test suite as a cross check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
UNIT_TOL = 1e-10
# variance_zero_witness treats a variance at most VARIANCE_TOL as zero.
VARIANCE_TOL = 1e-10
# Eigenvalue gap below which two eigenvalues are treated as a degenerate cluster
# when fixing a deterministic output order.
EIGEN_TIE_TOL = 1e-12


def _intake(raw, expected: str, ndim: int = 2, rule=None) -> np.ndarray:
    """Private, C-ordered, read-only complex copy of ``raw``: the intake of every array value.

    ``ndim`` 1 flattens the input.  The copy must be non-empty with ``ndim`` axes and,
    when given, ``rule(rows, cols)`` true, such as ``operator.eq`` for a square matrix
    (else DimensionMismatch, naming ``expected``); only then must its entries be
    finite (else InvariantViolation).
    """
    a = np.array(raw, dtype=complex, order="C")
    if ndim == 1:
        a = a.reshape(-1)
    if a.ndim != ndim or a.size == 0 or rule is not None and not rule(*a.shape):
        raise DimensionMismatch(f"expected {expected}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvariantViolation(f"entries of {expected} must be finite")
    a.setflags(write=False)
    return a


def _check_unit(a: np.ndarray, what: str, axis: Optional[int] = None) -> None:
    """Raise InvariantViolation unless ``a`` (each row, for axis 1) has norm 1 within UNIT_TOL."""
    off = abs(np.linalg.norm(a, axis=axis) - 1.0).max()
    if off > UNIT_TOL:
        raise InvariantViolation(f"{what} must have norm 1 within {UNIT_TOL}, is off by {off:.3e}")


def _check_tol(tol: float) -> None:
    """Raise InvariantViolation unless the caller's tolerance ``tol`` is finite and positive."""
    if not 0.0 < tol < math.inf:
        raise InvariantViolation(f"tolerance must be finite and positive, got {tol!r}")


def _factor_dims(dims, dim: int) -> tuple[int, int]:
    """``dims`` as a pair of ints: two positive integers, not bools, whose product is ``dim``."""
    if len(dims) != 2 or any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1
                             for d in dims) or dims[0] * dims[1] != dim:
        raise DimensionMismatch(f"factor dims {tuple(dims)} do not factor dimension {dim}")
    return int(dims[0]), int(dims[1])


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on a finite-dimensional space."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _intake(self.mat, "a square matrix", rule=operator.eq))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class VectorState:
    """Unit vector (norm 1 within ``UNIT_TOL``) representing a pure state."""

    vec: np.ndarray

    def __post_init__(self):
        v = _intake(self.vec, "a state vector", ndim=1)
        _check_unit(v, "state vector")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.size


@dataclass(frozen=True, eq=False)
class DensityState:
    """Hermitian, positive semidefinite, trace-one matrix.

    ``factor_dims`` optionally records a bipartite splitting (dimA, dimB) of
    the underlying space; it is required by the mixed-state entanglement
    routines and ignored everywhere else.
    """

    mat: np.ndarray
    factor_dims: Optional[tuple[int, int]] = None

    def __post_init__(self):
        m = _intake(self.mat, "a square matrix", rule=operator.eq)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise InvariantViolation("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvariantViolation(f"density matrix has trace {tr!r}, expected 1")
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if float(evals.min()) < -PSD_TOL:
            raise InvariantViolation(f"density matrix has negative eigenvalue {evals.min():.3e}")
        object.__setattr__(self, "mat", m)
        if self.factor_dims is not None:
            object.__setattr__(self, "factor_dims", _factor_dims(self.factor_dims, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim))


def pure_state(phi: VectorState, factor_dims: Optional[tuple[int, int]] = None) -> DensityState:
    """Rank-one projector |phi><phi| as a DensityState."""
    return DensityState(np.outer(phi.vec, phi.vec.conj()), factor_dims=factor_dims)


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def adjoint(a: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(a.mat.conj().T)


def hs_inner(a: Operator, b: Operator) -> complex:
    """Hilbert-Schmidt inner product tr(A* B)."""
    _check_dims(a, b)
    return complex(np.vdot(a.mat, b.mat))


def hs_norm(a: Operator) -> float:
    """Hilbert-Schmidt norm sqrt(tr(A* A)); equals the Frobenius norm of the entries."""
    return float(np.linalg.norm(a.mat))


def expectation(rho: DensityState, a: Operator) -> complex:
    """tr(rho A).  Real whenever A is Hermitian."""
    _check_dims(rho, a)
    return complex(np.trace(rho.mat @ a.mat))


def variance(rho: DensityState, a: Operator) -> float:
    """Variance of A in the state rho: tr(rho A* A) - |tr(rho A)|^2.

    The result is mathematically nonnegative; tiny negative round-off
    (within 1e-12 at operator scale) is clamped to zero.
    """
    _check_dims(rho, a)
    second = float(np.real(np.trace(rho.mat @ (a.mat.conj().T @ a.mat))))
    mean = expectation(rho, a)
    raw = second - abs(mean) ** 2
    floor = -1e-12 * max(1.0, hs_norm(a) ** 2)
    if raw < floor:
        raise InvariantViolation(f"variance evaluated to {raw!r}, below numerical floor")
    return max(raw, 0.0)


def variance_zero_witness(rho: DensityState, a: Operator) -> Optional[complex]:
    """Constant c with A rho^(1/2) = c rho^(1/2), when the variance vanishes.

    Returns c = tr(rho A) if ``variance(rho, a) <= VARIANCE_TOL`` and the
    operator identity holds within sqrt(VARIANCE_TOL) at operator scale;
    returns None when the variance is above VARIANCE_TOL.
    """
    _check_dims(rho, a)
    if variance(rho, a) > VARIANCE_TOL:
        return None
    c = expectation(rho, a)
    s = psd_sqrt(rho).mat
    resid = float(np.linalg.norm(a.mat @ s - c * s))
    scale = 1.0 + hs_norm(a)
    if resid > math.sqrt(VARIANCE_TOL) * scale + 1e-9:
        raise InvariantViolation(
            f"witness residual {resid:.3e} inconsistent with vanishing variance"
        )
    return c


def hermitian_eigen(a: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator with a deterministic output order.

    Returns ``(values, vectors)`` with values descending and ``vectors[:, k]``
    the unit eigenvector for ``values[k]``.  Within a degenerate cluster the
    vectors are ordered by the position of their largest-magnitude component,
    and each vector's phase is fixed so that component is real positive.  When
    entries tie in magnitude up to rounding, the phase fix may leave another of
    them a last bit larger: the real positive entry is then within a relative
    1e-12 of the largest, not necessarily the largest itself.
    """
    m = a.mat
    scale = max(1.0, hs_norm(a))
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL * scale:
        raise InvariantViolation("operator is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    dominant = [int(np.argmax(np.abs(v[:, k]))) for k in range(w.size)]
    # stable reorder inside clusters of equal eigenvalues
    order: list[int] = []
    start = 0
    for k in range(1, w.size + 1):
        if k == w.size or w[start] - w[k] > EIGEN_TIE_TOL * scale:
            cluster = sorted(range(start, k), key=lambda i: (dominant[i], i))
            order.extend(cluster)
            start = k
    v = v[:, order]
    _fix_phases(v)
    return w[order], v


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry real positive, in place; return the factors.

    Column k is multiplied by conj(z) / |z| (1 for a zero column), z its largest
    entry.  Each factor is a scalar division: the array division rounds
    differently in the last bit.
    """
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    factors = np.array([z.conjugate() / abs(z) if abs(z) > 0 else 1.0 for z in top])
    v *= factors
    return factors


def psd_sqrt(rho: DensityState) -> Operator:
    """Hermitian PSD square root of a density matrix (eigenvalue clamp at 0)."""
    w, v = hermitian_eigen(Operator(rho.mat))
    w = np.maximum(w, 0.0)
    s = (v * np.sqrt(w)) @ v.conj().T
    return Operator((s + s.conj().T) / 2.0)


def random_operator(dim: int, rng: np.random.Generator) -> Operator:
    """Complex Gaussian matrix; entries have standard deviation 1."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(z / math.sqrt(2.0))


def _qr_isometry(z: np.ndarray) -> np.ndarray:
    """Q factor of z with the phases of diag(R) fixed to 1, so the factor is unique."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def random_vector_state(dim: int, rng: np.random.Generator) -> VectorState:
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return VectorState(z / np.linalg.norm(z))


def random_density(dim: int, rng: np.random.Generator,
                   factor_dims: Optional[tuple[int, int]] = None) -> DensityState:
    """Full-rank random density matrix (Wishart-style G G* / tr)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityState(m / np.trace(m), factor_dims=factor_dims)
