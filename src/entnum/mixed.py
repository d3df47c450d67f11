"""Mixed-state entanglement via optimization over pure-state decompositions.

Every decomposition of a density matrix rho into pure states is generated
from its spectral decomposition (mu_j, chi_j) by an isometry: for any m x r
matrix V with orthonormal columns (r the rank of rho), the unnormalized
vectors w_i = sum_j V[i, j] sqrt(mu_j) chi_j satisfy
sum_i |w_i><w_i| = rho, giving weights ||w_i||^2 and unit vectors w_i/||w_i||.

The mixed entanglement number is the infimum, over decompositions, of the
weighted average of the pure entanglement numbers of the decomposition
vectors: sum_i sqrt(c_i), with c_i = ||X_i||^4 - ||X_i X_i*||^2 for X_i the
coefficient matrix of w_i.  The value 0 is attained exactly on separable
states, so driving the objective below a threshold certifies separability;
failing to do so proves nothing.

The search runs multi-start Riemannian conjugate-gradient descent on the m x r
isometries (Audenaert, Verstraete and De Moor, PRA 64, 052304 (2001)):
Polak-Ribiere+ directions from the analytic gradient, a QR retraction and Armijo
backtracking.  The kink of sqrt at c = 0 is smoothed by eps, stepped down
through ``SMOOTHING``; only the descent sees the smoothed value, and every value
reported is the unsmoothed one.  Terms are scored through the 2x2 minors of
their coefficient matrices (``bipartite._cross_terms``): no SVD, and no
cancellation near product vectors.  For a fixed seed, values and evaluation
counts differ from the earlier Nelder-Mead versions; they stay deterministic.

``MixedResult.certificate`` is the best decomposition when it passes the
certificate test; ``separability_certificate`` runs a full search of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# unused; bench/tracing.py patches both names until ROADMAP item 1 drops scipy
from scipy.linalg import expm  # noqa: F401
from scipy.optimize import minimize  # noqa: F401

from .errors import DimensionMismatch, InvariantViolation
from .measures import ProbMeasure
from .operators import DensityState, hermitian_eigen, Operator
from .bipartite import _cross_terms, _minor_positions, _pure_numbers

# Spectral weights and decomposition terms below this are dropped.
WEIGHT_CUTOFF = 1e-12
RECONSTRUCTION_TOL = 1e-9
ISOMETRY_TOL = 1e-9
# Certificate vectors may each carry at most CERT_SCALE * sqrt(sep_threshold)
# of pure entanglement.
CERT_SCALE = 1.5
# A smoothing stage ends when the Riemannian gradient norm is at most GRAD_TOL, when
# the value fell by less than STALL_DROP (relative) in STALL_ITERS iterations, or when
# Armijo backtracking fails MAX_HALVINGS times.  KICK sizes each polish round's kick.
SMOOTHING = (1e-2, 1e-4, 1e-6, 1e-8)
GRAD_TOL = 1e-10
STALL_ITERS, STALL_DROP = 30, 1e-3
ARMIJO, MAX_HALVINGS = 1e-4, 50
KICK = 1e-3


@dataclass(frozen=True, eq=False)
class PureDecomposition:
    """Weighted family of unit vectors representing rho = sum_i w_i |psi_i><psi_i|."""

    weights: ProbMeasure
    vectors: np.ndarray  # shape (terms, dim), rows are unit vectors

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != len(self.weights):
            raise DimensionMismatch(
                f"expected {len(self.weights)} vectors, got array of shape {v.shape}"
            )
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise InvariantViolation("decomposition vectors must be unit norm")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        """sum_i w_i |psi_i><psi_i| as a dense matrix."""
        w = self.weights.weights
        return np.einsum("i,ia,ib->ab", w, self.vectors, self.vectors.conj())

    def reconstruction_error(self, rho: DensityState) -> float:
        return float(np.linalg.norm(self.reconstruct() - rho.mat))


@dataclass(frozen=True, eq=False)
class DecompositionParam:
    """m x r isometry parameterizing an m-term decomposition of a rank-r state."""

    matrix: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.matrix, dtype=complex)
        if v.ndim != 2 or v.shape[0] < v.shape[1] or v.shape[1] == 0:
            raise DimensionMismatch(f"isometry must be m x r with m >= r, got {v.shape}")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(v.shape[1]))) > ISOMETRY_TOL:
            raise InvariantViolation("parameter columns are not orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "matrix", v)

    @property
    def terms(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the decomposition search.

    ``m`` is the number of decomposition terms (default min(r^2, max(16, 2r)));
    ``restarts`` counts the spectral start, the r-term start and random starts;
    ``max_iters`` caps the conjugate-gradient iterations of one descent, summed
    over its smoothing stages; ``stop_at`` ends a descent and the restart loop
    once the value falls to it (the default sits three orders below
    ``sep_threshold``, so early stops never affect certificate decisions).
    """

    restarts: int = 100
    max_iters: int = 2000
    stagnation_tol: float = 1e-8
    patience: int = 15
    sep_threshold: float = 1e-3
    seed: int = 0
    m: Optional[int] = None
    polish_rounds: int = 2
    stop_at: float = 1e-9


@dataclass(frozen=True, eq=False)
class MixedResult:
    value: float
    best: PureDecomposition
    converged: bool
    evaluations: int
    certificate: Optional[PureDecomposition]  # ``best`` if it witnesses separability


def spectral_pure_decomposition(rho: DensityState) -> PureDecomposition:
    """Eigen-decomposition of rho restricted to eigenvalues above ``WEIGHT_CUTOFF``."""
    w, v = hermitian_eigen(Operator(rho.mat))
    keep = w > WEIGHT_CUTOFF
    w = w[keep]
    return PureDecomposition(ProbMeasure(w / w.sum()), v[:, keep].T)


def decomposition_from_param(rho: DensityState, p: DecompositionParam) -> PureDecomposition:
    """Decomposition generated by an isometry from the spectral decomposition of rho.

    Terms with weight at most ``WEIGHT_CUTOFF`` are dropped and the remaining
    weights renormalized (relative change at most terms * cutoff).
    """
    return _decompose(rho, spectral_pure_decomposition(rho), p)


def _decompose(rho: DensityState, spectral: PureDecomposition,
               p: DecompositionParam) -> PureDecomposition:
    r = len(spectral)
    if p.rank != r:
        raise DimensionMismatch(f"parameter has {p.rank} columns but rho has rank {r}")
    amps = np.sqrt(spectral.weights.weights)
    raw = (p.matrix * amps) @ spectral.vectors  # rows w_i, generally unnormalized
    weights = np.linalg.norm(raw, axis=1) ** 2
    keep = weights > WEIGHT_CUTOFF
    weights = weights[keep]
    vectors = raw[keep] / np.sqrt(weights)[:, None]
    d = PureDecomposition(ProbMeasure(weights / weights.sum()), vectors)
    err = d.reconstruction_error(rho)
    if err > RECONSTRUCTION_TOL:
        raise InvariantViolation(f"parameterized decomposition misses rho by {err:.3e}")
    return d


def decomposition_entanglement(rho: DensityState, d: PureDecomposition) -> float:
    """Weighted average of the pure entanglement numbers of the decomposition vectors."""
    da, db = _require_factor_dims(rho)
    err = d.reconstruction_error(rho)
    if not err <= RECONSTRUCTION_TOL:
        raise InvariantViolation(f"decomposition does not reconstruct rho (error {err:.3e})")
    return float(d.weights.weights @ _pure_numbers(d.vectors, (da, db)))


def _require_factor_dims(rho: DensityState) -> tuple[int, int]:
    if rho.factor_dims is None:
        raise DimensionMismatch("density state has no factor-dimension metadata")
    return rho.factor_dims


class _DecompositionSearch:
    """Precomputed spectral data plus the objective and its gradient over m x r isometries."""

    def __init__(self, rho: DensityState, spectral: PureDecomposition):
        self.dims = _require_factor_dims(rho)
        self.minors = _minor_positions(*self.dims)
        # rows sqrt(mu_j) chi_j, so the decomposition rows are V @ rows
        self.rows = np.sqrt(spectral.weights.weights)[:, None] * spectral.vectors
        self.evaluations = 0

    def terms(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decomposition rows w = v @ rows and their cross terms c (one evaluation)."""
        self.evaluations += 1
        w = v @ self.rows
        return w, _cross_terms(w, self.minors)

    def objective(self, v: np.ndarray) -> float:
        # per term: p_i * sqrt(1 - sum lam^2 / p_i^2) = sqrt(sum_{j != k} lam_j lam_k)
        return float(np.sum(np.sqrt(self.terms(v)[1])))

    def gradient(self, v: np.ndarray, w: np.ndarray, c: np.ndarray, eps: float) -> np.ndarray:
        """Riemannian gradient of ``_smoothed`` at v, from its ``terms`` (w, c)."""
        x = w.reshape(-1, *self.dims)
        norm2 = np.sum(x.real**2 + x.imag**2, axis=(1, 2))[:, None, None]
        g = 2.0 * (norm2 * x - x @ x.conj().transpose(0, 2, 1) @ x)
        g /= np.sqrt(c + eps * eps)[:, None, None]
        return _tangent(v, g.reshape(w.shape) @ self.rows.conj().T)

    def descend(self, v: np.ndarray, max_iters: int, stop_at: float) -> tuple[float, np.ndarray]:
        """Conjugate gradients from v through the smoothing stages; (value, isometry) at the end."""
        w, c = self.terms(v)
        value, step, iters = float(np.sum(np.sqrt(c))), 1.0, 0
        for eps in SMOOTHING:
            f, xi = _smoothed(c, eps), self.gradient(v, w, c, eps)
            d, trail = -xi, [value]
            while iters < max_iters and value > stop_at and np.linalg.norm(xi) > GRAD_TOL:
                slope = np.vdot(xi, d).real
                if slope >= 0.0:  # not a descent direction: restart from steepest descent
                    d, slope = -xi, -np.vdot(xi, xi).real
                t = 2.0 * step
                for _ in range(MAX_HALVINGS):  # Armijo backtracking
                    v1 = _qr_isometry(v + t * d)
                    w1, c1 = self.terms(v1)
                    f1 = _smoothed(c1, eps)
                    if f1 <= f + ARMIJO * t * slope:
                        break
                    t /= 2.0
                else:
                    break
                xi1 = self.gradient(v1, w1, c1, eps)
                # vector transport by projection onto the tangent space at v1
                beta = max(0.0, np.vdot(xi1, xi1 - _tangent(v1, xi)).real / np.vdot(xi, xi).real)
                d = beta * _tangent(v1, d) - xi1
                v, w, c, f, xi, step = v1, w1, c1, f1, xi1, t
                value = float(np.sum(np.sqrt(c)))
                iters += 1
                trail.append(value)
                if len(trail) > STALL_ITERS and \
                        value > (1.0 - STALL_DROP) * trail[-1 - STALL_ITERS]:
                    break
        return value, v


def _smoothed(c: np.ndarray, eps: float) -> float:
    """sum sqrt(c + eps^2) - eps, in a form that does not cancel for c << eps^2."""
    return float(np.sum(c / (np.sqrt(c + eps * eps) + eps)))


def _tangent(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of z onto the tangent space of the isometries at v: z - v herm(v* z)."""
    vz = v.conj().T @ z
    return z - v @ ((vz + vz.conj().T) / 2.0)


def _qr_isometry(z: np.ndarray) -> np.ndarray:
    """Q factor of z with the phases of diag(R) fixed to 1, so the factor is unique."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def entanglement_number_mixed(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> MixedResult:
    """Minimize the decomposition entanglement of rho over visited decompositions.

    Restart 0 evaluates the spectral decomposition itself (identity isometry),
    so the result never exceeds it.  Restart 1 descends from a seeded random
    r x r unitary padded with m - r zero rows, which get zero gradient and stay
    zero: an r-term search.  Later restarts descend from seeded random m x r
    isometries.  Each of the ``polish_rounds`` descends again from the best
    isometry after a random kick of size ``KICK``, so rows left at zero can
    join in.  Results are deterministic for a fixed seed and restart count.

    ``converged`` reports stagnation of the best value over the trailing
    ``patience`` restarts (or hitting ``stop_at``); it is a heuristic, not a
    proof that the infimum was found.
    """
    if opts.restarts < 1:
        raise InvariantViolation("need at least one restart")
    search_m = opts.m
    spectral = spectral_pure_decomposition(rho)
    r = len(spectral)
    if search_m is None:
        search_m = min(r * r, max(16, 2 * r))
    if search_m < r:
        raise DimensionMismatch(f"m={search_m} is below the rank {r}")
    search = _DecompositionSearch(rho, spectral)
    rng = np.random.default_rng(opts.seed)

    def gaussian(rows: int) -> np.ndarray:
        return rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))

    best_v = np.eye(search_m, r, dtype=complex)
    best_val = search.objective(best_v)
    history = [best_val]

    def run_descent(v0: np.ndarray) -> None:
        nonlocal best_val, best_v
        val, v = search.descend(v0, opts.max_iters, opts.stop_at)
        if val < best_val:
            best_val, best_v = val, v
        history.append(best_val)

    for k in range(1, opts.restarts):
        if best_val <= opts.stop_at:
            break
        live = r if k == 1 else search_m
        run_descent(np.vstack([_qr_isometry(gaussian(live)),
                               np.zeros((search_m - live, r), dtype=complex)]))

    for _ in range(opts.polish_rounds):
        if best_val <= opts.stop_at:
            break
        run_descent(_qr_isometry(best_v + KICK * gaussian(search_m)))

    reached_floor = best_val <= opts.stop_at
    if len(history) > opts.patience:
        converged = (history[-1 - opts.patience] - history[-1]) < opts.stagnation_tol
    else:
        converged = reached_floor

    best = _decompose(rho, spectral, DecompositionParam(best_v))
    # report the decomposition's own score so value and witness always agree
    value = min(best_val, decomposition_entanglement(rho, best))
    return MixedResult(value=value, best=best, converged=converged or reached_floor,
                       evaluations=search.evaluations,
                       certificate=_certificate(rho, value, best, opts.sep_threshold))


def _certificate(rho: DensityState, value: float, best: PureDecomposition,
                 sep_threshold: float) -> Optional[PureDecomposition]:
    """``best`` if value <= sep_threshold and each vector has e <= CERT_SCALE * sqrt(it)."""
    if value > sep_threshold or np.any(_pure_numbers(best.vectors, rho.factor_dims)
                                       > CERT_SCALE * math.sqrt(sep_threshold)):
        return None
    return best


def separability_certificate(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> Optional[PureDecomposition]:
    """Decomposition witnessing separability, when the search finds one.

    Runs a full search and returns its ``certificate``: the best decomposition
    if its value is at most ``sep_threshold`` and every vector in it has pure
    entanglement number at most CERT_SCALE * sqrt(sep_threshold).  Returning
    None proves nothing: the search may simply have missed a good decomposition.
    """
    return entanglement_number_mixed(rho, opts).certificate


def separable_with_entangled_spectrum() -> tuple[DensityState, PureDecomposition]:
    """The canonical 4x4 separable state whose spectral decomposition is entangled.

    An equal mixture of the product projectors onto h (x) h and e1 (x) e1,
    where h = (e1 + e2)/sqrt(2).  Its eigenvalues are (3/4, 1/4, 0, 0) and
    both eigenvectors with nonzero eigenvalue are entangled, so the spectral
    decomposition scores strictly above the (zero) entanglement number.
    Returns the state and its spectral decomposition.
    """
    h = np.array([1.0, 1.0]) / math.sqrt(2.0)
    hh = np.kron(h, h)
    e00 = np.array([1.0, 0.0, 0.0, 0.0])
    mat = 0.5 * (np.outer(hh, hh) + np.outer(e00, e00))
    rho = DensityState(mat, factor_dims=(2, 2))
    return rho, spectral_pure_decomposition(rho)

