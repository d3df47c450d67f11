"""Mixed-state entanglement via optimization over pure-state decompositions.

Every decomposition of a density matrix rho into pure states is generated
from its spectral decomposition (mu_j, chi_j) by an isometry: for any m x r
matrix V with orthonormal columns (r the rank of rho), the unnormalized
vectors w_i = sum_j V[i, j] sqrt(mu_j) chi_j satisfy
sum_i |w_i><w_i| = rho, giving weights ||w_i||^2 and unit vectors w_i/||w_i||.

The mixed entanglement number is the infimum, over decompositions, of the
weighted average of the pure entanglement numbers of the decomposition
vectors.  The search runs multi-start Nelder-Mead over a real chart of the
isometry manifold: V = U0 expm(K)[:, :r] with K skew-Hermitian built from
m^2 real parameters and U0 a per-restart random unitary recentering.  The
value 0 is attained exactly on separable states, so driving the objective
below a threshold certifies separability; failing to do so proves nothing.

Terms are scored through the 2x2 minors of their coefficient matrices
(``bipartite._cross_terms``): no SVD, and no cancellation near product vectors.  For
a fixed seed, values and evaluation counts can differ from SVD-scoring
versions in trailing digits; they stay deterministic per seed.

``MixedResult.certificate`` is the best decomposition when it passes the
certificate test; ``separability_certificate`` runs a full search of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from .errors import DimensionMismatch, InvariantViolation
from .measures import ProbMeasure, entanglement_number
from .operators import DensityState, hermitian_eigen, Operator
from .bipartite import _cross_terms, _minor_positions, _pure_numbers

# Spectral weights and decomposition terms below this are dropped.
WEIGHT_CUTOFF = 1e-12
RECONSTRUCTION_TOL = 1e-9
ISOMETRY_TOL = 1e-9
# Certificate vectors may each carry at most CERT_SCALE * sqrt(sep_threshold)
# of pure entanglement.
CERT_SCALE = 1.5


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

    ``m`` is the number of decomposition terms (default min(r^2, 16));
    ``restarts`` counts the identity start plus random recenterings;
    ``stop_at`` ends the restart loop early once the best value falls to it
    (the default sits three orders below ``sep_threshold``, so early stops
    never affect certificate decisions).
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
    """Precomputed spectral data plus a fast objective over isometry parameters."""

    def __init__(self, rho: DensityState, spectral: PureDecomposition, m: int):
        self.minors = _minor_positions(*_require_factor_dims(rho))
        self.rank = len(spectral)
        self.m = m
        # rows sqrt(mu_j) chi_j, so the decomposition rows are V @ rows
        self.rows = np.sqrt(spectral.weights.weights)[:, None] * spectral.vectors
        self.n_params = m * m
        # each real or imaginary part of K is 0 or +-x[p] for one p, so skew is
        # one gather; read its tables off K at x[p] = p + 1 (K[i, i] = i x[i];
        # K[i, j] = re + i im and K[j, i] = -re + i im for i < j)
        iu = np.triu_indices(m, k=1)
        re, im = np.split(np.arange(m + 1.0, m * m + 1), 2)
        probe = np.diag(1j * np.arange(1.0, m + 1))
        probe[iu], probe[iu[::-1]] = re + 1j * im, -re + 1j * im
        flat = probe.view(float).reshape(-1)
        self._src, self._sign = np.maximum(np.abs(flat).astype(np.intp) - 1, 0), np.sign(flat)

    def skew(self, x: np.ndarray) -> np.ndarray:
        return (x[self._src] * self._sign).view(complex).reshape(self.m, self.m)

    def isometry(self, x: np.ndarray, u0: np.ndarray) -> np.ndarray:
        return (u0 @ expm(self.skew(x)))[:, : self.rank]

    def objective_from_isometry(self, v: np.ndarray) -> float:
        # per term: p_i * sqrt(1 - sum lam^2 / p_i^2) = sqrt(sum_{j != k} lam_j lam_k)
        return float(np.sum(np.sqrt(_cross_terms(v @ self.rows, self.minors))))

    def objective(self, x: np.ndarray, u0: np.ndarray) -> float:
        return self.objective_from_isometry(self.isometry(x, u0))


def _haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def entanglement_number_mixed(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> MixedResult:
    """Minimize the decomposition entanglement of rho over visited decompositions.

    Restart 0 evaluates the spectral decomposition itself (identity isometry),
    so the result never exceeds it.  Subsequent restarts recenter the chart at
    a seeded random unitary and run Nelder-Mead; the best parameters get
    ``polish_rounds`` extra descent rounds.  Results are deterministic for a
    fixed seed and restart count.

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
        search_m = max(min(r * r, 16), r)
    if search_m < r:
        raise DimensionMismatch(f"m={search_m} is below the rank {r}")
    search = _DecompositionSearch(rho, spectral, search_m)
    rng = np.random.default_rng(opts.seed)

    eye = np.eye(search_m, dtype=complex)
    zero = np.zeros(search.n_params)
    best_val = search.objective(zero, eye)
    best_params: tuple[np.ndarray, np.ndarray] = (zero, eye)
    evaluations = 1
    history = [best_val]

    def run_descent(x0: np.ndarray, u0: np.ndarray) -> None:
        nonlocal best_val, best_params, evaluations
        res = minimize(
            search.objective,
            x0,
            args=(u0,),
            method="Nelder-Mead",
            options={
                "maxiter": opts.max_iters,
                "maxfev": 2 * opts.max_iters,
                "xatol": 1e-8,
                "fatol": 1e-12,
                "adaptive": True,
            },
        )
        evaluations += int(res.nfev)
        if res.fun < best_val:
            best_val = float(res.fun)
            best_params = (np.array(res.x), u0)

    for k in range(1, opts.restarts):
        if best_val <= opts.stop_at:
            break
        u0 = _haar_unitary(search_m, rng)
        x0 = rng.normal(0.0, 0.25, size=search.n_params)
        run_descent(x0, u0)
        history.append(best_val)

    for _ in range(opts.polish_rounds):
        if best_val <= opts.stop_at:
            break
        x0, u0 = best_params
        run_descent(x0 + 0.0, u0)
        history.append(best_val)

    reached_floor = best_val <= opts.stop_at
    if len(history) > opts.patience:
        converged = (history[-1 - opts.patience] - history[-1]) < opts.stagnation_tol
    else:
        converged = reached_floor

    x, u0 = best_params
    best = _decompose(rho, spectral, DecompositionParam(search.isometry(x, u0)))
    # report the decomposition's own score so value and witness always agree
    value = min(best_val, decomposition_entanglement(rho, best))
    return MixedResult(value=value, best=best, converged=converged or reached_floor,
                       evaluations=evaluations,
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

