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
Polak-Ribiere+ directions from the analytic gradient, a Cholesky QR retraction
and Armijo backtracking.  The retraction of z = V + t D is z L^-H with L L^H =
z^H z: the Q factor with a positive diagonal in R, as ``_qr_isometry`` gives
(which draws the random starts and kicks), at two small LAPACK calls.  D
is tangent at V, so z^H z = 1 + t^2 D^H D is well conditioned.  The kink of sqrt
at c = 0 is smoothed by eps, stepped down through ``SMOOTHING``; only the descent
sees the smoothed value, and every value reported is the unsmoothed one.  A
stage ends when it stalls or when no step that passes the Armijo test lowers
the smoothed value by more than its rounding error (``ROUNDING``); a pure state
stops after restart 0.

Terms are scored without an SVD, through the 2x2 minors of their coefficient
matrices, which do not cancel near product vectors.  Each minor of a
decomposition row w = v @ rows is a complex symmetric form v^T N_q v on the
support, so the search evaluates c = 2 sum_p |v^T N_p v|^2 over the
s = min(k, r(r+1)/2) forms of ``_support_forms`` (k the number of minors), built
once per state, and never builds w.  That costs about s r^2 per row against
r d_A d_B + k for the minors of w: the support form is the faster one at low
rank and the slower one at full rank from 4x4 up.  The final value and the
certificate are scored by ``bipartite._pure_numbers`` on the rebuilt vectors,
so a search is never checked by its own kernel.

``MixedResult.certificate`` is the best decomposition when it passes the
certificate test; ``separability_certificate`` runs a full search of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .measures import ProbMeasure
from .operators import DensityState, hermitian_eigen, Operator, _check_unit, _intake, _qr_isometry
from .bipartite import _minor_positions, _pure_numbers


# scipy names that bench/tracing.py patches, loaded on first access; ROADMAP item 1 deletes this
def __getattr__(name: str):
    if name == "expm":
        from scipy.linalg import expm
        return expm
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Spectral weights and decomposition terms below this are dropped.
WEIGHT_CUTOFF = 1e-12
RECONSTRUCTION_TOL = 1e-9
# A result certifies separability when its value is at most SEP_THRESHOLD and
# each of its vectors carries at most CERT_SCALE * sqrt(SEP_THRESHOLD) of pure
# entanglement.
SEP_THRESHOLD = 1e-3
CERT_SCALE = 1.5
# A descent and the restart loop end once the value falls to STOP_AT, three
# orders below SEP_THRESHOLD, so early stops never affect certificate decisions.
STOP_AT = 1e-9
# The search has converged when the best value fell by less than STAGNATION_TOL
# over the trailing PATIENCE descents, reached STOP_AT, or the state is pure.
STAGNATION_TOL, PATIENCE = 1e-8, 15
# Descents from the kicked best isometry after the restarts.
POLISH_ROUNDS = 2
# A decrease of the smoothed objective f below ROUNDING * f is rounding noise: a
# smoothing stage ends when no step predicted to beat it passes the Armijo test, or
# when the value fell by less than STALL_DROP (relative) in STALL_ITERS iterations.
SMOOTHING = (1e-2, 1e-4, 1e-6, 1e-8)
ROUNDING = 64 * np.finfo(float).eps
STALL_ITERS, STALL_DROP = 30, 1e-3
ARMIJO = 1e-4
KICK = 1e-3  # size of each polish round's kick


@dataclass(frozen=True, eq=False)
class PureDecomposition:
    """Weighted family of unit vectors representing rho = sum_i w_i |psi_i><psi_i|."""

    weights: ProbMeasure
    vectors: np.ndarray  # shape (terms, dim), rows are unit vectors

    def __post_init__(self):
        v = _intake(self.vectors, "a matrix of row vectors")
        if v.shape[0] != len(self.weights):
            raise DimensionMismatch(f"expected {len(self.weights)} vector rows, got {v.shape[0]}")
        _check_unit(v, "each decomposition vector", axis=1)
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return len(self.weights)

    def reconstruct(self) -> np.ndarray:
        """sum_i w_i |psi_i><psi_i| as a dense matrix."""
        w = self.weights.weights
        return np.einsum("i,ia,ib->ab", w, self.vectors, self.vectors.conj())

    def reconstruction_error(self, rho: DensityState) -> float:
        return float(np.linalg.norm(self.reconstruct() - rho.mat))


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings of the decomposition search.

    ``restarts`` counts the spectral start, the r-term start and random starts;
    ``max_iters`` caps the conjugate-gradient iterations of one descent, summed
    over its smoothing stages; ``seed``, non-negative, seeds the random starts;
    ``m`` is the number of decomposition terms (default min(r^2, max(16, 2r))).
    The stop, convergence and certificate rules are the module constants
    ``STOP_AT``, ``STAGNATION_TOL``, ``PATIENCE``, ``POLISH_ROUNDS`` and
    ``SEP_THRESHOLD``.
    """

    restarts: int = 100
    max_iters: int = 2000
    seed: int = 0
    m: Optional[int] = None


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


def _decompose(rho: DensityState, spectral: PureDecomposition, v: np.ndarray) -> PureDecomposition:
    """Decomposition that the m x r isometry v generates from the spectral decomposition of rho.

    Terms with weight at most ``WEIGHT_CUTOFF`` are dropped and the remaining
    weights renormalized (relative change at most terms * cutoff).  The spectral
    rows are linearly independent, so a v that is not an isometry misses rho
    and fails the reconstruction check.
    """
    amps = np.sqrt(spectral.weights.weights)
    raw = (v * amps) @ spectral.vectors  # rows w_i, generally unnormalized
    weights = np.linalg.norm(raw, axis=1) ** 2
    keep = weights > WEIGHT_CUTOFF
    weights = weights[keep]
    vectors = raw[keep] / np.sqrt(weights)[:, None]
    d = PureDecomposition(ProbMeasure(weights / weights.sum()), vectors)
    err = d.reconstruction_error(rho)
    if not err <= RECONSTRUCTION_TOL:
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
    """Precomputed support forms plus the objective and its gradient over m x r isometries.

    Row v of an isometry gives the decomposition row v @ rows, with rows the r
    vectors sqrt(mu_j) chi_j; its cross terms are 2 sum_p |v^T N_p v|^2 over the
    forms N_p of ``_support_forms``, so the search never builds the rows.
    """

    def __init__(self, rho: DensityState, spectral: PureDecomposition):
        self.dims = _require_factor_dims(rho)
        rows = np.sqrt(spectral.weights.weights)[:, None] * spectral.vectors
        # forms[p, l, j] = N_p[l, j], side by side: (v @ basis)[p * r + j] = (N_p v)_j
        forms = _support_forms(rows, _minor_positions(*self.dims))
        self.basis = forms.transpose(1, 0, 2).reshape(len(rows), -1)
        self.evaluations = 0

    def terms(self, v: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """((y, N v), c) with y_p = v^T N_p v and the cross terms c (one evaluation)."""
        self.evaluations += 1
        nv = (v @ self.basis).reshape(len(v), -1, v.shape[1])
        y = (nv @ v[:, :, None])[..., 0]
        return (y, nv), 2.0 * np.einsum("ip,ip->i", y, y.conj()).real

    def objective(self, v: np.ndarray) -> float:
        # per term: p_i * sqrt(1 - sum lam^2 / p_i^2) = sqrt(sum_{j != k} lam_j lam_k)
        return float(np.sum(np.sqrt(self.terms(v)[1])))

    def gradient(self, v: np.ndarray, x: tuple[np.ndarray, np.ndarray], c: np.ndarray,
                 eps: float) -> np.ndarray:
        """Riemannian gradient of ``_smoothed`` at v, from its ``terms`` (x, c).

        The Euclidean gradient is (4 / sqrt(c + eps^2)) sum_p y_p conj(N_p v).
        """
        y, nv = x
        g = (y.conj()[:, None, :] @ nv)[:, 0].conj()
        return _tangent(v, g * (4.0 / np.sqrt(c + eps * eps))[:, None])

    def descend(self, v: np.ndarray, max_iters: int, stop_at: float) -> tuple[float, np.ndarray]:
        """Conjugate gradients from v through the smoothing stages; (value, isometry) at the end."""
        x, c = self.terms(v)
        value, step, iters = float(np.sum(np.sqrt(c))), 1.0, 0
        for eps in SMOOTHING:
            f, xi = _smoothed(c, eps), self.gradient(v, x, c, eps)
            d, trail = -xi, [value]
            while iters < max_iters and value > stop_at:
                slope = np.vdot(xi, d).real
                if slope >= 0.0:  # not a descent direction: restart from steepest descent
                    d, slope = -xi, -np.vdot(xi, xi).real
                noise, t = ROUNDING * f, 2.0 * step
                while -t * slope > noise:  # Armijo backtracking; a NaN ends the stage
                    v1 = _cholesky_retraction(v + t * d)
                    x1, c1 = self.terms(v1)
                    f1 = _smoothed(c1, eps)
                    if f1 <= f + ARMIJO * t * slope:
                        break
                    t /= 2.0
                else:
                    break
                xi1 = self.gradient(v1, x1, c1, eps)
                # vector transport by projection onto the tangent space at v1
                beta = max(0.0, np.vdot(xi1, xi1 - _tangent(v1, xi)).real / np.vdot(xi, xi).real)
                d = beta * _tangent(v1, d) - xi1
                v, x, c, f, xi, step = v1, x1, c1, f1, xi1, t
                value = float(np.sum(np.sqrt(c)))
                iters += 1
                trail.append(value)
                if len(trail) > STALL_ITERS and \
                        value > (1.0 - STALL_DROP) * trail[-1 - STALL_ITERS]:
                    break
        return value, v


def _support_forms(rows: np.ndarray, minors: np.ndarray) -> np.ndarray:
    """The s complex symmetric forms N_p, an (s, r, r) array, of c = 2 sum_p |v^T N_p v|^2.

    Minor q of w = v @ rows is v^T N_q v, with N_q the symmetric part of M_q[j, l] =
    rows[j, ac] rows[l, bd] - rows[j, ad] rows[l, bc].  Stack the upper triangles of
    the N_q as the rows of a k x r(r+1)/2 matrix C = Q T.  Then v^T N_q v = (C D z)_q,
    with z_jl = v_j v_l and D doubling the off-diagonal columns, and ||C D z|| =
    ||T D z||: the upper triangles of T's s = min(k, r(r+1)/2) rows are the forms.
    """
    (ac, bd), (ad, bc) = rows.take(minors, axis=-1).transpose(1, 2, 0, 3)
    m = np.einsum("jq,lq->qjl", ac, bd) - np.einsum("jq,lq->qjl", ad, bc)
    j, l = np.triu_indices(rows.shape[0])
    tri = np.linalg.qr((m[:, j, l] + m[:, l, j]) / 2.0, mode="r")
    forms = np.zeros((len(tri), rows.shape[0], rows.shape[0]), dtype=tri.dtype)
    forms[:, j, l] = tri
    forms[:, l, j] = tri
    return forms


def _cholesky_retraction(z: np.ndarray) -> np.ndarray:
    """Q factor of z, as ``_qr_isometry``, by Cholesky QR: z L^-H with L L^H = z^H z.

    For z = v + t d with v an isometry and d tangent there, z^H z = 1 + t^2 d^H d has
    no eigenvalue below 1, so the Gram matrix is well conditioned; zero rows of z stay
    exactly zero.
    """
    return z @ np.linalg.inv(np.linalg.cholesky(z.conj().T @ z)).conj().T


def _smoothed(c: np.ndarray, eps: float) -> float:
    """sum sqrt(c + eps^2) - eps, in a form that does not cancel for c << eps^2."""
    return float(np.sum(c / (np.sqrt(c + eps * eps) + eps)))


def _tangent(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of z onto the tangent space of the isometries at v: z - v herm(v* z)."""
    vz = v.conj().T @ z
    return z - v @ ((vz + vz.conj().T) / 2.0)


def entanglement_number_mixed(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> MixedResult:
    """Minimize the decomposition entanglement of rho over visited decompositions.

    Restart 0 evaluates the spectral decomposition itself (identity isometry),
    so the result never exceeds it.  Restart 1 descends from a seeded random
    r x r unitary padded with m - r zero rows, which get zero gradient and stay
    zero: an r-term search.  Later restarts descend from seeded random m x r
    isometries.  Each of the ``POLISH_ROUNDS`` descends again from the best
    isometry after a random kick of size ``KICK``, so rows left at zero can
    join in.  A pure state stops after restart 0, which is exact.  Results are
    deterministic for a fixed seed and restart count.

    ``converged`` reports stagnation of the best value over the trailing
    ``PATIENCE`` descents (or hitting ``STOP_AT``, or a pure state); it is a
    heuristic, not a proof that the infimum was found.
    """
    if opts.restarts < 1:
        raise InvariantViolation("need at least one restart")
    if opts.seed < 0:
        raise InvariantViolation(f"seed must be non-negative, got {opts.seed}")
    spectral = spectral_pure_decomposition(rho)
    r = len(spectral)
    search_m = min(r * r, max(16, 2 * r)) if opts.m is None else opts.m
    if search_m < r:
        raise DimensionMismatch(f"m={search_m} is below the rank {r}")
    search = _DecompositionSearch(rho, spectral)
    rng = np.random.default_rng(opts.seed)

    def gaussian(rows: int) -> np.ndarray:
        return rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))

    best_v = np.eye(search_m, r, dtype=complex)
    best_val = search.objective(best_v)
    history = [best_val]
    # every decomposition of a pure state is that state: restart 0 is the answer
    restarts, polish_rounds = (opts.restarts, POLISH_ROUNDS) if r > 1 else (1, 0)

    for k in range(1, restarts + polish_rounds):
        if best_val <= STOP_AT:
            break
        if k < restarts:
            live = r if k == 1 else search_m
            v0 = np.vstack([_qr_isometry(gaussian(live)),
                            np.zeros((search_m - live, r), dtype=complex)])
        else:  # polish: kick the best isometry
            v0 = _qr_isometry(best_v + KICK * gaussian(search_m))
        val, v = search.descend(v0, opts.max_iters, STOP_AT)
        if val < best_val:
            best_val, best_v = val, v
        history.append(best_val)

    converged = r == 1 or best_val <= STOP_AT or (
        len(history) > PATIENCE and history[-1 - PATIENCE] - history[-1] < STAGNATION_TOL)

    best = _decompose(rho, spectral, best_v)
    # the lower of the descent's score and the rebuilt decomposition's own score;
    # the two differ by rounding only, so value and witness agree to about 1e-15
    e = _pure_numbers(best.vectors, search.dims)
    value = min(best_val, float(best.weights.weights @ e))
    certified = value <= SEP_THRESHOLD and np.all(e <= CERT_SCALE * math.sqrt(SEP_THRESHOLD))
    return MixedResult(value=value, best=best, converged=converged,
                       evaluations=search.evaluations,
                       certificate=best if certified else None)


def separability_certificate(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> Optional[PureDecomposition]:
    """Decomposition witnessing separability, when the search finds one.

    Runs a full search and returns its ``certificate``: the best decomposition
    if its value is at most ``SEP_THRESHOLD`` and every vector in it has pure
    entanglement number at most CERT_SCALE * sqrt(SEP_THRESHOLD).  Returning
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

