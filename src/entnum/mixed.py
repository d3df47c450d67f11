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
the smoothed value by more than its rounding error (``ROUNDING``).

The line search tries twice the last step t, then t/2, t/4, ..., and after a
step that backtracked the first trial mostly fails.  On small states an
evaluation is mostly numpy and LAPACK call overhead, so while its work m s r^2
(rows x forms x rank^2) is at most ``_SPECULATION_WORK`` the search scores t and
t/2 as one (2, m, r) stack, one retraction and one ``terms`` call, and runs the
Armijo test on t before t/2: every step taken is the one the one-at-a-time
search takes, bit for bit.

Near a separable decomposition the smoothed objective is the zero-residual least
squares sum_ip |v_i^T N_p v_i|^2 / eps, whose minimizers form a continuum, and
conjugate gradients converge on it only linearly.  Once a descent's value is at
most ``SEP_THRESHOLD``, the trial of each iteration is first a Levenberg-Marquardt
step on the tangent space, damped by mu = ||y||^2 (Yamashita and Fukushima,
Computing Suppl. 15, 239 (2001)), which converges quadratically there although the
zeros are not isolated.  The step is retracted and scored as a line-search trial of
step 1, and chosen when it at least halves the value; otherwise the Armijo
backtracking chooses the trial.  A state known to be entangled never tries one, so
its searches are the conjugate-gradient ones bit for bit.  Each iteration takes its
trial through one update; only the new direction (steepest descent after a
Levenberg-Marquardt step, Polak-Ribiere+ after an Armijo one), the step the next line
search starts from and the stall test depend on the kind of step.
``evaluations`` counts the starting points scored, the trial points the Armijo test
examines and every LM step scored; a half step scored alongside a t that passed is
not counted.

Each search also computes a certified lower bound from the same support forms,
sqrt(2) sqrt(sum_p U(N_p)^2) with U(N) = max(0, s_1 - sum_{j>1} s_j) over the
singular values of N_p (Mintert, Kus and Buchleitner, PRL 92, 167902 (2004)).
The restart loop ends once the best value is within ``STOP_AT`` of it, which
is then a proof that the infimum was found.  On two qubits there is one form N,
the bound is the exact Wootters value, and a pure state meets it at restart 0.
Any other two-qubit state meets it at the second evaluation (when m is at least
the 2^ceil(log2 r) rows it needs, as the default m is): the isometry of
``_DecompositionSearch.closed_form``, built from the Takagi factorization of N,
attains U(N) in closed form (Wootters, PRL 80, 2245 (1998); Uhlmann, PRA 62,
032307 (2000)), so no descent runs.  Above 2x2 the bound can lie well below the
infimum, and the loop runs its full budget.

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
certificate test, the lower bound does not exceed ``STOP_AT`` and the partial
transpose of rho is positive within ``PPT_TOL``; ``separability_certificate`` runs
a full search of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .measures import ProbMeasure
from .operators import (DensityState, hermitian_eigen, Operator, PSD_TOL, _check_unit, _intake,
                        _qr_isometry)
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
# A state whose partial transpose has an eigenvalue below -PPT_TOL is entangled (Peres,
# PRL 77, 1413 (1996)) and gets no certificate.  The tolerance is the one rho's own
# eigenvalues get: separable states read -1.5e-16 and above (Example 9, rank-2 product
# mixtures), Werner states 3x3 and 4x4 with e = 5e-5 to 5e-4 read -1.8e-5 to -2.4e-4.
PPT_TOL = PSD_TOL
# A descent ends once its value falls to STOP_AT, three orders below SEP_THRESHOLD,
# so early stops never affect certificate decisions; the restart loop ends once the
# best value is within STOP_AT of the search's lower bound.  A state whose lower
# bound exceeds STOP_AT is entangled and gets no certificate.
STOP_AT = 1e-9
# The search has converged when the best value met its lower bound within STOP_AT,
# or fell by less than STAGNATION_TOL over the trailing PATIENCE descents.
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
# While one evaluation's work m s r^2 (rows x forms x rank^2) is at most this, its
# numpy and LAPACK call overhead outweighs the arithmetic, and the line search scores
# the step and its first halving as one stack.  Time of full searches, speculation on
# over off: 0.89-0.95 at 7,056 (3x3 rank 7), 0.97-1.04 at 9,216 (3x3 rank 8) and 1.30
# at 124,416 (4x4 rank 12); README "Notes on the mixed-state search" has the table.
_SPECULATION_WORK = 8_000
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
        """Frobenius norm of ``reconstruct()`` - rho; vectors not of rho's dimension raise
        ``DimensionMismatch``."""
        if self.vectors.shape[1] != rho.dim:
            raise DimensionMismatch(f"vector dimension {self.vectors.shape[1]}, rho {rho.dim}")
        return float(np.linalg.norm(self.reconstruct() - rho.mat))


@dataclass(frozen=True)
class OptimizerOptions:
    """Settings of the decomposition search.

    ``restarts`` counts the spectral start, the r-term start and random starts;
    ``max_iters``, at least 1, caps the iterations of one descent, conjugate-gradient
    and Levenberg-Marquardt steps alike, summed over its smoothing stages; ``seed``,
    non-negative, seeds the random starts; ``m`` is the number of decomposition terms
    (default min(r^2, max(16, 2r))).
    ``restarts`` below 1, ``max_iters`` below 1 and a negative ``seed`` raise
    ``InvariantViolation`` on construction.  The stop, convergence and certificate
    rules are the module constants ``STOP_AT``, ``STAGNATION_TOL``, ``PATIENCE``,
    ``POLISH_ROUNDS`` and ``SEP_THRESHOLD``.
    """

    restarts: int = 100
    max_iters: int = 2000
    seed: int = 0
    m: Optional[int] = None

    def __post_init__(self):
        if self.restarts < 1:
            raise InvariantViolation("need at least one restart")
        if self.max_iters < 1:
            raise InvariantViolation(f"max_iters must be at least 1, got {self.max_iters}")
        if self.seed < 0:
            raise InvariantViolation(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class MixedResult:
    """Outcome of ``entanglement_number_mixed``: the bracket lower_bound <= e(rho) <= value.

    ``converged`` is True when value is within ``STOP_AT`` of ``lower_bound``, which
    proves the infimum was found, or when the best value stagnated over the trailing
    ``PATIENCE`` descents, which is a heuristic.  ``certificate`` is ``best`` when it
    witnesses separability.
    """

    value: float
    best: PureDecomposition
    converged: bool
    evaluations: int
    certificate: Optional[PureDecomposition]
    lower_bound: float


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
    return _reconstructing(rho, PureDecomposition(ProbMeasure(weights / weights.sum()), vectors))


def decomposition_entanglement(rho: DensityState, d: PureDecomposition) -> float:
    """Weighted average of the pure entanglement numbers of the decomposition vectors."""
    dims = _require_factor_dims(rho)
    return float(_reconstructing(rho, d).weights.weights @ _pure_numbers(d.vectors, dims))


def _reconstructing(rho: DensityState, d: PureDecomposition) -> PureDecomposition:
    """d, once it reconstructs rho within ``RECONSTRUCTION_TOL``; a NaN error fails too."""
    err = d.reconstruction_error(rho)
    if not err <= RECONSTRUCTION_TOL:
        raise InvariantViolation(f"decomposition misses rho by {err:.3e}")
    return d


def _require_factor_dims(rho: DensityState) -> tuple[int, int]:
    if rho.factor_dims is None:
        raise DimensionMismatch("density state has no factor-dimension metadata")
    return rho.factor_dims


class _DecompositionSearch:
    """Precomputed support forms plus the objective and its gradient over m x r isometries.

    Row v of an isometry gives the decomposition row v @ rows, with rows the r
    vectors sqrt(mu_j) chi_j; its cross terms are 2 sum_p |v^T N_p v|^2 over the
    forms N_p of ``_support_forms``, so the search never builds the rows.

    ``lower`` is sqrt(2) sqrt(sum_p U(N_p)^2), with U(N) = max(0, s_1 - sum_{j>1} s_j)
    over the singular values s of N (Mintert, Kus and Buchleitner, PRL 92, 167902
    (2004)): no isometry scores below it.  The objective is sqrt(2) sum_i ||y_i||
    with y_ip = v_i^T N_p v_i, since the forms keep ||C D z|| = ||T D z||; by
    Minkowski's inequality that sum is at least sqrt(2) sqrt(sum_p (sum_i |y_ip|)^2),
    and sum_i |v_i^T N v_i| >= U(N) for every isometry (Uhlmann, PRA 62, 032307
    (2000)).  On two qubits there is one form, and the bound is Wootters' C / sqrt(2)
    (PRL 80, 2245 (1998)), the exact value.

    ``entangled`` is True when ``lower`` exceeds ``STOP_AT`` or the partial transpose
    of rho has an eigenvalue below -``PPT_TOL`` (Peres, PRL 77, 1413 (1996)).  Either
    proves that no decomposition scores 0, so such a state gets no certificate and
    its descents try no Levenberg-Marquardt step.
    """

    def __init__(self, rho: DensityState, spectral: PureDecomposition):
        self.dims = _require_factor_dims(rho)
        rows = np.sqrt(spectral.weights.weights)[:, None] * spectral.vectors
        # forms[p, l, j] = N_p[l, j], side by side: (v @ basis)[p * r + j] = (N_p v)_j
        forms = _support_forms(rows, _minor_positions(*self.dims))
        sv = np.linalg.svd(forms, compute_uv=False)
        uhlmann = np.maximum(0.0, sv[:, 0] - sv[:, 1:].sum(axis=1))
        self.lower = math.sqrt(2.0) * float(np.linalg.norm(uhlmann))
        self.entangled = self.lower > STOP_AT or not _is_ppt(rho)
        self.basis = forms.transpose(1, 0, 2).reshape(len(rows), -1)
        self.form = forms[0] if len(forms) == 1 else None  # the one form of ``closed_form``
        self.evaluations = 0

    def closed_form(self, m: int) -> Optional[np.ndarray]:
        """An m x r isometry that scores ``lower`` when the search has one form N, else None.

        Takagi-factor N = U diag(sigma) U^T: each eigenvector (x; y) of the real symmetric
        [[Re N, Im N], [Im N, -Re N]] for one of its r largest eigenvalues sigma_j gives
        u_j = x + i y with N conj(u_j) = sigma_j u_j.  The -sigma_j partner of (x; y) is
        (-y; x), orthogonal to every eigenvector of a positive eigenvalue, so the u_j of
        sigma_j well above 0 are orthonormal, degenerate sigma_j included.  Near 0 the
        eigenvectors of +sigma_j and -sigma_k mix, and the u_j lost up to 1e-5 of
        orthogonality on rank-2 states plus 1e-10 of noise; the polar factor of
        [u_1 ... u_r] is a unitary, and U up to rounding where the u_j are orthonormal.  Row i of
        V = O diag(e^{i phi}) U^H has v_i^T N v_i = sum_j O_ij^2 sigma_j e^{2i phi_j}, with
        O the first r columns of the Sylvester Hadamard matrix of order k = 2^ceil(log2 r)
        over sqrt(k), so O_ij^2 = 1/k and the k rows score |sum_j sigma_j e^{2i phi_j}|
        in total.  The phases make that U(N) = max(0, sigma_1 - sum_{j>1} sigma_j):
        (1, -1, ..., -1) when sigma_1 >= sum_{j>1} sigma_j, and otherwise those of a closed
        triangle with sides sigma_1, sigma_2 and sigma_3 + ... + sigma_r (Wootters, PRL 80, 2245
        (1998); Uhlmann, PRA 62, 032307 (2000)).  V has k rows, padded with zeros to m;
        None when k > m.
        """
        if self.form is None:
            return None
        n = self.form
        r = len(n)
        k = 1 << (r - 1).bit_length()
        if k > m:
            return None
        sigma, x = np.linalg.eigh(np.block([[n.real, n.imag], [n.imag, -n.real]]))
        sigma, x = np.maximum(sigma[::-1][:r], 0.0), x[:, ::-1][:, :r]
        w, _, zh = np.linalg.svd(x[:r] + 1j * x[r:])
        twice = np.zeros(r)  # 2 phi
        a, b, c = sigma[0], sigma[1:2].sum(), sigma[2:].sum()
        if a >= b + c:
            twice[1:] = math.pi
        else:  # a < b + c, and b <= a, c <= a + b: the triangle exists, with b > 0
            twice[1] = math.acos(min(1.0, max(-1.0, (c * c - a * a - b * b) / (2.0 * a * b))))
            twice[2:] = np.angle(-(a + b * np.exp(1j * twice[1])))
        hadamard = np.ones((1, 1))
        while len(hadamard) < k:
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        v = np.zeros((m, r), dtype=complex)
        v[:k] = (hadamard[:, :r] * np.exp(0.5j * twice) / math.sqrt(k)) @ (w @ zh).conj().T
        return v

    def terms(self, v: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """((y, N v), c) with y_p = v^T N_p v and the cross terms c, for an m x r isometry
        or for each of a stack (..., m, r) of them; the caller counts the evaluations."""
        nv = (v @ self.basis).reshape(*v.shape[:-1], -1, v.shape[-1])
        y = (nv @ v[..., None])[..., 0]
        return (y, nv), 2.0 * np.einsum("...p,...p->...", y, y.conj()).real

    def objective(self, v: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray, float]:
        """(terms, cross terms c, value) at a start v, counted as one evaluation.

        Per term, p_i sqrt(1 - sum lam^2 / p_i^2) = sqrt(sum_{j != k} lam_j lam_k) = sqrt(c_i).
        """
        self.evaluations += 1
        x, c = self.terms(v)
        return x, c, float(np.sqrt(c).sum())

    def gradient(self, x: tuple[np.ndarray, np.ndarray], root: np.ndarray) -> np.ndarray:
        """Euclidean gradient of ``_smoothed`` from the ``terms`` x, root = sqrt(c + eps^2).

        It is (4 / root) sum_p y_p conj(N_p v); ``_tangent`` at v gives the Riemannian one.
        """
        y, nv = x
        g = (y.conj()[:, None, :] @ nv)[:, 0].conj()
        return g * (4.0 / root)[:, None]

    def lm_step(self, v: np.ndarray, x: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Levenberg-Marquardt step on the tangent space at v, from its ``terms`` x = (y, N v).

        Row i's residuals y_ip = v_i^T N_p v_i move by xi_i a_i to first order, with a_i
        the r x s matrix of columns 2 N_p v_i.  The step minimizes sum_i ||y_i + xi_i a_i||^2
        + mu ||xi||^2 with mu = ||y||^2 (Yamashita and Fukushima, Computing Suppl. 15, 239
        (2001)) over the xi with herm(v* xi) = 0.  Per row, xi_i = -(y_i a_i^* + v_i nu) K_i
        with K_i = (a_i a_i^* + mu)^-1, and the Hermitian multiplier nu solves
        herm(sum_i v_i^* v_i nu K_i) = herm(sum_i v_i^* xi0_i), xi0 the step at nu = 0.  That
        map is positive definite on the Hermitian matrices for mu > 0.  In the coordinates
        Re nu + Im nu, a real r x r matrix that determines nu, it is a real symmetric
        r^2 x r^2 system.  A zero row of v gets a zero step.
        """
        y, nv = x
        m, r = v.shape
        mu = float(np.vdot(y, y).real)
        # a_i = u_i diag(sv_i) wh_i with u_i r x r; forming a_i a_i^* + mu would lose the
        # directions of a_i's null space once mu is below rounding, so K_i is built from sv
        u, sv, wh = np.linalg.svd(2.0 * nv.swapaxes(-1, -2), full_matrices=nv.shape[1] < r)
        n_sv = sv.shape[-1]
        xi0 = -((y[:, None, :] @ wh.conj().swapaxes(-1, -2)) * (sv / (sv * sv + mu))[:, None, :]
                @ u[:, :, :n_sv].conj().swapaxes(-1, -2))[:, 0]
        # mk_i = mu K_i = u_i diag(mu / (sv_i^2 + mu)) u_i^*, sv padded with zeros to r, and
        # nu below is the multiplier over mu: both stay of order 1 where a_i has a null space
        scale = np.ones((m, r))
        scale[:, :n_sv] = mu / (sv * sv + mu)
        mk = (u * scale[:, None, :]) @ u.conj().swapaxes(-1, -2)
        # w[a, b, c, d] = sum_i conj(v_ia) v_ib mk_i[c, d], one (r^2 x m) @ (m x r^2) product.
        # For Hermitian nu, herm(sum_i v_i^* v_i nu mk_i)[a, d] = sum_bc (w[a, b, c, d] +
        # w[c, d, a, b]) nu_bc / 2; the real and imaginary parts of that kernel, with
        # nu = sym(R) + i asym(R), give the system on R.
        w = ((v.conj()[:, :, None] * v[:, None, :]).reshape(m, -1).T
             @ mk.reshape(m, -1)).reshape(r, r, r, r)
        re, im = w.real, w.imag
        system = (re.transpose(0, 3, 1, 2) + re.transpose(2, 1, 3, 0)
                  + im.transpose(0, 3, 2, 1) + im.transpose(2, 1, 0, 3)).reshape(r * r, -1)
        vx = v.conj().T @ xi0
        vx = vx + vx.conj().T
        q = np.linalg.solve(system, (vx.real + vx.imag).reshape(-1)).reshape(r, r)
        nu = (q + q.T) / 2.0 + 0.5j * (q - q.T)
        return xi0 - ((v @ nu)[:, None, :] @ mk)[:, 0]

    def descend(self, v: np.ndarray, max_iters: int, stop_at: float) -> tuple[float, np.ndarray]:
        """Conjugate gradients from v through the smoothing stages; (value, isometry) at the end.

        Each iteration chooses one trial and then takes it through one update.  Once
        the value is at most ``SEP_THRESHOLD``, the descent is heading for a zero of
        the residuals y, where conjugate gradients converge only linearly, and the
        trial is first the Levenberg-Marquardt step of ``lm_step``, retracted and scored
        by ``_trials`` as the single step t = 1; it is chosen when the value at least
        halves.  A rejected step, or one that fails in LAPACK or scores NaN, leaves the
        choice to the Armijo backtracking, and the next try waits until the value has
        fallen tenfold.  A descent whose value stays above ``SEP_THRESHOLD``, or of a
        state known to be ``entangled``, never tries one.

        The Armijo backtracking tries t = twice the last step, then t/2, t/4, ... while
        the predicted decrease clears the rounding floor, and chooses the first t that
        passes; when none does, the stage ends.  While one evaluation is overhead-bound
        (work m s r^2 at most ``_SPECULATION_WORK``), t and t/2 are scored as one stack,
        and the test then runs on t before t/2: every step taken is the one the
        one-at-a-time search takes.

        The update moves to the trial and counts one of the ``max_iters`` iterations.
        Three things depend on the kind of step: the new direction is steepest descent
        after a Levenberg-Marquardt step and Polak-Ribiere+ after an Armijo one, and
        only an Armijo step sets the next line search's step and runs the stall test.
        ``evaluations`` counts v and then every trial, by the rule of the module
        docstring.
        """
        speculate = v.size * self.basis.shape[1] <= _SPECULATION_WORK
        x, c, value = self.objective(v)
        step, iters = 1.0, 0
        lm_at = 0.0 if self.entangled else SEP_THRESHOLD  # the value that triggers LM
        for eps in SMOOTHING:
            f, root = _smoothed(c, eps)
            f, xi = float(f), _tangent(v, self.gradient(x, root))
            d, trail = -xi, [value]
            while iters < max_iters and value > stop_at:
                trial = None
                if value <= lm_at:
                    try:  # the unit step along lm_step, scored as a one-step Armijo trial
                        [trial] = self._trials(v, self.lm_step(v, x), (1.0,), eps)
                        self.evaluations += 1
                    except np.linalg.LinAlgError:
                        pass
                    if trial is None or not float(np.sqrt(trial[2]).sum()) <= value / 2.0:
                        trial, lm_at = None, value / 10.0  # a NaN fails too
                lm = trial is not None
                if not lm:
                    slope = float(np.vdot(xi, d).real)
                    if slope >= 0.0:  # not a descent direction: restart from steepest descent
                        d, slope = -xi, -float(np.vdot(xi, xi).real)
                    noise, t = ROUNDING * f, 2.0 * step
                    while trial is None and -t * slope > noise:  # Armijo; a NaN ends the stage
                        half = t / 2.0
                        steps = (t, half) if speculate and -half * slope > noise else (t,)
                        for t, trial in zip(steps, self._trials(v, d, steps, eps)):
                            self.evaluations += 1
                            if trial[3] <= f + ARMIJO * t * slope:
                                break
                        else:  # every step of the batch failed: halve the last one
                            trial, t = None, t / 2.0
                    if trial is None:  # no step above the rounding floor passed: the stage ends
                        break
                v, x, c, f, root = trial
                if lm:  # conjugate gradients restart from steepest descent
                    xi = _tangent(v, self.gradient(x, root))
                    d = -xi
                else:  # the new gradient, and the transports of xi and d by projection
                    xi1, xi_at_v, d_at_v = _tangent(v, np.array((self.gradient(x, root), xi, d)))
                    beta = max(0.0, float(np.vdot(xi1, xi1 - xi_at_v).real)
                               / float(np.vdot(xi, xi).real))
                    xi, d, step = xi1, beta * d_at_v - xi1, t
                f, value = float(f), float(np.sqrt(c).sum())
                iters += 1
                trail.append(value)
                if not lm and len(trail) > STALL_ITERS and \
                        value > (1.0 - STALL_DROP) * trail[-1 - STALL_ITERS]:
                    break
        return value, v

    def _trials(self, v: np.ndarray, d: np.ndarray, steps: tuple[float, ...],
                eps: float) -> Iterable[tuple]:
        """(isometry, terms, c, smoothed value, sqrt(c + eps^2)) at the retraction of v + t d
        for each t in steps.  Two steps are scored as one (2, m, r) stack: one retraction
        and one ``terms`` call.  A single step stays 2-D: a one-slice stack costs 5 to 13 %
        more per trial, from 4x4 rank 16 down to 2x2 rank 4."""
        if len(steps) == 1:
            v1 = _cholesky_retraction(v + steps[0] * d)
            x1, c1 = self.terms(v1)
            return [(v1, x1, c1, *_smoothed(c1, eps))]
        vs = _cholesky_retraction(v + np.array(steps)[:, None, None] * d)
        (ys, nvs), cs = self.terms(vs)
        return zip(vs, zip(ys, nvs), cs, *_smoothed(cs, eps))


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

    z is one m x r matrix or a stack (..., m, r) of them.  For z = v + t d with v an
    isometry and d tangent there, z^H z = 1 + t^2 d^H d has no eigenvalue below 1, so
    the Gram matrix is well conditioned; zero rows of z stay exactly zero.
    """
    gram = z.conj().swapaxes(-1, -2) @ z
    return z @ np.linalg.inv(np.linalg.cholesky(gram)).conj().swapaxes(-1, -2)


def _smoothed(c: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(sum sqrt(c + eps^2) - eps over the last axis, sqrt(c + eps^2)).

    The sum is taken as sum c / (sqrt(c + eps^2) + eps), which does not cancel for
    c << eps^2; the root is the gradient's scale.
    """
    root = np.sqrt(c + eps * eps)
    return (c / (root + eps)).sum(axis=-1), root


def _tangent(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of z, or of each of a stack (..., m, r), onto the tangent space of the
    isometries at v: z - v herm(v* z)."""
    vz = v.conj().T @ z
    return z - v @ ((vz + vz.conj().swapaxes(-1, -2)) / 2.0)


def entanglement_number_mixed(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> MixedResult:
    """Minimize the decomposition entanglement of rho over visited decompositions.

    Restart 0 evaluates the spectral decomposition itself (identity isometry),
    so the result never exceeds it.  While the bracket is open and the search has
    one support form (two qubits), the isometry of ``closed_form``, which attains the
    lower bound, is scored next as one evaluation with no descent; it needs a
    Hadamard block of k = 2^ceil(log2 r) rows, so it is skipped when m < k, as for
    rank 3 with m = 3.  Restart 1 descends from a seeded random
    r x r unitary padded with m - r zero rows, which get zero gradient and stay
    zero: an r-term search.  Later restarts descend from seeded random m x r
    isometries.  Each of the ``POLISH_ROUNDS`` descends again from the best
    isometry after a random kick of size ``KICK``, so rows left at zero can
    join in.  The loop ends once the best value is within ``STOP_AT`` of the
    search's lower bound (``MixedResult.lower_bound``): nothing can lower it
    further.  A pure state's bound is its value, so it stops after restart 0, and
    every other two-qubit state stops on the closed form.
    Results are deterministic for a fixed seed and restart count.

    ``converged`` reports that the best value met the lower bound within
    ``STOP_AT``, or stagnated over the trailing ``PATIENCE`` descents; only the
    first proves that the infimum was found.  A state whose lower bound exceeds
    ``STOP_AT``, or whose partial transpose has an eigenvalue below -``PPT_TOL``, is
    entangled and gets no certificate.
    """
    spectral = spectral_pure_decomposition(rho)
    r = len(spectral)
    search_m = min(r * r, max(16, 2 * r)) if opts.m is None else opts.m
    if search_m < r:
        raise DimensionMismatch(f"m={search_m} is below the rank {r}")
    search = _DecompositionSearch(rho, spectral)
    stop_at = search.lower + STOP_AT
    rng = np.random.default_rng(opts.seed)

    def gaussian(rows: int) -> np.ndarray:
        return rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))

    best_v = np.eye(search_m, r, dtype=complex)
    best_val = search.objective(best_v)[2]
    closed = search.closed_form(search_m) if best_val > stop_at else None
    if closed is not None:
        val = search.objective(closed)[2]
        if val < best_val:
            best_val, best_v = val, closed
    history = [best_val]

    for k in range(1, opts.restarts + POLISH_ROUNDS):
        if best_val <= stop_at:
            break
        if k < opts.restarts:
            live = r if k == 1 else search_m
            v0 = np.vstack([_qr_isometry(gaussian(live)),
                            np.zeros((search_m - live, r), dtype=complex)])
        else:  # polish: kick the best isometry
            v0 = _qr_isometry(best_v + KICK * gaussian(search_m))
        val, v = search.descend(v0, opts.max_iters, STOP_AT)
        if val < best_val:
            best_val, best_v = val, v
        history.append(best_val)

    converged = best_val <= stop_at or (
        len(history) > PATIENCE and history[-1 - PATIENCE] - history[-1] < STAGNATION_TOL)

    best = _decompose(rho, spectral, best_v)
    # the lower of the descent's score and the rebuilt decomposition's own score;
    # the two differ by rounding only, so value and witness agree to about 1e-15
    e = _pure_numbers(best.vectors, search.dims)
    value = min(best_val, float(best.weights.weights @ e))
    certified = not search.entangled and value <= SEP_THRESHOLD and \
        np.all(e <= CERT_SCALE * math.sqrt(SEP_THRESHOLD))
    return MixedResult(value=value, best=best, converged=converged,
                       evaluations=search.evaluations,
                       certificate=best if certified else None, lower_bound=search.lower)


def _is_ppt(rho: DensityState) -> bool:
    """True when no eigenvalue of the partial transpose of rho is below -``PPT_TOL``."""
    da, db = rho.factor_dims
    pt = rho.mat.reshape(da, db, da, db).swapaxes(1, 3).reshape(da * db, -1)
    return float(np.linalg.eigvalsh(pt)[0]) >= -PPT_TOL


def separability_certificate(
    rho: DensityState, opts: OptimizerOptions = OptimizerOptions()
) -> Optional[PureDecomposition]:
    """Decomposition witnessing separability, when the search finds one.

    Runs a full search and returns its ``certificate``: the best decomposition
    if its value is at most ``SEP_THRESHOLD`` and every vector in it has pure
    entanglement number at most CERT_SCALE * sqrt(SEP_THRESHOLD), on a state not
    shown entangled by the lower bound or the partial transpose.  Returning None
    proves nothing when neither shows it: the search may simply have missed a good
    decomposition.
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

