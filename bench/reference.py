"""Reference values computed in plain numpy, apart from entnum.

Every check the benchmark makes compares entnum's output with one of these.
None of them imports entnum or follows entnum's route to the number:

- pure states use the reduced state rho_A = C C* of the coefficient matrix C,
  not a Schmidt/SVD kernel;
- two-qubit mixed states use Wootters' concurrence (PRL 80, 2245 (1998));
  e = C/sqrt(2) because e(psi) = sqrt(2 lam1 lam2) = C(psi)/sqrt(2);
- other mixed states are bracketed by the partial-transpose and realignment
  lower bounds (Chen, Albeverio, Fei, PRL 95, 040504 (2005)) and the
  spectral-decomposition upper bound;
- the context coefficient is the Frobenius norm of the off-diagonal part of
  Phi* A Phi, not the residual-vector sum entnum evaluates.
"""

from __future__ import annotations

import math

import numpy as np

# e of each certificate vector may be at most CERT_SCALE * sqrt(SEP_THRESHOLD)
SEP_THRESHOLD = 1e-3
CERT_SCALE = 1.5
# eigenvalue gap below which the spectral decomposition is not unique
DEGENERACY_GAP = 1e-8


def _minors_sq(c: np.ndarray) -> float:
    """Sum of |2x2 minors|^2 of c, which is e_2 of the spectrum of c c*."""
    i, j = np.triu_indices(c.shape[0], k=1)
    k, l = np.triu_indices(c.shape[1], k=1)
    m = (c[i][:, k] * c[j][:, l]) - (c[i][:, l] * c[j][:, k])
    return float(np.sum(np.abs(m) ** 2))


def pure_e(vec: np.ndarray, da: int, db: int) -> float:
    """e(psi) = sqrt(1 - tr rho_A^2) for a bipartite vector (normalized here).

    1 - tr rho_A^2 = 2 e_2(rho_A), and by Cauchy-Binet e_2(C C*) is the sum of
    the squared 2x2 minors of C.  That form has no cancellation, so product
    states give 0 to rounding rather than sqrt(eps).
    """
    c = np.asarray(vec, dtype=complex).reshape(da, db)
    norm2 = float(np.sum(np.abs(c) ** 2))
    return math.sqrt(2.0 * _minors_sq(c)) / norm2


def pure_e_trace_form(vec: np.ndarray, da: int, db: int) -> float:
    """sqrt(1 - tr rho_A^2) literally, from the partial trace over B."""
    c = np.asarray(vec, dtype=complex).reshape(da, db)
    c = c / np.linalg.norm(c)
    rho_a = c @ c.conj().T
    return math.sqrt(max(1.0 - float(np.real(np.trace(rho_a @ rho_a))), 0.0))


def schmidt_weights(vec: np.ndarray, da: int, db: int) -> np.ndarray:
    """Eigenvalues of rho_A, descending, zero-padded to max(da, db) entries."""
    c = np.asarray(vec, dtype=complex).reshape(da, db)
    c = c / np.linalg.norm(c)
    small = c @ c.conj().T if da <= db else c.conj().T @ c
    w = np.clip(np.linalg.eigvalsh(small), 0.0, None)[::-1]
    return np.concatenate([w, np.zeros(max(da, db) - w.size)])


def measure_e(u: np.ndarray) -> float:
    """e(u) = sqrt(1 - sum u_i^2) of a probability vector or table."""
    u = np.asarray(u, dtype=float)
    return math.sqrt(max(1.0 - float(np.sum(u * u)), 0.0))


def is_factorized(u: np.ndarray, tol: float) -> bool:
    """u equals the outer product of its marginals entrywise within tol."""
    u = np.asarray(u, dtype=float)
    return bool(np.max(np.abs(u - np.outer(u.sum(axis=1), u.sum(axis=0)))) <= tol)


def context_offdiag_norm(a: np.ndarray, rows: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of Phi* A Phi.

    ``rows`` holds the context's basis vectors as rows, so Phi = rows.T.
    """
    phi = np.asarray(rows, dtype=complex).T
    m = phi.conj().T @ np.asarray(a, dtype=complex) @ phi
    off = m - np.diag(np.diag(m))
    return float(np.linalg.norm(off))


def wootters_e(rho: np.ndarray) -> float:
    """Exact mixed entanglement number of a two-qubit state: concurrence / sqrt(2)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"Wootters' formula needs a 4x4 state, got {rho.shape}")
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    # the eigenvalues of R = sqrt(sqrt(rho) rho~ sqrt(rho)) are the square
    # roots of the (real, nonnegative) eigenvalues of rho rho~
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    flipped = yy @ rho.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])) / math.sqrt(2.0)


def partial_transpose(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    """rho^{T_A}: transpose on the first factor."""
    t = np.asarray(rho, dtype=complex).reshape(da, db, da, db)
    return t.transpose(2, 1, 0, 3).reshape(da * db, da * db)


def realign(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    """Realigned matrix R(rho) with R[(i k), (j l)] = rho[(i j), (k l)]."""
    t = np.asarray(rho, dtype=complex).reshape(da, db, da, db)
    return t.transpose(0, 2, 1, 3).reshape(da * da, db * db)


def _bound_scale(da: int, db: int) -> float:
    d = min(da, db)
    return 1.0 / math.sqrt(d * (d - 1))


def ppt_lower_bound(rho: np.ndarray, da: int, db: int) -> float:
    """e(rho) >= (||rho^{T_A}||_1 - 1) / sqrt(d (d - 1)), d = min(da, db)."""
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho, da, db)))))
    return (trace_norm - 1.0) * _bound_scale(da, db)


def realignment_lower_bound(rho: np.ndarray, da: int, db: int) -> float:
    """e(rho) >= (||R(rho)||_1 - 1) / sqrt(d (d - 1)), d = min(da, db)."""
    trace_norm = float(np.sum(np.linalg.svd(realign(rho, da, db), compute_uv=False)))
    return (trace_norm - 1.0) * _bound_scale(da, db)


def lower_bound(rho: np.ndarray, da: int, db: int) -> float:
    """Best certified lower bound on e(rho); never below 0."""
    return max(0.0, ppt_lower_bound(rho, da, db), realignment_lower_bound(rho, da, db))


def spectral_upper_bound(rho: np.ndarray, da: int, db: int) -> tuple[float, bool]:
    """Score of the spectral decomposition, and whether that decomposition is unique.

    When two nonzero eigenvalues coincide the eigenbasis is a free choice, so
    the score of entnum's spectral decomposition may differ from this one.
    """
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    value = sum(float(mu) * pure_e(v[:, k], da, db) for k, mu in enumerate(w))
    unique = bool(w.size < 2 or np.min(np.diff(np.sort(w))) > DEGENERACY_GAP)
    return value / float(np.sum(w)), unique


def certificate_problems(cert: dict, rho: np.ndarray, da: int, db: int) -> list[str]:
    """Why a certificate read with plain ``json`` fails to witness separability.

    A certificate is ``{"weights": [...], "vectors": [[[re, im], ...], ...]}``.
    It passes when it reconstructs rho within 1e-9, its weights sum to 1, and
    every vector has e <= CERT_SCALE * sqrt(SEP_THRESHOLD).  Returns [] if so.
    """
    weights = np.array(cert["weights"], dtype=float)
    pairs = np.array(cert["vectors"], dtype=float)
    vectors = pairs[..., 0] + 1j * pairs[..., 1]
    problems = []
    if weights.ndim != 1 or vectors.shape != (weights.size, da * db):
        return [f"certificate shapes {weights.shape} / {vectors.shape} do not fit {da}x{db}"]
    if abs(float(weights.sum()) - 1.0) > 1e-12 or np.min(weights) < 0.0:
        problems.append(f"weights sum to {weights.sum():.17g}")
    norms = np.linalg.norm(vectors, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-10:
        problems.append("vectors are not unit norm")
    recon = np.einsum("i,ia,ib->ab", weights, vectors, vectors.conj())
    err = float(np.linalg.norm(recon - rho))
    if err > 1e-9:
        problems.append(f"reconstructs rho with error {err:.3e} > 1e-9")
    worst = max(pure_e(vec, da, db) for vec in vectors)
    limit = CERT_SCALE * math.sqrt(SEP_THRESHOLD)
    if worst > limit:
        problems.append(f"a certificate vector has e = {worst:.3e} > {limit:.3e}")
    return problems
