"""Replayable verification suite behind the ``verify-paper`` CLI command.

Each registered check recomputes a worked example or samples a property suite
and reports one row per assertion: expected value, computed value, tolerance,
and provenance ("closed-form" for exact constants, "derived" for values fixed
by an independent hand calculation, "property" for seeded random suites).
All randomness flows from the seed passed in, so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bipartite, contexts, measures, mixed, operators
from .errors import InvariantViolation
from .measures import ProbMeasure, ProductMeasure

SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class VerifyRow:
    check_id: str
    label: str
    expected: float
    computed: float
    tol: float
    source: str  # closed-form | derived | property
    passed: bool


def _row(check_id: str, label: str, expected: float, computed: float, tol: float,
         source: str) -> VerifyRow:
    return VerifyRow(
        check_id=check_id,
        label=label,
        expected=float(expected),
        computed=float(computed),
        tol=float(tol),
        source=source,
        passed=bool(abs(float(computed) - float(expected)) <= float(tol)),
    )


def _bound_row(check_id: str, label: str, bound: float, computed: float,
               source: str) -> VerifyRow:
    """Row asserting ``computed <= bound`` (expected column shows the bound)."""
    return VerifyRow(
        check_id=check_id,
        label=label,
        expected=float(bound),
        computed=float(computed),
        tol=float(bound),
        source=source,
        passed=bool(float(computed) <= float(bound)),
    )


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def _check_example1(seed: int) -> list[VerifyRow]:
    cases = [
        ("e(1/2, 1/2)", [0.5, 0.5], SQRT_HALF),
        ("e(1/3, 1/3, 1/3)", [1 / 3, 1 / 3, 1 / 3], math.sqrt(2 / 3)),
        ("e(1/2, 1/3, 1/6)", [0.5, 1 / 3, 1 / 6], math.sqrt(11 / 18)),
        ("e(1/9, 1/9, 7/9)", [1 / 9, 1 / 9, 7 / 9], math.sqrt(30) / 9),
    ]
    rows = []
    for label, w, expect in cases:
        u = ProbMeasure(np.array(w))
        rows.append(_row("example1", label, expect, measures.entanglement_number(u),
                         1e-12, "closed-form"))
    rows.append(_row("example1", "index of (1/2, 1/2)", 2,
                     measures.entanglement_index(ProbMeasure(np.array([0.5, 0.5]))),
                     0, "closed-form"))
    rows.append(_row("example1", "uniform pair attains bound", measures.max_entanglement_bound(2),
                     measures.entanglement_number(ProbMeasure(np.array([0.5, 0.5]))),
                     1e-12, "closed-form"))
    return rows


def _check_example2(seed: int) -> list[VerifyRow]:
    ua = ProductMeasure(np.array([[0.5, 0.5]]))
    ub = ProductMeasure(np.array([[1 / 3, 1 / 3], [0.0, 1 / 3]]))
    return [
        _row("example2", "one-row product measure factorized", 1.0,
             float(measures.is_factorized(ua)), 0, "closed-form"),
        _row("example2", "e of factorized case", SQRT_HALF,
             measures.product_entanglement_number(ua), 1e-12, "closed-form"),
        _row("example2", "triangular measure entangled", 0.0,
             float(measures.is_factorized(ub)), 0, "closed-form"),
        _row("example2", "e of entangled case", math.sqrt(2 / 3),
             measures.product_entanglement_number(ub), 1e-12, "closed-form"),
    ]


def _apply_residual(a: complex, b: complex, pair) -> float:
    """Worst application residual ||R v - lam v|| over the returned eigenpairs."""
    r = np.array([[0, a], [b, 0]], dtype=complex)
    worst = 0.0
    for lam, vec in pair:
        worst = max(worst, float(np.linalg.norm(r @ vec - lam * vec)))
    return worst


def _check_example3(seed: int) -> list[VerifyRow]:
    ctx = contexts.standard_context(2)
    rows = []
    pair = contexts.dim2_residual_eigen(1.0, 1.0, ctx)
    rows.append(_row("example3", "a=b=1 eigenvalues +-1", 1.0, abs(pair[0][0]), 1e-12,
                     "closed-form"))
    rows.append(_row("example3", "a=b=1 application residual", 0.0,
                     _apply_residual(1.0, 1.0, pair), 1e-10, "closed-form"))
    rows.append(_row("example3", "a=1, b=2 not normal (absent)", 1.0,
                     float(contexts.dim2_residual_eigen(1.0, 2.0, ctx) is None),
                     0, "closed-form"))
    pair = contexts.dim2_residual_eigen(1j, -1j, ctx)
    rows.append(_row("example3", "a=i, b=-i eigenvalue", 1.0, pair[0][0].real, 1e-12,
                     "derived"))
    rows.append(_row("example3", "a=i, b=-i application residual", 0.0,
                     _apply_residual(1j, -1j, pair), 1e-10, "derived"))
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(50):
        theta, phi = rng.uniform(-math.pi, math.pi, size=2)
        r = rng.uniform(0.1, 3.0)
        a = r * np.exp(1j * theta)
        b = r * np.exp(1j * phi)
        worst = max(worst, _apply_residual(a, b, contexts.dim2_residual_eigen(a, b, ctx)))
    rows.append(_row("example3", "random |a|=|b| application residual (50 draws)", 0.0,
                     worst, 1e-10, "property"))
    return rows


def _check_example4(seed: int) -> list[VerifyRow]:
    rows = []
    for n in range(2, 7):
        r = np.ones((n, n)) - np.eye(n)
        worst = 0.0
        for lam, vec in contexts.offdiag_uniform_spectrum(n):
            worst = max(worst, float(np.linalg.norm(r @ vec - lam * vec)))
        rows.append(_row("example4", f"n={n} explicit eigenvector residual", 0.0, worst,
                         1e-10, "closed-form"))
    return rows


def _check_example5(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 5)
    worst_eig = 0.0
    worst_norm = 0.0
    worst_apply = 0.0
    for _ in range(20):
        lam1 = rng.uniform(0.0, 1.0)
        lam2 = 1.0 - lam1
        e = bipartite.Entanglement(
            ProbMeasure(np.array([lam1, lam2])),
            contexts.random_context(2, rng),
            contexts.random_context(2, rng),
        )
        b = bipartite.entanglement_operator(e)
        g = math.sqrt(lam1 * lam2)
        eigs = np.sort(np.linalg.eigvalsh(b.mat))
        expect = np.sort(np.array([0.0, 0.0, g, -g]))
        worst_eig = max(worst_eig, float(np.max(np.abs(eigs - expect))))
        worst_norm = max(worst_norm, abs(operators.hs_norm(b) - math.sqrt(2.0) * g))
        for lam, vec in bipartite.dim2_entanglement_spectrum(lam1, lam2):
            bm = bipartite.entanglement_operator(
                bipartite.Entanglement(
                    ProbMeasure(np.array([lam1, lam2])),
                    contexts.standard_context(2),
                    contexts.standard_context(2),
                )
            ).mat
            worst_apply = max(worst_apply, float(np.linalg.norm(bm @ vec - lam * vec)))
    return [
        _row("example5", "eigenvalues {0, 0, +-sqrt(l1 l2)} (20 draws)", 0.0, worst_eig,
             1e-10, "property"),
        _row("example5", "norm equals sqrt(2 l1 l2) (20 draws)", 0.0, worst_norm,
             1e-10, "property"),
        _row("example5", "closed-form eigenvectors apply (20 draws)", 0.0, worst_apply,
             1e-10, "closed-form"),
    ]


def _check_example6(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 6)
    ca = contexts.random_context(3, rng)
    cb = contexts.random_context(3, rng)
    cases = [
        ("equal pair", [0.5, 0.5], SQRT_HALF),
        ("uniform triple", [1 / 3, 1 / 3, 1 / 3], math.sqrt(2 / 3)),
        ("(1/2, 1/3, 1/6)", [0.5, 1 / 3, 1 / 6], math.sqrt(11 / 18)),
        ("(1/9, 1/9, 7/9)", [1 / 9, 1 / 9, 7 / 9], math.sqrt(30) / 9),
    ]
    rows = []
    values = {}
    for label, w, expect in cases:
        e = bipartite.Entanglement(ProbMeasure(np.array(w)), ca, cb)
        psi = bipartite.psi_from_entanglement(e)
        got = bipartite.pure_entanglement_number(psi)
        values[label] = got
        rows.append(_row("example6", f"e of {label}", expect, got, 1e-12, "closed-form"))
    ordering = (
        values["(1/9, 1/9, 7/9)"] < values["equal pair"]
        < values["(1/2, 1/3, 1/6)"] < values["uniform triple"]
    )
    rows.append(_row("example6", "entanglement ordering", 1.0, float(ordering), 0,
                     "closed-form"))
    return rows


def _check_example7(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 7)
    rows = []
    for n in (2, 3):
        ctx = contexts.random_context(n, rng)
        sa = bipartite.symmetric_antisymmetric_basis(ctx)
        rows.append(_row("example7", f"n={n} doubled-space basis size", n * n, sa.dim, 0,
                         "closed-form"))
        e_vals = bipartite._pure_numbers(sa.matrix, (n, n))
        worst_diag = max(abs(v) for v in e_vals[:n])
        worst_pair = max(abs(v - SQRT_HALF) for v in e_vals[n:]) if n > 1 else 0.0
        rows.append(_row("example7", f"n={n} diagonal vectors factorized", 0.0, worst_diag,
                         1e-10, "closed-form"))
        rows.append(_row("example7", f"n={n} paired vectors e = 1/sqrt(2)", 0.0, worst_pair,
                         1e-10, "closed-form"))
    # plus/minus split of the pair projectors into separable part +- coupling
    ctx = contexts.random_context(2, rng)
    perm_a = contexts.context_from_rows(ctx.matrix)
    perm_b = contexts.context_from_rows(ctx.matrix[::-1])
    e = bipartite.Entanglement(ProbMeasure(np.array([0.5, 0.5])), perm_a, perm_b)
    a_part = bipartite.separable_state(e).mat
    b_part = bipartite.entanglement_operator(e).mat
    plus = (np.kron(ctx.vector(0), ctx.vector(1)) + np.kron(ctx.vector(1), ctx.vector(0)))
    plus /= math.sqrt(2.0)
    minus = (np.kron(ctx.vector(0), ctx.vector(1)) - np.kron(ctx.vector(1), ctx.vector(0)))
    minus /= math.sqrt(2.0)
    dev_plus = float(np.max(np.abs(np.outer(plus, plus.conj()) - (a_part + b_part))))
    dev_minus = float(np.max(np.abs(np.outer(minus, minus.conj()) - (a_part - b_part))))
    rows.append(_row("example7", "symmetric pair = separable + coupling", 0.0, dev_plus,
                     1e-10, "closed-form"))
    rows.append(_row("example7", "antisymmetric pair = separable - coupling", 0.0, dev_minus,
                     1e-10, "closed-form"))
    return rows


def _check_example8(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 8)
    rows = []
    for n in range(2, 6):
        e = bipartite.maximally_entangled(
            n, contexts.random_context(n, rng), contexts.random_context(n, rng)
        )
        b = bipartite.entanglement_operator(e)
        eigs = np.sort(np.linalg.eigvalsh(b.mat))
        expect = np.sort(np.array([1.0 - 1.0 / n] + [-1.0 / n] * (n - 1)
                                  + [0.0] * (n * n - n)))
        rows.append(_row("example8", f"n={n} coupling spectrum", 0.0,
                         float(np.max(np.abs(eigs - expect))), 1e-9, "closed-form"))
        psi = bipartite.psi_from_entanglement(e)
        rows.append(_row("example8", f"n={n} e = sqrt((n-1)/n)", math.sqrt((n - 1) / n),
                         bipartite.pure_entanglement_number(psi), 1e-9, "closed-form"))
        top = np.linalg.eigh(b.mat)[1][:, -1]
        overlap = abs(np.vdot(top, psi.vector))
        rows.append(_row("example8", f"n={n} top eigenvector is the state", 1.0, overlap,
                         1e-9, "closed-form"))
    return rows


def _check_example9(seed: int, restarts: int = 80) -> list[VerifyRow]:
    rho, spectral = mixed.separable_with_entangled_spectrum()
    eigs = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    rows = [
        _row("example9", "eigenvalues (3/4, 1/4, 0, 0)", 0.0,
             float(np.max(np.abs(eigs - np.array([0.75, 0.25, 0.0, 0.0])))), 1e-10,
             "closed-form"),
        _row("example9", "spectral decomposition score 1/(2 sqrt 2)", 1 / (2 * math.sqrt(2)),
             mixed.decomposition_entanglement(rho, spectral), 1e-9, "derived"),
    ]
    opts = mixed.OptimizerOptions(restarts=restarts, seed=seed)
    result = mixed.entanglement_number_mixed(rho, opts)
    rows.append(_bound_row("example9", "optimized value <= 1e-3", 1e-3, result.value,
                           "property"))
    cert = result.certificate
    rows.append(_row("example9", "separability certificate found", 1.0,
                     float(cert is not None), 0, "property"))
    if cert is not None:
        worst = float(np.max(bipartite._pure_numbers(cert.vectors, (2, 2))))
        rows.append(_bound_row("example9", "certificate vectors e <= 0.05", 0.05, worst,
                               "property"))
    return rows


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def _random_measure(rng: np.random.Generator, n: int) -> ProbMeasure:
    return ProbMeasure(rng.dirichlet(np.ones(n)))


def _check_thm11(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 11)
    point_max = 0.0
    bound_violation = -1.0
    uniform_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        point = np.zeros(n)
        point[rng.integers(0, n)] = 1.0
        point_max = max(point_max, measures.entanglement_number(ProbMeasure(point)))
        u = _random_measure(rng, n)
        bound = measures.max_entanglement_bound(measures.entanglement_index(u))
        bound_violation = max(bound_violation,
                              measures.entanglement_number(u) - bound)
        k = int(rng.integers(1, 8))
        uniform = ProbMeasure(np.full(k, 1.0 / k))
        uniform_gap = max(uniform_gap,
                          abs(measures.entanglement_number(uniform)
                              - measures.max_entanglement_bound(k)))
    return [
        _row("thm11", "point measures score zero (200 draws)", 0.0, point_max, 1e-12,
             "property"),
        _bound_row("thm11", "e <= sqrt((n-1)/n) (200 draws)", 1e-12, bound_violation,
                   "property"),
        _row("thm11", "uniform measures attain the bound (200 draws)", 0.0, uniform_gap,
             1e-12, "property"),
    ]


def _check_thm12(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 12)
    worst = math.inf
    strict_worst = math.inf
    strict_count = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        u = _random_measure(rng, n)
        v = _random_measure(rng, int(rng.integers(1, 7)))
        lam = float(rng.uniform(0.0, 1.0))
        mix = measures.mixture(u, v, lam)
        margin = (measures.entanglement_number(mix)
                  - lam * measures.entanglement_number(u)
                  - (1.0 - lam) * measures.entanglement_number(v))
        worst = min(worst, margin)
        nu = np.zeros(max(len(u), len(v)))
        nv = nu.copy()
        nu[: len(u)] = u.weights
        nv[: len(v)] = v.weights
        if 0.2 <= lam <= 0.8 and float(np.linalg.norm(nu - nv)) >= 0.1:
            strict_worst = min(strict_worst, margin)
            strict_count += 1
    return [
        _bound_row("thm12", "concavity margin >= -1e-12 (1000 draws)", 1e-12, -worst,
                   "property"),
        _row("thm12", "strict cases sampled (count > 100)", 1.0,
             float(strict_count > 100), 0, "property"),
        _row("thm12", "strict concavity margin >= 1e-6", 1.0,
             float(strict_worst >= 1e-6), 0, "property"),
    ]


def _check_thm21(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 21)
    worst_formula = 0.0
    worst_schwarz = -1.0
    worst_witness = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        rho = operators.random_density(dim, rng)
        a = operators.random_operator(dim, rng)
        v1 = operators.variance(rho, a)
        mean = operators.expectation(rho, a)
        shifted = a.mat - mean * np.eye(dim)
        v2 = float(np.real(np.trace(rho.mat @ (shifted.conj().T @ shifted))))
        worst_formula = max(worst_formula, abs(v1 - v2))
        second = float(np.real(np.trace(rho.mat @ (a.mat.conj().T @ a.mat))))
        worst_schwarz = max(worst_schwarz, abs(mean) ** 2 - second)
        # eigenvector pure states must witness with the eigenvalue
        h = operators.random_operator(dim, rng)
        herm = operators.Operator((h.mat + h.mat.conj().T) / 2)
        w, vecs = operators.hermitian_eigen(herm)
        phi = operators.VectorState(vecs[:, 0])
        c = operators.variance_zero_witness(operators.pure_state(phi), herm)
        worst_witness = max(worst_witness, abs(c - w[0]))
    return [
        _row("thm21", "variance formulas agree (100 draws)", 0.0, worst_formula, 1e-10,
             "property"),
        _bound_row("thm21", "|E(A)|^2 <= E(|A|^2) (100 draws)", 1e-12, worst_schwarz,
                   "property"),
        _row("thm21", "eigenvector witness returns eigenvalue (100 draws)", 0.0,
             worst_witness, 1e-7, "property"),
    ]


def _check_thm23(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 23)
    rows = []
    for dim in range(2, 7):
        worst = 0.0
        for _ in range(100):
            a = operators.random_operator(dim, rng)
            ctx = contexts.random_context(dim, rng)
            dev = abs(operators.hs_norm(contexts.residual_map(a, ctx))
                      - contexts.context_coefficient(a, ctx))
            worst = max(worst, dev)
        rows.append(_row("thm23", f"residual norm = context coefficient, dim {dim} (100 draws)",
                         0.0, worst, 1e-9, "property"))
    return rows


def _check_thm24(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 24)
    rows = []
    for n in range(2, 9):
        ctx = contexts.random_context(n, rng)
        op = contexts.offdiag_uniform(ctx, 1.0)
        eigs = np.sort(np.linalg.eigvalsh(op.mat))
        expect = np.sort(np.array([n - 1.0] + [-1.0] * (n - 1)))
        rows.append(_row("thm24", f"n={n} spectrum {{n-1, -1 x (n-1)}}", 0.0,
                         float(np.max(np.abs(eigs - expect))), 1e-9, "property"))
    return rows


def _check_thm32(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 32)
    worst_triple = 0.0
    worst_split = 0.0
    for k in range(100):
        n = int(rng.integers(2, 6))
        e = bipartite.random_entanglement(n, rng)
        triple = bipartite.verify_entanglement_triple(e)
        worst_triple = max(
            worst_triple,
            abs(triple.context_coeff - triple.operator_norm),
            abs(triple.operator_norm - triple.measure_number),
            abs(triple.context_coeff - triple.measure_number),
        )
        if k < 20:
            psi = bipartite.psi_from_entanglement(e)
            p = np.outer(psi.vector, psi.vector.conj())
            d = bipartite.product_context(e.ctx_a, e.ctx_b)
            rho_part = contexts.context_map(operators.Operator(p), d).mat
            b_part = contexts.residual_map(operators.Operator(p), d).mat
            worst_split = max(
                worst_split,
                float(np.max(np.abs(rho_part - bipartite.separable_state(e).mat))),
                float(np.max(np.abs(b_part - bipartite.entanglement_operator(e).mat))),
            )
    return [
        _row("thm32", "triple equality, dims 2-5 (100 draws)", 0.0, worst_triple, 1e-9,
             "property"),
        _row("thm32", "diagonal/off-diagonal split matches (20 draws)", 0.0, worst_split,
             1e-10, "property"),
    ]


def _check_thm33(seed: int) -> list[VerifyRow]:
    rng = np.random.default_rng(seed + 33)
    # separable by construction: mixture of two random product projectors
    va = np.kron(operators.random_vector_state(2, rng).vec,
                 operators.random_vector_state(2, rng).vec)
    vb = np.kron(operators.random_vector_state(2, rng).vec,
                 operators.random_vector_state(2, rng).vec)
    w = float(rng.uniform(0.25, 0.75))
    rho = operators.DensityState(
        w * np.outer(va, va.conj()) + (1 - w) * np.outer(vb, vb.conj()),
        factor_dims=(2, 2),
    )
    opts = mixed.OptimizerOptions(restarts=60, seed=seed)
    result = mixed.entanglement_number_mixed(rho, opts)
    cert = result.certificate
    rows = [
        _bound_row("thm33", "random separable state drives value <= 1e-3", 1e-3,
                   result.value, "property"),
        _row("thm33", "random separable state certifies", 1.0, float(cert is not None),
             0, "property"),
    ]
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = SQRT_HALF
    pure = operators.DensityState(np.outer(bell, bell.conj()), factor_dims=(2, 2))
    bell_opts = mixed.OptimizerOptions(restarts=200, seed=seed)
    bell_result = mixed.entanglement_number_mixed(pure, bell_opts)
    rows.append(_row("thm33", "maximally entangled pure state stays at 1/sqrt(2)",
                     SQRT_HALF, bell_result.value, 1e-6, "closed-form"))
    rows.append(_row("thm33", "no spurious certificate for the pure state", 1.0,
                     float(bell_result.certificate is None), 0, "property"))
    return rows


CHECKS: dict[str, Callable[[int], list[VerifyRow]]] = {
    "example1": _check_example1,
    "example2": _check_example2,
    "example3": _check_example3,
    "example4": _check_example4,
    "example5": _check_example5,
    "example6": _check_example6,
    "example7": _check_example7,
    "example8": _check_example8,
    "example9": _check_example9,
    "thm11": _check_thm11,
    "thm12": _check_thm12,
    "thm21": _check_thm21,
    "thm23": _check_thm23,
    "thm24": _check_thm24,
    "thm32": _check_thm32,
    "thm33": _check_thm33,
}


def run_checks(only: list[str] | None = None, seed: int = 0) -> list[VerifyRow]:
    ids = list(CHECKS) if not only else list(only)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise InvariantViolation(f"unknown check ids: {', '.join(unknown)}")
    rows: list[VerifyRow] = []
    for check_id in ids:
        rows.extend(CHECKS[check_id](seed))
    return rows


def render_table(rows: list[VerifyRow]) -> str:
    header = f"{'id':<10} {'assertion':<56} {'expected':>22} {'computed':>22} {'tol':>9} {'src':<11} status"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.check_id:<10} {r.label:<56} {r.expected:>22.16g} {r.computed:>22.16g} "
            f"{r.tol:>9.0e} {r.source:<11} {'PASS' if r.passed else 'FAIL'}"
        )
    n_pass = sum(r.passed for r in rows)
    lines.append(f"{n_pass}/{len(rows)} assertions passed")
    return "\n".join(lines)
