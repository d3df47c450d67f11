"""Replayable verification suite behind the ``verify-paper`` CLI command.

Each registered check recomputes a worked example or samples a property suite
and reports one row per assertion: expected value, computed value, tolerance,
and provenance ("closed-form" for exact constants, "derived" for values fixed
by an independent hand calculation, "property" for seeded random suites).
All randomness flows from the seed passed in, so reports are reproducible
byte for byte.

The property suites thm11, thm12, thm23 and thm32 take their draws in seed
order, the same samples the per-draw public generators would give, and then
score them as stacks: one call per suite or per dimension into the library's
own kernels (``measures._e_kernel``, ``contexts._residuals``, ...), each of
which rounds every slice of a stack as the public per-value function rounds
that slice alone.  Their rows are therefore the rows of a per-draw loop, bit
for bit, and the report stays byte-identical.  thm21 stays per draw: the
deterministic order of ``operators.hermitian_eigen`` (behind ``psd_sqrt``) is
fixed cluster by cluster, and ``operators.variance`` rounds |tr(rho A)| with
Python's ``abs``, which numpy's array absolute does not match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

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


# (label, expected, computed, tol, source, passed): a VerifyRow before its check id
_Row = tuple[str, float, float, float, str, bool]

CHECKS: dict[str, Callable[[int], list[VerifyRow]]] = {}


def _check(gen: Callable[[int], Iterator[_Row]]) -> Callable[[int], list[VerifyRow]]:
    """Register ``_check_<id>`` in ``CHECKS`` under <id>, stamping <id> onto the rows it yields.

    ``CHECKS`` keeps definition order, which is the order of the report table.
    """
    check_id = gen.__name__.removeprefix("_check_")

    def check(seed: int) -> list[VerifyRow]:
        return [VerifyRow(check_id, *row) for row in gen(seed)]

    CHECKS[check_id] = check
    return check


def _row(label: str, expected: float, computed: float, tol: float, source: str) -> _Row:
    """Row asserting ``|computed - expected| <= tol``."""
    expected, computed, tol = float(expected), float(computed), float(tol)
    return label, expected, computed, tol, source, abs(computed - expected) <= tol


def _bound_row(label: str, bound: float, computed: float, source: str) -> _Row:
    """Row asserting ``computed <= bound`` (expected column shows the bound)."""
    bound, computed = float(bound), float(computed)
    return label, bound, computed, bound, source, computed <= bound


def _worst_residual(r: np.ndarray, pairs) -> float:
    """Worst ||R v - lam v|| over the eigenpairs (lam, v)."""
    return max((float(np.linalg.norm(r @ vec - lam * vec)) for lam, vec in pairs), default=0.0)


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

@_check
def _check_example1(seed: int) -> Iterator[_Row]:
    cases = [
        ("e(1/2, 1/2)", [0.5, 0.5], SQRT_HALF),
        ("e(1/3, 1/3, 1/3)", [1 / 3, 1 / 3, 1 / 3], math.sqrt(2 / 3)),
        ("e(1/2, 1/3, 1/6)", [0.5, 1 / 3, 1 / 6], math.sqrt(11 / 18)),
        ("e(1/9, 1/9, 7/9)", [1 / 9, 1 / 9, 7 / 9], math.sqrt(30) / 9),
    ]
    for label, w, expect in cases:
        u = ProbMeasure(np.array(w))
        yield _row(label, expect, measures.entanglement_number(u), 1e-12, "closed-form")
    pair = ProbMeasure(np.array([0.5, 0.5]))
    yield _row("index of (1/2, 1/2)", 2, measures.entanglement_index(pair), 0, "closed-form")
    yield _row("uniform pair attains bound", measures.max_entanglement_bound(2),
               measures.entanglement_number(pair), 1e-12, "closed-form")


@_check
def _check_example2(seed: int) -> Iterator[_Row]:
    ua = ProductMeasure(np.array([[0.5, 0.5]]))
    ub = ProductMeasure(np.array([[1 / 3, 1 / 3], [0.0, 1 / 3]]))
    yield _row("one-row product measure factorized", 1.0, float(measures.is_factorized(ua)),
               0, "closed-form")
    yield _row("e of factorized case", SQRT_HALF, measures.product_entanglement_number(ua),
               1e-12, "closed-form")
    yield _row("triangular measure entangled", 0.0, float(measures.is_factorized(ub)), 0,
               "closed-form")
    yield _row("e of entangled case", math.sqrt(2 / 3), measures.product_entanglement_number(ub),
               1e-12, "closed-form")


@_check
def _check_example3(seed: int) -> Iterator[_Row]:
    ctx = contexts.standard_context(2)

    def residual(a: complex, b: complex, pair) -> float:
        return _worst_residual(np.array([[0, a], [b, 0]], dtype=complex), pair)

    pair = contexts.dim2_residual_eigen(1.0, 1.0, ctx)
    yield _row("a=b=1 eigenvalues +-1", 1.0, abs(pair[0][0]), 1e-12, "closed-form")
    yield _row("a=b=1 application residual", 0.0, residual(1.0, 1.0, pair), 1e-10,
               "closed-form")
    yield _row("a=1, b=2 not normal (absent)", 1.0,
               float(contexts.dim2_residual_eigen(1.0, 2.0, ctx) is None), 0, "closed-form")
    pair = contexts.dim2_residual_eigen(1j, -1j, ctx)
    yield _row("a=i, b=-i eigenvalue", 1.0, pair[0][0].real, 1e-12, "derived")
    yield _row("a=i, b=-i application residual", 0.0, residual(1j, -1j, pair), 1e-10,
               "derived")
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(50):
        theta, phi = rng.uniform(-math.pi, math.pi, size=2)
        r = rng.uniform(0.1, 3.0)
        a = r * np.exp(1j * theta)
        b = r * np.exp(1j * phi)
        worst = max(worst, residual(a, b, contexts.dim2_residual_eigen(a, b, ctx)))
    yield _row("random |a|=|b| application residual (50 draws)", 0.0, worst, 1e-10,
               "property")


@_check
def _check_example4(seed: int) -> Iterator[_Row]:
    for n in range(2, 7):
        worst = _worst_residual(np.ones((n, n)) - np.eye(n), contexts.offdiag_uniform_spectrum(n))
        yield _row(f"n={n} explicit eigenvector residual", 0.0, worst, 1e-10, "closed-form")


@_check
def _check_example5(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 5)
    standard = contexts.standard_context(2)
    worst_eig = 0.0
    worst_norm = 0.0
    worst_apply = 0.0
    for _ in range(20):
        lam1 = rng.uniform(0.0, 1.0)
        lam2 = 1.0 - lam1
        lam = ProbMeasure(np.array([lam1, lam2]))
        e = bipartite.Entanglement(
            lam, contexts.random_context(2, rng), contexts.random_context(2, rng)
        )
        b = bipartite.entanglement_operator(e)
        g = math.sqrt(lam1 * lam2)
        eigs = np.sort(np.linalg.eigvalsh(b.mat))
        expect = np.sort(np.array([0.0, 0.0, g, -g]))
        worst_eig = max(worst_eig, float(np.max(np.abs(eigs - expect))))
        worst_norm = max(worst_norm, abs(operators.hs_norm(b) - math.sqrt(2.0) * g))
        bm = bipartite.entanglement_operator(bipartite.Entanglement(lam, standard, standard))
        worst_apply = max(worst_apply, _worst_residual(
            bm.mat, bipartite.dim2_entanglement_spectrum(lam1, lam2)))
    yield _row("eigenvalues {0, 0, +-sqrt(l1 l2)} (20 draws)", 0.0, worst_eig, 1e-10,
               "property")
    yield _row("norm equals sqrt(2 l1 l2) (20 draws)", 0.0, worst_norm, 1e-10, "property")
    yield _row("closed-form eigenvectors apply (20 draws)", 0.0, worst_apply, 1e-10,
               "closed-form")


@_check
def _check_example6(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 6)
    ca = contexts.random_context(3, rng)
    cb = contexts.random_context(3, rng)
    cases = [
        ("equal pair", [0.5, 0.5], SQRT_HALF),
        ("uniform triple", [1 / 3, 1 / 3, 1 / 3], math.sqrt(2 / 3)),
        ("(1/2, 1/3, 1/6)", [0.5, 1 / 3, 1 / 6], math.sqrt(11 / 18)),
        ("(1/9, 1/9, 7/9)", [1 / 9, 1 / 9, 7 / 9], math.sqrt(30) / 9),
    ]
    values = {}
    for label, w, expect in cases:
        e = bipartite.Entanglement(ProbMeasure(np.array(w)), ca, cb)
        got = values[label] = bipartite.pure_entanglement_number(bipartite.psi_from_entanglement(e))
        yield _row(f"e of {label}", expect, got, 1e-12, "closed-form")
    ordering = (
        values["(1/9, 1/9, 7/9)"] < values["equal pair"]
        < values["(1/2, 1/3, 1/6)"] < values["uniform triple"]
    )
    yield _row("entanglement ordering", 1.0, float(ordering), 0, "closed-form")


@_check
def _check_example7(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 7)
    for n in (2, 3):
        ctx = contexts.random_context(n, rng)
        sa = bipartite.symmetric_antisymmetric_basis(ctx)
        yield _row(f"n={n} doubled-space basis size", n * n, sa.dim, 0, "closed-form")
        e_vals = bipartite._pure_numbers(sa.matrix, (n, n))
        worst_diag = max(abs(v) for v in e_vals[:n])
        worst_pair = max(abs(v - SQRT_HALF) for v in e_vals[n:])
        yield _row(f"n={n} diagonal vectors factorized", 0.0, worst_diag, 1e-10, "closed-form")
        yield _row(f"n={n} paired vectors e = 1/sqrt(2)", 0.0, worst_pair, 1e-10, "closed-form")
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
    yield _row("symmetric pair = separable + coupling", 0.0, dev_plus, 1e-10, "closed-form")
    yield _row("antisymmetric pair = separable - coupling", 0.0, dev_minus, 1e-10,
               "closed-form")


@_check
def _check_example8(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 8)
    for n in range(2, 6):
        e = bipartite.maximally_entangled(
            n, contexts.random_context(n, rng), contexts.random_context(n, rng)
        )
        b = bipartite.entanglement_operator(e)
        eigs = np.sort(np.linalg.eigvalsh(b.mat))
        expect = np.sort(np.array([1.0 - 1.0 / n] + [-1.0 / n] * (n - 1)
                                  + [0.0] * (n * n - n)))
        yield _row(f"n={n} coupling spectrum", 0.0, float(np.max(np.abs(eigs - expect))), 1e-9,
                   "closed-form")
        psi = bipartite.psi_from_entanglement(e)
        yield _row(f"n={n} e = sqrt((n-1)/n)", math.sqrt((n - 1) / n),
                   bipartite.pure_entanglement_number(psi), 1e-9, "closed-form")
        top = np.linalg.eigh(b.mat)[1][:, -1]
        yield _row(f"n={n} top eigenvector is the state", 1.0, abs(np.vdot(top, psi.vector)),
                   1e-9, "closed-form")


@_check
def _check_example9(seed: int) -> Iterator[_Row]:
    rho, spectral = mixed.separable_with_entangled_spectrum()
    eigs = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
    yield _row("eigenvalues (3/4, 1/4, 0, 0)", 0.0,
               float(np.max(np.abs(eigs - np.array([0.75, 0.25, 0.0, 0.0])))), 1e-10,
               "closed-form")
    yield _row("spectral decomposition score 1/(2 sqrt 2)", 1 / (2 * math.sqrt(2)),
               mixed.decomposition_entanglement(rho, spectral), 1e-9, "derived")
    result = mixed.entanglement_number_mixed(rho, mixed.OptimizerOptions(restarts=80, seed=seed))
    yield _bound_row("optimized value <= 1e-3", 1e-3, result.value, "property")
    cert = result.certificate
    yield _row("separability certificate found", 1.0, float(cert is not None), 0, "property")
    if cert is not None:
        worst = float(np.max(bipartite._pure_numbers(cert.vectors, (2, 2))))
        yield _bound_row("certificate vectors e <= 0.05", 0.05, worst, "property")


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

@_check
def _check_thm11(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 11)
    points = np.zeros((200, 7))
    draws = np.zeros((200, 7))
    sizes = np.zeros(200, dtype=int)
    for i in range(200):
        n = int(rng.integers(1, 8))
        points[i, rng.integers(0, n)] = 1.0
        draws[i, :n] = rng.dirichlet(np.ones(n))
        sizes[i] = rng.integers(1, 8)
    uniform = (np.arange(7) < sizes[:, None]) / sizes[:, None]
    weights = measures._normalize(np.stack([points, draws, uniform]))[0]
    e_point, e_u, e_uniform = measures._e_kernel(weights)
    index = np.count_nonzero(weights[1] > measures.ZERO_TOL, axis=-1)
    index_bound = np.array([measures.max_entanglement_bound(k) for k in index])
    size_bound = np.array([measures.max_entanglement_bound(k) for k in sizes])
    yield _row("point measures score zero (200 draws)", 0.0, max(0.0, np.max(e_point)), 1e-12,
               "property")
    yield _bound_row("e <= sqrt((n-1)/n) (200 draws)", 1e-12,
                     max(-1.0, np.max(e_u - index_bound)), "property")
    yield _row("uniform measures attain the bound (200 draws)", 0.0,
               max(0.0, np.max(np.abs(e_uniform - size_bound))), 1e-12, "property")


@_check
def _check_thm12(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 12)
    draws = np.zeros((2, 1000, 6))
    lam = np.zeros(1000)
    ones = np.ones(6)
    for i in range(1000):
        for side in draws:
            n = int(rng.integers(1, 7))
            side[i, :n] = rng.dirichlet(ones[:n])
        lam[i] = rng.uniform(0.0, 1.0)
    u, v = measures._normalize(draws)[0]
    mix = measures._normalize(measures._mixture_weights(u, v, lam[:, None]))[0]
    e_mix, e_u, e_v = measures._e_kernel(np.stack([mix, u, v]))
    margin = e_mix - lam * e_u - (1.0 - lam) * e_v
    # Euclidean norm of each row, rounded as np.linalg.norm of the row
    distance = operators._hs_norm((u - v)[:, None, :])
    strict = margin[(0.2 <= lam) & (lam <= 0.8) & (distance >= 0.1)]
    yield _bound_row("concavity margin >= -1e-12 (1000 draws)", 1e-12, -np.min(margin),
                     "property")
    yield _row("strict cases sampled (count > 100)", 1.0, float(strict.size > 100), 0,
               "property")
    yield _row("strict concavity margin >= 1e-6", 1.0,
               float(strict.min(initial=math.inf) >= 1e-6), 0, "property")


@_check
def _check_thm21(seed: int) -> Iterator[_Row]:
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
    yield _row("variance formulas agree (100 draws)", 0.0, worst_formula, 1e-10, "property")
    yield _bound_row("|E(A)|^2 <= E(|A|^2) (100 draws)", 1e-12, worst_schwarz, "property")
    yield _row("eigenvector witness returns eigenvalue (100 draws)", 0.0, worst_witness, 1e-7,
               "property")


def _random_contexts(z: np.ndarray) -> np.ndarray:
    """Basis rows of ``contexts.random_context`` for a stack of its Gaussian draws."""
    return np.ascontiguousarray(operators._qr_isometry(z).swapaxes(-1, -2))


@_check
def _check_thm23(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 23)
    for dim in range(2, 7):
        # per draw, the draws of random_operator and then of random_context
        draws = operators._gaussian((100, 2, dim, dim), rng)
        a, rows = draws[:, 0], _random_contexts(draws[:, 1])
        dev = np.abs(operators._hs_norm(a - contexts._context_map(a, rows))
                     - contexts._coefficient(a, rows))
        yield _row(f"residual norm = context coefficient, dim {dim} (100 draws)", 0.0,
                   max(0.0, np.max(dev)), 1e-9, "property")


@_check
def _check_thm24(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 24)
    for n in range(2, 9):
        ctx = contexts.random_context(n, rng)
        eigs = np.sort(np.linalg.eigvalsh(contexts.offdiag_uniform(ctx, 1.0).mat))
        expect = np.sort(np.array([n - 1.0] + [-1.0] * (n - 1)))
        yield _row(f"n={n} spectrum {{n-1, -1 x (n-1)}}", 0.0,
                   float(np.max(np.abs(eigs - expect))), 1e-9, "property")


@_check
def _check_thm32(seed: int) -> Iterator[_Row]:
    rng = np.random.default_rng(seed + 32)
    by_dim: dict[int, list] = {}
    for k in range(100):
        n = int(rng.integers(2, 6))
        # the draws of random_entanglement: weights, then one context per factor
        by_dim.setdefault(n, []).append(
            (k, rng.dirichlet(np.ones(n)), operators._gaussian((2, n, n), rng)))
    worst_triple = 0.0
    worst_split = 0.0
    for draws in by_dim.values():
        k, w, z = (np.array(field) for field in zip(*draws))
        # random_entanglement normalizes the draw, and Entanglement normalizes it again
        lam = measures._normalize(measures._normalize(w)[0])[0]
        rows_a, rows_b = _random_contexts(z[:, 0]), _random_contexts(z[:, 1])
        t = bipartite._product_terms(rows_a, rows_b)
        b = bipartite._coupling(t, lam)
        d = bipartite._kron(rows_a, rows_b)
        context_coeff = contexts._coefficient(b, d)
        operator_norm = operators._hs_norm(b)
        measure_number = measures._e_kernel(lam)
        worst_triple = max(worst_triple, np.max(np.abs(context_coeff - operator_norm)),
                           np.max(np.abs(operator_norm - measure_number)),
                           np.max(np.abs(context_coeff - measure_number)))
        split = k < 20
        if split.any():
            psi = bipartite._psi_coeff(lam[split], rows_a[split], rows_b[split])
            psi = psi.reshape(len(psi), -1)
            p = psi[:, :, None] * psi.conj()[:, None, :]
            diag = contexts._context_map(p, d[split])
            worst_split = max(worst_split,
                              np.max(np.abs(diag - bipartite._separable(t[split], lam[split]))),
                              np.max(np.abs(p - diag - b[split])))
    yield _row("triple equality, dims 2-5 (100 draws)", 0.0, worst_triple, 1e-9, "property")
    yield _row("diagonal/off-diagonal split matches (20 draws)", 0.0, worst_split, 1e-10,
               "property")


@_check
def _check_thm33(seed: int) -> Iterator[_Row]:
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
    result = mixed.entanglement_number_mixed(rho, mixed.OptimizerOptions(restarts=60, seed=seed))
    yield _bound_row("random separable state drives value <= 1e-3", 1e-3, result.value,
                     "property")
    yield _row("random separable state certifies", 1.0, float(result.certificate is not None),
               0, "property")
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = SQRT_HALF
    pure = operators.DensityState(np.outer(bell, bell.conj()), factor_dims=(2, 2))
    bell_result = mixed.entanglement_number_mixed(
        pure, mixed.OptimizerOptions(restarts=200, seed=seed))
    yield _row("maximally entangled pure state stays at 1/sqrt(2)", SQRT_HALF,
               bell_result.value, 1e-6, "closed-form")
    yield _row("no spurious certificate for the pure state", 1.0,
               float(bell_result.certificate is None), 0, "property")


def run_checks(only: list[str] | None = None, seed: int = 0) -> list[VerifyRow]:
    if seed < 0:
        raise InvariantViolation(f"seed must be non-negative, got {seed}")
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
