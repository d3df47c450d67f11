"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned.
"""

import math
import time

import numpy as np

from entnum import bipartite as bp
from entnum import cli
from entnum import contexts as cx
from entnum import measures as ms
from entnum import mixed as mx
from entnum import operators as op
from entnum.measures import ProbMeasure, ProductMeasure

SQRT_HALF = 1 / math.sqrt(2)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_classical_examples():
    start = time.perf_counter()
    cases = [
        ([0.5, 0.5], SQRT_HALF),
        ([1 / 3, 1 / 3, 1 / 3], math.sqrt(2 / 3)),
        ([0.5, 1 / 3, 1 / 6], math.sqrt(11 / 18)),
        ([1 / 9, 1 / 9, 7 / 9], math.sqrt(30) / 9),
    ]
    worst = max(
        abs(ms.entanglement_number(ProbMeasure(np.array(w))) - expected)
        for w, expected in cases
    )
    elapsed = time.perf_counter() - start
    _report(1, f"classical example values (max dev {worst:.2e}, {elapsed:.3f}s)",
            worst <= 1e-12 and elapsed < 1.0)


def test_criterion_2_product_measure_examples():
    ua = ProductMeasure(np.array([[0.5, 0.5]]))
    ub = ProductMeasure(np.array([[1 / 3, 1 / 3], [0.0, 1 / 3]]))
    dev = abs(ms.product_entanglement_number(ub) - math.sqrt(2 / 3))
    ok = ms.is_factorized(ua) and not ms.is_factorized(ub) and dev <= 1e-12
    _report(2, f"product measure verdicts and value (dev {dev:.2e})", ok)


def test_criterion_3_residual_norm_equals_coefficient():
    rng = np.random.default_rng(0)
    worst = 0.0
    for dim in range(2, 7):
        for _ in range(100):
            a = op.random_operator(dim, rng)
            ctx = cx.random_context(dim, rng)
            worst = max(
                worst,
                abs(op.hs_norm(cx.residual_map(a, ctx)) - cx.context_coefficient(a, ctx)),
            )
    _report(3, f"residual norm = context coefficient, dims 2-6 x100 (max dev {worst:.2e})",
            worst <= 1e-9)


def test_criterion_4_constant_offdiagonal_spectra():
    rng = np.random.default_rng(1)
    worst_spec = 0.0
    for n in range(2, 9):
        ctx = cx.random_context(n, rng)
        eigs = np.sort(np.linalg.eigvalsh(cx.offdiag_uniform(ctx, 1.0).mat))
        expected = np.sort([n - 1.0] + [-1.0] * (n - 1))
        worst_spec = max(worst_spec, float(np.max(np.abs(eigs - expected))))
    worst_apply = 0.0
    patterns_ok = True
    for n in range(2, 7):
        r = np.ones((n, n)) - np.eye(n)
        pairs = cx.offdiag_uniform_spectrum(n)
        values = sorted(v for v, _ in pairs)
        patterns_ok &= values == [-1.0] * (n - 1) + [float(n - 1)]
        for lam, vec in pairs:
            worst_apply = max(worst_apply, float(np.linalg.norm(r @ vec - lam * vec)))
    ok = worst_spec <= 1e-9 and worst_apply <= 1e-9 and patterns_ok
    _report(4, f"constant off-diagonal spectra n=2..8 (dev {worst_spec:.2e}), "
               f"explicit vectors n<=6 (residual {worst_apply:.2e})", ok)


def test_criterion_5_triple_equality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        e = bp.random_entanglement(n, rng)
        t = bp.verify_entanglement_triple(e)
        worst = max(
            worst,
            abs(t.context_coeff - t.operator_norm),
            abs(t.operator_norm - t.measure_number),
            abs(t.context_coeff - t.measure_number),
        )
    _report(5, f"coefficient = norm = measure number, 100 triples dims 2-5 "
               f"(max dev {worst:.2e})", worst <= 1e-9)


def test_criterion_6_two_level_coupling_spectrum():
    rng = np.random.default_rng(3)
    worst_eig = 0.0
    worst_norm = 0.0
    for _ in range(20):
        lam1 = float(rng.uniform())
        lam2 = 1.0 - lam1
        e = bp.Entanglement(
            ProbMeasure(np.array([lam1, lam2])),
            cx.random_context(2, rng),
            cx.random_context(2, rng),
        )
        b = bp.entanglement_operator(e)
        g = math.sqrt(lam1 * lam2)
        eigs = np.sort(np.linalg.eigvalsh(b.mat))
        worst_eig = max(
            worst_eig, float(np.max(np.abs(eigs - np.sort([0.0, 0.0, g, -g]))))
        )
        worst_norm = max(worst_norm, abs(op.hs_norm(b) - math.sqrt(2 * lam1 * lam2)))
    ok = worst_eig <= 1e-10 and worst_norm <= 1e-10
    _report(6, f"two-level coupling spectrum and norm, 20 pairs "
               f"(eig dev {worst_eig:.2e}, norm dev {worst_norm:.2e})", ok)


def test_criterion_7_maximally_entangled_spectra():
    rng = np.random.default_rng(4)
    worst_spec = 0.0
    worst_e = 0.0
    for n in range(2, 6):
        e = bp.maximally_entangled(
            n, cx.random_context(n, rng), cx.random_context(n, rng)
        )
        eigs = np.sort(np.linalg.eigvalsh(bp.entanglement_operator(e).mat))
        expected = np.sort([1 - 1 / n] + [-1 / n] * (n - 1) + [0.0] * (n * n - n))
        worst_spec = max(worst_spec, float(np.max(np.abs(eigs - expected))))
        psi = bp.psi_from_entanglement(e)
        worst_e = max(
            worst_e, abs(bp.pure_entanglement_number(psi) - math.sqrt((n - 1) / n))
        )
    ok = worst_spec <= 1e-9 and worst_e <= 1e-9
    _report(7, f"uniform-weight coupling spectra n=2..5 "
               f"(spec dev {worst_spec:.2e}, e dev {worst_e:.2e})", ok)


def test_criterion_8_separable_demo_state():
    rho, spectral = mx.separable_with_entangled_spectrum()
    eig_dev = float(
        np.max(np.abs(np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
                      - np.array([0.75, 0.25, 0.0, 0.0])))
    )
    spectral_value = mx.decomposition_entanglement(rho, spectral)
    start = time.perf_counter()
    opts = mx.OptimizerOptions(restarts=150, seed=0)
    result = mx.entanglement_number_mixed(rho, opts)
    cert = result.certificate
    elapsed = time.perf_counter() - start
    cert_worst = (
        max(
            bp.pure_entanglement_number(bp.BipartiteVectorState(v.reshape(2, 2)))
            for v in cert.vectors
        )
        if cert is not None
        else math.inf
    )
    ok = (
        eig_dev <= 1e-10
        and spectral_value > 0.0
        and result.value <= 1e-3
        and opts.restarts <= 500
        and elapsed < 60.0
        and cert is not None
        and cert_worst <= 0.05
    )
    _report(8, f"demo state: eig dev {eig_dev:.2e}, spectral {spectral_value:.4f} > 0, "
               f"optimized {result.value:.2e} <= 1e-3 in {elapsed:.1f}s, "
               f"certificate vectors e <= {cert_worst:.3f}", ok)


def test_criterion_9_concavity():
    rng = np.random.default_rng(5)
    worst = math.inf
    strict_worst = math.inf
    strict_count = 0
    for _ in range(1000):
        u = ProbMeasure(rng.dirichlet(np.ones(int(rng.integers(1, 7)))))
        v = ProbMeasure(rng.dirichlet(np.ones(int(rng.integers(1, 7)))))
        lam = float(rng.uniform())
        margin = (
            ms.entanglement_number(ms.mixture(u, v, lam))
            - lam * ms.entanglement_number(u)
            - (1 - lam) * ms.entanglement_number(v)
        )
        worst = min(worst, margin)
        width = max(len(u), len(v))
        uw = np.zeros(width)
        vw = np.zeros(width)
        uw[: len(u)] = u.weights
        vw[: len(v)] = v.weights
        if 0.2 <= lam <= 0.8 and float(np.linalg.norm(uw - vw)) >= 0.1:
            strict_count += 1
            strict_worst = min(strict_worst, margin)
    ok = worst >= -1e-12 and strict_count > 100 and strict_worst >= 1e-6
    _report(9, f"concavity over 1000 triples (min margin {worst:.2e}; strict min "
               f"{strict_worst:.2e} over {strict_count} filtered)", ok)


def test_criterion_10_no_spurious_certificate():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = SQRT_HALF
    rho = op.DensityState(np.outer(vec, vec.conj()), factor_dims=(2, 2))
    opts = mx.OptimizerOptions(restarts=200, seed=0)
    result = mx.entanglement_number_mixed(rho, opts)
    dev = abs(result.value - SQRT_HALF)
    cert = result.certificate
    ok = dev <= 1e-6 and cert is None
    _report(10, f"maximally entangled control stays at 1/sqrt(2) "
                f"(dev {dev:.2e}, certificate {'absent' if cert is None else 'EMITTED'})",
            ok)


def test_criterion_11_verify_paper_runs_clean(capsys):
    start = time.perf_counter()
    code = cli.main(["verify-paper"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report(11, f"verify-paper exit {code} in {elapsed:.1f}s "
                    f"({out.count('PASS')} assertions)", code == 0 and elapsed < 120.0)
