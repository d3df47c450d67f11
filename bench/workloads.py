"""The benchmark's three workloads: seeded inputs, operations and their checks.

A workload is built once per process (that is part of set-up) and then run in
whole rounds.  Each round performs the same fixed list of operations; each
operation's output is checked against ``reference`` after the round's clock
has stopped.  A check returns a ``Verdict``:

- ``PASS``;
- ``STALLED``: the mixed search ended above the exact value.  This is the
  known fault counted on ``mixed-highrank``;
- ``WRONG``: any other mismatch.  It makes the run's ``correct`` false.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

PASS, STALLED, WRONG = "pass", "stalled", "wrong"
WORKLOADS = ("mixed-rank2-cli", "mixed-highrank", "reports-cli")

# two-qubit values must match Wootters/sqrt(2) this closely
EXACT_TOL = 1e-6
# slack on the certified bounds and on agreement with reference floats
BOUND_TOL = 1e-9
# entangled inputs are drawn until their certified lower bound clears this,
# far above the certificate threshold, so "no certificate" is known to be right
ENTANGLED_MARGIN = 0.02


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str = ""


@dataclass
class Op:
    """One timed operation and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Workload:
    ops: list[Op]
    # called before each round, outside the timed region
    reset: Callable[[], None] = lambda: None


def _fail(reason: str) -> Verdict:
    return Verdict(WRONG, reason)


# ---------------------------------------------------------------------------
# input generation and JSON encoding (plain numpy)
# ---------------------------------------------------------------------------

def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr((rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2))
    d = np.diagonal(r)
    return q * (d.conj() / np.abs(d))


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).reshape(-1)]


def _matrix_json(m: np.ndarray) -> list:
    return [_pairs(row) for row in np.asarray(m)]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def separable_rank2(rng, da: int, db: int) -> np.ndarray:
    """Mixture of two random product states."""
    w = rng.uniform(0.25, 0.75)
    a, b = (np.kron(_unit(rng, da), _unit(rng, db)) for _ in range(2))
    return w * _projector(a) + (1.0 - w) * _projector(b)


def entangled_rank2(rng, da: int, db: int) -> np.ndarray:
    """Mixture of two random pure states whose certified lower bound clears the margin."""
    while True:
        w = rng.uniform(0.25, 0.75)
        rho = w * _projector(_unit(rng, da * db)) + (1.0 - w) * _projector(_unit(rng, da * db))
        if ref.lower_bound(rho, da, db) >= ENTANGLED_MARGIN:
            return rho


def example9_state() -> np.ndarray:
    """The paper's Example 9: (|hh><hh| + |00><00|)/2, separable, entangled spectrum."""
    h = np.array([1.0, 1.0]) / math.sqrt(2.0)
    e00 = np.array([1.0, 0.0, 0.0, 0.0])
    return 0.5 * (_projector(np.kron(h, h)) + _projector(e00))


def werner_state(p: float) -> np.ndarray:
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return p * _projector(singlet) + (1.0 - p) / 4.0 * np.eye(4)


def wishart_state(seed: int) -> np.ndarray:
    """G G*/tr with G complex Gaussian: the draw of ``random_density(4, default_rng(seed))``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return m / np.trace(m)


def product_mixture(seed: int, terms: int) -> np.ndarray:
    """Separable two-qubit state: Dirichlet mixture of random product states."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(terms))
    return sum(wi * _projector(np.kron(_unit(rng, 2), _unit(rng, 2))) for wi in w)


def pure_mixture(seed: int, terms: int) -> np.ndarray:
    """Two-qubit state: Dirichlet mixture of random pure states."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(terms))
    return sum(wi * _projector(_unit(rng, 4)) for wi in w)


# ---------------------------------------------------------------------------
# in-process CLI and report parsing
# ---------------------------------------------------------------------------

_LINE = re.compile(r"^(\w+) = (.*?)(?:  \[tol [^\]]*\])?$")


def cli_runner(cli) -> Callable[[list[str]], tuple[int, str]]:
    """Run ``entnum <argv>`` in this process; return the exit code and stdout.

    ``cli.main`` is looked up on each call, so wrappers installed later apply.
    """

    def run(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def parse_report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        m = _LINE.match(line)
        if m:
            fields[m.group(1)] = m.group(2)
    return fields


def _close(name: str, got: float, want: float, tol: float) -> str:
    if abs(got - want) <= tol:
        return ""
    return f"{name} {got:.16g} differs from reference {want:.16g} by more than {tol:.0e}"


def _first_problem(*problems: str) -> Verdict:
    for p in problems:
        if p:
            return _fail(p)
    return Verdict(PASS)


# ---------------------------------------------------------------------------
# mixed-rank2-cli
# ---------------------------------------------------------------------------

# (dims, kind, restarts), and Example 9 as a fourth separable state.
# Separable states stop early at stop_at, so a larger restart budget costs
# them nothing unless a descent misses; entangled states run every restart.
RANK2_SLOTS = [
    ((2, 2), "separable", 6),
    ((2, 2), "entangled", 2),
    ((2, 3), "separable", 6),
    ((2, 3), "entangled", 2),
    ((3, 3), "separable", 6),
    ((3, 3), "entangled", 2),
    ((2, 2), "entangled", 2),
]
EXAMPLE9_RESTARTS = 6


def mixed_rank2_cli(seed: int, workdir: Path, cli) -> Workload:
    rng = np.random.default_rng([seed, 1])
    states = []
    for dims, kind, restarts in RANK2_SLOTS:
        make = separable_rank2 if kind == "separable" else entangled_rank2
        states.append((kind, dims, restarts, make(rng, *dims)))
    states.append(("separable", (2, 2), EXAMPLE9_RESTARTS, example9_state()))
    run_cli = cli_runner(cli)
    ops, certs = [], []
    for i, (kind, (da, db), restarts, rho) in enumerate(states):
        path = _write(workdir / f"rho{i}.json", _matrix_json(rho))
        cert = workdir / f"cert{i}.json"
        certs.append(cert)
        argv = ["mixed", path, "--dims", str(da), str(db), "--seed", str(seed * 100 + i),
                "--restarts", str(restarts), "--out", str(cert)]
        ops.append(Op(f"mixed-{da}x{db}-{kind}-{i}", lambda a=argv: run_cli(a),
                      _mixed_check(rho, da, db, kind == "separable", cert)))
    ops.append(Op("verify-paper", lambda: run_cli(["verify-paper"]), _check_verify_paper))

    def reset():
        for c in certs:
            c.unlink(missing_ok=True)

    return Workload(ops, reset)


def _mixed_check(rho, da, db, separable: bool, cert: Path):
    lower = ref.lower_bound(rho, da, db)
    spectral, unique = ref.spectral_upper_bound(rho, da, db)
    exact = ref.wootters_e(rho) if (da, db) == (2, 2) else None

    def check(output) -> Verdict:
        code, text = output
        if code != 0:
            return _fail(f"exit code {code}")
        fields = parse_report(text)
        value = float(fields["optimized_value"])
        found = fields.get("certificate") == "yes"
        problems = [
            _close("spectral_value", float(fields["spectral_value"]), spectral, BOUND_TOL)
            if unique else "",
            f"value {value:.6g} is below the certified lower bound {lower:.6g}"
            if value < lower - BOUND_TOL else "",
            f"value {value:.6g} exceeds the spectral value {spectral:.6g}"
            if unique and value > spectral + BOUND_TOL else "",
            _close("value", value, exact, EXACT_TOL) + " (Wootters/sqrt(2))"
            if exact is not None and abs(value - exact) > EXACT_TOL else "",
            f"certificate {'missing' if separable else 'reported'} for a "
            f"{'separable' if separable else 'entangled'} state"
            if found != separable else "",
            "certificate line and file disagree" if found != cert.exists() else "",
        ]
        if found and cert.exists():
            problems += ref.certificate_problems(json.loads(cert.read_text()), rho, da, db)
        return _first_problem(*problems)

    return check


def _check_verify_paper(output) -> Verdict:
    code, text = output
    rows = [line for line in text.splitlines() if line.endswith((" PASS", " FAIL"))]
    failing = [r for r in rows if r.endswith(" FAIL")]
    summary = re.search(r"^(\d+)/(\d+) assertions passed$", text, re.M)
    return _first_problem(
        f"exit code {code}" if code != 0 else "",
        "no summary line" if summary is None else "",
        f"{len(failing)} rows FAIL, first: {failing[0]}" if failing else "",
        "no rows" if not rows else "",
        f"summary {summary.group(0)!r} does not match {len(rows)} rows"
        if summary and int(summary.group(1)) != len(rows) else "",
    )


# ---------------------------------------------------------------------------
# mixed-highrank
# ---------------------------------------------------------------------------

HIGHRANK_RESTARTS = 2
HIGHRANK_MAX_ITERS = 500
# (name, state).  Fixed draws, independent of the workload seed: every one of
# them fails today, and the count of failures must not depend on the seed.
HIGHRANK_STATES = [
    ("wishart89-rank4", lambda: wishart_state(89)),
    ("werner0.8-rank4", lambda: werner_state(0.8)),
    ("werner0.3-rank4-separable", lambda: werner_state(0.3)),
    ("products-rank4-separable", lambda: product_mixture(41, 4)),
    ("products-rank3-separable", lambda: product_mixture(31, 3)),
    ("pure-mix-rank3", lambda: pure_mixture(32, 3)),
]


def mixed_highrank(seed: int, workdir: Path, entnum) -> Workload:
    order = np.random.default_rng([seed, 2]).permutation(len(HIGHRANK_STATES))
    ops = []
    for k in order:
        name, make = HIGHRANK_STATES[k]
        rho = make()
        state = entnum.DensityState(rho, factor_dims=(2, 2))
        opts = entnum.OptimizerOptions(restarts=HIGHRANK_RESTARTS, max_iters=HIGHRANK_MAX_ITERS,
                                       seed=int(k))
        ops.append(Op(name, lambda s=state, o=opts: entnum.entanglement_number_mixed(s, o),
                      _highrank_check(rho)))
    return Workload(ops)


def _highrank_check(rho):
    exact = ref.wootters_e(rho)
    spectral, unique = ref.spectral_upper_bound(rho, 2, 2)

    def check(result) -> Verdict:
        value = float(result.value)
        if value < exact - EXACT_TOL:
            return _fail(f"value {value:.6g} is below Wootters/sqrt(2) = {exact:.6g}")
        if unique and value > spectral + BOUND_TOL:
            return _fail(f"value {value:.6g} exceeds the spectral value {spectral:.6g}")
        if value > exact + EXACT_TOL:
            return Verdict(STALLED, f"value {value:.3g} exceeds Wootters/sqrt(2) = {exact:.3g} "
                                    f"by more than tol {EXACT_TOL:.0e}: the Nelder-Mead search "
                                    f"stalls above the infimum at rank >= 3")
        return Verdict(PASS)

    return check


# ---------------------------------------------------------------------------
# reports-cli
# ---------------------------------------------------------------------------

MEASURE_SIZES = (2, 7, 20, 50)
PRODUCT_SHAPES = ((2, 2), (3, 4), (5, 5), (6, 8))
SCHMIDT_DIMS = ((2, 2), (2, 3), (3, 3), (4, 4), (5, 6), (6, 6))
CONTEXT_DIMS = (2, 3, 5, 8, 12, 16, 24)
NEARLY_MEASURABLE = 1e-6
MEASURABLE_TOL = 1e-10


def reports_cli(seed: int, workdir: Path, cli) -> Workload:
    rng = np.random.default_rng([seed, 3])
    run_cli = cli_runner(cli)
    ops, reports = [], []

    def add(name, argv, check, out=False):
        path = None
        if out:
            path = workdir / f"report{len(ops)}.json"
            reports.append(path)
            argv = argv + ["--out", str(path)]
        ops.append(Op(name, lambda: run_cli(argv), _with_report_file(check, path)))

    measures = [rng.dirichlet(np.ones(n)) for n in MEASURE_SIZES]
    sparse = np.zeros(30)
    sparse[rng.choice(30, size=12, replace=False)] = rng.dirichlet(np.ones(12))
    n_uniform = int(rng.integers(3, 12))
    point = np.zeros(9)
    point[rng.integers(0, 9)] = 1.0
    measures += [sparse, np.full(n_uniform, 1.0 / n_uniform), point]
    for i, u in enumerate(measures):
        path = _write(workdir / f"measure{i}.json", [float(x) for x in u])
        add(f"classical-{u.size}", ["classical", path], _measure_check(u), out=i % 2 == 1)

    for i, (r, c) in enumerate(PRODUCT_SHAPES):
        table = np.outer(rng.dirichlet(np.ones(r)), rng.dirichlet(np.ones(c)))
        entangled = rng.dirichlet(np.ones(r * c)).reshape(r, c)
        for kind, u in (("factorized", table), ("entangled", entangled)):
            path = _write(workdir / f"product{i}{kind}.json", [[float(x) for x in row] for row in u])
            add(f"classical-{r}x{c}-{kind}", ["classical", path], _product_check(u))

    vectors = [(dims, _unit(rng, dims[0] * dims[1])) for dims in SCHMIDT_DIMS]
    vectors += [(dims, np.kron(_unit(rng, dims[0]), _unit(rng, dims[1])))
                for dims in ((3, 3), (6, 6))]
    for i, ((da, db), vec) in enumerate(vectors):
        path = _write(workdir / f"psi{i}.json", _pairs(vec))
        add(f"schmidt-{da}x{db}", ["schmidt", path, "--dims", str(da), str(db)],
            _schmidt_check(vec, da, db), out=i % 2 == 0)

    for n in CONTEXT_DIMS:
        q = _haar(rng, n)
        rows = q.T
        diag = np.diag(rng.normal(size=n))
        offdiag = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        offdiag -= np.diag(np.diag(offdiag))
        operators = {
            "random": (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2),
            "measurable": q @ diag @ q.conj().T,
            "nearly-measurable": q @ (diag + NEARLY_MEASURABLE * offdiag) @ q.conj().T,
        }
        ctx_path = _write(workdir / f"context{n}.json", _matrix_json(rows))
        for kind, a in operators.items():
            op_path = _write(workdir / f"operator{n}{kind}.json", _matrix_json(a))
            add(f"context-coeff-{n}-{kind}", ["context-coeff", op_path, ctx_path],
                _context_check(a, rows), out=kind == "random")

    def reset():
        for path in reports:
            path.unlink(missing_ok=True)

    return Workload(ops, reset)


def _with_report_file(check, path: Path | None):
    """Check stdout, and when ``--out`` was given also the JSON report it wrote."""
    if path is None:
        return lambda output: check(output[0], parse_report(output[1]))

    def check_both(output) -> Verdict:
        verdict = check(output[0], parse_report(output[1]))
        if verdict.status != PASS:
            return verdict
        if not path.exists():
            return _fail(f"--out file {path.name} was not written")
        report = json.loads(path.read_text())
        return check(output[0], {r["name"]: r["value"] for r in report["results"]})

    return check_both


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _field_problems(fields: dict[str, str], expected: dict[str, object]) -> list[str]:
    problems = []
    for key, want in expected.items():
        if key not in fields:
            problems.append(f"field {key} missing")
        elif isinstance(want, float):
            problems.append(_close(key, float(fields[key]), want, 1e-12))
        elif fields[key] != want:
            problems.append(f"{key} = {fields[key]!r}, reference {want!r}")
    return problems


def _measure_check(u: np.ndarray):
    nz = u[u > 1e-12]
    support = [i + 1 for i in np.nonzero(u > 1e-12)[0]]
    expected = {
        "support": "{" + ", ".join(map(str, support)) + "}",
        "entanglement_index": str(len(support)),
        "entanglement_number": ref.measure_e(u),
        "point": _flag(bool(np.max(u) >= 1.0 - 1e-12)),
        "uniform": _flag(bool(np.ptp(nz) <= 1e-12)),
        "max_bound_for_index": math.sqrt((len(support) - 1) / len(support)),
    }
    return lambda code, fields: _first_problem(
        f"exit code {code}" if code != 0 else "", *_field_problems(fields, expected))


def _product_check(u: np.ndarray):
    factorized = ref.is_factorized(u, 1e-10)
    expected = {
        "entanglement_number": ref.measure_e(u),
        "factorized": _flag(factorized),
        "verdict": "factorized" if factorized else "entangled",
    }
    return lambda code, fields: _first_problem(
        f"exit code {code}" if code != 0 else "", *_field_problems(fields, expected))


def _schmidt_check(vec: np.ndarray, da: int, db: int):
    weights = ref.schmidt_weights(vec, da, db)
    e = ref.pure_e(vec, da, db)
    factorized = _flag(bool(weights[0] >= 1.0 - 1e-10))

    def check(code, fields) -> Verdict:
        if code != 0:
            return _fail(f"exit code {code}")
        got = np.array([float(x) for x in fields["schmidt_weights"].strip("[]").split(",")])
        return _first_problem(
            f"{got.size} Schmidt weights, reference has {weights.size}"
            if got.size != weights.size else "",
            "Schmidt weights differ from the eigenvalues of rho_A by more than 1e-12"
            if got.size == weights.size and np.max(np.abs(got - weights)) > 1e-12 else "",
            *_field_problems(fields, {"entanglement_number": e, "factorized": factorized}),
        )

    return check


def _context_check(a: np.ndarray, rows: np.ndarray):
    coeff = ref.context_offdiag_norm(a, rows)
    measurable = _flag(coeff <= MEASURABLE_TOL)

    def check(code, fields) -> Verdict:
        return _first_problem(
            f"exit code {code}" if code != 0 else "",
            _close("context_coefficient", float(fields["context_coefficient"]), coeff, 1e-9),
            _close("residual_norm", float(fields["residual_norm"]), coeff, 1e-9),
            f"measurable = {fields['measurable']}, reference {measurable}"
            if fields["measurable"] != measurable else "",
        )

    return check


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Import entnum and build the named workload's inputs; this is set-up."""
    import entnum
    from entnum import cli

    if name == "mixed-rank2-cli":
        return mixed_rank2_cli(seed, workdir, cli)
    if name == "mixed-highrank":
        return mixed_highrank(seed, workdir, entnum)
    if name == "reports-cli":
        return reports_cli(seed, workdir, cli)
    raise ValueError(f"unknown workload {name!r}")
