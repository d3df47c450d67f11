"""Command-line front end.

Subcommands:
    classical      entanglement report for a probability (or product) measure
    schmidt        Schmidt weights and entanglement number of a bipartite vector
    context-coeff  context coefficient and residual norm of an operator
    mixed          decomposition search for the mixed entanglement number
    verify-paper   replay the worked examples and property suites

Exit codes are stable: 0 ok, 1 verification failure, 2 parse error or an
--out path that cannot be written, 3 invariant violation, 4 shape mismatch,
5 optimizer budget exhausted (only with --require-converged).  All numeric
output is printed with 16 significant digits; every reported check carries its
tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import bipartite, contexts, measures, mixed, operators, serialize, verify
from .errors import DimensionMismatch, InvariantViolation, ParseError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_SHAPE = 4
EXIT_BUDGET = 5


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.16g}"
    return str(value)


@dataclass
class Report:
    command: str
    inputs_digest: str
    results: list[tuple[str, object, Optional[float]]] = field(default_factory=list)
    assertions: list[tuple[str, float, float, float, bool]] = field(default_factory=list)
    # verify-paper rows: rendered as a table above the results, written to JSON as assertions
    rows: list[verify.VerifyRow] = field(default_factory=list)

    def add(self, name: str, value, tol: Optional[float] = None) -> None:
        self.results.append((name, value, tol))

    def check(self, name: str, expected: float, computed: float, tol: float) -> None:
        self.assertions.append((name, expected, computed, tol,
                                abs(computed - expected) <= tol))

    @property
    def all_passed(self) -> bool:
        return all(ok for *_, ok in self.assertions)

    def render(self) -> str:
        lines = [verify.render_table(self.rows)] if self.rows else []
        lines += [f"command: {self.command}", f"inputs: sha256:{self.inputs_digest}"]
        for name, value, tol in self.results:
            suffix = f"  [tol {tol:.0e}]" if tol is not None else ""
            lines.append(f"{name} = {_fmt(value)}{suffix}")
        for name, expected, computed, tol, ok in self.assertions:
            lines.append(
                f"check {name}: expected {_fmt(expected)}, computed {_fmt(computed)}, "
                f"tol {tol:.0e} -> {'PASS' if ok else 'FAIL'}"
            )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "results": [
                {"name": n, "value": _fmt(v), "tol": t} for n, v, t in self.results
            ],
            "assertions": [
                {"name": n, "expected": e, "computed": c, "tol": t, "passed": ok}
                for n, e, c, t, ok in self.assertions
            ] + [dataclasses.asdict(r) for r in self.rows],
        }


def _load_json(path: str) -> tuple[object, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        return json.loads(raw), digest
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc


def _write_json(path: str, obj) -> None:
    """Write obj to path as indented JSON; an OSError becomes a ParseError, exit 2."""
    try:
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def cmd_classical(args) -> tuple[Report, int]:
    obj, digest = _load_json(args.file)
    u = serialize.decode_classical(obj)
    report = Report("classical", digest)
    operators._check_tol(args.tol)
    if isinstance(u, measures.ProbMeasure):
        sup = sorted(measures.support(u))
        report.add("support", "{" + ", ".join(map(str, sup)) + "}")
        report.add("entanglement_index", len(sup))
        report.add("entanglement_number", measures.entanglement_number(u), 1e-12)
        report.add("point", measures.is_point(u))
        report.add("uniform", measures.is_uniform(u))
        report.add("max_bound_for_index", measures.max_entanglement_bound(len(sup)), 1e-12)
    else:
        report.add("entanglement_number", measures.product_entanglement_number(u), 1e-12)
        factorized = measures.is_factorized(u, tol=args.tol)
        report.add("factorized", factorized, args.tol)
        report.add("verdict", "factorized" if factorized else "entangled")
    return report, EXIT_OK


def cmd_schmidt(args) -> tuple[Report, int]:
    obj, digest = _load_json(args.file)
    vec = serialize.decode_vector(obj)
    da, db = args.dims
    psi = bipartite.bipartite_from_vector(vec, (da, db))
    report = Report("schmidt", digest)
    e = bipartite.schmidt_decompose(psi)
    lam = e.lam.weights
    report.add("schmidt_weights", "[" + ", ".join(f"{w:.16g}" for w in lam) + "]", 1e-12)
    report.add("entanglement_number", bipartite.pure_entanglement_number(psi), 1e-12)
    report.add("factorized", bipartite.is_factorized_state(psi), bipartite.FACTORIZED_TOL)
    return report, EXIT_OK


def cmd_context_coeff(args) -> tuple[Report, int]:
    op_obj, d1 = _load_json(args.operator)
    ctx_obj, d2 = _load_json(args.context)
    a = serialize.decode_operator(op_obj)
    ctx = serialize.decode_context(ctx_obj)
    report = Report("context-coeff", hashlib.sha256((d1 + d2).encode()).hexdigest())
    coeff = contexts.context_coefficient(a, ctx)
    residual = operators.hs_norm(contexts.residual_map(a, ctx))
    report.add("context_coefficient", coeff, 1e-9)
    report.add("residual_norm", residual, 1e-9)
    report.add("measurable", contexts.is_measurable(a, ctx, tol=args.tol), args.tol)
    report.check("residual norm equals context coefficient", residual, coeff, 1e-9)
    return report, EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_mixed(args) -> tuple[Report, int]:
    obj, digest = _load_json(args.file)
    da, db = args.dims
    rho = serialize.decode_density(obj, factor_dims=(da, db))
    opts = mixed.OptimizerOptions(
        restarts=args.restarts,
        seed=args.seed,
        m=args.m,
    )
    report = Report("mixed", digest)
    spectral = mixed.spectral_pure_decomposition(rho)
    report.add("spectral_terms", len(spectral))
    report.add("spectral_value", mixed.decomposition_entanglement(rho, spectral), 1e-9)
    result = mixed.entanglement_number_mixed(rho, opts)
    report.add("optimized_value", result.value, mixed.SEP_THRESHOLD)
    report.add("converged", result.converged)
    report.add("objective_evaluations", result.evaluations)
    cert = result.certificate
    report.add("certificate", cert is not None, mixed.SEP_THRESHOLD)
    if cert is not None and args.out:
        _write_json(args.out, serialize.encode_decomposition(cert))
        report.add("certificate_file", args.out)
    if args.require_converged and not result.converged:
        return report, EXIT_BUDGET
    return report, EXIT_OK


def cmd_verify_paper(args) -> tuple[Report, int]:
    only = args.only.split(",") if args.only else None
    rows = verify.run_checks(only=only, seed=args.seed)
    digest = hashlib.sha256(
        json.dumps({"seed": args.seed, "only": only}).encode()
    ).hexdigest()
    report = Report("verify-paper", digest, rows=rows)
    ok = all(r.passed for r in rows)
    report.add("assertions", len(rows))
    report.add("failures", sum(not r.passed for r in rows))
    return report, EXIT_OK if ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnum",
        description="Entanglement numbers for measures, contexts, and bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", help="report on a probability or product measure")
    p.add_argument("file", help="JSON array (measure) or array of arrays (product measure)")
    p.add_argument("--tol", type=float, default=1e-10, help="factorization tolerance")
    p.add_argument("--out", default=None, help="also write the report as JSON")

    p = sub.add_parser("schmidt", help="Schmidt weights of a bipartite vector state")
    p.add_argument("file", help="JSON array of [re, im] pairs of length dimA*dimB")
    p.add_argument("--dims", type=int, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--out", default=None, help="also write the report as JSON")

    p = sub.add_parser("context-coeff", help="context coefficient of an operator")
    p.add_argument("operator", help="JSON matrix of [re, im] pairs")
    p.add_argument("context", help="JSON array of basis vectors")
    p.add_argument("--tol", type=float, default=1e-10, help="measurability tolerance")
    p.add_argument("--out", default=None, help="also write the report as JSON")

    p = sub.add_parser("mixed", help="mixed-state entanglement number via decomposition search")
    p.add_argument("file", help="JSON density matrix of [re, im] pairs")
    p.add_argument("--dims", type=int, nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--m", type=int, default=None,
                   help="decomposition terms (default min(rank^2, max(16, 2*rank)))")
    p.add_argument("--require-converged", action="store_true")
    p.add_argument("--out", default=None, help="write the certificate decomposition here")

    p = sub.add_parser("verify-paper", help="replay worked examples and property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default=None,
                   help="comma-separated check ids (example1..example9, thm11..thm33)")
    p.add_argument("--out", default=None, help="also write the report as JSON")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then kept for the process.

    Building it costs far more than one parse, which in-process callers would
    otherwise pay on every call.  ``build_parser`` still returns a fresh one,
    so editing that cannot change ``main``.
    """
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    # looked up on each call, so a patched ``cmd_*`` still applies
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        report, code = command(args)
        if args.out and args.command != "mixed":  # mixed writes its certificate instead
            _write_json(args.out, report.to_json())
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatch as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(report.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
