"""CLI behavior: reports, exit codes, and determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entnum import cli, mixed, operators, verify


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cvec(values):
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


def cmat(rows):
    return [cvec(row) for row in rows]


def count_searches(monkeypatch):
    """Count calls of ``entanglement_number_mixed`` from any caller, certificates included."""
    calls = []
    search = mixed.entanglement_number_mixed

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(mixed, "entanglement_number_mixed", counted)
    return calls


class TestClassical:
    def test_pair_measure(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", [0.5, 0.5])
        code, out, _ = run(capsys, ["classical", path])
        assert code == 0
        assert "entanglement_number = 0.7071067811865476" in out
        assert "support = {1, 2}" in out

    def test_point_measure(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", [1.0])
        code, out, _ = run(capsys, ["classical", path])
        assert code == 0
        assert "entanglement_number = 0" in out
        assert "point = yes" in out

    def test_product_measure_entangled(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", [[1 / 3, 1 / 3], [0.0, 1 / 3]])
        code, out, _ = run(capsys, ["classical", path])
        assert code == 0
        assert "verdict = entangled" in out

    def test_product_measure_entangled_rounded_thirds(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", [[0.3333, 0.3333], [0.0, 0.3334]])
        code, out, _ = run(capsys, ["classical", path])
        assert code == 0
        assert "verdict = entangled" in out

    def test_product_measure_factorized(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", [[0.5, 0.5]])
        code, out, _ = run(capsys, ["classical", path])
        assert code == 0
        assert "verdict = factorized" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_non_finite_tol_exits_3(self, tmp_path, capsys, tol):
        for name, measure in [("u.json", [0.5, 0.5]), ("p.json", [[0.5, 0.5]])]:
            path = write(tmp_path, name, measure)
            code, out, _ = run(capsys, ["classical", path, "--tol", tol])
            assert code == 3
            assert out == ""

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[0.5, 0.5")
        code, _, err = run(capsys, ["classical", str(path)])
        assert code == 2

    def test_too_deep_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, _, err = run(capsys, ["classical", str(path)])
        assert code == 2
        assert err.startswith("parse error:")

    @pytest.mark.parametrize("measure", [[10 ** 400, 0], [[10 ** 400, 0]]])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, measure):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(measure))
        code, _, err = run(capsys, ["classical", str(path)])
        assert code == 2
        assert err.startswith("parse error:")

    def test_unnormalized_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "u.json", [0.5, 0.6])
        code, _, _ = run(capsys, ["classical", path])
        assert code == 3

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, ["classical", "/nonexistent/measure.json"])
        assert code == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        path.write_bytes(b"[0.5, 0.5\xff]")
        code, _, err = run(capsys, ["classical", str(path)])
        assert code == 2
        assert err.startswith("parse error:")


class TestSchmidt:
    def test_bell_state(self, tmp_path, capsys):
        vec = np.zeros(4)
        vec[0] = vec[3] = 2**-0.5
        path = write(tmp_path, "psi.json", cvec(vec))
        code, out, _ = run(capsys, ["schmidt", path, "--dims", "2", "2"])
        assert code == 0
        assert "entanglement_number = 0.7071067811865476" in out
        assert "factorized = no" in out

    def test_product_state(self, tmp_path, capsys):
        path = write(tmp_path, "psi.json", cvec([1, 0, 0, 0]))
        code, out, _ = run(capsys, ["schmidt", path, "--dims", "2", "2"])
        assert code == 0
        assert "factorized = yes" in out

    def test_three_term_example(self, tmp_path, capsys):
        amps = np.zeros(9)
        amps[0] = math.sqrt(0.5)
        amps[4] = math.sqrt(1 / 3)
        amps[8] = math.sqrt(1 / 6)
        path = write(tmp_path, "psi.json", cvec(amps))
        code, out, _ = run(capsys, ["schmidt", path, "--dims", "3", "3"])
        assert code == 0
        # sqrt(11/18) = 0.7817359599705717; the SVD path may differ in the last ulp
        assert "entanglement_number = 0.78173595997057" in out

    def test_non_unit_vector_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "psi.json", cvec([1, 1, 0, 0]))
        code, _, _ = run(capsys, ["schmidt", path, "--dims", "2", "2"])
        assert code == 3

    def test_bad_dims_exit_4(self, tmp_path, capsys):
        path = write(tmp_path, "psi.json", cvec([1, 0, 0]))
        code, _, _ = run(capsys, ["schmidt", path, "--dims", "2", "2"])
        assert code == 4


class TestContextCoeff:
    def test_flip_operator(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", cmat([[0, 1], [1, 0]]))
        ctx_path = write(tmp_path, "ctx.json", cmat(np.eye(2)))
        code, out, _ = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 0
        assert "context_coefficient = 1.414213562373095" in out
        assert "measurable = no" in out
        assert "PASS" in out

    def test_measurable_operator(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", cmat([[3, 0], [0, 1]]))
        ctx_path = write(tmp_path, "ctx.json", cmat(np.eye(2)))
        code, out, _ = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 0
        assert "measurable = yes" in out

    def test_dim_mismatch_exits_4(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", cmat(np.eye(3)))
        ctx_path = write(tmp_path, "ctx.json", cmat(np.eye(2)))
        code, _, _ = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 4

    def test_nan_in_non_square_operator_exits_4(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", cmat([[np.nan, 0, 0], [0, 1, 0]]))
        ctx_path = write(tmp_path, "ctx.json", cmat(np.eye(2)))
        code, _, err = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 4
        assert err.startswith("shape error:")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_3(self, tmp_path, capsys, tol):
        op_path = write(tmp_path, "a.json", cmat([[3, 0], [0, 1]]))
        ctx_path = write(tmp_path, "ctx.json", cmat(np.eye(2)))
        code, out, _ = run(capsys, ["context-coeff", op_path, ctx_path, "--tol", tol])
        assert code == 3
        assert out == ""

    def test_ragged_context_exits_2(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", cmat(np.eye(2)))
        ctx_path = write(tmp_path, "ctx.json", [cvec([1, 0]), cvec([0])])
        code, _, err = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 2
        assert err.startswith("parse error:")

    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", [[[10 ** 400, 0], [0, 0]], cvec([0, 1])])
        ctx_path = write(tmp_path, "ctx.json", cmat(np.eye(2)))
        code, _, err = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 2
        assert err.startswith("parse error:")

    def test_bad_context_exits_3(self, tmp_path, capsys):
        op_path = write(tmp_path, "a.json", cmat(np.eye(2)))
        ctx_path = write(tmp_path, "ctx.json", cmat([[1, 0], [1, 0]]))
        code, _, _ = run(capsys, ["context-coeff", op_path, ctx_path])
        assert code == 3


class TestMixed:
    def test_demo_separable_state(self, tmp_path, capsys):
        from entnum.mixed import separable_with_entangled_spectrum

        rho, _ = separable_with_entangled_spectrum()
        path = write(tmp_path, "rho.json", cmat(rho.mat))
        out_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys,
            ["mixed", path, "--dims", "2", "2", "--restarts", "40", "--out", str(out_path)],
        )
        assert code == 0
        assert "certificate = yes" in out
        cert = json.loads(out_path.read_text())
        assert set(cert) == {"weights", "vectors"}
        assert sum(cert["weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_one_search_per_command(self, tmp_path, capsys, monkeypatch):
        rho, _ = mixed.separable_with_entangled_spectrum()
        path = write(tmp_path, "rho.json", cmat(rho.mat))
        out_path = tmp_path / "cert.json"
        calls = count_searches(monkeypatch)
        code, out, _ = run(
            capsys,
            ["mixed", path, "--dims", "2", "2", "--restarts", "40", "--out", str(out_path)],
        )
        assert code == 0
        assert "certificate = yes" in out and out_path.exists()
        assert len(calls) == 1

    def test_bell_projector_no_certificate(self, tmp_path, capsys):
        vec = np.zeros(4)
        vec[0] = vec[3] = 2**-0.5
        path = write(tmp_path, "rho.json", cmat(np.outer(vec, vec)))
        code, out, _ = run(capsys, ["mixed", path, "--dims", "2", "2", "--restarts", "30"])
        assert code == 0
        assert "certificate = no" in out
        assert "optimized_value = 0.707106781186" in out

    def test_require_converged_budget_exit(self, tmp_path, capsys):
        # a rank-2 3x3 state whose bracket stays open: 4 restarts leave too short a
        # history to show stagnation
        rng = np.random.default_rng(3)
        g = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        rho = g @ g.conj().T / np.vdot(g, g).real
        result = mixed.entanglement_number_mixed(
            operators.DensityState(rho, factor_dims=(3, 3)), mixed.OptimizerOptions(restarts=4))
        assert result.value - result.lower_bound > 1e-3
        path = write(tmp_path, "rho.json", cmat(rho))
        code, _, _ = run(
            capsys,
            ["mixed", path, "--dims", "3", "3", "--restarts", "4", "--require-converged"],
        )
        assert code == 5

    def test_require_converged_closed_bracket_exits_0(self, tmp_path, capsys):
        # 0.7 Bell + 0.3 |01>: the spectral decomposition meets the lower bound
        vec = np.zeros(4)
        vec[0] = vec[3] = 2**-0.5
        e01 = np.eye(4)[1]
        path = write(tmp_path, "rho.json", cmat(0.7 * np.outer(vec, vec) + 0.3 * np.outer(e01, e01)))
        code, out, _ = run(
            capsys,
            ["mixed", path, "--dims", "2", "2", "--restarts", "4", "--require-converged"],
        )
        assert code == 0
        assert "converged = yes" in out and "objective_evaluations = 1\n" in out

    def test_two_qubit_search_closes_on_the_closed_form(self, tmp_path, capsys):
        # Werner p = 0.8: the spectral start misses the Wootters value, and the
        # closed-form isometry scored next meets it, so no descent runs
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        path = write(tmp_path, "rho.json",
                     cmat(0.8 * np.outer(singlet, singlet) + 0.05 * np.eye(4)))
        code, out, _ = run(
            capsys,
            ["mixed", path, "--dims", "2", "2", "--restarts", "100", "--require-converged"],
        )
        assert code == 0
        assert "converged = yes" in out and "objective_evaluations = 2\n" in out

    def test_entangled_werner_gets_no_certificate(self, tmp_path, capsys):
        # e = 5e-4, below SEP_THRESHOLD: only the lower bound shows it is entangled
        p = (1 + 2 * 5e-4 * math.sqrt(2)) / 3
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        rho = p * np.outer(singlet, singlet) + (1 - p) / 4 * np.eye(4)
        path = write(tmp_path, "rho.json", cmat(rho))
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, ["mixed", path, "--dims", "2", "2", "--restarts", "4",
                                    "--out", str(out_path)])
        assert code == 0
        assert "certificate = no" in out and "certificate_file" not in out
        assert not out_path.exists()

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("e", [5e-4, 2e-4, 5e-5])
    def test_npt_werner_gets_no_certificate(self, tmp_path, capsys, d, e):
        # antisymmetric weight 1/2 + e/sqrt(2): the lower bound is 0 above 2x2, and only
        # the partial transpose shows the state is entangled
        swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
        anti, sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
        weight = 0.5 + e / math.sqrt(2)
        rho = weight * anti / np.trace(anti) + (1 - weight) * sym / np.trace(sym)
        path = write(tmp_path, "rho.json", cmat(rho))
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, ["mixed", path, "--dims", str(d), str(d), "--restarts", "2",
                                    "--out", str(out_path)])
        assert code == 0
        assert "certificate = no" in out and "certificate_file" not in out
        assert not out_path.exists()

    def test_require_converged_pure_state_exits_0(self, tmp_path, capsys):
        # a pure state is its only decomposition, so any restart budget converges
        vec = np.zeros(4)
        vec[0] = vec[3] = 2**-0.5
        path = write(tmp_path, "rho.json", cmat(np.outer(vec, vec)))
        code, _, _ = run(
            capsys,
            ["mixed", path, "--dims", "2", "2", "--restarts", "2", "--require-converged"],
        )
        assert code == 0

    def test_non_density_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "rho.json", cmat(np.eye(4)))
        code, _, _ = run(capsys, ["mixed", path, "--dims", "2", "2"])
        assert code == 3

    def test_dims_must_factor_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "rho.json", cmat(np.eye(4) / 4))
        code, _, _ = run(capsys, ["mixed", path, "--dims", "2", "3"])
        assert code == 4

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "rho.json", cmat(np.eye(4) / 4))
        code, out, err = run(capsys, ["mixed", path, "--dims", "2", "2", "--seed", "-1"])
        assert code == 3
        assert out == "" and "seed must be non-negative" in err

    def test_zero_restarts_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "rho.json", cmat(np.eye(4) / 4))
        code, out, err = run(capsys, ["mixed", path, "--dims", "2", "2", "--restarts", "0"])
        assert code == 3
        assert out == "" and "need at least one restart" in err


class TestVerifyPaper:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, ["verify-paper", "--only", "example5"])
        assert code == 0
        assert "example5" in out
        assert "FAIL" not in out

    def test_seeded_property_check(self, capsys):
        code, out, _ = run(capsys, ["verify-paper", "--seed", "42", "--only", "thm23"])
        assert code == 0
        assert out.count("thm23") >= 5  # one row per dimension

    def test_one_search_per_mixed_result(self, capsys, monkeypatch):
        # example9 searches once, thm33 once for its separable state and once for Bell
        calls = count_searches(monkeypatch)
        code, out, _ = run(capsys, ["verify-paper", "--only", "example9,thm33"])
        assert code == 0
        assert "certificate found" in out and "no spurious certificate" in out
        assert len(calls) == 3

    def test_unknown_id_exits_3(self, capsys):
        code, _, _ = run(capsys, ["verify-paper", "--only", "nope"])
        assert code == 3

    def test_negative_seed_exits_3_before_any_check(self, capsys, monkeypatch):
        seeds = []
        monkeypatch.setitem(verify.CHECKS, "example1", seeds.append)
        code, out, err = run(capsys, ["verify-paper", "--seed", "-1", "--only", "example1"])
        assert code == 3
        assert seeds == [] and out == "" and "seed must be non-negative" in err

    def test_failure_exits_1(self, capsys, monkeypatch):
        def failing(seed):
            return [verify.VerifyRow("example1", "forced failure", 1.0, 0.0, 1e-12,
                                     "closed-form", False)]

        monkeypatch.setitem(verify.CHECKS, "example1", failing)
        code, out, _ = run(capsys, ["verify-paper", "--only", "example1"])
        assert code == 1
        assert "FAIL" in out

    def test_checks_registered_in_table_order(self):
        assert list(verify.CHECKS) == [
            "example1", "example2", "example3", "example4", "example5", "example6",
            "example7", "example8", "example9", "thm11", "thm12", "thm21", "thm23",
            "thm24", "thm32", "thm33",
        ]

    def test_rows_carry_their_check_id(self):
        for check_id, check in verify.CHECKS.items():
            rows = check(0)
            assert rows and all(isinstance(r, verify.VerifyRow) for r in rows)
            assert {r.check_id for r in rows} == {check_id}

    def test_out_json_names_every_row(self, tmp_path, capsys):
        argv = ["verify-paper", "--only", "example1"]
        _, table, _ = run(capsys, argv)
        out_path = tmp_path / "verify.json"
        code, out, _ = run(capsys, argv + ["--out", str(out_path)])
        assert code == 0
        assert out == table  # the table gains no "check" lines
        written = json.loads(out_path.read_text())
        rows = verify.run_checks(only=["example1"])
        assert written["assertions"] == [
            {"check_id": r.check_id, "label": r.label, "expected": r.expected,
             "computed": r.computed, "tol": r.tol, "source": r.source, "passed": r.passed}
            for r in rows
        ]
        assert {"name": "assertions", "value": str(len(rows)), "tol": None} in written["results"]

    def test_report_is_byte_stable(self, capsys):
        _, out1, _ = run(capsys, ["verify-paper", "--seed", "7", "--only", "thm24"])
        _, out2, _ = run(capsys, ["verify-paper", "--seed", "7", "--only", "thm24"])
        assert out1 == out2


class TestMain:
    """What ``main`` does around a command: finding it, and writing its ``--out`` file."""

    def test_every_subcommand_has_a_command_function(self):
        # main runs cmd_<command>, with the dashes of the subcommand's name as underscores
        parser = cli.build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {"classical", "schmidt", "context-coeff", "mixed",
                                    "verify-paper"}
        for name in sub.choices:
            assert callable(getattr(cli, "cmd_" + name.replace("-", "_"), None)), name

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        rho, _ = mixed.separable_with_entangled_spectrum()
        out_path = tmp_path / "missing" / "out.json"
        calls = [["classical", write(tmp_path, "u.json", [0.5, 0.5])],
                 ["schmidt", write(tmp_path, "psi.json", cvec([0.6, 0, 0, 0.8])),
                  "--dims", "2", "2"],
                 ["context-coeff", write(tmp_path, "a.json", cmat([[0, 1], [1, 0]])),
                  write(tmp_path, "ctx.json", cmat(np.eye(2)))],
                 ["mixed", write(tmp_path, "rho.json", cmat(rho.mat)), "--dims", "2", "2",
                  "--restarts", "20"],
                 # its table is part of the report, so a failed write prints none of it
                 ["verify-paper", "--only", "example1"]]
        for argv in calls:
            code, out, err = run(capsys, argv + ["--out", str(out_path)])
            assert code == 2, argv[0]
            assert err.startswith(f"parse error: cannot write {out_path}: ")
            assert err.count("\n") == 1 and "Traceback" not in err
            assert out == "" and not out_path.parent.exists()


class TestParserReuse:
    """One parser serves every ``main`` call of a process; no call sees another's state."""

    def test_argparse_errors_leave_the_next_call_intact(self, tmp_path, capsys):
        measure = write(tmp_path, "u.json", [0.5, 0.5])
        psi = write(tmp_path, "psi.json", cvec([1.0, 0.0, 0.0, 0.0]))
        valid = {
            "classical": ["classical", measure],
            "schmidt": ["schmidt", psi, "--dims", "2", "2"],
        }
        expected = {name: run(capsys, argv) for name, argv in valid.items()}
        assert all(code == 0 for code, _, _ in expected.values())
        bad_calls = [(["classical"], "classical"), (["nope", measure], "classical"),
                     (["schmidt", psi, "--dims", "2"], "schmidt")]
        for bad, name in bad_calls:
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
            assert "usage: entnum" in capsys.readouterr().err
            assert run(capsys, valid[name]) == expected[name]

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        measure = write(tmp_path, "u.json", [0.5, 0.25, 0.25])
        out_path = tmp_path / "report.json"
        assert run(capsys, ["classical", measure, "--out", str(out_path)])[0] == 0
        assert out_path.exists()
        out_path.unlink()
        assert run(capsys, ["classical", measure])[0] == 0
        assert not out_path.exists()

    def test_build_parser_returns_a_fresh_parser(self, tmp_path, capsys):
        parser = cli.build_parser()
        assert parser is not cli.build_parser()
        parser.add_argument("--extra", required=True)  # would make every main call exit 2
        measure = write(tmp_path, "u.json", [1.0])
        code, out, _ = run(capsys, ["classical", measure])
        assert code == 0 and "point = yes" in out

    def test_patched_command_applies_after_the_parser_is_built(self, tmp_path, capsys,
                                                               monkeypatch):
        measure = write(tmp_path, "u.json", [1.0])
        assert run(capsys, ["classical", measure])[0] == 0
        monkeypatch.setattr(cli, "cmd_classical", lambda args: (cli.Report("stub", "0"), 0))
        code, out, _ = run(capsys, ["classical", measure])
        assert code == 0 and out.startswith("command: stub\n")

    def test_in_process_stdout_matches_a_fresh_process(self, tmp_path, capsys):
        rho, _ = mixed.separable_with_entangled_spectrum()
        psi = np.array([0.6, 0.0, 0.0, 0.8j])
        calls = [
            ["classical", write(tmp_path, "u.json", [0.5, 0.3, 0.2])],
            ["schmidt", write(tmp_path, "psi.json", cvec(psi)), "--dims", "2", "2"],
            ["context-coeff", write(tmp_path, "a.json", cmat([[1, 2j], [-2j, 0.5]])),
             write(tmp_path, "ctx.json", cmat(np.eye(2)))],
            ["mixed", write(tmp_path, "rho.json", cmat(rho.mat)), "--dims", "2", "2",
             "--restarts", "2"],
            ["verify-paper", "--only", "example1"],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for argv in calls:
            code, out, _ = run(capsys, argv)
            fresh = subprocess.run([sys.executable, "-m", "entnum", *argv],
                                   env=dict(os.environ, PYTHONPATH=path),
                                   capture_output=True, timeout=120)
            assert (fresh.returncode, fresh.stdout.decode()) == (code, out), argv[0]
