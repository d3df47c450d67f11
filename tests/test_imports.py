"""``import entnum`` loads no scipy, and the library and CLI run without it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entnum
from entnum import mixed

SRC = str(Path(entnum.__file__).resolve().parents[1])

BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import entnum
from entnum import cli
rho, _ = entnum.separable_with_entangled_spectrum()
result = entnum.entanglement_number_mixed(rho, entnum.OptimizerOptions(restarts=4, seed=0))
assert result.certificate is not None, result.value
with open(sys.argv[1], "w") as f:
    json.dump([0.5, 0.25, 0.25], f)
sys.exit(cli.main(["classical", sys.argv[1]]))
"""


def run_python(code, *args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_import_loads_no_scipy():
    res = run_python(
        "import sys, entnum\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_search_and_cli_run_with_scipy_blocked(tmp_path):
    res = run_python(BLOCKED, str(tmp_path / "measure.json"))
    assert res.returncode == 0, res.stderr
    assert "entanglement_number" in res.stdout


def test_scipy_names_resolve_on_access():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    assert mixed.expm is scipy_linalg.expm
    assert mixed.minimize is scipy_optimize.minimize


def test_other_missing_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mixed.no_such_name
