"""The package imports numpy and the standard library only, and declares
exactly that: no public call, the verification harness included, loads
scipy, and the declared dependencies match the imports of the source.  The
runtime check runs in a fresh interpreter, since this test process has scipy
loaded already (the tests use it as an independent reference).  Inside the
package, the numerical modules import neither the report nor the harness."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import kernelbasis

SRC = pathlib.Path(kernelbasis.__file__).resolve().parent.parent
ROOT = SRC.parent
TESTS = pathlib.Path(__file__).resolve().parent

_CALLS = """
import contextlib, io, json, math, sys
import numpy as np
import kernelbasis as kb
from kernelbasis import cli

x = np.linspace(-3.0, 3.0, 7)
for spec in (kb.FeatureMapSpec("matern", n=4, nu=2), kb.FeatureMapSpec("cauchy", n=4),
             kb.FeatureMapSpec("gaussian", n=4)):
    kb.features(spec, x)
    kb.krr_fit_predict(spec, x, np.sin(x), 1e-3, [0.5])
    kb.krr_fit_predict(spec, x[:3], np.sin(x[:3]), 0.0, [0.5])
order = kb.MaternOrder(2)
kb.matern_truncated(kb.MaternTruncation(order, 4), x, x[:, None])
kb.matern_feature_map(kb.MaternTruncation(order, 4), x)
kb.cauchy_truncated(1.0, 4, x, x[:, None])
kb.gaussian_truncated(kb.GaussianScale(), 4, x, x[:, None])
kb.matern_kernel(kb.MaternOrder(300), x, 0.5)
kb.cauchy_kernel(1.0, x, 0.5)
kb.gaussian_kernel(kb.GaussianScale(), x, 0.5)
kb.cauchy_partial_sum_closed_form(4, 0.3, 0.5)
kb.gaussian_truncation_error(4)
kb.mehler_check(0.5, 0.3, 0.7)
kb.mercer_eigenvalue(kb.MercerParams(1.0), 3)
kb.check_identity("conjugate_symmetry", (2,), x)
kb.matern_exact_hs_error(order, 8)
kb.matern_truncation_error_bound(order, 8)
kb.matern_psi_norm_sq(order, 3)
kb.matern_psi_bound(order)
for kind in ("plus", "minus", "null"):
    kb.matern_psi(order, kb.MaternBasisId(kind, 1), x)
kb.matern_psi_unified(order, -5, x)
kb.cauchy_real_basis("beta", 3, x)
kb.cauchy_psi_complex(-3, x)
kb.laguerre_fn(-3, x)
kb.laguerre_fn_ft(3, x)
kb.gaussian_psi(3, x)
kb.gaussian_psi_scaled(3, 0.5, x)
kb.hermite_fn(3, x)
kb.mercer_eigenfunction(kb.MercerParams(1.0), 3, x)
kb.laguerre(3, x)
kb.assoc_laguerre(3, 2, x)
kb.hermite(3, x)
kb.hermite_normalized(3, x)
kb.gram_matrix("hermite_fn", range(4), kb.gauss_hermite_rule(256))
kb.gram_matrix("matern_plus", range(4), kb.gauss_laguerre_rule(256, 3.0), nu=2)
kb.convolution_oracle("matern", 1, 0.5, nu=2)
kb.truncation_sweep("cauchy", [1, 4], [(0.3, 0.5)])
with contextlib.redirect_stdout(io.StringIO()):
    for what in ("basis", "truncated"):
        assert cli.main(["eval", "--family", "matern", "--nu", "1", "--what", what,
                         "--grid", "-1:1:5"]) == 0
reports = kb.run_suite("all")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
# positive control: the same guard sees scipy once it is imported
import scipy.linalg
print(json.dumps({
    "loaded": loaded,
    "control": "scipy.linalg" in sys.modules,
    "failed": [r.check_name for r in reports if not r.passed],
    "reports": len(reports),
}))
"""


def test_every_public_call_and_the_whole_harness_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _CALLS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert result["control"]
    assert result["reports"] > 0 and result["failed"] == []


def _third_party_imports(files, local=()) -> set:
    """Top-level modules imported anywhere in the files (function-level imports
    included), less the standard library, the package and ``local`` modules."""
    mods = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods.add(node.module.split(".")[0])
    return mods - set(sys.stdlib_module_names) - {"kernelbasis", *local}


def _names(requirements) -> set:
    """Distribution names of requirement strings such as ``numpy>=1.24``."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements}


def test_declared_dependencies_match_the_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    assert _third_party_imports(sorted((SRC / "kernelbasis").glob("*.py"))) == runtime == {"numpy"}
    local = {path.stem for path in TESTS.glob("*.py")}
    tests = _third_party_imports(sorted(TESTS.glob("*.py")), local)
    assert tests <= runtime | _names(project["optional-dependencies"]["test"])
    assert "scipy" in tests  # the scan sees the tests' independent reference


def _package_imports(path) -> set:
    """Package modules a file imports, relative or absolute (function-level
    imports included), by their names under the package; each name of a
    ``from`` import counts as a possible submodule."""
    mods = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("kernelbasis" + (f".{node.module}" if node.module else "")
                    if node.level else node.module)
            mods.update([base, *(f"{base}.{alias.name}" for alias in node.names)])
    return {m.split(".")[1] for m in mods if m.startswith("kernelbasis.")}


@pytest.mark.parametrize("module", ["_lowrank", "orthopoly", "laguerre", "matern", "cauchy",
                                    "gaussian", "quadrature", "featuremap"])
def test_numerical_layers_import_neither_the_report_nor_the_harness(module):
    # every check, and so every VerificationReport, lives in the harness above them
    assert not _package_imports(SRC / "kernelbasis" / f"{module}.py") & {"report", "verify"}
    # positive control: the same scan sees the harness import the report
    assert "report" in _package_imports(SRC / "kernelbasis" / "verify.py")


def test_only_the_harness_report_builder_constructs_a_report():
    calls = [(path.stem, fn.name) for path in sorted((SRC / "kernelbasis").glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "VerificationReport"]
    assert calls == [("verify", "_report")]
