"""The numeric core imports numpy and the standard library only: every public
call outside the verification harness runs without loading scipy, which the
harness's Gauss rules and its trigamma reference import when they run.  Each
check runs in a fresh interpreter, since this test process has scipy loaded
already."""

import json
import os
import pathlib
import subprocess
import sys

import kernelbasis

SRC = pathlib.Path(kernelbasis.__file__).resolve().parent.parent

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
kb.cauchy_truncated(1.0, 4, x, x[:, None])
kb.gaussian_truncated(kb.GaussianScale(), 4, x, x[:, None])
kb.matern_kernel(kb.MaternOrder(300), x, 0.5)
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
with contextlib.redirect_stdout(io.StringIO()):
    for what in ("basis", "truncated"):
        assert cli.main(["eval", "--family", "matern", "--nu", "1", "--what", what,
                         "--grid", "-1:1:5"]) == 0
before = sorted(m for m in sys.modules if m.startswith("scipy"))
reports = kb.run_suite("matern")
print(json.dumps({
    "before": before,
    "after": any(m.startswith("scipy") for m in sys.modules),
    "failed": [r.check_name for r in reports if not r.passed],
    "reports": len(reports),
}))
"""


def test_public_calls_load_no_scipy_until_the_harness_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _CALLS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["before"] == []
    # the harness itself still loads scipy, so the guard above can see it
    assert result["after"]
    assert result["reports"] > 0 and result["failed"] == []
