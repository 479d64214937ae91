"""Stage probes: single layers timed with tracing off, through public calls.

The trace cannot see inside a public function, so the stages that live in
private helpers (the Matern null and plus blocks, the layout copy in
``features``, the Gram solve in ``krr_fit_predict``) are timed here by
calling the narrowest public function that runs them, on each workload's
own inputs.  Every probe runs in every traced run, whichever workload it
is, so each traced run reports the same set of layer numbers.  Their
outputs go to a tally of their own: the verification suites, for one, are
probed at the run's seed whatever the workload.

``harness_layers`` traces one run of every verification suite, so the
``quadrature`` and ``verify`` layers, which no workload calls, get self
time, calls and points too.

Probes run in rounds, each round calling every probe once, and a stage
found by difference (layout copy, Gram solve) is the median of its
per-round differences, so drift between rounds cancels.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import kernelbasis as kb
from kernelbasis.orthopoly import assoc_laguerre_table, hermite_normalized_table
from kernelbasis.verify import SUITE_NAMES

import workloads as wl
from tracer import Tracer, summarise

ROUNDS = 3
MATERN_NUS = (0, 2, 6)


def check_finite(result) -> tuple[int, list[str]]:
    if isinstance(result, list):  # verification reports
        return wl.check_reports(result)
    arr = np.asarray(result)
    return 1, [] if np.all(np.isfinite(arr)) else ["non-finite values"]


def probe_calls(seed: int) -> dict:
    """Every probe's call, keyed by metric name, plus the helper calls
    (keys without a module prefix) that stages found by difference need."""
    calls = {}
    x = wl.features_points(seed)
    n = wl.FEATURE_SPECS["gaussian"].n
    calls["orthopoly.hermite_table_s"] = lambda: hermite_normalized_table(
        n, 2.0 * x / math.sqrt(3.0))
    for nu in MATERN_NUS:
        spec = wl.FEATURE_SPECS[f"matern_nu{nu}"]
        order = kb.MaternOrder(nu, spec.lam)
        tr = kb.MaternTruncation(order, spec.n)
        calls[f"orthopoly.laguerre_table_s.nu{nu}"] = lambda spec=spec, nu=nu: (
            assoc_laguerre_table(spec.n, nu + 1, 2.0 * np.maximum(spec.lam * x, 0.0)))
        calls[f"matern.null_block_s.nu{nu}"] = lambda order=order: kb.matern_psi(
            order, kb.MaternBasisId("null", 0), x)
        calls[f"matern.plus_block_s.nu{nu}"] = lambda order=order, spec=spec: kb.matern_psi(
            order, kb.MaternBasisId("plus", spec.n - 1), x)
        calls[f"matern.basis_s.nu{nu}"] = lambda tr=tr: kb.matern_feature_map(tr, x)
    for label, spec in wl.FEATURE_SPECS.items():
        calls[f"featuremap.features_s.{label}"] = lambda spec=spec: kb.features(spec, x)

    train_x, train_y, test_x = wl.krr_inputs(seed)
    spec = wl.KRR_SPEC
    calls["krr_train_features"] = lambda: kb.features(spec, train_x)
    calls["krr_test_features"] = lambda: kb.features(spec, test_x)
    calls["krr_fit_predict"] = lambda: kb.krr_fit_predict(
        spec, train_x, train_y, wl.KRR_RIDGE, test_x)

    T, U = np.meshgrid(*wl.grid_axes(seed), indexing="ij")
    for family, call in wl.grid_calls(T, U).items():
        calls[f"{family}.truncated_s"] = call
    for suite in SUITE_NAMES:
        if suite != "all":
            calls[f"verify.suite_s.{suite}"] = lambda suite=suite: kb.run_suite(suite, seed=seed)
    return calls


def harness_layers(seed: int, tally) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of ``quadrature`` and ``verify`` from one traced
    ``run_suite("all")``: the verification harness and the quadrature rules
    it builds, which no workload calls."""
    op = wl.Op("verify.run_suite", "", lambda: kb.run_suite("all", seed=seed),
               check_finite, len)
    with Tracer() as tr:
        wl.timed_call(op, tally)
    out = {}
    for key, value in summarise(tr.spans, tr.legendre_rules).items():
        if key.split(".")[0] in ("quadrature", "verify"):
            out[key] = (value, "s" if key.endswith("_s") else "count")
    return out


def derived(t: dict[str, float]) -> dict[str, float]:
    """Stages found by difference within one round."""
    out = {
        f"featuremap.layout_s.matern_nu{nu}":
            t[f"featuremap.features_s.matern_nu{nu}"] - t[f"matern.basis_s.nu{nu}"]
        for nu in MATERN_NUS
    }
    out["featuremap.krr_features_s"] = t["krr_train_features"] + t["krr_test_features"]
    out["featuremap.krr_solve_s"] = t["krr_fit_predict"] - out["featuremap.krr_features_s"]
    return out


def probe_times(seed: int, tally, rounds: int = ROUNDS) -> dict[str, float]:
    """Median over rounds of each stage probe's time in seconds."""
    ops = [wl.Op(name, "", call, check_finite, len)
           for name, call in probe_calls(seed).items()]
    per_round = []
    for _ in range(rounds):
        t = {op.label: wl.timed_call(op, tally)[0] for op in ops}
        t.update(derived(t))
        per_round.append({k: v for k, v in t.items() if "." in k})
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
