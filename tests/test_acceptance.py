"""End-to-end acceptance checks, one test per criterion, tolerances pinned.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Matern-family criteria that do not fix the smoothness
run at nu = 3: the pointwise 1e-6 reconstruction target is analytically
out of reach of the nu = 0 expansion (its diagonal error decays like
n^{-1/2}), while every nu-explicit criterion covers nu <= 4.
"""

import math
import time

import numpy as np
import pytest

import kernelbasis as kb
from kernelbasis.featuremap import FeatureMapSpec, krr_fit_predict
from kernelbasis.gaussian import GaussianScale, MercerParams
from kernelbasis.matern import MaternBasisId, MaternOrder, MaternTruncation
from kernelbasis.verify import DEFAULT_SEED

ALPHA = math.sqrt(2.0 / 3.0)


def _report(num, name, passed, detail, budget=None, elapsed=None):
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.2f}s < {budget:.0f}s]" if budget is not None else ""
    print(f"[criterion {num:02d}] {name}: {status} ({detail}){timing}")
    assert passed, f"criterion {num} ({name}): {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def _seeded_pairs(count=20, lo=-3.0, hi=3.0):
    rng = np.random.default_rng(DEFAULT_SEED)
    return rng.uniform(lo, hi, size=(count, 2))


def test_criterion_01_gaussian_exact_truncation_error():
    start = time.perf_counter()
    rule = kb.gauss_hermite_rule(128)
    tpts = rule.nodes / ALPHA
    W = np.outer(rule.weights, rule.weights) / math.pi
    T, U = np.meshgrid(tpts, tpts, indexing="ij")
    s = GaussianScale(1.0)
    r = kb.gaussian_kernel(s, T, U)
    worst = 0.0
    for n in range(1, 7):
        closed = kb.gaussian_truncation_error(n)
        assert closed == pytest.approx(3.0 ** (-n) / math.sqrt(2.0), rel=1e-15, abs=0)
        quad = math.sqrt(float(np.sum(W * (r - kb.gaussian_truncated(s, n, T, U)) ** 2)))
        worst = max(worst, abs(quad - closed) / closed)
    elapsed = time.perf_counter() - start
    _report(1, "gaussian exact truncation error", worst <= 1e-6,
            f"max rel dev {worst:.2e} <= 1e-6, n=1..6", 10.0, elapsed)


def test_criterion_02_matern_norm_formula():
    start = time.perf_counter()
    worst = 0.0
    for nu in range(5):
        rule = kb.gauss_laguerre_rule(128, nu + 1.0)
        idx = range(13)
        G = kb.gram_matrix("matern_plus", idx, rule, nu=nu)
        order = MaternOrder(nu)
        expected = np.diag([kb.matern_psi_norm_sq(order, m) for m in idx])
        worst = max(worst, float(np.max(np.abs(G - expected))))
    elapsed = time.perf_counter() - start
    _report(2, "matern norm formula", worst <= 1e-8,
            f"max |gram - diag| {worst:.2e} <= 1e-8, nu<=4, m<=12", 30.0, elapsed)


def test_criterion_03_matern_truncation_bound():
    start = time.perf_counter()
    ratios = []
    for nu in range(5):
        order = MaternOrder(nu)
        for n in (1, 2, 4, 8, 16, 32, 64):
            ratios.append(
                kb.matern_exact_hs_error(order, n)
                / kb.matern_truncation_error_bound(order, n)
            )
    ok = all(0.0 < r <= 1.0 for r in ratios)
    elapsed = time.perf_counter() - start
    _report(3, "matern truncation bound", ok,
            f"exact/bound in ({min(ratios):.3f}, {max(ratios):.3f}] subset (0, 1]",
            5.0, elapsed)


def test_criterion_04_pointwise_kernel_reconstruction():
    start = time.perf_counter()
    pairs = _seeded_pairs()
    ts, us = pairs[:, 0], pairs[:, 1]
    errs = {}
    order3 = MaternOrder(3)
    errs["matern(nu=3,n=200)"] = float(np.max(np.abs(
        kb.matern_kernel(order3, ts, us)
        - kb.matern_truncated(MaternTruncation(order3, 200), ts, us)
    )))
    errs["cauchy(n=200)"] = float(np.max(np.abs(
        kb.cauchy_kernel(1.0, ts, us) - kb.cauchy_truncated(1.0, 200, ts, us)
    )))
    s = GaussianScale(1.0)
    errs["gaussian(n=60)"] = float(np.max(np.abs(
        kb.gaussian_kernel(s, ts, us) - kb.gaussian_truncated(s, 60, ts, us)
    )))
    ok = all(v <= 1e-6 for v in errs.values())
    # opposite signs: one term per handed class suffices for any nu
    split = 0.0
    rng = np.random.default_rng(DEFAULT_SEED)
    side = rng.uniform(0.05, 3.0, size=(20, 2))
    for nu in range(5):
        order = MaternOrder(nu)
        tr = MaternTruncation(order, 1)
        split = max(split, float(np.max(np.abs(
            kb.matern_kernel(order, -side[:, 0], side[:, 1])
            - kb.matern_truncated(tr, -side[:, 0], side[:, 1])
        ))))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    _report(4, "pointwise kernel reconstruction", ok and split <= 1e-12,
            f"{detail}; sign-split {split:.1e} <= 1e-12 at n=1", 10.0, elapsed)


def test_criterion_05_known_closed_forms():
    d = np.linspace(0.0, 6.0, 121)
    worst = 0.0
    for nu, closed in ((1, (1.0 + d) * np.exp(-d)), (2, (1.0 + d + d * d / 3.0) * np.exp(-d))):
        order = MaternOrder(nu)
        nullsum = sum(
            kb.matern_psi(order, MaternBasisId("null", m), 0.0)
            * kb.matern_psi(order, MaternBasisId("null", m), d)
            for m in range(nu + 1)
        )
        worst = max(worst, float(np.max(np.abs(nullsum - closed))))
    _report(5, "known closed forms", worst <= 1e-12,
            f"max dev {worst:.2e} <= 1e-12 on d in [0, 6]")


def test_criterion_06_convolution_oracle():
    start = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 21)
    worst_m = 0.0
    for nu in range(4):
        order = MaternOrder(nu)
        for m in range(9):
            bid = MaternBasisId("plus", m)
            for t in grid:
                worst_m = max(worst_m, abs(
                    kb.convolution_oracle("matern", m, float(t), nu=nu)
                    - kb.matern_psi(order, bid, float(t))
                ))
    worst_g = 0.0
    for m in range(11):
        for t in grid:
            worst_g = max(worst_g, abs(
                kb.convolution_oracle("gaussian", m, float(t)) - kb.gaussian_psi(m, float(t))
            ))
    elapsed = time.perf_counter() - start
    _report(6, "convolution oracle", worst_m <= 1e-6 and worst_g <= 1e-6,
            f"matern {worst_m:.2e}, gaussian {worst_g:.2e} <= 1e-6", 60.0, elapsed)


def test_criterion_07_identity_suite():
    grid = np.linspace(-20.0, 20.0, 50)
    worst = 0.0
    for m in range(-6, 7):
        worst = max(worst, kb.check_identity("conjugate_symmetry", (m,), grid).computed)
        for k in range(-6, 7):
            worst = max(worst, kb.check_identity("shift", (m, k), grid).computed)
            worst = max(worst, kb.check_identity("multiplication", (m, k), grid).computed)
    for nu in range(7):
        worst = max(worst, kb.check_identity("binomial", (nu,), grid).computed)
    _report(7, "identity suite", worst <= 1e-12,
            f"max deviation {worst:.2e} <= 1e-12 for |m|, k, nu <= 6")


def test_criterion_08_uniform_bound():
    tgrid = np.linspace(-8.0, 8.0, 1601)
    worst = -np.inf
    ok = True
    for nu in range(5):
        order = MaternOrder(nu)
        bound = kb.matern_psi_bound(order)
        peak = max(
            float(np.max(np.abs(kb.matern_psi_unified(order, m, tgrid))))
            for m in range(-30, 31)
        )
        ok = ok and peak <= bound + 1e-12
        worst = max(worst, peak - bound)
    _report(8, "uniform bound", ok, f"max(peak - bound) {worst:.2e} <= 1e-12, nu<=4")


def test_criterion_09_cauchy_geometric_closed_form():
    pairs = _seeded_pairs()
    worst_limit = 0.0
    for t, u in pairs:
        closed = 0.5 / ((1j * t - 1.0) * (-1j * u - 1.0) - t * u)
        # sum_m psi_m(t) psi_m^*(u) equals the displayed closed form; the
        # library partial sum conjugates its first argument, so swap
        partial = kb.cauchy_partial_sum_closed_form(300, float(u), float(t))
        worst_limit = max(worst_limit, abs(partial - closed))
    worst_group = 0.0
    for t, u in pairs[:8]:
        for m in range(64):
            grp = (
                np.conj(kb.cauchy_psi_complex(m, t)) * kb.cauchy_psi_complex(m, u)
                + np.conj(kb.cauchy_psi_complex(-m - 1, t)) * kb.cauchy_psi_complex(-m - 1, u)
            ).real
            real_pair = (
                kb.cauchy_real_basis("alpha", m, t) * kb.cauchy_real_basis("alpha", m, u)
                + kb.cauchy_real_basis("beta", m, t) * kb.cauchy_real_basis("beta", m, u)
            )
            worst_group = max(worst_group, abs(grp - real_pair))
    _report(9, "cauchy geometric closed form",
            worst_limit <= 1e-10 and worst_group <= 1e-12,
            f"limit dev {worst_limit:.2e} <= 1e-10, group dev {worst_group:.2e} <= 1e-12")


def test_criterion_10_mehler_consistency():
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 5):
        for y in np.linspace(-2.0, 2.0, 5):
            worst = max(worst, kb.mehler_check(1.0 / 3.0, float(x), float(y)).abs_error)
    worst_kernel = 0.0
    s = GaussianScale(1.0)
    for t, u in _seeded_pairs(10):
        rep = kb.mehler_check(1.0 / 3.0, 2.0 * t / math.sqrt(3.0), 2.0 * u / math.sqrt(3.0))
        lhs = (2.0 * math.sqrt(2.0) / 3.0) * math.exp((t * t + u * u) / 3.0) * rep.computed
        worst_kernel = max(worst_kernel, abs(lhs - kb.gaussian_kernel(s, t, u)))
    _report(10, "mehler consistency", worst <= 1e-10 and worst_kernel <= 1e-10,
            f"grid dev {worst:.2e}, kernel dev {worst_kernel:.2e} <= 1e-10")


def test_criterion_11_mercer_relation():
    params = MercerParams(ALPHA)
    grid = np.linspace(-4.0, 4.0, 41)
    worst = 0.0
    for m in range(16):
        lhs = math.sqrt(kb.mercer_eigenvalue(params, m)) * kb.mercer_eigenfunction(
            params, m, grid
        )
        worst = max(worst, float(np.max(np.abs(lhs - kb.gaussian_psi(m, grid)))))
    _report(11, "mercer relation", worst <= 1e-12,
            f"max dev {worst:.2e} <= 1e-12 for m <= 15")


def test_criterion_12_krr_demo():
    start = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED)
    xtr = rng.uniform(-3.0, 3.0, 20)
    ytr = np.sin(2.0 * xtr) + 0.1 * rng.standard_normal(20)
    xte = np.linspace(-3.0, 3.0, 50)
    ridge = 1e-2
    devs = {}
    for family, nu in (("matern", 3), ("cauchy", None), ("gaussian", None)):
        spec = FeatureMapSpec(family, n=200, nu=nu)
        pred = krr_fit_predict(spec, xtr, ytr, ridge, xte)
        K = spec.kernel(xtr[:, None], xtr[None, :])
        Kt = spec.kernel(xte[:, None], xtr[None, :])
        full = Kt @ np.linalg.solve(K + ridge * np.eye(20), ytr)
        devs[family] = float(np.max(np.abs(pred - full)))
    ok = all(v <= 1e-5 for v in devs.values())
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} {v:.1e}" for k, v in devs.items())
    _report(12, "krr reduced-rank vs full-kernel", ok,
            f"{detail} <= 1e-5 at n=200", 10.0, elapsed)
