"""The benchmark workloads: inputs from a seed, operations, checks.

Each workload stresses a different part of kernelbasis and exists for one
reason:

* ``features``: ``features(spec, x)`` on 2e5 distinct points for five specs.
  Polynomial tables, basis blocks and the layout copy do all the work; there
  is no solve and no quadrature.
* ``grid``: the three ``*_truncated`` kernels on a 300 x 300 meshgrid.  90 000
  pairs share only 300 distinct values per axis, the input-sharing extreme.
* ``krr``: ``krr_fit_predict`` on 3e5 training points, the only workload with
  a Gram matrix, a Cholesky solve and memory that scales with N.

The verification harness (``run_suite``) is not a workload of its own: its
thousands of small, interpreter-bound calls were the noisiest on a shared
2-core host (IQR/median of checks per CPU second 0.25 over ten runs of 30 s,
above the largest allowed bound).  Its layers, ``verify`` and
``quadrature``, are measured in every traced run instead (see probes.py).

Every operation's output is checked against a reference that does not come
from the code path under test: the closed-form kernels, the Cauchy geometric
partial sum, scipy's Laguerre polynomials, feature inner products or the
noiseless regression target.  References are computed once per run, outside the
timed region.

Calls are timed in CPU seconds of this process (``time.process_time``).  The
workloads are single-threaded (BLAS is pinned to one thread) and do no I/O,
so on an idle machine this equals wall time; on a shared virtual machine it
leaves out the time the host or another process takes the CPU away.  It
still includes slowdowns from other guests that share the physical cores,
caches and memory, which change over seconds to minutes; longer runs and
medians over many passes are what keep the figures steady.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

import kernelbasis as kb

FEATURES_N = 200_000
GRID_SIDE = 300
# N = 1e6 would hold a 512 MB feature matrix (1.5 GB traced peak) on a
# machine whose memory other jobs share
KRR_N = 300_000
KRR_TEST_N = 10_000
KRR_RIDGE = 1e-3
KRR_NOISE = 0.1
# test RMSE against the noiseless target; about 6e-4 is typical at KRR_N
KRR_RMSE_LIMIT = 5e-3
CHECK_POINTS = 200
KERNEL_TOL = 1e-13
GRID_TOL = 1e-12

FEATURE_SPECS = {
    "gaussian": kb.FeatureMapSpec("gaussian", n=64),
    "cauchy": kb.FeatureMapSpec("cauchy", n=32),
    "matern_nu0": kb.FeatureMapSpec("matern", n=32, nu=0),
    "matern_nu2": kb.FeatureMapSpec("matern", n=32, nu=2),
    "matern_nu6": kb.FeatureMapSpec("matern", n=32, nu=6),
}
GRID_SPECS = {
    "matern": kb.FeatureMapSpec("matern", n=32, nu=2),
    "cauchy": kb.FeatureMapSpec("cauchy", n=32),
    "gaussian": kb.FeatureMapSpec("gaussian", n=64),
}
KRR_SPEC = kb.FeatureMapSpec("gaussian", n=64)


@dataclass
class Op:
    """One public call: ``run()`` is timed, ``check(result)`` is not.

    ``check`` returns ``(attempted, problems)``; ``items(result)`` is the
    work the call completed, in the workload's unit.
    """

    label: str
    family: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]
    items: Callable[[object], int]


def timed_call(op: Op, tally) -> tuple[float, int]:
    """Time ``op.run()`` alone, then check its result into ``tally``.

    Returns the CPU seconds and the items completed (none if it raised).
    """
    start = time.process_time()
    try:
        result = op.run()
    except Exception as exc:  # noqa: BLE001 - any failure is a failed op
        elapsed = time.process_time() - start
        tally.raised(op.label, exc)
        return elapsed, 0
    elapsed = time.process_time() - start
    tally.check(op.label, op.check, result)
    return elapsed, op.items(result)


@dataclass
class Workload:
    name: str
    unit: str
    ops: list[Op]


def _max_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _array_check(shape: tuple, reference: Callable[[np.ndarray], tuple[float, float]]):
    """Check shape and finiteness, then compare with a reference: the
    callable returns ``(error, tolerance)``."""

    def check(result) -> tuple[int, list[str]]:
        arr = np.asarray(result)
        if arr.shape != shape:
            return 1, [f"shape {arr.shape}, expected {shape}"]
        if not np.all(np.isfinite(arr)):
            return 1, [f"{int(np.sum(~np.isfinite(arr)))} non-finite values"]
        err, tol = reference(arr)
        if not err <= tol:
            return 1, [f"reference error {err:.3e} > {tol:.1e}"]
        return 1, []

    return check


def _matern_handed(spec: kb.FeatureMapSpec, t: np.ndarray) -> np.ndarray:
    """Minus and plus feature columns at points t from the paper's formula,
    psi+_m(x) = nu!/sqrt((2 nu)!) m!/(m+nu+1)! (2x)^(nu+1) L_m^(nu+1)(2x) e^-x
    for x = lam t >= 0 and psi-_m(x) = (-1)^nu psi+_m(-x) for x < 0, with
    scipy's Laguerre polynomials instead of kernelbasis's recurrence tables."""
    nu, m = spec.nu, np.arange(spec.n)
    logpref = (gammaln(nu + 1) - 0.5 * gammaln(2 * nu + 1)
               + gammaln(m + 1) - gammaln(m + nu + 2))

    def plus(x):
        x = np.maximum(x, 0.0)[:, None]
        return (np.exp(logpref) * (2.0 * x) ** (nu + 1)
                * eval_genlaguerre(m, nu + 1, 2.0 * x) * np.exp(-x))

    x = spec.lam * t
    minus = np.where((x < 0)[:, None], (-1.0) ** nu * plus(-x), 0.0)
    return np.concatenate([minus, np.where((x > 0)[:, None], plus(x), 0.0)], axis=1)


def _feature_reference(spec: kb.FeatureMapSpec, x: np.ndarray):
    """Reference for ``features(spec, x)`` on the first CHECK_POINTS points.

    Gaussian: F F^T against the full kernel (the n = 64 tail is below 1e-15
    on [-3, 3]).  Cauchy: against 2 Re of the geometric closed form of the
    truncated sum.  Matern: on pairs of opposite sign only the null block
    contributes and it reproduces the kernel exactly; the minus and plus
    columns, which the kernel cannot pin down to 1e-13 at n = 32, are
    compared with _matern_handed.
    """
    sub = x[:CHECK_POINTS]
    if spec.family == "gaussian":
        ref = kb.gaussian_kernel(kb.GaussianScale(spec.lam), sub[:, None], sub[None, :])
        return lambda F: (_max_err(F[:CHECK_POINTS] @ F[:CHECK_POINTS].T, ref), KERNEL_TOL)
    if spec.family == "cauchy":
        s = spec.lam * sub
        ref = np.array([[2.0 * kb.cauchy_partial_sum_closed_form(spec.n, a, b).real
                         for b in s] for a in s])
        return lambda F: (_max_err(F[:CHECK_POINTS] @ F[:CHECK_POINTS].T, ref), KERNEL_TOL)
    neg = np.flatnonzero(sub < 0)
    pos = np.flatnonzero(sub > 0)
    order = kb.MaternOrder(spec.nu, spec.lam)
    ref = kb.matern_kernel(order, sub[neg][:, None], sub[pos][None, :])
    handed = _matern_handed(spec, sub)
    null = spec.nu + 1
    return lambda F: (max(_max_err(F[neg] @ F[pos].T, ref),
                          _max_err(F[:CHECK_POINTS, null:], handed)), KERNEL_TOL)


def features_points(seed: int, n: int = FEATURES_N) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-3.0, 3.0, n)


def features_workload(seed: int) -> Workload:
    x = features_points(seed)
    ops = []
    for label, spec in FEATURE_SPECS.items():
        check = _array_check((FEATURES_N, spec.dim), _feature_reference(spec, x))
        ops.append(Op(label, spec.family, lambda spec=spec: kb.features(spec, x),
                      check, lambda _, size=FEATURES_N * spec.dim: size))
    return Workload("features", "feature values", ops)


def features_warm_up(seed: int) -> None:
    x = features_points(seed, 1000)
    for spec in FEATURE_SPECS.values():
        kb.features(spec, x)


def grid_axes(seed: int, side: int = GRID_SIDE) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return (np.sort(rng.uniform(-3.0, 3.0, side)),
            np.sort(rng.uniform(-3.0, 3.0, side)))


def grid_calls(T: np.ndarray, U: np.ndarray) -> dict[str, Callable[[], np.ndarray]]:
    """The truncated kernel of each GRID_SPECS entry on one grid."""
    m, c, g = GRID_SPECS["matern"], GRID_SPECS["cauchy"], GRID_SPECS["gaussian"]
    tr = kb.MaternTruncation(kb.MaternOrder(m.nu, m.lam), m.n)
    return {
        "matern": lambda: kb.matern_truncated(tr, T, U),
        "cauchy": lambda: kb.cauchy_truncated(c.lam, c.n, T, U),
        "gaussian": lambda: kb.gaussian_truncated(kb.GaussianScale(g.lam), g.n, T, U),
    }


def grid_workload(seed: int) -> Workload:
    t, u = grid_axes(seed)
    T, U = np.meshgrid(t, u, indexing="ij")
    ops = []
    for family, call in grid_calls(T, U).items():
        spec = GRID_SPECS[family]
        ref = kb.features(spec, t) @ kb.features(spec, u).T
        check = _array_check(T.shape, lambda arr, ref=ref: (_max_err(arr, ref), GRID_TOL))
        ops.append(Op(family, family, call, check, lambda _: T.size))
    return Workload("grid", "kernel pairs", ops)


def grid_warm_up(seed: int) -> None:
    small = np.meshgrid(*grid_axes(seed, 20), indexing="ij")
    for call in grid_calls(*small).values():
        call()


def krr_inputs(seed: int, n: int = KRR_N):
    rng = np.random.default_rng(seed)
    train_x = rng.uniform(-3.0, 3.0, n)
    train_y = np.sin(2.0 * train_x) + KRR_NOISE * rng.standard_normal(n)
    test_x = rng.uniform(-3.0, 3.0, KRR_TEST_N)
    return train_x, train_y, test_x


def krr_workload(seed: int) -> Workload:
    train_x, train_y, test_x = krr_inputs(seed)
    target = np.sin(2.0 * test_x)

    def rmse(pred):
        return float(np.sqrt(np.mean((pred - target) ** 2))), KRR_RMSE_LIMIT

    op = Op("krr", KRR_SPEC.family,
            lambda: kb.krr_fit_predict(KRR_SPEC, train_x, train_y, KRR_RIDGE, test_x),
            _array_check(test_x.shape, rmse), lambda _: KRR_N)
    return Workload("krr", "training points", [op])


def krr_warm_up(seed: int) -> None:
    train_x, train_y, test_x = krr_inputs(seed, 2000)
    kb.krr_fit_predict(KRR_SPEC, train_x, train_y, KRR_RIDGE, test_x)


def check_reports(reports) -> tuple[int, list[str]]:
    """Every verification check is one attempt; a check that does not pass,
    or whose computed value is not finite, is one failure."""
    reports = list(reports)
    if not reports:
        return 1, ["no checks returned"]
    bad = [r for r in reports if not (r.passed and np.isfinite(r.computed))]
    return len(reports), [
        f"{r.check_name} error {r.abs_error:.3e} > {r.tolerance:.1e}" for r in bad
    ]


# name -> (build the workload from a seed, first call of each operation on
# small inputs, as a user's first call would pay for imports and lazy set-up)
WORKLOADS = {
    "features": (features_workload, features_warm_up),
    "grid": (grid_workload, grid_warm_up),
    "krr": (krr_workload, krr_warm_up),
}
