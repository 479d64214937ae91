"""Relative accuracy of every public basis evaluator against 40-digit mpmath.

The error of a value v of f at x is |v - f(x)| / (|f(x)| + eps |x f'(x)|),
eps = 2^-52, with f' from mpmath.  The second term is the error that
rounding x itself causes, so a point next to a root of f does not set the
bar.  There is no absolute floor: one taken from a row's maximum would pass
a row that is accurate only far from the origin, as the Matern handed rows
seeded at the null rows' seed were (3e-8 to 6e109 off, relative, near the
origin at nu = 2..30, while every absolute test passed).

Points run from 1e-6 out to where the evaluator's seed (its row 0 weight)
underflows, on both sides of the origin unless the function is even or odd
by construction; degrees m < 64, up to 511 for the Hermite families and
up to the degree cap 512 for the handed Matern rows at nu = 100..1000.  A
true value below 1e-290 is not compared, as a subnormal or underflowed
float has no relative accuracy; a value that is exactly 0 must come out
exactly 0.  Each bar is 4x the largest error measured before it was pinned,
rounded up to one significant digit, and at least 1e-15 (4.5 ulp), so that
a last bit of another libm does not fail it.  The handed Matern rows at
nu = 2, 6, 10 and 30 keep the 3.4-4.1x bars of the plain relative error
test they replace, whose points they include: there eps |x f'| is at most
2.1e-11 of |f|, so the error is the plain relative one.
"""

import importlib
import inspect
import math

import mpmath
import numpy as np
import pytest

import kernelbasis as kb
from kernelbasis.gaussian import mercer_weight
from oracles import (cauchy_psi_mp, hermite_form_mp, laguerre_fn_ft_mp, laguerre_form_mp,
                     matern_handed_mp, matern_null_mp)

_EPS = 2.0**-52
_SMALLEST = 1e-290
# log of the smallest normal float, to place the far points
_LOG_TINY = math.log(np.finfo(float).tiny)

_NEAR = np.array([1e-6, 1e-4, 1e-2])
_MODERATE = np.array([0.3, 1.0, 3.0])
_HERMITE_MS = [0, 1, 2, 5, 13, 34, 63, 150, 300, 511]
# m < 64 on both sides of the two-sided index of the Laguerre-type families
_MS = [0, 1, 2, 7, 32, 63]
_SIGNED_MS = [-64, -33, -8, -2, -1, *_MS]


def _far(limit: float) -> np.ndarray:
    return np.geomspace(8.0, 0.99 * limit, 3)


def _both_sides(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x, -x])


def _each(call):
    """values(indices, x) of an evaluator of one index at a time."""
    return lambda indices, x: np.array([call(i, x) for i in indices])


def _hermite_contract(call, params, bar):
    """Contract of c p^{-m/2} e^{-x^2/v} e_m(x/w), (c, p, v, w) = params() in
    the current mpmath precision, whose rows are even or odd in x, out to
    where its seed c e^{-x^2/v} underflows or, where the rows grow, to where
    their envelope e^{x^2 (1/(2 w^2) - 1/v)} reaches e^700."""
    c, p, v, w = params()
    limit = math.sqrt(float(v) * (math.log(float(c)) - _LOG_TINY))
    growth = float(1 / (2 * w * w) - 1 / v)
    if growth > 0:
        limit = min(limit, math.sqrt(700.0 / growth))

    def reference(ms, t):
        return hermite_form_mp(ms, *params(), t)

    return _each(call), reference, _HERMITE_MS, np.concatenate([_NEAR, _MODERATE, _far(limit)]), bar


def _scaled_params(kappa: float):
    kappa = mpmath.mpf(kappa)
    a = 1 + kappa**2 / 2
    shrink = 1 - kappa**2 / a
    return (mpmath.sqrt(mpmath.sqrt(2) * kappa / a), 1 / shrink, 2 * a / kappa**2,
            a * mpmath.sqrt(shrink) / kappa)


def _mercer_params(alpha: float):
    alpha = mpmath.mpf(alpha)
    beta = (1 + 2 / alpha**2) ** mpmath.mpf(0.25)
    delta_sq = alpha**2 * (beta**2 - 1) / 2
    return mpmath.sqrt(beta), 1, 1 / delta_sq, 1 / (alpha * beta)


def _mercer_weight_contract(alpha: float, bar):
    params = kb.MercerParams(alpha)

    def reference(ms, t):
        f = alpha / mpmath.sqrt(mpmath.pi) * mpmath.exp(-(alpha * mpmath.mpf(t)) ** 2)
        return [(f, -2 * (alpha * mpmath.mpf(t)) ** 2 * f)]

    x = np.concatenate([_NEAR, _MODERATE, _far(math.sqrt(-_LOG_TINY) / alpha)])
    return (lambda ms, x: mercer_weight(params, x)[None, :]), reference, [0], x, bar


def _laguerre_fn_reference(ms, t):
    rows = laguerre_form_mp(max(max(ms), -min(ms) - 1) + 1, 0, 0, abs(t))
    out = []
    for m in ms:
        j, sign, side = (m, 1, t >= 0) if m >= 0 else (-m - 1, -1, t < 0)
        f, xf = rows[j]
        out.append((sign * mpmath.sqrt(2) * f, mpmath.sqrt(2) * xf) if side else (0, 0))
    return out


def _cauchy_real(kind: str):
    part = (lambda z: z.real) if kind == "alpha" else (lambda z: z.imag)

    def reference(ms, t):
        return [(mpmath.sqrt(2) * part(f), mpmath.sqrt(2) * part(xf))
                for f, xf in (cauchy_psi_mp(m, t) for m in ms)]

    return _each(lambda m, x: kb.cauchy_real_basis(kind, m, x)), reference


def _matern_reference(nu: int):
    """reference(ids, t) for ids (kind, m), kind "null", "minus" or "plus"."""

    def reference(ids, t):
        handed = [m for kind, m in ids if kind != "null"]
        handed = matern_handed_mp(nu, max(handed) + 1, t, with_derivative=True) if handed else []
        null = matern_null_mp(nu, t) if any(kind == "null" for kind, _ in ids) else []
        return [null[m] if kind == "null"
                else handed[m] if (kind == "plus") == (t >= 0) else (0, 0)
                for kind, m in ids]

    return reference


def _matern_psi(nu: int, classes: str, ms=_MS):
    order = kb.MaternOrder(nu)
    if classes == "null":
        ids = [("null", m) for m in sorted({0, 1, nu // 2, nu - 1, nu}) if 0 <= m <= nu]
    else:
        ids = [(kind, m) for kind in ("minus", "plus") for m in ms]
    return (_each(lambda bid, x: kb.matern_psi(order, kb.MaternBasisId(*bid), x)),
            _matern_reference(nu), ids)


def _matern_unified(nu: int):
    def kind_m(m):
        return (("plus", m) if m >= 0 else ("null", m + nu + 1) if m >= -nu - 1
                else ("minus", -nu - 2 - m))

    reference = _matern_reference(nu)
    return (_each(lambda m, x: kb.matern_psi_unified(kb.MaternOrder(nu), m, x)),
            lambda ms, t: reference([kind_m(m) for m in ms], t),
            [-nu - 2 - 63, -nu - 2, *range(-nu - 1, 0), *_MS])


def _matern_feature_map(nu: int, n: int = 64):
    """The handed columns, every m < n (the null columns are those of matern_psi)."""
    tr = kb.MaternTruncation(kb.MaternOrder(nu), n)
    ids = ([("null", m) for m in range(nu + 1)] + [("minus", m) for m in range(n)]
           + [("plus", m) for m in range(n)])
    reference = _matern_reference(nu)
    return ((lambda cols, x: kb.matern_feature_map(tr, x).T[cols]),
            lambda cols, t: reference([ids[i] for i in cols], t), list(range(nu + 1, len(ids))))


# near the origin, where the handed rows once went wrong, and out to where
# e^{-|x|} underflows
_MATERN_X = _both_sides(np.concatenate([[1e-6, 1e-4], np.geomspace(1e-3, 2.0, 25),
                                        [5.0, 20.0, 60.0, 200.0, 700.0]]))
_RATIONAL_X = _both_sides(np.concatenate([_NEAR, _MODERATE, [10.0, 1e4, 1e8]]))
# around and past |x| ~ 708.4, where e^{-|x|} underflows and the
# exponent-tracked path takes over, on both sides of the origin
_EDGE_MS = [m for j in (0, 1, 5, 40, 300) for m in (j, -j - 1)]
_EDGE_X = np.array([708.3, 708.45, 708.6, 708.8, 720.0, 800.0, 1500.0, -708.5, -900.0])

# the handed rows at large nu up to the degree cap, with points out to
# 1.5 nu, where the rows peak: on _MATERN_X alone only 16 values at
# nu = 1000 lie above _SMALLEST
_CAP_MS = [*_MS, 511, 512]


def _cap_x(nu: int) -> np.ndarray:
    return np.concatenate([_MATERN_X, _both_sides(nu * np.array([0.25, 0.5, 1.0, 1.5]))])


# measured maxima, each with its bar: hermite_fn 3.7e-14; gaussian_psi
# 4.9e-13; kappa = 0.3, 1.3: 2.4e-13, 1.9e-12 (the rounding of S enters
# p^{-m/2} m/2 times; 7.0e-12 at 1.3 with S formed as 1 - kappa^2/A, which
# cancels); mercer alpha = 0.3, 3: 3.0e-14, 6.1e-14; mercer_weight 5.3e-15,
# 4.4e-14; laguerre_fn 1.0e-13; laguerre_fn_ft
# 1.1e-14; cauchy_psi_complex 6.0e-15; alpha, beta 1.4e-14, 2.1e-14; matern
# null at nu = 0, 2, 6, 10, 30: 7.7e-17, 1.7e-16, 1.9e-15, 4.5e-14, 2.1e-8
# (the last null row near the origin: the recurrence on L^(-nu-1) cancels by
# about C(nu, nu/2) there); handed at nu = 0, 6: 1.5e-13, 7.1e-12; unified
# (nu = 3) 7.9e-13; feature map, every handed m < 64, at nu = 2, 6, 10, 30:
# 4.4e-11, 7.1e-12, 1.2e-12, 3.7e-14, each at a point of the replaced test;
# handed at nu = 100, 300, 1000 (_CAP_MS, _cap_x): 2.0e-13, 2.4e-12, 1.1e-12
# over 336, 128 and 70 values (the 40-digit references agree with 60-digit
# ones to 3e-37)
_NULL_BARS = {0: 1e-15, 2: 1e-15, 6: 8e-15, 10: 2e-13, 30: 9e-8}
# the bars of the replaced test; every handed row of these orders is a
# matern_feature_map row below
_HANDED_BARS = {2: 1.5e-10, 6: 2.5e-11, 10: 5e-12, 30: 1.5e-13}

# name -> (values(indices, x) of shape (len(indices), x.size),
#          reference(indices, t) -> [(f(t), t f'(t))], indices, points, bar)
_CONTRACTS = {
    "hermite_fn": _hermite_contract(
        kb.hermite_fn, lambda: (mpmath.power(mpmath.pi, -0.25), 1, 2, 1), 2e-13),
    "gaussian_psi": _hermite_contract(
        kb.gaussian_psi,
        lambda: (mpmath.sqrt(2 * mpmath.sqrt(2) / 3), 3, 3, mpmath.sqrt(3) / 2), 2e-12),
    **{f"gaussian_psi_scaled/kappa={kappa}": _hermite_contract(
        lambda m, x, kappa=kappa: kb.gaussian_psi_scaled(m, kappa, x),
        lambda kappa=kappa: _scaled_params(kappa), bar)
       for kappa, bar in ((0.3, 1e-12), (1.3, 8e-12))},
    **{f"mercer_eigenfunction/alpha={alpha}": _hermite_contract(
        lambda m, x, alpha=alpha: kb.mercer_eigenfunction(kb.MercerParams(alpha), m, x),
        lambda alpha=alpha: _mercer_params(alpha), bar)
       for alpha, bar in ((0.3, 2e-13), (3.0, 3e-13))},
    **{f"mercer_weight/alpha={alpha}": _mercer_weight_contract(alpha, bar)
       for alpha, bar in ((0.3, 3e-14), (3.0, 2e-13))},
    "laguerre_fn": (_each(kb.laguerre_fn), _laguerre_fn_reference, _SIGNED_MS,
                    _both_sides(np.concatenate([_NEAR, _MODERATE, _far(700.0)])), 5e-13),
    "laguerre_fn/past_underflow_edge": (_each(kb.laguerre_fn), _laguerre_fn_reference, _EDGE_MS,
                                        _EDGE_X, 2e-14),
    "laguerre_fn_ft": (_each(kb.laguerre_fn_ft),
                       lambda ms, w: [laguerre_fn_ft_mp(m, w) for m in ms],
                       _SIGNED_MS, _RATIONAL_X, 5e-14),
    "cauchy_psi_complex": (_each(kb.cauchy_psi_complex),
                           lambda ms, t: [cauchy_psi_mp(m, t) for m in ms],
                           _SIGNED_MS, _RATIONAL_X, 3e-14),
    **{f"cauchy_real_basis/{kind}": (*_cauchy_real(kind), _MS, _RATIONAL_X, bar)
       for kind, bar in (("alpha", 6e-14), ("beta", 9e-14))},
    **{f"matern_psi/null/nu={nu}": (*_matern_psi(nu, "null"), _MATERN_X, bar)
       for nu, bar in _NULL_BARS.items()},
    **{f"matern_psi/handed/nu={nu}": (*_matern_psi(nu, "handed"), _MATERN_X, bar)
       for nu, bar in ((0, 7e-13), (6, _HANDED_BARS[6]))},
    **{f"matern_psi/handed/nu={nu}": (*_matern_psi(nu, "handed", _CAP_MS), _cap_x(nu), bar)
       for nu, bar in ((100, 9e-13), (300, 1e-11), (1000, 5e-12))},
    "matern_psi_unified": (*_matern_unified(3), _MATERN_X, 4e-12),
    **{f"matern_feature_map/nu={nu}": (*_matern_feature_map(nu), _MATERN_X, bar)
       for nu, bar in _HANDED_BARS.items()},
}


def _worst(values, reference, indices, x) -> float:
    """The largest relative error over the indices and the points x."""
    got = values(indices, x)
    worst = 0.0
    with mpmath.workdps(40):
        for k, t in enumerate(x):
            for v, (f, xf) in zip(got[:, k], reference(indices, float(t))):
                if f == 0:
                    if v != 0:
                        return math.inf
                elif abs(f) >= _SMALLEST:
                    err = abs(mpmath.mpmathify(v) - f) / (abs(f) + _EPS * abs(xf))
                    worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("name", sorted(_CONTRACTS))
def test_relative_error_within_its_bar(name):
    values, reference, indices, x, bar = _CONTRACTS[name]
    worst = _worst(values, reference, indices, x)
    assert worst <= bar, f"{name}: relative error {worst:.3g} exceeds {bar:g}"


@pytest.mark.parametrize("module", ["cauchy", "gaussian", "laguerre", "matern"])
def test_every_public_basis_evaluator_has_a_contract(module):
    # a public function of one set of points (t or omega, with no second
    # point u) must have a row above
    named = {name.split("/")[0] for name in _CONTRACTS}
    mod = importlib.import_module(f"kernelbasis.{module}")
    missing = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if not inspect.isfunction(obj):
            continue
        params = set(inspect.signature(obj).parameters)
        if {"t", "omega"} & params and "u" not in params and name not in named:
            missing.append(name)
    assert not missing, f"{module} evaluators with no relative-accuracy contract: {missing}"
