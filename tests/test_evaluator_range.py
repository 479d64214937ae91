"""Every single-function evaluator over the whole float range: a finite value
(an underflow to 0 included) or a ValueError, never a silent NaN or inf.
NaN points raise, and at +-inf every evaluator gives its limit 0.  So do the
kernels of two points, except the closed-form kernels at t = u = +-inf, which
have no limit there and raise."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelbasis as kb

# call(index, nu, u, t): index in [-121, 120], nu in [0, 40], u in [0, 1]
# picks a class or a width; each evaluator maps them into its own domain
_EVALUATORS = {
    "matern_psi": lambda i, nu, u, t: kb.matern_psi(
        kb.MaternOrder(nu), kb.MaternBasisId(("plus", "minus", "null")[int(3 * u) % 3],
                                             abs(i) % (nu + 1) if u >= 2 / 3 else abs(i)), t),
    "matern_psi_unified": lambda i, nu, u, t: kb.matern_psi_unified(
        kb.MaternOrder(nu), i - nu - 1 if i < 0 else i, t),
    "cauchy_real_basis": lambda i, nu, u, t: kb.cauchy_real_basis(
        "alpha" if u < 0.5 else "beta", abs(i), t),
    "cauchy_psi_complex": lambda i, nu, u, t: kb.cauchy_psi_complex(i, t),
    "laguerre_fn": lambda i, nu, u, t: kb.laguerre_fn(i, t),
    "laguerre_fn_ft": lambda i, nu, u, t: kb.laguerre_fn_ft(i, t),
    "gaussian_psi": lambda i, nu, u, t: kb.gaussian_psi(abs(i), t),
    "gaussian_psi_scaled": lambda i, nu, u, t: kb.gaussian_psi_scaled(
        abs(i), 0.05 + 1.35 * u, t),
    "hermite_fn": lambda i, nu, u, t: kb.hermite_fn(abs(i), t),
    "mercer_eigenfunction": lambda i, nu, u, t: kb.mercer_eigenfunction(
        kb.MercerParams.from_alpha(0.1 * 100.0**u), abs(i), t),
}

_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308,
             math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
@settings(max_examples=15, deadline=None)
@given(st.integers(-121, 120), st.integers(0, 40), st.floats(0.0, 1.0),
       st.one_of(st.sampled_from(_EXTREMES), st.floats()))
@example(120, 40, 0.0, math.nan)
@example(-121, 40, 0.9, math.inf)
@example(-121, 0, 0.5, -math.inf)
@example(120, 40, 0.1, 1.7e308)
@example(120, 40, 0.4, -5e-324)
def test_finite_value_or_value_error(name, index, nu, u, t):
    try:
        val = _EVALUATORS[name](index, nu, u, t)
    except ValueError:
        assert math.isnan(t), f"{name} raised at t = {t!r}"
        return
    assert not math.isnan(t), f"{name} returned {val!r} at t = NaN"
    assert np.isfinite(val), f"{name} returned {val!r} at t = {t!r}"
    if math.isinf(t):
        assert val == 0, f"{name} returned {val!r}, not its limit 0, at t = {t!r}"


@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_nan_point_raises_naming_it(name):
    with pytest.raises(ValueError, match="is NaN at 1 of 3 points"):
        _EVALUATORS[name](2, 1, 0.5, np.array([0.5, math.nan, -1.0]))


@pytest.mark.parametrize("call", [kb.cauchy_psi_complex, kb.laguerre_fn_ft],
                         ids=["cauchy_psi_complex", "laguerre_fn_ft"])
@pytest.mark.parametrize("m", [-7, -1, 0, 5])
def test_complex_evaluators_vanish_at_infinity(call, m):
    assert call(m, math.inf) == 0 and call(m, -math.inf) == 0
    t = np.array([-math.inf, -2.0, 0.5, math.inf])
    vals = call(m, t)
    assert vals[0] == 0 and vals[-1] == 0
    # the finite points keep the values they have on their own
    assert vals[1] == call(m, -2.0) and vals[2] == call(m, 0.5)


_TR = kb.MaternTruncation(kb.MaternOrder(2), 5)
_SPECS = [kb.FeatureMapSpec("matern", n=5, nu=2), kb.FeatureMapSpec("cauchy", lam=0.7, n=6),
          kb.FeatureMapSpec("gaussian", lam=1.1, n=9)]
# call(t, u); the feature map is the one-point case, which reads t only
_PAIR_EVALUATORS = {
    "matern_kernel": lambda t, u: kb.matern_kernel(kb.MaternOrder(2), t, u),
    "cauchy_kernel": lambda t, u: kb.cauchy_kernel(1.0, t, u),
    "gaussian_kernel": lambda t, u: kb.gaussian_kernel(kb.GaussianScale(), t, u),
    "matern_truncated": lambda t, u: kb.matern_truncated(_TR, t, u),
    "cauchy_truncated": lambda t, u: kb.cauchy_truncated(1.0, 6, t, u),
    "gaussian_truncated": lambda t, u: kb.gaussian_truncated(kb.GaussianScale(), 9, t, u),
    **{f"spec_{s.family}.kernel": s.kernel for s in _SPECS},
    **{f"spec_{s.family}.truncated_kernel": s.truncated_kernel for s in _SPECS},
    "matern_feature_map": lambda t, u: kb.matern_feature_map(_TR, t),
}
_CLOSED_FORM = ["cauchy_kernel", "gaussian_kernel", "matern_kernel",
                "spec_cauchy.kernel", "spec_gaussian.kernel", "spec_matern.kernel"]


def _must_raise(name, t, u):
    """A NaN the evaluator reads, or t = u = +-inf for a closed-form kernel."""
    if name == "matern_feature_map":
        return math.isnan(t)
    return math.isnan(t) or math.isnan(u) or (name in _CLOSED_FORM and math.isinf(t) and t == u)


_POINTS = st.one_of(st.sampled_from(_EXTREMES), st.floats())


@pytest.mark.parametrize("name", sorted(_PAIR_EVALUATORS))
@settings(max_examples=30, deadline=None)
@given(_POINTS, _POINTS)
@example(math.nan, 0.5)
@example(0.5, math.nan)
@example(math.inf, math.inf)
@example(-math.inf, -math.inf)
@example(math.inf, -math.inf)
@example(-math.inf, 2.0)
@example(1.7e308, -1.7e308)
def test_pair_gives_a_finite_value_or_value_error(name, t, u):
    try:
        val = _PAIR_EVALUATORS[name](t, u)
    except ValueError:
        assert _must_raise(name, t, u), f"{name} raised at ({t!r}, {u!r})"
        return
    assert not _must_raise(name, t, u), f"{name} returned {val!r} at ({t!r}, {u!r})"
    assert np.all(np.isfinite(val)), f"{name} returned {val!r} at ({t!r}, {u!r})"
    if math.isinf(t) or (math.isinf(u) and name != "matern_feature_map"):
        assert np.all(val == 0), f"{name} returned {val!r}, not its limit 0, at ({t!r}, {u!r})"


@pytest.mark.parametrize("name", sorted(_PAIR_EVALUATORS))
def test_nan_in_a_pair_raises_naming_it(name):
    nan3 = np.array([0.5, math.nan, -1.0])
    with pytest.raises(ValueError, match="t is NaN at 1 of 3 points"):
        _PAIR_EVALUATORS[name](nan3, 0.25)
    if name != "matern_feature_map":
        with pytest.raises(ValueError, match="u is NaN at 1 of 3 points"):
            _PAIR_EVALUATORS[name](0.25, nan3)


@pytest.mark.parametrize("name", _CLOSED_FORM)
@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_kernel_has_no_limit_at_a_same_sign_infinite_pair(name, inf):
    with pytest.raises(ValueError, match=f"no limit at t = u = {inf}"):
        _PAIR_EVALUATORS[name](np.array([0.5, inf]), inf)
    # one infinite point, or infinities of opposite signs: the limit 0
    assert _PAIR_EVALUATORS[name](inf, -inf) == 0
    assert np.array_equal(_PAIR_EVALUATORS[name](np.array([inf, 0.5]), -inf), [0.0, 0.0])


_BIG = 1e200
# lam * t or t - u past the float range: each gives its limit 0 with no warning
_OVERFLOWS = {
    "matern_psi/null": lambda: kb.matern_psi(
        kb.MaternOrder(2, _BIG), kb.MaternBasisId("null", 1), _BIG),
    "matern_psi/plus": lambda: kb.matern_psi(
        kb.MaternOrder(2, _BIG), kb.MaternBasisId("plus", 1), _BIG),
    "matern_psi/minus": lambda: kb.matern_psi(
        kb.MaternOrder(2, _BIG), kb.MaternBasisId("minus", 1), -_BIG),
    "gaussian_psi": lambda: kb.gaussian_psi(3, _BIG, kb.GaussianScale(_BIG)),
    "matern_feature_map": lambda: kb.matern_feature_map(
        kb.MaternTruncation(kb.MaternOrder(2, _BIG), 3), [_BIG, -_BIG]),
    "matern_kernel/lam": lambda: kb.matern_kernel(kb.MaternOrder(2, _BIG), _BIG, 0.0),
    "cauchy_kernel/lam": lambda: kb.cauchy_kernel(_BIG, _BIG, 0.0),
    "gaussian_kernel/lam": lambda: kb.gaussian_kernel(kb.GaussianScale(_BIG), _BIG, 0.0),
    "matern_kernel/difference": lambda: kb.matern_kernel(kb.MaternOrder(2), 1.7e308, -1.7e308),
    "cauchy_kernel/difference": lambda: kb.cauchy_kernel(1.0, 1.7e308, -1.7e308),
    "gaussian_kernel/difference": lambda: kb.gaussian_kernel(
        kb.GaussianScale(), 1.7e308, -1.7e308),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_OVERFLOWS))
def test_overflow_gives_the_limit_without_a_warning(name):
    assert np.all(_OVERFLOWS[name]() == 0)
