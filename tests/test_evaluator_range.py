"""Every single-function evaluator over the whole float range: a finite value
(an underflow to 0 included) or a ValueError, never a silent NaN or inf.
NaN points raise, and at +-inf every evaluator gives its limit 0.  So do the
kernels of two points, except the closed-form kernels at t = u = +-inf, which
have no limit there and raise.  The polynomials have no limit at +-inf either:
there, and wherever a value lies beyond float64, they raise, and so do the
raw recurrence tables.  Every public function of points is listed in one of
the tables here."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelbasis as kb
import kernelbasis.gaussian
from kernelbasis import orthopoly
from kernelbasis._lowrank import check_int

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
        kb.MercerParams(0.1 * 100.0**u), abs(i), t),
    "mercer_weight": lambda i, nu, u, t: kernelbasis.gaussian.mercer_weight(
        kb.MercerParams(0.1 * 100.0**u), t),
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
    "cauchy_partial_sum_closed_form": lambda t, u: kb.cauchy_partial_sum_closed_form(7, t, u),
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
@example(1e200, 1e200)
@example(1e100, 1e100)
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


@pytest.mark.parametrize("t, u, name", [(np.array([0.1, 0.2]), 0.3, "t"), (0.1, [0.2, 0.3], "u")])
def test_closed_form_partial_sum_refuses_an_array_naming_it(t, u, name):
    # the geometric closed form is a scalar function of one pair
    with pytest.raises(ValueError, match=rf"{name} must be a scalar, got shape \(2,\)"):
        kb.cauchy_partial_sum_closed_form(3, t, u)


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
    "mercer_weight": lambda: kernelbasis.gaussian.mercer_weight(
        kb.MercerParams(1.0), _BIG),
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


# call(m, t): a polynomial has no limit at +-inf, so there, and wherever its
# value lies beyond float64, it raises naming the degree m; a table of rows
# 0..m names its last degree
_POLYNOMIALS = {
    "laguerre": orthopoly.laguerre,
    "assoc_laguerre": lambda m, t: orthopoly.assoc_laguerre(m, 3, t),
    "hermite": orthopoly.hermite,
    "hermite_normalized": orthopoly.hermite_normalized,
    "assoc_laguerre_table": lambda m, t: orthopoly.assoc_laguerre_table(m + 1, 3, t),
    "hermite_normalized_table": lambda m, t: orthopoly.hermite_normalized_table(m + 1, t),
}


@pytest.mark.parametrize("name", sorted(_POLYNOMIALS))
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 60), _POINTS)
@example(0, math.nan)
@example(0, math.inf)
@example(40, -math.inf)
@example(40, 1e200)
@example(0, 1.7e308)
def test_polynomial_gives_a_finite_value_or_value_error(name, m, t):
    try:
        val = _POLYNOMIALS[name](m, t)
    except ValueError as err:
        assert math.isnan(t) or f"m={m}:" in str(err), f"{name} raised {err} at t = {t!r}"
        return
    assert not math.isnan(t), f"{name} returned {val!r} at t = NaN"
    assert np.all(np.isfinite(val)), f"{name} returned {val!r} at t = {t!r}"


@pytest.mark.parametrize("name", sorted(_POLYNOMIALS))
def test_nan_point_of_a_polynomial_raises_naming_it(name):
    for m in (0, 2):
        with pytest.raises(ValueError, match="t is NaN at 1 of 3 points"):
            _POLYNOMIALS[name](m, np.array([0.5, math.nan, -1.0]))


_SPEC = kb.FeatureMapSpec("gaussian", n=4)
# call(t) for the functions whose contract is finite points only
_FINITE_ONLY = {
    "convolution_oracle/matern": lambda t: kb.convolution_oracle("matern", 1, t, nu=1),
    "convolution_oracle/gaussian": lambda t: kb.convolution_oracle("gaussian", 1, t),
    "features": lambda t: kb.features(_SPEC, [0.5, t]),
    "krr_fit_predict/train_x": lambda t: kb.krr_fit_predict(
        _SPEC, [0.5, t], [1.0, 2.0], 1e-3, [0.5]),
    "krr_fit_predict/test_x": lambda t: kb.krr_fit_predict(
        _SPEC, [0.5, 1.0], [1.0, 2.0], 1e-3, [0.5, t]),
}


@pytest.mark.parametrize("name", sorted(_FINITE_ONLY))
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_finite_only_function_refuses_a_nonfinite_point(name, t):
    with pytest.raises(ValueError, match="must be finite"):
        _FINITE_ONLY[name](t)


@pytest.mark.parametrize("module", ["cauchy", "featuremap", "gaussian", "laguerre", "matern",
                                    "orthopoly", "verify"])
def test_every_public_evaluator_of_points_is_in_a_range_table(module):
    # a public function that takes points must be listed above
    tabled = {name.split("/")[0]
              for table in (_EVALUATORS, _PAIR_EVALUATORS, _OVERFLOWS, _POLYNOMIALS, _FINITE_ONLY)
              for name in table}
    points = {"t", "u", "omega", "points", "train_x", "test_x"}
    mod = importlib.import_module(f"kernelbasis.{module}")
    untabled = [name for name in mod.__all__
                if callable(getattr(mod, name)) and name not in tabled
                and points & set(inspect.signature(getattr(mod, name)).parameters)]
    assert not untabled, f"{module} evaluators in no range table: {untabled}"


# call(m) for every public function of an index m, and whether m is signed (m in Z)
_INDEXED = {
    "MaternBasisId": (lambda m: kb.MaternBasisId("plus", m), False),
    "assoc_laguerre": (lambda m: kb.assoc_laguerre(m, 1, 0.5), False),
    "cauchy_psi_complex": (lambda m: kb.cauchy_psi_complex(m, 0.5), True),
    "cauchy_real_basis": (lambda m: kb.cauchy_real_basis("beta", m, 0.5), False),
    "convolution_oracle/matern": (lambda m: kb.convolution_oracle("matern", m, 0.5, nu=1), True),
    "convolution_oracle/gaussian": (lambda m: kb.convolution_oracle("gaussian", m, 0.5), False),
    "gaussian_psi": (lambda m: kb.gaussian_psi(m, 0.5), False),
    "gaussian_psi_scaled": (lambda m: kb.gaussian_psi_scaled(m, 0.7, 0.5), False),
    "hermite": (lambda m: kb.hermite(m, 0.5), False),
    "hermite_fn": (lambda m: kb.hermite_fn(m, 0.5), False),
    "hermite_normalized": (lambda m: kb.hermite_normalized(m, 0.5), False),
    "laguerre": (lambda m: kb.laguerre(m, 0.5), False),
    "laguerre_fn": (lambda m: kb.laguerre_fn(m, 0.5), True),
    "laguerre_fn_ft": (lambda m: kb.laguerre_fn_ft(m, 0.5), True),
    "matern_psi_norm_sq": (lambda m: kb.matern_psi_norm_sq(kb.MaternOrder(1), m), False),
    "matern_psi_unified": (lambda m: kb.matern_psi_unified(kb.MaternOrder(1), m, 0.5), True),
    "mercer_eigenfunction": (lambda m: kb.mercer_eigenfunction(kb.MercerParams(1.0), m, 0.5),
                             False),
    "mercer_eigenvalue": (lambda m: kb.mercer_eigenvalue(kb.MercerParams(1.0), m), False),
}


@pytest.mark.parametrize("name", sorted(_INDEXED))
def test_index_must_be_an_integer(name):
    call, signed = _INDEXED[name]
    for m in (2, np.int64(3), *((-2, -5) if signed else ())):
        call(m)
    for m in (0.5, True, *((-2.5,) if signed else ())):
        with pytest.raises(ValueError, match=f"m must be an? [a-z ]*integer, got {m}"):
            call(m)


# past the float range: the integer check caps |m| at 2**53 where no cap is
# declared, so each call raises ValueError, never OverflowError.
# cauchy_real_basis reads through orthopoly._last_row, and
# test_cauchy.py::test_real_basis_degree_is_capped checks its cap.  A signed
# index past the degree cap of the row it reads is named as passed
_ROW_CAPPED = {"laguerre_fn", "matern_psi_unified"}


@pytest.mark.parametrize("name", sorted(set(_INDEXED) - {"cauchy_real_basis"}))
def test_index_past_the_float_range_raises(name):
    call, signed = _INDEXED[name]
    past_row_cap = (-600,) if name in _ROW_CAPPED else ()
    for m in (10**400, -(10**400), *past_row_cap) if signed else (10**400,):
        with pytest.raises(ValueError, match=f"m={m} exceeds the cap"):
            call(m)


# call(n) for the functions of a level n or of integer parameters
_LEVELS = {
    "MaternTruncation": lambda n: kb.MaternTruncation(kb.MaternOrder(1), n),
    "FeatureMapSpec": lambda n: kb.FeatureMapSpec("cauchy", n=n),
    "cauchy_partial_sum_closed_form": lambda n: kb.cauchy_partial_sum_closed_form(n, 0.3, 0.4),
    "gaussian_truncation_error": kb.gaussian_truncation_error,
    "matern_exact_hs_error": lambda n: kb.matern_exact_hs_error(kb.MaternOrder(1), n),
    "matern_truncation_error_bound": lambda n: kb.matern_truncation_error_bound(
        kb.MaternOrder(1), n),
    "check_identity/params": lambda n: kb.check_identity("shift", (1, n), [0.0, 1.0]),
    "check_identity/negative_params": lambda n: kb.check_identity("shift", (1, -n), [0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(_LEVELS))
def test_level_past_the_float_range_raises(name):
    with pytest.raises(ValueError, match=r"(n|params)=-?10* exceeds the cap 9007199254740992"):
        _LEVELS[name](10**400)


# past Python's int-to-str digit limit the message gives the bit length
@pytest.mark.parametrize("value, low", [(10**5000, 0), (-(10**5000), None)],
                         ids=["nonnegative", "signed"])
def test_integer_past_the_digit_limit_names_parameter_and_cap(value, low):
    with pytest.raises(ValueError, match=r"m=-?\(a 16610-bit integer\) exceeds the cap 9007199"):
        check_int(value, "m", low)


def test_every_public_function_of_an_index_is_in_the_index_table():
    found = set()
    for info in pkgutil.iter_modules(kb.__path__):
        mod = importlib.import_module(f"kernelbasis.{info.name}")
        found |= {name for name in getattr(mod, "__all__", ())
                  if callable(getattr(mod, name))
                  and "m" in inspect.signature(getattr(mod, name)).parameters}
    assert found == {name.split("/")[0] for name in _INDEXED}
