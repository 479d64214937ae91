"""Every single-function evaluator over the whole float range: a finite value
(an underflow to 0 included) or a ValueError, never a silent NaN or inf.
NaN points raise, and at +-inf every evaluator gives its limit 0."""

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
