import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from kernelbasis.matern import (
    MAX_NU,
    MaternBasisId,
    MaternOrder,
    MaternTruncation,
    matern_exact_hs_error,
    matern_feature_map,
    matern_kernel,
    matern_psi,
    matern_psi_bound,
    matern_psi_norm_sq,
    matern_psi_unified,
    matern_truncated,
    matern_truncation_error_bound,
    _basis_block,
    _c_sq,
    _handed_rows,
    _kernel_log_coef,
    _log_c,
    _psi_norm_sq,
)
from kernelbasis._lowrank import CHUNK, chunks
from kernelbasis.featuremap import FeatureMapSpec, features
from kernelbasis.laguerre import laguerre_fn
from kernelbasis.orthopoly import assoc_laguerre_table
from kernelbasis.quadrature import gauss_laguerre_rule
from kernelbasis.verify import gram_matrix
from oracles import integrate, matern_handed_mp

SQRT2 = math.sqrt(2.0)


def null_closed_form(nu: int, m: int, t):
    """Hand-checked closed forms of the whole-line basis members, nu <= 2.

    Certified against the reflection symmetry and the kernel
    reconstruction r(0, d); the t < 0 branch of the (nu=1, m=0) member
    carries -2t, the sign the symmetry forces.
    """
    t = np.asarray(t, dtype=float)
    neg = np.where(t < 0, 1.0, 0.0)
    pos = 1.0 - neg
    e_abs = np.exp(-np.abs(t))
    if nu == 0:
        return -e_abs
    if nu == 1:
        if m == 0:
            return (-2.0 * t * np.exp(np.minimum(t, 0.0)) * neg + e_abs) / SQRT2
        return -(2.0 * t * np.exp(-np.maximum(t, 0.0)) * pos + e_abs) / SQRT2
    c = 2.0 / math.sqrt(24.0)
    if m == 0:
        return c * (2.0 * (-t * t + t) * np.exp(np.minimum(t, 0.0)) * neg - e_abs)
    if m == 1:
        return 2.0 * c * (np.abs(t) + 1.0) * e_abs
    return c * (-2.0 * (t * t + t) * np.exp(-np.maximum(t, 0.0)) * pos - e_abs)


class TestKernel:
    def test_exponential_case(self):
        o = MaternOrder(0)
        assert matern_kernel(o, 2.0, 0.5) == pytest.approx(math.exp(-1.5), rel=1e-15, abs=0)

    def test_three_halves(self):
        o = MaternOrder(1)
        assert matern_kernel(o, 1.0, 0.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14, abs=0)

    def test_five_halves(self):
        o = MaternOrder(2)
        assert matern_kernel(o, 3.0, 0.0) == pytest.approx(7.0 * math.exp(-3.0), rel=1e-14, abs=0)

    @given(st.integers(0, 6), st.floats(-20, 20, allow_nan=False))
    def test_unit_at_zero_distance(self, nu, t):
        assert matern_kernel(MaternOrder(nu), t, t) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_length_scale(self):
        assert matern_kernel(MaternOrder(0, lam=2.0), 1.0, 0.0) == pytest.approx(
            math.exp(-2.0), rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("nu", [100, 150, 300, 1000])
    def test_large_order_matches_mpmath(self, nu):
        # the coefficients (nu+k)!/(k!(nu-k)!) and the powers (2d)^(nu-k)
        # overflow float64 long before e^{-d} nu!/(2nu)! brings them back
        ds = [0.0, 1.0, 10.0, 1e3]
        got = matern_kernel(MaternOrder(nu), np.array(ds), 0.0)
        assert got[0] == 1.0
        with mpmath.workdps(40):
            for value, d in zip(got, ds):
                d = mpmath.mpf(d)
                series = mpmath.fsum(
                    mpmath.factorial(nu + k) / (mpmath.factorial(k) * mpmath.factorial(nu - k))
                    * (2 * d) ** (nu - k)
                    for k in range(nu + 1)
                )
                ref = mpmath.exp(-d) * mpmath.factorial(nu) / mpmath.factorial(2 * nu) * series
                # at nu = 100, d = 1e3 the value is subnormal, ~1e-319
                assert value == pytest.approx(float(ref), rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("nu", [3, 30, 300, 1000])
    def test_coefficients_against_mpmath(self, nu):
        # log (nu+k)! nu!/(k! (nu-k)! (2 nu)!) from exact integers: measured
        # within 0.51 ulp; the lgamma differences were up to 3.6e-12 off at
        # nu = 1000
        lg = mpmath.loggamma
        with mpmath.workdps(50):
            for k, logc in enumerate(_kernel_log_coef(nu)):
                ref = lg(nu + k + 1) + lg(nu + 1) - lg(k + 1) - lg(nu - k + 1) - lg(2 * nu + 1)
                assert abs(logc - ref) <= math.ulp(float(ref))

    @pytest.mark.parametrize("nu", [0, 3, 1000])
    def test_far_distances_give_zero(self, nu):
        d = np.array([1e308, 1.7e308, np.inf, -np.inf])
        assert np.array_equal(matern_kernel(MaternOrder(nu), d, 0.0), np.zeros(4))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            MaternOrder(-1)
        with pytest.raises(ValueError):
            MaternOrder(1, lam=0.0)
        with pytest.raises(ValueError, match="nu=1001 exceeds the cap 1000"):
            MaternOrder(MAX_NU + 1)


class TestBasisFunctions:
    def test_null_nu0_closed_form(self):
        o = MaternOrder(0)
        t = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(
            matern_psi(o, MaternBasisId("null", 0), t), -np.exp(-np.abs(t)), atol=1e-14
        )

    def test_null_closed_forms(self):
        t = np.linspace(-5, 5, 81)
        for nu in (0, 1, 2):
            o = MaternOrder(nu)
            for m in range(nu + 1):
                np.testing.assert_allclose(
                    matern_psi(o, MaternBasisId("null", m), t),
                    null_closed_form(nu, m, t),
                    atol=1e-13,
                    err_msg=f"nu={nu} m={m}",
                )

    def test_null_value_at_zero(self):
        o = MaternOrder(1)
        assert matern_psi(o, MaternBasisId("null", 1), 0.0) == pytest.approx(
            -1.0 / SQRT2, rel=1e-14, abs=0
        )

    def test_plus_vanishes_on_negative_axis(self):
        o = MaternOrder(2)
        assert matern_psi(o, MaternBasisId("plus", 0), -1.0) == 0.0

    def test_plus_against_frozen_convolution_value(self):
        # independent panel-quadrature convolution, frozen
        o = MaternOrder(1)
        assert matern_psi(o, MaternBasisId("plus", 2), 0.7) == pytest.approx(
            0.07914669357770908, rel=1e-12, abs=0
        )

    def test_minus_is_reflected_plus(self):
        o = MaternOrder(3)
        t = np.linspace(-6, -0.01, 23)
        lhs = matern_psi(o, MaternBasisId("minus", 4), t)
        rhs = (-1.0) ** 3 * matern_psi(o, MaternBasisId("plus", 4), -t)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)

    def test_disjoint_supports_exactly(self):
        o = MaternOrder(1)
        t = np.linspace(-6, 6, 101)
        plus = matern_psi(o, MaternBasisId("plus", 3), t)
        minus = matern_psi(o, MaternBasisId("minus", 3), t)
        assert np.all(plus * minus == 0.0)

    def test_invalid_null_index(self):
        o = MaternOrder(1)
        with pytest.raises(ValueError, match="nu"):
            matern_psi(o, MaternBasisId("null", 2), 0.0)
        with pytest.raises(ValueError):
            MaternBasisId("weird", 0)

    @pytest.mark.parametrize("kind, t", [("plus", 0.5), ("minus", -0.5)])
    def test_handed_index_past_the_degree_cap_raises(self, kind, t):
        # checked before any row is allocated, through either entry point
        o = MaternOrder(2)
        with pytest.raises(ValueError, match="m=513 exceeds the cap 512"):
            matern_psi(o, MaternBasisId(kind, 513), t)
        with pytest.raises(ValueError, match="m=513 exceeds the cap 512"):
            matern_psi_unified(o, 513 if kind == "plus" else -o.nu - 2 - 513, t)

    @pytest.mark.parametrize("kind", ["plus", "minus"])
    def test_handed_index_at_the_degree_cap(self, kind):
        nu, x = 2, np.array([-700.0, -3.0, -0.5, 0.0, 0.5, 3.0, 700.0])
        side = x < 0 if kind == "minus" else x >= 0
        ref = np.where(side, _handed_rows(nu, 513, x)[-1], 0.0)
        got = matern_psi(MaternOrder(nu), MaternBasisId(kind, 512), x)
        assert np.array_equal(got, ref) and np.count_nonzero(got) == 3

    def test_unified_index_covers_all_classes(self):
        o = MaternOrder(1)
        t = np.linspace(-4, 4, 17)
        np.testing.assert_array_equal(
            matern_psi_unified(o, 3, t), matern_psi(o, MaternBasisId("plus", 3), t)
        )
        np.testing.assert_array_equal(
            matern_psi_unified(o, -1, t), matern_psi(o, MaternBasisId("null", 1), t)
        )
        np.testing.assert_array_equal(
            matern_psi_unified(o, -2, t), matern_psi(o, MaternBasisId("null", 0), t)
        )
        np.testing.assert_array_equal(
            matern_psi_unified(o, -3, t), matern_psi(o, MaternBasisId("minus", 0), t)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(-25, 25), st.floats(-8, 8, allow_nan=False))
    def test_uniform_bound(self, nu, m, t):
        o = MaternOrder(nu)
        assert abs(matern_psi_unified(o, m, t)) <= matern_psi_bound(o) + 1e-12

    def test_scaling_is_argument_scaling(self):
        unit = MaternOrder(2)
        scaled = MaternOrder(2, lam=1.7)
        bid = MaternBasisId("plus", 1)
        t = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            matern_psi(scaled, bid, t), matern_psi(unit, bid, 1.7 * t), rtol=1e-14
        )


class TestTruncation:
    def test_opposite_signs_exact_at_n1(self):
        o = MaternOrder(1)
        tr = MaternTruncation(o, 1)
        assert matern_truncated(tr, -2.0, 3.0) == pytest.approx(
            matern_kernel(o, -2.0, 3.0), abs=1e-12
        )

    def test_origin_value(self):
        for nu in range(4):
            tr = MaternTruncation(MaternOrder(nu), 2)
            assert matern_truncated(tr, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_convergence_slow_for_nu0(self):
        # same-sign arguments converge at the analytic O(n^{-1}) off-diagonal
        # rate: the error at n = 200 is ~2e-3, not small
        o = MaternOrder(0)
        ref = matern_kernel(o, 1.0, 2.0)
        err200 = abs(ref - matern_truncated(MaternTruncation(o, 200), 1.0, 2.0))
        err500 = abs(ref - matern_truncated(MaternTruncation(o, 500), 1.0, 2.0))
        assert 1e-4 < err200 < 5e-3
        assert err500 < err200

    def test_pointwise_convergence_fast_for_nu3(self):
        o = MaternOrder(3)
        ref = matern_kernel(o, 1.0, 2.0)
        err = abs(ref - matern_truncated(MaternTruncation(o, 200), 1.0, 2.0))
        assert err < 1e-6

    def test_term_count(self):
        tr = MaternTruncation(MaternOrder(2), 5)
        assert tr.dim == 2 + 1 + 2 * 5
        assert matern_feature_map(tr, 0.3).shape == (13,)

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            MaternTruncation(MaternOrder(1), 0)


class TestFeatureMap:
    def test_dot_equals_truncated(self):
        tr = MaternTruncation(MaternOrder(2), 6)
        for t, u in [(0.3, 1.2), (-2.0, 0.5), (-1.1, -0.7)]:
            dot = float(matern_feature_map(tr, t) @ matern_feature_map(tr, u))
            assert dot == pytest.approx(matern_truncated(tr, t, u), abs=1e-13)

    def test_nu0_n1_at_origin(self):
        tr = MaternTruncation(MaternOrder(0), 1)
        np.testing.assert_allclose(matern_feature_map(tr, 0.0), [-1.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("shape", [(), (1,), (3, CHUNK // 2 + 1), (2, 0, 4)])
    def test_shape_and_values_match_one_block(self, shape):
        # (3, CHUNK // 2 + 1) flattens across a chunk boundary
        tr = MaternTruncation(MaternOrder(2, 1.3), 4)
        t = np.asarray(np.random.default_rng(8).uniform(-3.0, 3.0, shape))
        got = matern_feature_map(tr, t)
        ref = _basis_block(tr.order.nu, tr.n, 1.3 * t.ravel()).T.reshape(*shape, tr.dim)
        assert got.shape == (*shape, tr.dim)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_ordering_null_minus_plus(self):
        tr = MaternTruncation(MaternOrder(1), 2)
        vec = matern_feature_map(tr, -1.3)
        o = MaternOrder(1)
        assert vec[0] == matern_psi(o, MaternBasisId("null", 0), -1.3)
        assert vec[1] == matern_psi(o, MaternBasisId("null", 1), -1.3)
        assert vec[2] == matern_psi(o, MaternBasisId("minus", 0), -1.3)
        assert vec[4] == 0.0  # plus block vanishes left of the origin


class TestNormsAndErrors:
    def test_norm_sq_base_cases(self):
        assert matern_psi_norm_sq(MaternOrder(0), 0) == pytest.approx(1.0, rel=1e-15, abs=0)
        assert matern_psi_norm_sq(MaternOrder(1), 0) == pytest.approx(0.25, rel=1e-15, abs=0)

    def test_norm_sq_quadrature_cross_check(self):
        # int psi+^2 w_nu dt after s = 2t is a weighted Laguerre integral
        for nu in (0, 1, 3):
            o = MaternOrder(nu)
            rule = gauss_laguerre_rule(128, nu + 1.0)
            for m in (0, 2, 7):
                bid = MaternBasisId("plus", m)

                def f(s):
                    vals = matern_psi(o, bid, s / 2.0)
                    return (vals * np.exp(s / 2.0) * s ** (-(nu + 1.0))) ** 2

                assert integrate(rule, f) == pytest.approx(
                    matern_psi_norm_sq(o, m), rel=1e-8, abs=0
                )

    @pytest.mark.parametrize("nu", [3, 30, 100, 300, 1000])
    def test_norm_sq_against_mpmath(self, nu):
        # an exact-integer quotient (the factors 1/(m+j) on c_nu^2 were up to
        # 5.6e-16 off, the lgamma difference 2.0e-11 at nu = 30, m = 1e4).  From nu = 300
        # on, and at nu = 100, m = 1e4, the norms lie below the smallest
        # float, and 0 is their rounding
        with mpmath.workdps(50):
            for m in (0, 5, 100, 10**4):
                ref = (mpmath.factorial(nu) ** 2 / mpmath.factorial(2 * nu)
                       * mpmath.factorial(m) / mpmath.factorial(m + nu + 1))
                assert matern_psi_norm_sq(MaternOrder(nu), m) == pytest.approx(
                    float(ref), rel=1e-15, abs=0)

    @pytest.mark.parametrize("nu", [0, 1, 6, 30, 300, 1000])
    def test_exact_ratios_correctly_rounded(self, nu):
        # c_nu^2 = (nu!)^2/(2 nu)!, the norms (and the Hilbert--Schmidt
        # prefactor) c_nu^2 m!/(m+nu+1)! and log(c_nu/p!) are exact-integer
        # quotients, so each is correctly rounded: its (frac, exp) always, its
        # float wherever that is normal (0 or subnormal below), its log within
        # an ulp
        eps, tiny = 2.0**-53, np.finfo(float).tiny
        with mpmath.workdps(50):
            c_sq = mpmath.factorial(nu) ** 2 / mpmath.factorial(2 * nu)
            assert abs(mpmath.ldexp(*_c_sq(nu)) / c_sq - 1) <= eps
            for m in (0, 7, 10**6):
                ref = c_sq / mpmath.rf(m + 1, nu + 1)
                assert abs(mpmath.ldexp(*_psi_norm_sq(nu, m)) / ref - 1) <= eps
                value = matern_psi_norm_sq(MaternOrder(nu), m)
                if ref >= tiny:
                    assert abs(value / ref - 1) <= eps
                else:
                    assert value <= tiny
            for p in (0, 7, nu + 1):
                ref = mpmath.log(c_sq) / 2 - mpmath.loggamma(p + 1)
                assert abs(_log_c(nu, p) - ref) <= math.ulp(float(ref))

    @pytest.mark.parametrize("nu, rtol", [(3, 1e-15), (30, 1e-15), (300, 1e-15), (1000, 3e-15)])
    def test_constant_against_mpmath(self, nu, rtol):
        # c_nu^2 = (nu!)^2/(2 nu)! to rtol (correctly rounded; the factor
        # products were 5.6e-17, 1.9e-16, 3.7e-16 and 2.3e-15 off), log c_nu
        # correctly rounded (0.20-0.41 ulp; the lgamma difference was up to
        # 3 ulp, 8e-14 at nu = 300) and the bound 2^nu c_nu built from them
        # (measured <= 1.2e-15)
        with mpmath.workdps(50):
            log_c = mpmath.loggamma(nu + 1) - mpmath.loggamma(2 * nu + 1) / 2
            frac, exp = _c_sq(nu)
            assert abs(mpmath.ldexp(frac, exp) / mpmath.exp(2 * log_c) - 1) <= rtol
            assert abs(_log_c(nu) - log_c) <= 0.5 * math.ulp(float(log_c))
            bound = mpmath.mpf(2) ** nu * mpmath.exp(log_c)
            assert abs(matern_psi_bound(MaternOrder(nu)) / bound - 1) <= 2 * rtol

    def test_bound_values(self):
        assert matern_psi_bound(MaternOrder(0)) == pytest.approx(1.0, rel=1e-15, abs=0)
        assert matern_psi_bound(MaternOrder(2)) == pytest.approx(8.0 / math.sqrt(24.0), rel=1e-14,
                                                                 abs=0)

    def test_error_bound_values(self):
        bound = matern_truncation_error_bound
        assert bound(MaternOrder(0), 1) == pytest.approx(2.0, rel=1e-15, abs=0)
        assert bound(MaternOrder(0), 100) == pytest.approx(0.2, rel=1e-14, abs=0)

    def test_exact_error_below_bound(self):
        for nu in range(5):
            o = MaternOrder(nu)
            for n in (1, 2, 4, 8, 16, 32, 64):
                exact = matern_exact_hs_error(o, n)
                assert 0.0 < exact <= matern_truncation_error_bound(o, n)

    def test_exact_error_trigamma_identity(self):
        from scipy.special import polygamma

        o = MaternOrder(0)
        for n in (1, 5, 40):
            expected = math.sqrt(2.0 * float(polygamma(1, n + 1)))
            assert matern_exact_hs_error(o, n) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_exact_error_against_mpmath_tail(self):
        # partial fractions: prod_{j=1..nu+1} (m+j)^-2 = sum_j a_j/(m+j)^2 + b_j/(m+j);
        # the b_j sum to zero, so the 1/(m+j) tails telescope into digammas
        with mpmath.workdps(40):
            for nu, n in [(1, 3), (3, 16), (4, 64)]:
                tail = mpmath.mpf(0)
                for j in range(1, nu + 2):
                    others = [k for k in range(1, nu + 2) if k != j]
                    a = mpmath.fprod(mpmath.mpf(k - j) ** -2 for k in others)
                    b = -2 * a * mpmath.fsum(mpmath.mpf(1) / (k - j) for k in others)
                    tail += a * mpmath.zeta(2, n + j) - b * mpmath.digamma(n + j)
                pref = mpmath.gamma(nu + 1) ** 2 / mpmath.gamma(2 * nu + 1)
                expected = float(pref * mpmath.sqrt(2 * tail))
                assert matern_exact_hs_error(MaternOrder(nu), n) == pytest.approx(
                    expected, rel=1e-12, abs=0
                )

    def test_exact_error_monotone_in_n(self):
        o = MaternOrder(2)
        vals = [matern_exact_hs_error(o, n) for n in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("nu", [100, 300, 1000])
    def test_error_bound_at_large_order(self, nu):
        # n^(nu+1/2) overflows a float at nu = 1000, n = 9; no case here is
        # subnormal, so each is either a normal float or 0.  c_nu comes from
        # lgamma, whose error grows with nu: 1.6e-13 relative at nu = 300
        with mpmath.workdps(30):
            for n in (1, 2, 9, 64):
                c = (mpmath.factorial(nu) ** 2 / mpmath.factorial(2 * nu)
                     * mpmath.sqrt(mpmath.mpf(2 * (2 * nu + 2)) / (2 * nu + 1)))
                expected = c / mpmath.mpf(n) ** (nu + mpmath.mpf(0.5))
                bound = matern_truncation_error_bound(MaternOrder(nu), n)
                if expected > np.finfo(float).tiny:
                    assert bound == pytest.approx(float(expected), rel=1e-12, abs=0)
                else:
                    assert bound == 0.0

    @pytest.mark.parametrize("nu", [30, 60, 100])
    def test_exact_error_at_large_order(self, nu):
        # the first tail term (n!/(n+nu+1)!)^2 underflows at nu = 100 while
        # the error is a normal float (3.6e-232 at n = 9); the terms fall
        # fast, so the tail is summed term by term to 1e-35 of its value
        with mpmath.workdps(30):
            for n in (1, 2, 9, 64):
                term = (mpmath.factorial(n) / mpmath.factorial(n + nu + 1)) ** 2
                tail, m = mpmath.mpf(0), n
                while term > tail * mpmath.mpf(10) ** -35:
                    tail += term
                    term *= (mpmath.mpf(m + 1) / (m + nu + 2)) ** 2
                    m += 1
                pref = mpmath.factorial(nu) ** 2 / mpmath.factorial(2 * nu)
                expected = float(pref * mpmath.sqrt(2 * tail))
                assert expected > np.finfo(float).tiny
                assert matern_exact_hs_error(MaternOrder(nu), n) == pytest.approx(
                    expected, rel=1e-14, abs=0
                )


class TestNullSpaceIdentities:
    def test_symmetry(self):
        t = np.linspace(-5, 5, 41)
        for nu in range(7):
            o = MaternOrder(nu)
            for m in range(nu + 1):
                lhs = matern_psi(o, MaternBasisId("null", nu - m), t)
                rhs = (-1.0) ** nu * matern_psi(o, MaternBasisId("null", m), -t)
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_kernel_from_null_space_sum(self):
        d = np.linspace(0, 6, 61)
        for nu in range(7):
            o = MaternOrder(nu)
            total = sum(
                matern_psi(o, MaternBasisId("null", m), 0.0)
                * matern_psi(o, MaternBasisId("null", m), d)
                for m in range(nu + 1)
            )
            np.testing.assert_allclose(total, matern_kernel(o, 0.0, d), atol=1e-12)


_PSI_INPUTS = {
    "scalar_pos": 0.7,
    "scalar_neg": -1.3,
    "neg_zero": -0.0,
    "pos_zero": 0.0,
    "array_2d": np.linspace(-3.0, 3.0, 12).reshape(3, 4),
    "three_chunks": np.linspace(-3.0, 3.0, 2 * CHUNK + 3),
    "zero_d": np.array(-0.4),
    "empty": np.array([]),
    "chunk_plus_one": np.linspace(-3.0, 3.0, CHUNK + 1),
}


@pytest.mark.parametrize("shape", sorted(_PSI_INPUTS))
@pytest.mark.parametrize("nu", [0, 1, 4])
def test_psi_is_exact_block_row(nu, shape):
    t = _PSI_INPUTS[shape]
    n = nu + 2  # enough handed members to cover every null index too
    order = MaternOrder(nu, 1.3)
    x = 1.3 * np.atleast_1d(t).ravel()
    # chunk by chunk, as the evaluators run
    block = np.concatenate([_basis_block(nu, n, x[s])
                            for s in chunks(x.size)], axis=1)
    rows = {"null": block[: nu + 1], "minus": block[nu + 1 : nu + 1 + n],
            "plus": block[nu + 1 + n :]}
    for kind, members in rows.items():
        for m in range(nu + 1):
            got = matern_psi(order, MaternBasisId(kind, m), t)
            assert np.array_equal(got, members[m].reshape(np.shape(t))), (kind, m)
            assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


@pytest.mark.parametrize("nu", [1, 2, 4, 6])
def test_value_does_not_depend_on_its_chunk(nu):
    # the last point is alone in its chunk here and one of two points below
    spec = FeatureMapSpec("matern", n=8, nu=nu)
    x = np.linspace(-3.0, 3.0, CHUNK + 1)
    assert np.array_equal(features(spec, x)[-1], features(spec, x[-2:])[-1])


def test_scalar_null_value_equals_its_value_in_an_array():
    order, bid = MaternOrder(4), MaternBasisId("null", 2)
    assert matern_psi(order, bid, 1.7) == matern_psi(order, bid, np.array([1.7, -0.4]))[0]


@pytest.mark.parametrize("nu", range(7))
def test_null_rows_match_binomial_sum_of_laguerre_functions(nu):
    """psi0_m = c_nu/sqrt 2 sum_k C(nu+1, k) (-1)^k phi_{-nu-1+m+k}."""
    x = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0]])
    pref = math.exp(_log_c(nu)) / SQRT2
    got = _basis_block(nu, 0, x)
    for m in range(nu + 1):
        ref = pref * sum(math.comb(nu + 1, k) * (-1) ** k * laguerre_fn(-nu - 1 + m + k, x)
                         for k in range(nu + 2))
        np.testing.assert_allclose(got[m], ref, rtol=0, atol=1e-15)


# far from the origin the Laguerre table overflows and e^{-|x|} underflows,
# so the on-side handed values are not all finite there
_FAR = np.array([s * v for v in (1e3, 1e6, 1e12, 1e200) for s in (1.0, -1.0)])


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3],
                         ids=["chunk-1", "chunk", "chunk+1", "2chunk+3"])
@pytest.mark.parametrize("nu", [0, 1, 2, 6])
def test_off_side_handed_columns_stay_zero_far_from_the_origin(nu, size):
    n = 32
    x = np.resize(np.concatenate([_FAR, np.linspace(-3.0, 3.0, 9)]), size)
    with np.errstate(all="ignore"):
        F = features(FeatureMapSpec("matern", n=n, nu=nu), x)
        # the paper's product, factor by factor, on the side each class lives on
        ax = np.abs(x)
        m = np.arange(n)[:, None]
        weights = np.exp(_log_c(nu) + gammaln(m + 1) - gammaln(m + nu + 2))  # c_nu m!/(m+nu+1)!
        # the table raises beyond float64, which its rows m < 32 reach near
        # 2|x| = 1e11 (L_m^(nu+1)(s) ~ s^m/m!): the product is NaN past |x| = 1e9
        fits = ax < 1e9
        direct = (weights * (2.0 * ax) ** (nu + 1)
                  * assoc_laguerre_table(n, nu + 1, np.where(fits, 2.0 * ax, 0.0))
                  * np.exp(-ax)).T
        direct[~fits] = np.nan
    minus, plus = F[:, nu + 1 : nu + 1 + n], F[:, nu + 1 + n :]
    left = x < 0
    assert np.all(minus[~left] == 0.0) and np.all(plus[left] == 0.0)
    on_side = np.where(left[:, None], minus, plus)
    ref = np.where(left[:, None], (-1.0) ** nu * direct, direct)
    # no value is non-finite where the direct product is finite ...
    assert np.all(np.isfinite(on_side) | ~np.isfinite(ref))
    # ... and the finite ones agree with it
    both = np.isfinite(on_side) & np.isfinite(ref)
    np.testing.assert_allclose(on_side[both], ref[both], rtol=0, atol=1e-15)


@pytest.mark.parametrize("nu", [0, 2, 6])
def test_handed_rows_match_mpmath(nu):
    x = np.concatenate([np.linspace(-450.0, 450.0, 19), np.linspace(-30.0, 30.0, 31)])
    with mpmath.workdps(40):
        ref = np.array([[float(v) for v in matern_handed_mp(nu, 200, t)] for t in x]).T
    np.testing.assert_allclose(_handed_rows(nu, 200, x), ref, rtol=0, atol=1e-14)


@pytest.mark.parametrize("nu", [0, 2])
def test_handed_rows_past_the_seed_underflow_match_mpmath(nu):
    # e^{-|x|} underflows, yet rows m >~ 300 are 0.1-0.2 here: these points
    # take the exponent-tracked recurrence instead of being flushed to 0
    x = np.array([700.0, 760.0, 1000.0, -760.0])
    with mpmath.workdps(40):
        ref = np.array([[float(v) for v in matern_handed_mp(nu, 512, t)] for t in x]).T
    assert np.max(np.abs(ref)) > 0.1
    np.testing.assert_allclose(_handed_rows(nu, 512, x), ref, rtol=0, atol=1e-12)


def test_mpmath_reference_is_the_handed_basis():
    with mpmath.workdps(40):
        for nu, m, t in [(0, 0, 0.5), (2, 9, -3.0), (6, 199, 250.0), (2, 511, 760.0)]:
            ax = abs(mpmath.mpf(t))
            direct = (mpmath.factorial(nu) / mpmath.sqrt(mpmath.factorial(2 * nu))
                      * mpmath.factorial(m) / mpmath.factorial(m + nu + 1) * (2 * ax) ** (nu + 1)
                      * mpmath.laguerre(m, nu + 1, 2 * ax) * mpmath.exp(-ax))
            direct *= -1 if t < 0 and nu % 2 else 1
            assert abs(matern_handed_mp(nu, m + 1, t)[m] - direct) <= 1e-30 * abs(direct)


@pytest.mark.parametrize("nu", [30, 100, 300])
def test_large_order_basis(nu):
    bound = matern_psi_bound(MaternOrder(nu))
    x = np.concatenate([np.linspace(-300.0, 300.0, 31), np.linspace(-30.0, 30.0, 25),
                        [0.0, -1e-3, 1e-8]])
    with mpmath.workdps(40):
        ref = np.array([[float(v) for v in matern_handed_mp(nu, 200, t)] for t in x]).T
    np.testing.assert_allclose(_handed_rows(nu, 200, x), ref, rtol=0, atol=1e-14 * bound)
    # at points of opposite sign only the nu + 1 null functions contribute,
    # and their sum is the kernel exactly
    rng = np.random.default_rng(nu)
    t, u = rng.uniform(0.0, 30.0, 150), -rng.uniform(0.0, 30.0, 150)
    spec = FeatureMapSpec("matern", n=8, nu=nu)
    ft, fu = features(spec, t), features(spec, u)
    ref = matern_kernel(MaternOrder(nu), t[:, None], u[None, :])
    np.testing.assert_allclose(ft @ fu.T, ref, rtol=0, atol=1e-12)
    assert np.max(np.abs(ft)) <= bound and np.max(np.abs(fu)) <= bound


@pytest.mark.parametrize("nu", [1, 2, 6, 10, 30, 100, 300])
def test_first_handed_function_is_positive(nu):
    # psi+_0 = c_nu (2x)^(nu+1) e^{-x}/(nu+1)! has no root on x > 0; only its
    # underflow may give 0 (it gave -3.0e-17 at nu = 10, x = 0.01)
    x = np.concatenate([np.geomspace(1e-300, 1e3, 2001), np.linspace(1e-3, 1e3, 4001)])
    vals = matern_psi(MaternOrder(nu), MaternBasisId("plus", 0), x)
    assert np.all(vals[vals != 0.0] > 0.0)
    assert np.count_nonzero(vals) > 1000


@pytest.mark.parametrize("nu, rtol", [(6, 5e-13), (10, 3e-12)])
@pytest.mark.parametrize("kind", ["plus", "minus"])
def test_gram_diagonal_relative_to_the_norms(nu, rtol, kind):
    # measured 1.5e-13 and 8.0e-13 (3.6e-9 and 1.2e-4 with the rows seeded at
    # the null rows' seed); the harness rows matern/gram_*/nu= read every
    # entry relative to the norms, at GRAM_TOL
    rule = gauss_laguerre_rule(128, nu + 1.0)
    G = gram_matrix(f"matern_{kind}", range(64), rule if kind == "plus" else rule.reflected(), nu=nu)
    norms = [matern_psi_norm_sq(MaternOrder(nu), m) for m in range(64)]
    np.testing.assert_allclose(np.diag(G), norms, rtol=rtol, atol=0)
