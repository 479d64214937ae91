import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbasis.matern import (
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
    _handed_weights,
    _log_c,
    _null_block,
)
from kernelbasis._lowrank import CHUNK, chunks
from kernelbasis.featuremap import FeatureMapSpec, features
from kernelbasis.laguerre import laguerre_fn
from kernelbasis.orthopoly import assoc_laguerre_table
from kernelbasis.quadrature import gauss_laguerre_rule
from oracles import integrate

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
        assert matern_kernel(o, 2.0, 0.5) == pytest.approx(math.exp(-1.5), rel=1e-15)

    def test_three_halves(self):
        o = MaternOrder(1)
        assert matern_kernel(o, 1.0, 0.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_five_halves(self):
        o = MaternOrder(2)
        assert matern_kernel(o, 3.0, 0.0) == pytest.approx(7.0 * math.exp(-3.0), rel=1e-14)

    @given(st.integers(0, 6), st.floats(-20, 20, allow_nan=False))
    def test_unit_at_zero_distance(self, nu, t):
        assert matern_kernel(MaternOrder(nu), t, t) == pytest.approx(1.0, rel=1e-14)

    def test_length_scale(self):
        assert matern_kernel(MaternOrder(0, lam=2.0), 1.0, 0.0) == pytest.approx(
            math.exp(-2.0), rel=1e-14
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

    @pytest.mark.parametrize("nu", [0, 3, 1000])
    def test_far_distances_give_zero(self, nu):
        d = np.array([1e308, 1.7e308, np.inf, -np.inf])
        assert np.array_equal(matern_kernel(MaternOrder(nu), d, 0.0), np.zeros(4))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            MaternOrder(-1)
        with pytest.raises(ValueError):
            MaternOrder(1, lam=0.0)


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
            -1.0 / SQRT2, rel=1e-14
        )

    def test_plus_vanishes_on_negative_axis(self):
        o = MaternOrder(2)
        assert matern_psi(o, MaternBasisId("plus", 0), -1.0) == 0.0

    def test_plus_against_frozen_convolution_value(self):
        # independent panel-quadrature convolution, frozen
        o = MaternOrder(1)
        assert matern_psi(o, MaternBasisId("plus", 2), 0.7) == pytest.approx(
            0.07914669357770908, rel=1e-12
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
        ref = _basis_block(tr, 1.3 * t.ravel()).T.reshape(*shape, tr.dim)
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
        assert matern_psi_norm_sq(MaternOrder(0), 0) == pytest.approx(1.0, rel=1e-15)
        assert matern_psi_norm_sq(MaternOrder(1), 0) == pytest.approx(0.25, rel=1e-15)

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
                    matern_psi_norm_sq(o, m), rel=1e-8
                )

    def test_bound_values(self):
        assert matern_psi_bound(MaternOrder(0)) == pytest.approx(1.0, rel=1e-15)
        assert matern_psi_bound(MaternOrder(2)) == pytest.approx(8.0 / math.sqrt(24.0), rel=1e-14)

    def test_error_bound_values(self):
        assert matern_truncation_error_bound(MaternOrder(0), 1) == pytest.approx(2.0, rel=1e-15)
        assert matern_truncation_error_bound(MaternOrder(0), 100) == pytest.approx(0.2, rel=1e-14)

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
            assert matern_exact_hs_error(o, n) == pytest.approx(expected, rel=1e-13)

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
                    expected, rel=1e-12
                )

    def test_exact_error_monotone_in_n(self):
        o = MaternOrder(2)
        vals = [matern_exact_hs_error(o, n) for n in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


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
    # chunk by chunk, as the evaluators run: the null rows of a one-point
    # chunk come from a matrix-vector product, which rounds differently
    block = np.concatenate([_basis_block(MaternTruncation(order, n), x[s])
                            for s in chunks(x.size)], axis=1)
    rows = {"null": block[: nu + 1], "minus": block[nu + 1 : nu + 1 + n],
            "plus": block[nu + 1 + n :]}
    for kind, members in rows.items():
        for m in range(nu + 1):
            got = matern_psi(order, MaternBasisId(kind, m), t)
            assert np.array_equal(got, members[m].reshape(np.shape(t))), (kind, m)
            assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


@pytest.mark.parametrize("nu", range(7))
def test_null_rows_match_binomial_sum_of_laguerre_functions(nu):
    """psi0_m = c_nu/sqrt 2 sum_k C(nu+1, k) (-1)^k phi_{-nu-1+m+k}."""
    x = np.concatenate([np.linspace(-3.0, 3.0, 601), [0.0, -0.0]])
    pref = math.exp(_log_c(nu)) / SQRT2
    got = _null_block(nu, x)
    for m in range(nu + 1):
        ref = pref * sum(math.comb(nu + 1, k) * (-1) ** k * laguerre_fn(-nu - 1 + m + k, x)
                         for k in range(nu + 2))
        np.testing.assert_allclose(got[m], ref, rtol=0, atol=1e-15)


# far from the origin the Laguerre table overflows and e^{-|x|} underflows,
# so the on-side handed values are not all finite there
_FAR = np.array([s * v for v in (1e3, 1e6, 1e12, 1e200) for s in (1.0, -1.0)])


@pytest.mark.parametrize("size", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("nu", [0, 1, 2, 6])
def test_off_side_handed_columns_stay_zero_far_from_the_origin(nu, size):
    n = 32
    x = np.resize(np.concatenate([_FAR, np.linspace(-3.0, 3.0, 9)]), size)
    with np.errstate(all="ignore"):
        F = features(FeatureMapSpec("matern", n=n, nu=nu), x)
        # the paper's product, factor by factor, on the side each class lives on
        ax = np.abs(x)
        direct = (_handed_weights(nu, n)[:, None] * (2.0 * ax) ** (nu + 1)
                  * assoc_laguerre_table(n, nu + 1, 2.0 * ax) * np.exp(-ax)).T
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
