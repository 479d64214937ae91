import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelbasis.gaussian import (
    GaussianScale,
    MercerParams,
    gaussian_kernel,
    gaussian_psi,
    gaussian_psi_scaled,
    gaussian_truncated,
    gaussian_truncation_error,
    hermite_fn,
    mercer_eigenfunction,
    mercer_eigenvalue,
    mercer_weight,
    _HERMITE_FN,
    _hermite_rows,
    _mercer_form,
    _psi_block,
    _psi_raw,
    _scaled_form,
)
from kernelbasis._lowrank import CHUNK
from kernelbasis.quadrature import gauss_hermite_rule
from kernelbasis.verify import DEFAULT_SEED, _sample_pairs, mehler_check
from oracles import gaussian_psi_mp

ALPHA = math.sqrt(2.0 / 3.0)


class TestKernel:
    def test_values(self):
        s = GaussianScale(1.0)
        assert gaussian_kernel(s, 0.3, 0.3) == 1.0
        assert gaussian_kernel(s, 1.0, 0.0) == pytest.approx(math.exp(-0.5), rel=1e-15, abs=0)
        assert gaussian_kernel(GaussianScale(2.0), 1.0, 0.0) == pytest.approx(
            math.exp(-2.0), rel=1e-15, abs=0
        )

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            GaussianScale(-1.0)


class TestHermiteFunctions:
    def test_ground_state(self):
        assert hermite_fn(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15, abs=0)

    def test_first_excited(self):
        expected = math.sqrt(1.0 / (2.0 * math.sqrt(math.pi))) * math.exp(-0.5) * 2.0
        assert hermite_fn(1, 1.0) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_orthonormal_under_unit_weight(self):
        rule = gauss_hermite_rule(96)
        strip = np.exp(0.5 * rule.nodes**2)
        table = np.vstack([hermite_fn(m, rule.nodes) * strip for m in range(16)])
        gram = (table * rule.weights) @ table.T
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-8)


class TestBasis:
    def test_value_at_origin(self):
        assert gaussian_psi(0, 0.0) == pytest.approx(
            (2.0 * math.sqrt(2.0) / 3.0) ** 0.5, rel=1e-15, abs=0
        )

    def test_odd_vanishes_at_origin(self):
        assert gaussian_psi(1, 0.0) == 0.0

    def test_matches_definition(self):
        # (2 sqrt2/3)^{1/2} (6^m m!)^{-1/2} e^{-t^2/3} H_m(2t/sqrt3)
        from kernelbasis.orthopoly import hermite

        t = np.linspace(-3, 3, 25)
        for m in (0, 1, 4, 9):
            direct = (
                (2.0 * math.sqrt(2.0) / 3.0) ** 0.5
                / math.sqrt(6.0**m * math.factorial(m))
                * np.exp(-t * t / 3.0)
                * hermite(m, 2.0 * t / math.sqrt(3.0))
            )
            np.testing.assert_allclose(gaussian_psi(m, t), direct, rtol=1e-12, atol=1e-15)

    def test_large_degree_finite(self):
        assert np.isfinite(gaussian_psi(400, 3.0))

    def test_scale_is_argument_scaling(self):
        t = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            gaussian_psi(3, t, GaussianScale(1.4)), gaussian_psi(3, 1.4 * t), rtol=1e-14
        )


class TestScaledVariant:
    def test_reduces_to_standard_at_kappa_one(self):
        t = np.linspace(-4, 4, 41)
        for m in (0, 1, 7, 15):
            np.testing.assert_allclose(
                gaussian_psi_scaled(m, 1.0, t), gaussian_psi(m, t), atol=1e-12
            )

    def test_value_at_origin_kappa_half(self):
        expected = (math.sqrt(2.0) * 0.5 / 1.125) ** 0.5
        assert gaussian_psi_scaled(0, 0.5, 0.0) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_kappa_domain(self):
        with pytest.raises(ValueError):
            gaussian_psi_scaled(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_psi_scaled(0, math.sqrt(2.0), 1.0)

    @pytest.mark.parametrize("kappa", [1e-9, 1e-170])
    def test_narrow_kappa_matches_definition(self, kappa):
        # 1 - 1/a^2 rounds to 0 here; the exponent is then e^0
        from kernelbasis.orthopoly import hermite_normalized

        t = np.linspace(-3.0, 3.0, 7)
        a2 = 1.0 + 0.5 * kappa * kappa
        shrink = 1.0 - kappa * kappa / a2
        for m in (0, 1, 4):
            direct = ((math.sqrt(2.0) * kappa / a2) ** 0.5 * shrink ** (0.5 * m)
                      * hermite_normalized(m, kappa * t / (a2 * math.sqrt(shrink))))
            np.testing.assert_allclose(gaussian_psi_scaled(m, kappa, t), direct, rtol=1e-13)

    def test_expansion_converges_for_kappa(self):
        s = GaussianScale(1.0)
        for t, u in [(0.5, 1.5), (-1.0, 2.0)]:
            acc = sum(
                gaussian_psi_scaled(m, 0.7, t) * gaussian_psi_scaled(m, 0.7, u)
                for m in range(150)
            )
            assert acc == pytest.approx(gaussian_kernel(s, t, u), abs=1e-9)


class TestMercer:
    def test_derived_parameters(self):
        p = MercerParams(ALPHA)
        assert p.beta == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0)
        assert p.delta_sq == pytest.approx(1.0 / 3.0, rel=1e-14, abs=0)

    def test_derived_parameters_are_not_arguments(self):
        # beta and delta_sq follow from alpha, so they cannot be passed
        with pytest.raises(TypeError):
            MercerParams(alpha=1.0, beta=2.0, delta_sq=0.1)
        with pytest.raises(TypeError):
            MercerParams(1.0, beta=2 ** 0.25)

    def test_replace_recomputes_derived_parameters(self):
        p = dataclasses.replace(MercerParams(ALPHA), alpha=2.0)
        assert (p.beta, p.delta_sq) == (MercerParams(2.0).beta, MercerParams(2.0).delta_sq)
        assert p.beta == 1.5 ** 0.25

    def test_derived_parameters_bit_for_bit(self):
        # the formulas the fields had when they were passed in: beta =
        # (1 + 2/alpha^2)^{1/4} and delta^2 = 1/(1 + sqrt(1 + 2/alpha^2))
        for alpha in np.logspace(-150, 150, 601):
            alpha = float(alpha)
            p, r = MercerParams(alpha), 1.0 + 2.0 / alpha**2
            assert (p.beta, p.delta_sq) == (r**0.25, 1.0 / (1.0 + math.sqrt(r))), alpha

    @pytest.mark.parametrize("alpha", [1e200, 1e-155, math.inf, 0.0, -1.0, math.nan])
    def test_alpha_out_of_range_rejected_at_construction(self, alpha):
        # alpha^2 or 2/alpha^2 is not finite, or alpha is not positive
        with pytest.raises(ValueError, match="alpha"):
            MercerParams(alpha)

    def test_alpha_range_edges_are_accepted(self):
        for alpha in (1e-150, 1e150):
            assert math.isfinite(MercerParams(alpha).beta)

    def test_distinguished_eigenvalues(self):
        p = MercerParams(ALPHA)
        for m in range(12):
            assert mercer_eigenvalue(p, m) == pytest.approx(
                2.0 / 3.0 ** (m + 1), rel=1e-14, abs=0
            )

    def test_eigenvalues_strictly_decreasing(self):
        p = MercerParams(1.3)
        vals = [mercer_eigenvalue(p, m) for m in range(20)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_eigenvalue_sum_geometric(self):
        p = MercerParams(ALPHA)
        s = p.alpha**2 + p.delta_sq + 0.5
        closed = math.sqrt(p.alpha**2 / s) / (1.0 - 0.5 / s)
        assert sum(mercer_eigenvalue(p, m) for m in range(100)) == pytest.approx(
            closed, rel=1e-14, abs=0
        )

    def test_eigenfunction_at_origin(self):
        p = MercerParams(ALPHA)
        assert mercer_eigenfunction(p, 0, 0.0) == pytest.approx(
            math.sqrt(p.beta), rel=1e-15, abs=0
        )

    @pytest.mark.parametrize("alpha", [ALPHA, 1.0, 1e2, 1e4, 1e9])
    def test_delta_sq_matches_mpmath(self, alpha):
        # alpha^2 (beta^2 - 1)/2 cancels in floats: 1e-9 lost at alpha = 1e4, 0 from ~1e8
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha)
            ref = a**2 * (mpmath.sqrt(1 + 2 / a**2) - 1) / 2
            assert abs(MercerParams(alpha).delta_sq - ref) <= 1e-15 * ref

    def test_delta_sq_is_one_third_at_the_distinguished_alpha(self):
        assert MercerParams(ALPHA).delta_sq == 1.0 / 3.0

    def test_wide_alpha_eigenfunction_decays(self):
        # the weight e^{-t^2/2} (delta^2 ~ 1/2) underflows, so theta is 0 however large H_40 is
        p = MercerParams(1e9)
        assert mercer_eigenfunction(p, 40, 1e3) == 0.0
        assert mercer_eigenfunction(p, 40, 1e6) == 0.0

    def test_eigenfunction_beyond_float64_raises(self):
        # theta_40 at t = 1 is far beyond 1e308
        with pytest.raises(ValueError, match="m=40"):
            mercer_eigenfunction(MercerParams(1e9), 40, 1.0)

    def test_wide_alpha_matches_definition(self):
        # alpha = 1e8, where delta^2 = alpha^2 (beta^2 - 1)/2 in floats rounds to 0
        from kernelbasis.orthopoly import hermite_normalized

        p = MercerParams(1e8)
        t = np.linspace(-3e-8, 3e-8, 7)
        for m in (0, 1, 4):
            direct = (math.sqrt(p.beta) * np.exp(-p.delta_sq * t * t)
                      * hermite_normalized(m, p.alpha * p.beta * t))
            np.testing.assert_allclose(mercer_eigenfunction(p, m, t), direct, rtol=1e-13, atol=1e-15)

    def test_sqrt_mu_theta_equals_psi(self):
        p = MercerParams(ALPHA)
        t = np.linspace(-4, 4, 33)
        for m in range(16):
            lhs = math.sqrt(mercer_eigenvalue(p, m)) * mercer_eigenfunction(p, m, t)
            np.testing.assert_allclose(lhs, gaussian_psi(m, t), atol=1e-12)

    @pytest.mark.parametrize("alpha", [ALPHA, 1.1])
    def test_orthonormal_under_gaussian_weight(self, alpha):
        # exact substitution s = alpha beta t absorbs the full exponential
        p = MercerParams(alpha)
        rule = gauss_hermite_rule(96)
        ab = p.alpha * p.beta
        tpts = rule.nodes / ab
        strip = math.pi**-0.25 / math.sqrt(p.beta) * np.exp(p.delta_sq * tpts**2)
        table = np.vstack([mercer_eigenfunction(p, m, tpts) * strip for m in range(13)])
        gram = (table * rule.weights) @ table.T
        np.testing.assert_allclose(gram, np.eye(13), atol=1e-8)

    def test_weight_normalised(self):
        p = MercerParams(ALPHA)
        rule = gauss_hermite_rule(64)
        total = float(rule.weights @ (mercer_weight(p, rule.nodes / p.alpha) * np.exp(rule.nodes**2)))
        assert total / p.alpha == pytest.approx(1.0, rel=1e-12)


class TestTruncation:
    def test_single_term_at_origin(self):
        assert gaussian_truncated(GaussianScale(1.0), 1, 0.0, 0.0) == pytest.approx(
            2.0 * math.sqrt(2.0) / 3.0, rel=1e-14, abs=0
        )

    def test_converges_at_n60(self):
        s = GaussianScale(1.0)
        assert gaussian_truncated(s, 60, 1.0, 2.0) == pytest.approx(
            math.exp(-0.5), abs=1e-8
        )

    def test_goes_negative_for_small_n(self):
        s = GaussianScale(1.0)
        t = np.linspace(-6, 6, 1201)
        for n in (3, 11):
            assert float(np.min(gaussian_truncated(s, n, t, 0.0))) < -1e-4

    def test_exact_error_values(self):
        assert gaussian_truncation_error(1) == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)))
        assert gaussian_truncation_error(4) == pytest.approx(1.0 / (81.0 * math.sqrt(2.0)))

    def test_error_matches_tensor_quadrature(self):
        rule = gauss_hermite_rule(128)
        tpts = rule.nodes / ALPHA
        W = np.outer(rule.weights, rule.weights) / math.pi
        T, U = np.meshgrid(tpts, tpts, indexing="ij")
        s = GaussianScale(1.0)
        r = gaussian_kernel(s, T, U)
        for n in range(1, 7):
            rn = gaussian_truncated(s, n, T, U)
            quad = math.sqrt(float(np.sum(W * (r - rn) ** 2)))
            assert quad == pytest.approx(gaussian_truncation_error(n), rel=1e-6, abs=0)

    @given(st.integers(1, 30))
    def test_error_is_geometric(self, n):
        assert gaussian_truncation_error(n + 1) == pytest.approx(
            gaussian_truncation_error(n) / 3.0, rel=1e-14, abs=0
        )


class TestMehler:
    def test_rho_zero_single_term(self):
        rep = mehler_check(0.0, 0.8, -1.1)
        assert rep.passed
        assert rep.computed == pytest.approx(math.exp(-0.5 * (0.8**2 + 1.1**2)), rel=1e-14, abs=0)

    def test_origin(self):
        rep = mehler_check(1.0 / 3.0, 0.0, 0.0)
        assert rep.passed and rep.abs_error < 1e-12
        assert rep.reference == pytest.approx(math.sqrt(9.0 / 8.0), rel=1e-14, abs=0)

    def test_grid(self):
        for x in np.linspace(-2, 2, 5):
            for y in np.linspace(-2, 2, 5):
                assert mehler_check(1.0 / 3.0, float(x), float(y)).abs_error < 1e-12

    def test_substitution_reproduces_kernel(self):
        # x = 2t/sqrt3, y = 2u/sqrt3, rho = 1/3, then remove e^{-(t^2+u^2)/3}
        t, u = 1.0, 2.0
        rep = mehler_check(1.0 / 3.0, 2.0 * t / math.sqrt(3.0), 2.0 * u / math.sqrt(3.0))
        lhs = (2.0 * math.sqrt(2.0) / 3.0) * math.exp((t * t + u * u) / 3.0) * rep.computed
        assert lhs == pytest.approx(gaussian_kernel(GaussianScale(1.0), t, u), abs=1e-10)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            mehler_check(1.0, 0.0, 0.0)

    def test_kernel_substitution_is_summed_to_its_tail_bound(self):
        # the harness's 20 seeded pairs: on the kernel's scale the series
        # error is a few ulp (a stop after two small terms left 5.5e-13)
        root3 = math.sqrt(3.0)
        for t, u in _sample_pairs(20, -3.0, 3.0, DEFAULT_SEED):
            rep = mehler_check(1.0 / 3.0, 2.0 * t / root3, 2.0 * u / root3)
            scale = (2.0 * math.sqrt(2.0) / 3.0) * math.exp((t * t + u * u) / 3.0)
            assert rep.abs_error < 1e-15 and scale * rep.abs_error < 1e-14

    def test_random_draws_within_bound(self):
        # 1000 seeded draws, |rho| <= 0.9 and |x|, |y| <= 4 (measured 1.7e-14
        # on 3000; 1.2e-12 with the two-small-terms stop)
        rng = np.random.default_rng(2024)
        rhos, xs, ys = rng.uniform(-0.9, 0.9, 1000), *rng.uniform(-4, 4, (2, 1000))
        worst = max(mehler_check(float(r), float(x), float(y)).abs_error
                    for r, x, y in zip(rhos, xs, ys))
        assert worst < 5e-14

    @pytest.mark.parametrize("rho, terms", [(0.0, 1), (1e-300, 1), (1.0 / 3.0, 35), (-0.9, 374),
                                            (0.9238870965477306, 500)])
    def test_term_count_from_the_tail_bound(self, rho, terms):
        # least M with k^2 |rho|^M / (1 - |rho|) <= 1e-16, k = 1.086435; the
        # last case is the largest rho whose M is within the 500-term limit
        assert mehler_check(rho, 0.4, -1.2).metadata["terms"] == terms

    @pytest.mark.parametrize("rho", [0.9238870965477307, -0.99, 0.9999])
    def test_rho_past_the_term_limit_raises(self, rho):
        # 500 terms would leave a tail the check could fail from:
        # mehler_check(0.99, 0.4, -1.2) read 2.3e-4 when cut there
        with pytest.raises(ValueError, match=f"rho={rho}: .* past the 500-term limit"):
            mehler_check(rho, 0.4, -1.2)

    def test_reports_term_count(self):
        rep = mehler_check(1.0 / 3.0, 1.0, 1.0)
        assert rep.metadata["terms"] > 5


@pytest.mark.parametrize("t", [0.7, -0.0, 0.0, np.linspace(-4.0, 4.0, 12).reshape(3, 4),
                               np.linspace(-4.0, 4.0, 2 * CHUNK + 3)],
                         ids=["scalar", "neg_zero", "pos_zero", "array_2d", "three_chunks"])
@pytest.mark.parametrize("m", [0, 1, 5, 40])
def test_psi_is_block_row(m, t):
    scale = GaussianScale(1.3)
    row = _psi_block(m + 1, 1.3 * np.atleast_1d(t).ravel())[m].reshape(np.shape(t))
    got = gaussian_psi(m, t, scale)
    assert np.array_equal(got, row)
    assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


_MERCER = MercerParams(1.1)


@pytest.mark.parametrize("evaluator, form", [
    (hermite_fn, _HERMITE_FN),
    (lambda m, t: gaussian_psi_scaled(m, 0.7, t), _scaled_form(0.7)),
    (lambda m, t: mercer_eigenfunction(_MERCER, m, t), _mercer_form(_MERCER)),
], ids=["hermite_fn", "gaussian_psi_scaled", "mercer_eigenfunction"])
@pytest.mark.parametrize("t", [0.7, -0.0, 0.0, np.linspace(-4.0, 4.0, 12).reshape(3, 4),
                               np.linspace(-4.0, 4.0, 2 * CHUNK + 3)],
                         ids=["scalar", "neg_zero", "pos_zero", "array_2d", "three_chunks"])
@pytest.mark.parametrize("m", [0, 1, 5, 40])
def test_hermite_evaluator_is_block_row(m, t, evaluator, form):
    # the same rows as test_psi_is_block_row, for the other three parameter sets
    row = _hermite_rows(m + 1, *form, np.atleast_1d(t).ravel())[m].reshape(np.shape(t))
    got = evaluator(m, t)
    assert np.array_equal(got, row)
    assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


def test_psi_matches_mpmath_up_to_large_arguments():
    # past |x| = 47.3 the weighted seed underflows and the rows are 0; the
    # values lost there are below 3e-80
    x = np.concatenate([np.linspace(-250.0, 250.0, 11), np.linspace(-30.0, 30.0, 41)])
    with mpmath.workdps(40):
        ref = np.array([[float(v) for v in gaussian_psi_mp(200, t)] for t in x]).T
    np.testing.assert_allclose(_psi_block(200, x), ref, rtol=0, atol=1e-14)


def test_psi_high_degree_far_from_the_origin():
    # the unweighted table overflows here and used to meet e^{-t^2/3} as inf * 0
    with mpmath.workdps(40):
        ref = float(gaussian_psi_mp(501, 40.0)[500])
    assert ref == pytest.approx(9.8250888109596335e-26, rel=1e-15, abs=0)
    assert gaussian_psi(500, 40.0) == pytest.approx(ref, rel=1e-12, abs=0)


def test_raw_rows_are_the_basis_over_their_scale():
    # U_k = psi_k / s_k at n = 512: ordinary points, seeds that are subnormal
    # (|x| in 45.5..47.3) or 0 (|x| > 47.3), and the origin
    x = np.concatenate([[0.0, -0.0, 5e-324], np.random.default_rng(5).uniform(-50.0, 50.0, 3000),
                        np.linspace(45.5, 47.4, 200), np.linspace(-47.4, -45.5, 200)])
    rows, s, _ = _psi_raw(512)
    raw, psi = rows(x.copy()), _psi_block(512, x.copy())
    seed, tiny = psi[0], np.finfo(float).tiny
    normal, subnormal, zero = seed >= tiny, (seed > 0) & (seed < tiny), seed == 0
    assert np.count_nonzero(subnormal) > 100 and np.count_nonzero(zero) > 100
    # s_k >= 2^-257 bounds |U_k| by 2^257 max|psi_k|, so U U^T stays finite
    assert s[0] == 1.0 and np.all((s > 2.0**-257) & (s <= 1.0))
    assert np.all(np.isfinite(raw))
    assert np.all(np.abs(raw) >= np.abs(psi))
    err = np.abs(s[:, None] * raw - psi)
    # to rounding: measured 1.05e-14 of each column's largest value; where the
    # seed is subnormal the normalised rows are accurate to 3.5e-74 only
    assert np.all(err[:, normal] <= 2e-14 * np.max(np.abs(psi[:, normal]), axis=0))
    assert np.all(err[:, subnormal] <= 3.5e-74)
    assert np.all(raw[:, zero] == 0.0)


def test_mpmath_reference_is_the_hermite_basis():
    with mpmath.workdps(40):
        for m, t in [(0, 0.3), (7, -2.5), (199, 30.0), (150, -120.0)]:
            y = 2 * mpmath.mpf(t) / mpmath.sqrt(3)
            direct = (mpmath.sqrt(2 * mpmath.sqrt(2) / 3) * mpmath.exp(-mpmath.mpf(t) ** 2 / 3)
                      * mpmath.hermite(m, y) / mpmath.sqrt(6**m * mpmath.factorial(m)))
            assert abs(gaussian_psi_mp(m + 1, t)[m] - direct) <= 1e-30 * abs(direct)
