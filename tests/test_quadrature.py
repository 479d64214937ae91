import math

import mpmath
import numpy as np
import pytest

from kernelbasis import orthopoly
from kernelbasis.quadrature import (
    QuadratureRule,
    _golub_welsch,
    _legendre_panel,
    _legendre_rule,
    gauss_hermite_rule,
    gauss_laguerre_rule,
)
from oracles import gauss_rule_mp, integrate, uniform_truncated_rule


class TestGaussLaguerre:
    def test_total_mass_is_gamma(self):
        for eta in (0.0, 1.0, 2.5, 5.0):
            rule = gauss_laguerre_rule(48, eta)
            assert rule.weights.sum() == pytest.approx(math.gamma(eta + 1.0), rel=1e-12)

    @pytest.mark.parametrize("eta", [170.9, 171.0, 200.0, math.inf, math.nan])
    def test_eta_whose_mass_overflows_is_rejected_by_name(self, eta):
        # the total weight Gamma(eta + 1) overflows past eta ~ 170.62
        assert gauss_laguerre_rule(8, 170.0).weights.sum() == pytest.approx(math.gamma(171.0),
                                                                            rel=1e-12)
        with pytest.raises(ValueError, match="eta"):
            gauss_laguerre_rule(8, eta)

    def test_first_moment(self):
        rule = gauss_laguerre_rule(8, 0.0)
        assert integrate(rule, lambda t: t) == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_exactness(self):
        # degree <= 2n-1 integrates exactly: int t^k e^{-t} = k!
        rule = gauss_laguerre_rule(6, 0.0)
        for k in range(12):
            assert integrate(rule, lambda t, k=k: t**k) == pytest.approx(
                math.factorial(k), rel=1e-10
            )

    def test_assoc_laguerre_norms(self):
        # int_0^inf t^{nu+1} e^{-t} [L_m^(nu+1)]^2 dt = (m+nu+1)!/m!
        for nu in range(5):
            rule = gauss_laguerre_rule(96, nu + 1.0)
            for m in range(11):
                val = integrate(rule, lambda t: orthopoly.assoc_laguerre(m, nu + 1, t) ** 2)
                expected = math.factorial(m + nu + 1) / math.factorial(m)
                assert val == pytest.approx(expected, rel=1e-10)

    def test_node_count_bounds(self):
        gauss_laguerre_rule(1)
        gauss_laguerre_rule(256)
        with pytest.raises(ValueError):
            gauss_laguerre_rule(0)
        with pytest.raises(ValueError):
            gauss_laguerre_rule(257)

    def test_reflection(self):
        rule = gauss_laguerre_rule(16, 0.0).reflected()
        assert np.all(rule.nodes < 0)
        assert np.all(np.diff(rule.nodes) > 0)
        # int_{-inf}^0 e^{t} dt = 1 under the reflected weight
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-12)


class TestGaussHermite:
    def test_total_mass(self):
        for n in (1, 17, 64, 128):
            rule = gauss_hermite_rule(n)
            assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_second_moment(self):
        rule = gauss_hermite_rule(12)
        assert integrate(rule, lambda t: t * t) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-12, abs=0
        )

    def test_odd_moments_vanish(self):
        rule = gauss_hermite_rule(20)
        assert integrate(rule, lambda t: t**3) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_stability(self):
        # once degree < 2n-1, doubling n changes the value below 1e-12
        vals = []
        for n in (16, 32, 64):
            rule = gauss_hermite_rule(n)
            vals.append(integrate(rule, lambda t: t**10))
        assert abs(vals[1] - vals[0]) < 1e-12 * abs(vals[0])
        assert abs(vals[2] - vals[1]) < 1e-12 * abs(vals[1])


class TestUniformTruncated:
    def test_mass_is_interval_length(self):
        rule = uniform_truncated_rule(128, 50.0)
        assert rule.weights.sum() == pytest.approx(100.0, rel=1e-12)

    def test_rational_integral_to_huge_radius(self):
        # 16-node panels over ~7 geometric decades resolve 1/(1+w^2) to
        # ~1e-7 relative, well under the 1e-6 the Plancherel check needs
        R = 2e8
        rule = uniform_truncated_rule(256, R)
        assert rule.nodes.size <= 256
        val = integrate(rule, lambda w: 2.0 / (w * w + 1.0))
        expected = 4.0 * math.atan(R)
        assert val == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("build", [gauss_laguerre_rule, gauss_hermite_rule,
                                   lambda n: _legendre_panel(n, 0.0, 1.0)],
                         ids=["laguerre", "hermite", "legendre_panel"])
@pytest.mark.parametrize("n, match", [
    (2.5, "node count must be a positive integer, got 2.5"),
    (3.0, "node count must be a positive integer, got 3.0"),
    (257, "node count=257 exceeds the cap 256"),
])
def test_node_count_is_an_integer_within_the_cap(build, n, match):
    # a float node count is refused even where it is integral, as every
    # other integer argument of the package is; numpy integers pass
    build(np.int64(3))
    with pytest.raises(ValueError, match=match):
        build(n)


class TestRuleInvariants:
    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError, match="increasing"):
            QuadratureRule(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError, match="nonempty"):
            QuadratureRule(np.array([]), np.array([]))

    def test_is_its_nodes_and_weights_alone(self):
        with pytest.raises(TypeError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "real_line", "x")

    def test_reflection_refuses_a_rule_across_the_origin(self):
        with pytest.raises(ValueError, match="half-line"):
            gauss_hermite_rule(4).reflected()
        with pytest.raises(ValueError, match="half-line"):
            QuadratureRule(np.array([-1.0, 2.0]), np.array([1.0, 1.0])).reflected()

    @pytest.mark.parametrize("nodes", [[0.5, 1.0, 3.0], [-3.0, -1.0, -0.5], [0.0, 2.0]])
    def test_reflection_mirrors_a_one_sided_rule_both_ways(self, nodes):
        rule = QuadratureRule(np.array(nodes), np.array([1.0, 2.0, 3.0][:len(nodes)]))
        mirror = rule.reflected()
        assert np.array_equal(mirror.nodes, -rule.nodes[::-1])
        assert np.array_equal(mirror.weights, rule.weights[::-1])
        back = mirror.reflected()
        assert np.array_equal(back.nodes, rule.nodes) and np.array_equal(back.weights, rule.weights)

    def test_immutable_arrays(self):
        rule = gauss_hermite_rule(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


class TestIntegrate:
    def test_constant_under_laguerre(self):
        rule = gauss_laguerre_rule(4, 0.0)
        assert integrate(rule, lambda t: np.ones_like(t)) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_laguerre_squared_normalised(self):
        rule = gauss_laguerre_rule(32, 0.0)
        val = integrate(rule, lambda t: orthopoly.laguerre(2, t) ** 2)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_separable_double_integral_factorises(self):
        rule = gauss_hermite_rule(24)
        single_g = integrate(rule, lambda t: np.cos(t))
        single_h = integrate(rule, lambda t: t * t)
        double = float(
            np.sum(
                np.outer(rule.weights, rule.weights)
                * np.cos(rule.nodes)[:, None]
                * (rule.nodes**2)[None, :]
            )
        )
        assert double == pytest.approx(single_g * single_h, rel=1e-12)

    def test_nonfinite_integrand_names_node(self):
        rule = gauss_laguerre_rule(8, 0.0)
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError, match="node"):
                integrate(rule, lambda t: 1.0 / (t - rule.nodes[3]))

    def test_scalar_only_callable(self):
        rule = gauss_hermite_rule(8)

        def f(x):
            if isinstance(x, np.ndarray):
                raise TypeError("scalar only")
            return x * x

        assert integrate(rule, f) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12, abs=0)


def test_legendre_rule_is_built_once_and_read_only():
    x, w = _legendre_rule(32)
    assert _legendre_rule(32)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(32)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    with pytest.raises(ValueError, match="read-only"):
        x[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        w *= 2.0
    nodes, weights = _legendre_panel(32, 1.0, 3.0)
    assert float(weights @ nodes**3) == pytest.approx((3.0**4 - 1.0) / 4.0, rel=1e-14, abs=0)


@pytest.mark.parametrize("n", [1, 2, 64, 200])
def test_cached_rules_equal_a_fresh_build(n):
    for eta in (0.0, 1.5):
        nodes, weights = _golub_welsch.__wrapped__(n, eta)
        keep = weights > 0.0
        for rule in (gauss_laguerre_rule(n, eta), gauss_laguerre_rule(n, eta)):
            assert np.array_equal(rule.nodes, nodes[keep])
            assert np.array_equal(rule.weights, weights[keep])
    nodes, weights = _golub_welsch.__wrapped__(n, None)
    for rule in (gauss_hermite_rule(n), gauss_hermite_rule(n)):
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)


# (n, eta, node bar, weight bar) against 40-digit mpmath, eta None for
# Hermite; each bar is 4x the measured relative error.  eta = 31 and 101 are
# where weights taken from eigenvector components lose their tiny outer
# weights (1.5e-10 at n = 64, 1.1e-1 at n = 128, relative)
_RULE_BARS = [
    (128, None, 1.4e-14, 3.1e-12),
    (128, 0.0, 6.7e-13, 4.2e-12),
    (128, 101.0, 6.2e-14, 5.6e-12),
    (64, 1.5, 1.6e-13, 1.3e-12),
    (64, 31.0, 2.8e-14, 1.6e-12),
]


@pytest.mark.parametrize("n, eta, node_bar, weight_bar", _RULE_BARS,
                         ids=[f"n={n}-eta={eta}" for n, eta, *_ in _RULE_BARS])
def test_rule_is_accurate_relative_to_each_node_and_weight(n, eta, node_bar, weight_bar):
    rule = gauss_hermite_rule(n) if eta is None else gauss_laguerre_rule(n, eta)
    assert rule.nodes.size == n
    with mpmath.workdps(40):
        nodes, weights = gauss_rule_mp(n, eta, rule.nodes)
        node_err = max(abs(mpmath.mpf(x) / ref - 1) for x, ref in zip(rule.nodes, nodes))
        weight_err = max(abs(mpmath.mpf(w) / ref - 1) for w, ref in zip(rule.weights, weights))
    assert node_err <= node_bar and weight_err <= weight_bar


def test_cached_rules_are_read_only_and_distinct():
    first, second = gauss_hermite_rule(16), gauss_hermite_rule(16)
    assert first is not second
    with pytest.raises(ValueError, match="read-only"):
        first.nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        first.weights[0] = 0.0
