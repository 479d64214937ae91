import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import kernelbasis.cauchy as cauchy_mod
from kernelbasis.featuremap import FeatureMapSpec
from kernelbasis.gaussian import (MERCER_ALPHA_DEFAULT, MercerParams, gaussian_psi, hermite_fn,
                                  mercer_eigenfunction)
from kernelbasis.matern import (MaternBasisId, MaternOrder, matern_psi, matern_psi_norm_sq,
                               matern_psi_unified)
from kernelbasis.quadrature import gauss_hermite_rule, gauss_laguerre_rule
from kernelbasis.report import VerificationReport
from kernelbasis.verify import (
    GRAM_FAMILIES,
    convolution_oracle,
    gram_matrix,
    run_suite,
    truncation_sweep,
)
from oracles import matern_convolution_mp

CHECK_LIST = Path(__file__).with_name("verify_checks.txt")

# (nu, m, t) against 40-digit mpmath: plus (m >= 0), null (-nu-1 <= m <= -1)
# and minus (m <= -nu-2) indices, t on both sides of 0, near the origin and
# in the bulk of the function (|t| near nu)
_DEFINING_INTEGRAL_CASES = [
    (6, 4, 2.5), (6, 4, -1.5), (6, -4, 1.2), (6, -8, -2.0), (6, -12, 0.8),
    (15, 9, 3.0), (15, -1, -0.5), (15, -17, -1.0),
    (40, 12, 60.0), (40, -30, -1.0), (40, -42, -40.0),
    (100, 20, 140.0), (100, 20, -1.0), (100, -1, 95.0), (100, -102, -110.0),
]
# absolute: the worst case above measures 2.4e-14 (nu = 100), a factor 4 below
_DEFINING_INTEGRAL_BAR = 1e-13


@pytest.fixture(scope="module")
def all_reports():
    # one run of every suite as shipped, shared by the tests that read all of it
    return run_suite("all")


class TestReport:
    def test_passed_flag_is_derived(self):
        rep = VerificationReport("x", 1.0, 1.0 + 1e-9, 1e-8)
        assert rep.passed and rep.abs_error == pytest.approx(1e-9)
        rep = VerificationReport("x", 1.0, 2.0, 1e-8)
        assert not rep.passed

    @pytest.mark.parametrize("derived", [dict(abs_error=0.0, passed=True), dict(abs_error=0.0),
                                         dict(passed=True)], ids=["both", "abs_error", "passed"])
    def test_derived_fields_are_not_arguments(self, derived):
        # abs_error and passed are set from the other fields, so even a
        # consistent pair of them is refused
        with pytest.raises(TypeError):
            VerificationReport(check_name="x", computed=1.0, reference=1.0, tolerance=1e-8,
                               **derived)

    @pytest.mark.parametrize("computed, reference", [
        (np.nan, 1.0), (np.inf, 1.0), (np.inf, np.inf),
    ])
    def test_nonfinite_result_fails(self, computed, reference):
        rep = VerificationReport("x", computed, reference, 1e-8)
        assert not rep.passed
        assert not np.isfinite(rep.abs_error)

    def test_scalar_check_is_the_constructor_with_keyword_metadata(self):
        assert (VerificationReport.scalar_check("x", 1.0, 2.0, 1e-8, grid=5)
                == VerificationReport("x", 1.0, 2.0, 1e-8, dict(grid=5)))

    def test_round_trips_through_json(self):
        rep = VerificationReport("a/b", 1e-13, 0.0, 1e-12, dict(grid=50))
        again = json.loads(json.dumps(rep.to_dict()))
        assert again["check_name"] == "a/b"
        assert again["passed"] is True
        assert again["metadata"]["grid"] == 50


class TestConvolutionOracle:
    def test_matern_matches_closed_form(self):
        o = MaternOrder(2)
        for m in (0, 3, 7):
            bid = MaternBasisId("plus", m)
            for t in (0.4, 1.3, 3.7):
                # measured 1.7e-16
                assert convolution_oracle("matern", m, t, nu=2) == pytest.approx(
                    matern_psi(o, bid, t), rel=0, abs=2e-15
                )

    def test_matern_zero_left_of_origin(self):
        assert convolution_oracle("matern", 4, -0.8, nu=1) == 0.0

    def test_matern_null_class_via_negative_indices(self):
        o = MaternOrder(1)
        for m, uni in ((0, -2), (1, -1)):
            bid = MaternBasisId("null", m)
            for t in (-2.0, -0.3, 0.9, 2.4):
                # measured 2.2e-16
                assert convolution_oracle("matern", uni, t, nu=1) == pytest.approx(
                    matern_psi(o, bid, t), rel=0, abs=2e-15
                )

    def test_gaussian_matches_closed_form(self):
        for m in (0, 4, 10):
            for t in (-2.0, 0.0, 1.7):
                # measured 1.1e-15
                assert convolution_oracle("gaussian", m, t) == pytest.approx(
                    gaussian_psi(m, t), rel=0, abs=1e-14
                )

    def test_matern_matches_the_defining_integral_at_40_digits(self):
        errors = {}
        for nu, m, t in _DEFINING_INTEGRAL_CASES:
            with mpmath.workdps(40):
                reference = float(matern_convolution_mp(nu, m, t))
            errors[nu, m, t] = abs(convolution_oracle("matern", m, t, nu=nu) - reference)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= _DEFINING_INTEGRAL_BAR, f"(nu, m, t) = {worst}: {errors[worst]:.3g}"

    def test_matern_order_200_is_a_value(self):
        # nu! does not fit a float past nu = 170; the null member m = nu
        # (index -1) has its bulk near t = nu, where it is about -0.28
        with mpmath.workdps(40):
            reference = float(matern_convolution_mp(200, -1, 199.0))
        assert abs(reference) > 0.1
        assert abs(convolution_oracle("matern", -1, 199.0, nu=200) - reference) <= (
            _DEFINING_INTEGRAL_BAR)

    @pytest.mark.parametrize("m, t", [(-301, -480.0), (-451, -340.0)])
    def test_matern_far_left_large_index_is_a_value(self, m, t):
        # the raw L_mm(s - 2t) of the m < 0 branch overflows float64 here, so
        # the value needs the exponent the oracle carries per node; measured
        # 4.0e-16 and 4.3e-16 from the closed form (values -0.0623, 0.0250)
        reference = matern_psi_unified(MaternOrder(0), m, t)
        assert abs(reference) > 0.02
        assert abs(convolution_oracle("matern", m, t, nu=0) - reference) <= 2e-15

    def test_matern_is_finite_or_raises_value_error(self):
        # never RuntimeError, OverflowError, NaN or inf, at any order up to
        # the largest one whose rule fits MAX_NODES
        for nu in (0, 200, 511):
            for m in (0, 7, 300, -1, -nu - 1, -nu - 2, -300):
                for t in (0.0, 5e-324, 0.5, -0.5, 700.0, -700.0, 1e300, -1e300):
                    try:
                        value = convolution_oracle("matern", m, t, nu=nu)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (nu, m, t, value)

    @pytest.mark.parametrize("nu, m", [(512, 0), (300, -300), (0, 512)])
    def test_matern_rule_beyond_max_nodes_raises_value_error(self, nu, m):
        with pytest.raises(ValueError, match=r"node count=\d+ exceeds the cap 256"):
            convolution_oracle("matern", m, 1.0, nu=nu)

    @pytest.mark.parametrize("m", [2.5, -2.5])
    def test_matern_index_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match=r"\|m\| must be a nonnegative integer"):
            convolution_oracle("matern", m, 1.0, nu=2)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("m", [3, -1, -5])
    def test_matern_needs_a_finite_t(self, m, t):
        with pytest.raises(ValueError, match="t must be finite"):
            convolution_oracle("matern", m, t, nu=2)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            convolution_oracle("laplace", 0, 1.0)

    def test_matern_needs_nu(self):
        with pytest.raises(ValueError):
            convolution_oracle("matern", 0, 1.0)


class TestGramMatrix:
    def test_matern_plus_diagonal(self):
        nu = 2
        rule = gauss_laguerre_rule(128, nu + 1.0)
        G = gram_matrix("matern_plus", range(9), rule, nu=nu)
        o = MaternOrder(nu)
        expected = np.diag([matern_psi_norm_sq(o, m) for m in range(9)])
        np.testing.assert_allclose(G, expected, atol=1e-8)

    @pytest.mark.parametrize("family, rule, match", [
        ("matern_plus", gauss_hermite_rule(32), "half line"),
        ("matern_minus", gauss_hermite_rule(32), "half line"),
        ("matern_minus", gauss_laguerre_rule(32, 1.0), "half line"),
        ("matern_plus", gauss_laguerre_rule(32, 1.0).reflected(), "half line"),
        ("hermite_fn", gauss_laguerre_rule(32, 1.0), "real-line"),
        ("gaussian_psi", gauss_laguerre_rule(32, 1.0), "real-line"),
        ("mercer", gauss_laguerre_rule(32, 1.0), "real-line"),
        ("mercer", gauss_laguerre_rule(32, 1.0).reflected(), "real-line"),
    ])
    def test_domain_mismatch_rejected(self, family, rule, match):
        # the error names the family and the rule's node range
        with pytest.raises(ValueError, match=match) as err:
            gram_matrix(family, range(3), rule, nu=0)
        assert family in str(err.value)
        assert f"[{rule.nodes[0]:.3g}, {rule.nodes[-1]:.3g}]" in str(err.value)

    def test_one_node_hermite_rule_serves_the_gaussian_families(self):
        # its only node is 0, on both sides of the origin at once
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        np.testing.assert_allclose(gram_matrix("hermite_fn", [0], rule), [[1.0]], rtol=1e-15)
        gram_matrix("gaussian_psi", [0], rule)
        gram_matrix("mercer", [0], rule)

    def test_minus_needs_reflected_rule(self):
        rule = gauss_laguerre_rule(64, 1.0)
        with pytest.raises(ValueError):
            gram_matrix("matern_minus", range(3), rule, nu=0)
        G = gram_matrix("matern_minus", range(5), rule.reflected(), nu=0)
        o = MaternOrder(0)
        expected = np.diag([matern_psi_norm_sq(o, m) for m in range(5)])
        np.testing.assert_allclose(G, expected, atol=1e-8)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gram_matrix("fourier", range(3), gauss_hermite_rule(8))

    def test_matern_family_needs_nu(self):
        with pytest.raises(ValueError, match="matern gram needs nu"):
            gram_matrix("matern_plus", range(3), gauss_laguerre_rule(8, 1.0))

    @pytest.mark.parametrize("indices, match", [([], "nonempty"), ([2, -1], "nonnegative")])
    def test_bad_indices_rejected(self, indices, match):
        with pytest.raises(ValueError, match=match):
            gram_matrix("hermite_fn", indices, gauss_hermite_rule(16))

    @pytest.mark.parametrize("family", GRAM_FAMILIES)
    def test_index_cap_is_the_degree_cap(self, family):
        # index 512 builds its rows on a small rule; 513 is refused before any row is built
        rule = gauss_laguerre_rule(4, 1.0) if family.startswith("matern") else gauss_hermite_rule(4)
        rule = rule.reflected() if family == "matern_minus" else rule
        assert gram_matrix(family, [0, 512], rule, nu=0).shape == (2, 2)
        with pytest.raises(ValueError, match=r"indices\[1\]=513 exceeds the cap 512"):
            gram_matrix(family, [0, 513], rule, nu=0)

    def test_non_integer_index_is_named(self):
        with pytest.raises(ValueError, match=r"indices\[1\] must be a nonnegative integer"):
            gram_matrix("gaussian_psi", [0, 1.5], gauss_hermite_rule(8))

    @pytest.mark.parametrize("family", GRAM_FAMILIES)
    def test_unordered_indices_match_per_index_reference(self, family):
        # one scalar evaluator per index, times the strip that reduces the
        # weighted integrand to the rule's base weight
        idx = [5, 0, 3]
        nu, params = 2, MercerParams(MERCER_ALPHA_DEFAULT)
        if family.startswith("matern"):
            rule = gauss_laguerre_rule(96, nu + 1.0)
            if family == "matern_minus":
                rule = rule.reflected()
            s = np.abs(rule.nodes)
            kind = family.split("_")[1]
            rows = [matern_psi(MaternOrder(nu), MaternBasisId(kind, m), 0.5 * rule.nodes)
                    * np.exp(0.5 * s) * s ** (-(nu + 1.0)) for m in idx]
        else:
            rule = gauss_hermite_rule(96)
            s = rule.nodes
            if family == "hermite_fn":
                rows = [hermite_fn(m, s) * np.exp(0.5 * s * s) for m in idx]
            elif family == "gaussian_psi":
                alpha = math.sqrt(2.0 / 3.0)
                const = math.sqrt(alpha * math.sqrt(3.0) / (2.0 * math.sqrt(math.pi)))
                rows = [gaussian_psi(m, math.sqrt(3.0) * s / 2.0) * const * np.exp(0.25 * s * s)
                        for m in idx]
            else:
                tpts = s / (params.alpha * params.beta)
                strip = math.pi**-0.25 / math.sqrt(params.beta) * np.exp(params.delta_sq * tpts**2)
                rows = [mercer_eigenfunction(params, m, tpts) * strip for m in idx]
        B = np.vstack(rows)
        G = gram_matrix(family, idx, rule, nu=nu)
        np.testing.assert_allclose(G, (B * rule.weights) @ B.T, rtol=1e-13, atol=1e-15)
        full = gram_matrix(family, range(6), rule, nu=nu)
        np.testing.assert_allclose(G, full[np.ix_(idx, idx)], rtol=1e-13, atol=1e-15)


class TestTruncationSweep:
    def test_matern_ratio_within_unit_interval(self, all_reports):
        # the Matern suite's exact Hilbert--Schmidt error over its bound, nu < 5
        # and 7 levels n
        ratios = [r for r in all_reports if "hs_ratio" in r.check_name]
        assert len(ratios) == 35
        assert all(r.passed for r in ratios)
        assert all(0.0 < r.computed <= 1.0 for r in ratios)

    def test_sweep_yields_only_pointwise_rows(self):
        reps = truncation_sweep("matern", [1, 4], [(0.5, 1.0)], nu=2, pointwise_tol=1.0)
        assert [r.check_name for r in reps] == ["matern/nu=2/pointwise/n=4",
                                                "matern/nu=2/pointwise_decay/1->4"]

    def test_requires_increasing_n(self):
        with pytest.raises(ValueError):
            truncation_sweep("gaussian", [4, 2], [(0.0, 1.0)])

    def test_rejects_empty_sample_pairs(self):
        with pytest.raises(ValueError, match="sample_pairs"):
            truncation_sweep("gaussian", [1, 2], [])

    def test_nan_error_fails_the_decay_check(self, monkeypatch):
        # a NaN at the first n makes the decay last - first NaN, which must
        # fail instead of reading max(0, NaN) = 0
        truncated = FeatureMapSpec.truncated_kernel

        def patched(spec, t, u):
            vals = truncated(spec, t, u)
            if spec.n == 1:
                vals = vals.copy()
                vals[0] = np.nan
            return vals

        monkeypatch.setattr(FeatureMapSpec, "truncated_kernel", patched)
        reps = truncation_sweep("gaussian", [1, 8, 32], [(0.3, 1.1), (-0.4, 0.2)],
                                pointwise_tol=1e-6)
        by_name = {r.check_name: r for r in reps}
        decay = by_name["gaussian/pointwise_decay/1->32"]
        assert math.isnan(decay.computed) and not decay.passed
        assert by_name["gaussian/pointwise/n=32"].passed

    def test_pointwise_report_carries_errors(self):
        reps = truncation_sweep("gaussian", [1, 8, 32], [(0.3, 1.1)], pointwise_tol=1e-6)
        final = [r for r in reps if r.check_name.endswith("pointwise/n=32")][0]
        assert final.passed
        assert set(final.metadata["errors"]) == {"1", "8", "32"}


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")

    def test_reports_sorted_and_reproducible(self):
        a = run_suite("identities")
        b = run_suite("identities")
        names = [r.check_name for r in a]
        assert names == sorted(names)
        assert [(r.check_name, r.computed) for r in a] == [
            (r.check_name, r.computed) for r in b
        ]

    def test_oracle_suite_passes(self):
        reps = run_suite("oracle")
        assert len(reps) >= 8
        assert all(r.passed for r in reps)

    def test_all_collects_everything_and_passes(self, all_reports):
        reps = all_reports
        assert len(reps) >= 60
        prefixes = {r.check_name.split("/")[0] for r in reps}
        assert prefixes == {"identities", "matern", "cauchy", "gaussian", "oracle"}
        failed = [r.check_name for r in reps if not r.passed]
        assert failed == []

    def test_check_list_is_pinned(self, all_reports):
        # any dropped, renamed or re-toleranced check changes this list
        pinned = []
        for line in CHECK_LIST.read_text().splitlines():
            if line and not line.startswith("#"):
                name, tol = line.split("\t")
                pinned.append((name, float(tol)))
        assert sorted((r.check_name, r.tolerance) for r in all_reports) == sorted(pinned)

    def test_nan_deviation_fails(self, monkeypatch):
        # psi_3 NaN at the first point of every call (a scalar call is that
        # point): every Cauchy check that reads psi_3 must fail, including
        # those whose loops took max(0, NaN) = 0 or max(x, NaN) = x
        psi = cauchy_mod.cauchy_psi_complex

        def patched(m, t):
            vals = psi(m, t)
            if m != 3:
                return vals
            if isinstance(vals, complex):
                return complex(np.nan, 0.0)
            vals = vals.copy()
            vals[0] = np.nan
            return vals

        monkeypatch.setattr(cauchy_mod, "cauchy_psi_complex", patched)
        failed = {r.check_name for r in run_suite("cauchy") if not r.passed}
        assert failed == {
            "cauchy/real_basis_consistency/alpha", "cauchy/real_basis_consistency/beta",
            "cauchy/conjugate_symmetry", "cauchy/geometric_partial/n=7",
            "cauchy/geometric_partial/n=40", "cauchy/two_expansions/n<=64",
            "cauchy/modulus_envelope",
        }
