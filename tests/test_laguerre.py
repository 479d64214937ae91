import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from kernelbasis._lowrank import CHUNK
from kernelbasis.laguerre import _laguerre_rows, laguerre_fn, laguerre_fn_ft
from kernelbasis.quadrature import gauss_laguerre_rule
from kernelbasis.verify import check_identity
from oracles import integrate, uniform_truncated_rule

SQRT2 = math.sqrt(2.0)


class TestTimeDomain:
    def test_m0_positive_side(self):
        assert laguerre_fn(0, 1.0) == pytest.approx(SQRT2 * math.exp(-1.0), rel=1e-15, abs=0)

    def test_m0_negative_side_is_zero(self):
        assert laguerre_fn(0, -0.5) == 0.0

    def test_negative_index_reflection(self):
        assert laguerre_fn(-1, -1.0) == pytest.approx(-SQRT2 * math.exp(-1.0), rel=1e-15, abs=0)

    def test_zero_belongs_to_nonnegative_branch(self):
        for m in range(4):
            assert laguerre_fn(m, 0.0) == pytest.approx(SQRT2, rel=1e-15, abs=0)
            assert laguerre_fn(-m - 1, 0.0) == 0.0

    @given(st.integers(-8, 8), st.floats(-30, 30, allow_nan=False))
    def test_support(self, m, t):
        val = laguerre_fn(m, t)
        if m >= 0 and t < 0:
            assert val == 0.0
        if m < 0 and t >= 0:
            assert val == 0.0

    @given(st.integers(0, 8), st.floats(0.001, 30, allow_nan=False))
    def test_reflection_identity_off_origin(self, m, t):
        assert laguerre_fn(-m - 1, -t) == pytest.approx(-laguerre_fn(m, t), rel=1e-13, abs=0)

    def test_l2_orthonormality_split_quadrature(self):
        # positive side: s = 2t turns phi_j phi_k into L_j L_k e^{-s}
        rule = gauss_laguerre_rule(96, 0.0)
        idx = range(-8, 9)
        gram = np.zeros((17, 17))
        for a, j in enumerate(idx):
            for b, k in enumerate(idx):
                if j >= 0 and k >= 0:
                    f = lambda s: laguerre_fn(j, s / 2) * laguerre_fn(k, s / 2) * np.exp(s) / 2.0
                    gram[a, b] = integrate(rule, f)
                elif j < 0 and k < 0:
                    f = lambda s: laguerre_fn(j, -s / 2) * laguerre_fn(k, -s / 2) * np.exp(s) / 2.0
                    gram[a, b] = integrate(rule, f)
                # mixed-sign supports are disjoint: inner product is 0
        np.testing.assert_allclose(gram, np.eye(17), atol=1e-8)


@pytest.mark.parametrize("t", [0.7, -0.7, -0.0, 0.0, np.linspace(-4.0, 4.0, 12).reshape(3, 4),
                               np.linspace(-4.0, 4.0, 2 * CHUNK + 3), np.array(-0.4), np.array([]),
                               np.linspace(-4.0, 4.0, CHUNK + 1)],
                         ids=["pos_scalar", "neg_scalar", "neg_zero", "pos_zero", "array_2d",
                              "three_chunks", "zero_d", "empty", "chunk_plus_one"])
@pytest.mark.parametrize("m", [0, 1, 40, -1, -2, -41])
def test_laguerre_fn_is_signed_block_row(m, t):
    # row j is phi_j on t >= 0 and -phi_{-j-1} on t < 0; the other side is 0
    x = np.atleast_1d(t).ravel()
    j, side, sign = (m, x >= 0, 1.0) if m >= 0 else (-m - 1, x < 0, -1.0)
    row = np.where(side, sign * _laguerre_rows(j + 1, x)[j], 0.0).reshape(np.shape(t))
    got = laguerre_fn(m, t)
    assert np.array_equal(got, row)
    assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


class TestFourierDomain:
    def test_m0_at_origin(self):
        assert laguerre_fn_ft(0, 0.0) == pytest.approx(SQRT2 + 0j, rel=1e-15, abs=0)

    @given(st.integers(-12, 12), st.floats(-50, 50, allow_nan=False))
    def test_modulus(self, m, omega):
        val = laguerre_fn_ft(m, omega)
        assert abs(val) == pytest.approx(SQRT2 / math.sqrt(omega**2 + 1.0), rel=1e-12, abs=0)

    @given(st.integers(-10, 10), st.floats(-40, 40, allow_nan=False))
    def test_conjugate_symmetry(self, m, omega):
        lhs = np.conj(laguerre_fn_ft(-m - 1, omega))
        assert lhs == pytest.approx(-laguerre_fn_ft(m, omega), rel=1e-12, abs=1e-12)

    def test_fourier_pair_by_direct_transform(self):
        # hat phi_m(w) = int phi_m(t) e^{-iwt} dt, numerically
        for m in (0, 2, -1, -3):
            for omega in (0.0, 0.7, -2.3):
                re, _ = scipy_integrate.quad(
                    lambda t: laguerre_fn(m, t) * math.cos(omega * t), -40, 40, limit=400
                )
                im, _ = scipy_integrate.quad(
                    lambda t: -laguerre_fn(m, t) * math.sin(omega * t), -40, 40, limit=400
                )
                assert complex(re, im) == pytest.approx(
                    laguerre_fn_ft(m, omega), abs=1e-9
                )

    def test_plancherel_on_truncated_domain(self):
        # tail bound 4/(pi R) < 1e-8 requires R ~ 1.3e8
        R = 1.5e8
        rule = uniform_truncated_rule(256, R)
        for m in (-3, 0, 5):
            val = integrate(rule, lambda w: np.abs(laguerre_fn_ft(m, w)) ** 2) / (2 * math.pi)
            assert val == pytest.approx(1.0, abs=1e-6)


class TestIdentities:
    def test_multiplication_example(self):
        grid = np.linspace(-20, 20, 50)
        rep = check_identity("multiplication", (2, 3), grid)
        assert rep.passed and rep.abs_error <= 1e-12

    def test_binomial_nu0_is_exact(self):
        rep = check_identity("binomial", (0,), np.linspace(-5, 5, 11))
        assert rep.computed == 0.0

    def test_shift_negative_m(self):
        rep = check_identity("shift", (-3, 5), np.linspace(-20, 20, 50))
        assert rep.passed and rep.abs_error <= 1e-12

    def test_unknown_identity_rejected(self):
        with pytest.raises(ValueError, match="unknown identity"):
            check_identity("nope", (1,), [0.0, 1.0])

    @pytest.mark.parametrize("which, params", [
        ("shift", (0.5, 1)), ("shift", (0, True)), ("conjugate_symmetry", (True,)),
        ("multiplication", (1, -2.5)), ("binomial", (1.5,))])
    def test_params_must_be_integers(self, which, params):
        with pytest.raises(ValueError, match="params must be an integer"):
            check_identity(which, params, [0.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_identity("shift", (0, 1), [])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_shift_property_holds(self, m, k):
        rep = check_identity("shift", (m, k), np.linspace(-15, 15, 31))
        assert rep.passed
