import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelbasis import orthopoly
from kernelbasis._lowrank import CHUNK
from kernelbasis.quadrature import gauss_laguerre_rule

from oracles import hermite_sum, laguerre_sum


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert orthopoly.laguerre(0, 3.7) == 1.0

    def test_degree_one(self):
        assert orthopoly.laguerre(1, 2.0) == -1.0

    def test_degree_five_explicit_sum(self):
        # frozen from the exact rational sum: L_5(2) = 11/15
        assert laguerre_sum(5, 0, Fraction(2)) == Fraction(11, 15)
        assert orthopoly.laguerre(5, 2.0) == pytest.approx(11.0 / 15.0, rel=1e-13, abs=0)

    def test_vectorized(self):
        t = np.linspace(-5, 5, 11)
        vals = orthopoly.laguerre(3, t)
        assert vals.shape == t.shape
        assert vals[5] == orthopoly.laguerre(3, 0.0)

    def test_degree_cap(self):
        orthopoly.laguerre(512, 1.0)
        with pytest.raises(ValueError, match="m=513 exceeds the cap 512"):
            orthopoly.laguerre(513, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            orthopoly.laguerre(-1, 1.0)


class TestAssocLaguerre:
    def test_reduces_to_plain_laguerre(self):
        t = np.linspace(-8, 8, 33)
        for m in range(0, 16, 3):
            np.testing.assert_array_equal(
                orthopoly.assoc_laguerre(m, 0, t), orthopoly.laguerre(m, t)
            )

    def test_degree_zero(self):
        assert orthopoly.assoc_laguerre(0, 3, 1.5) == 1.0

    def test_explicit_sum_m4_eta2(self):
        t = 0.8
        expected = float(laguerre_sum(4, 2, Fraction(t)))
        assert orthopoly.assoc_laguerre(4, 2, t) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            orthopoly.assoc_laguerre(2, -1, 0.5)


class TestHermite:
    def test_degree_zero(self):
        assert orthopoly.hermite(0, 0.3) == 1.0

    def test_degree_two(self):
        assert orthopoly.hermite(2, 1.0) == 2.0

    def test_explicit_sum_m7(self):
        t = 0.9
        expected = float(hermite_sum(7, Fraction(t)))
        assert orthopoly.hermite(7, t) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(0, 20), st.floats(-10, 10, allow_nan=False))
    def test_parity(self, m, t):
        lhs = orthopoly.hermite(m, -t)
        rhs = (-1) ** m * orthopoly.hermite(m, t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_normalized_matches_raw(self):
        t = np.linspace(-4, 4, 17)
        from math import factorial, sqrt

        for m in (0, 1, 5, 12):
            raw = orthopoly.hermite(m, t) / sqrt(2.0**m * factorial(m))
            np.testing.assert_allclose(orthopoly.hermite_normalized(m, t), raw, rtol=1e-12)

    def test_normalized_large_degree_finite(self):
        vals = orthopoly.hermite_normalized(500, np.linspace(-10, 10, 5))
        assert np.all(np.isfinite(vals))


# each true value lies beyond float64: the recurrences reach inf or NaN
@pytest.mark.parametrize("call", [
    lambda: orthopoly.hermite_normalized(40, 1e200),
    lambda: orthopoly.assoc_laguerre(40, 2, 1e200),
    lambda: orthopoly.laguerre(40, 1e200),
    lambda: orthopoly.hermite(300, 5.0),
    lambda: orthopoly.hermite_normalized(40, np.array([0.5, 1e200])),
], ids=["hermite_normalized", "assoc_laguerre", "laguerre", "hermite", "array"])
def test_value_beyond_float64_raises_naming_m(call):
    with pytest.raises(ValueError, match=r"m=(40|300)\b"):
        call()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 15),
    st.integers(0, 5),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)
def test_recurrence_matches_exact_sum(m, eta, t):
    # the float is converted exactly, so the oracle value is exact rational
    expected = float(laguerre_sum(m, eta, Fraction(t)))
    got = orthopoly.assoc_laguerre(m, eta, t)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_recurrence_vs_sum_on_fixed_grid():
    rng = np.random.default_rng(0x5EED)
    ts = rng.uniform(-10, 10, 100)
    for m in range(16):
        for eta in range(6):
            for t in ts[::7]:
                expected = float(laguerre_sum(m, eta, Fraction(float(t))))
                got = orthopoly.assoc_laguerre(m, eta, float(t))
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_laguerre_orthonormality_smoke():
    # int_0^inf L_j L_k e^{-t} dt = delta_jk under a >= 64 node rule
    rule = gauss_laguerre_rule(64, 0.0)
    table = np.vstack([orthopoly.laguerre(m, rule.nodes) for m in range(11)])
    gram = (table * rule.weights) @ table.T
    np.testing.assert_allclose(gram, np.eye(11), atol=1e-8)


def test_tables_match_scalar_evaluators():
    t = np.linspace(-3, 6, 19)
    lag = orthopoly.assoc_laguerre_table(9, 2, t)
    her = orthopoly.hermite_normalized_table(9, t)
    for m in (0, 3, 8):
        np.testing.assert_allclose(lag[m], orthopoly.assoc_laguerre(m, 2, t), rtol=1e-13)
        np.testing.assert_allclose(her[m], orthopoly.hermite_normalized(m, t), rtol=1e-13)


# scalars, signed zeros and a 2-D array: every shape a scalar evaluator takes;
# then sizes on either side of the point-chunk boundaries
_ROW_INPUTS = {
    "scalar": 0.7,
    "neg_zero": -0.0,
    "pos_zero": 0.0,
    "array_2d": np.linspace(-3.0, 6.0, 12).reshape(3, 4),
    **{f"n={name}": np.linspace(-3.0, 6.0, n)
       for name, n in (("0", 0), ("1", 1), ("chunk-1", CHUNK - 1), ("chunk", CHUNK),
                       ("chunk+1", CHUNK + 1), ("2chunk+3", 2 * CHUNK + 3))},
}


@pytest.mark.parametrize("shape", sorted(_ROW_INPUTS))
@pytest.mark.parametrize("m, eta", [(0, 0), (1, 0), (7, 0), (7, 3), (40, 1)])
def test_assoc_laguerre_is_exact_table_row(m, eta, shape):
    t = _ROW_INPUTS[shape]
    row = orthopoly.assoc_laguerre_table(m + 1, eta, np.ravel(t))[m].reshape(np.shape(t))
    got = orthopoly.assoc_laguerre(m, eta, t)
    assert np.array_equal(got, row)
    if eta == 0:
        assert np.array_equal(orthopoly.laguerre(m, t), row)
    assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


@pytest.mark.parametrize("shape", sorted(_ROW_INPUTS))
@pytest.mark.parametrize("m", [0, 1, 6, 41])
def test_hermite_normalized_is_exact_table_row(m, shape):
    t = _ROW_INPUTS[shape]
    row = orthopoly.hermite_normalized_table(m + 1, np.ravel(t))[m].reshape(np.shape(t))
    got = orthopoly.hermite_normalized(m, t)
    assert np.array_equal(got, row)
    assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)
