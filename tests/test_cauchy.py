import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelbasis
from kernelbasis._lowrank import CHUNK
from kernelbasis.cauchy import (
    cauchy_kernel,
    cauchy_partial_sum_closed_form,
    cauchy_psi_complex,
    cauchy_real_basis,
    cauchy_truncated,
    _real_basis_block,
)

from oracles import cauchy_alpha_sum, cauchy_beta_sum

SQRT2 = math.sqrt(2.0)


class TestKernel:
    def test_unit_at_zero_distance(self):
        assert cauchy_kernel(1.0, 0.7, 0.7) == 1.0

    def test_unit_distance(self):
        assert cauchy_kernel(1.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_length_scale(self):
        assert cauchy_kernel(2.0, 1.0, 0.0) == pytest.approx(0.2, rel=1e-15, abs=0)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            cauchy_kernel(0.0, 1.0, 0.0)


class TestComplexBasis:
    def test_m0_at_origin(self):
        assert cauchy_psi_complex(0, 0.0) == pytest.approx(1.0 / SQRT2, rel=1e-15, abs=0)

    def test_positive_degree_vanishes_at_origin(self):
        assert cauchy_psi_complex(3, 0.0) == 0.0

    @given(st.integers(-6, 6), st.floats(-20, 20, allow_nan=False))
    def test_conjugate_symmetry(self, m, t):
        psi = cauchy_psi_complex(m, t)
        assert np.conj(psi) == pytest.approx(-cauchy_psi_complex(-m - 1, t), abs=1e-14)
        assert np.conj(psi) == pytest.approx(cauchy_psi_complex(m, -t), abs=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 30), st.floats(-30, 30, allow_nan=False))
    def test_modulus_envelope(self, m, t):
        mod = abs(cauchy_psi_complex(m, t))
        envelope = abs(t) ** m / (t * t + 1.0) ** ((m + 1) / 2.0) / SQRT2
        assert mod <= envelope + 1e-14
        assert mod <= 1.0 / SQRT2 + 1e-14

    def test_large_index_no_overflow(self):
        assert np.isfinite(cauchy_psi_complex(400, 1e6).real)


class TestRealBasis:
    def test_alpha0_at_origin(self):
        assert cauchy_real_basis("alpha", 0, 0.0) == pytest.approx(1.0, rel=1e-15, abs=0)

    def test_beta0_at_one(self):
        assert cauchy_real_basis("beta", 0, 1.0) == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_matches_exact_rational_sums(self):
        # explicit alternating polynomial sums, evaluated over Fraction
        ts = [-3.0, -1.25, -0.5, 0.0, 0.3, 1.0, 2.75, 4.0]
        for m in range(13):
            for t in ts:
                a_ref = float(cauchy_alpha_sum(m, Fraction(t)))
                b_ref = float(cauchy_beta_sum(m, Fraction(t)))
                assert cauchy_real_basis("alpha", m, t) == pytest.approx(
                    a_ref, abs=1e-12
                ), f"alpha m={m} t={t}"
                assert cauchy_real_basis("beta", m, t) == pytest.approx(
                    b_ref, abs=1e-12
                ), f"beta m={m} t={t}"

    def test_matches_complex_definition(self):
        t = np.linspace(-6, 6, 61)
        for m in range(13):
            psi = cauchy_psi_complex(m, t)
            np.testing.assert_allclose(
                cauchy_real_basis("alpha", m, t), SQRT2 * psi.real, atol=1e-12
            )
            np.testing.assert_allclose(
                cauchy_real_basis("beta", m, t), SQRT2 * psi.imag, atol=1e-12
            )

    @given(st.integers(0, 20), st.floats(-15, 15, allow_nan=False))
    def test_parity(self, m, t):
        assert cauchy_real_basis("alpha", m, -t) == pytest.approx(
            cauchy_real_basis("alpha", m, t), abs=1e-14
        )
        assert cauchy_real_basis("beta", m, -t) == pytest.approx(
            -cauchy_real_basis("beta", m, t), abs=1e-14
        )

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            cauchy_real_basis("gamma", 0, 1.0)


class TestTruncated:
    def test_second_argument_zero_is_exact_for_any_n(self):
        t = np.linspace(-4, 4, 81)
        for n in (1, 2, 9):
            np.testing.assert_allclose(
                cauchy_truncated(1.0, n, t, 0.0), 1.0 / (t * t + 1.0), atol=1e-12
            )

    def test_origin(self):
        assert cauchy_truncated(1.0, 5, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_converges_to_kernel(self):
        assert cauchy_truncated(1.0, 300, 1.0, 2.0) == pytest.approx(0.5, abs=1e-6)

    def test_geometric_rate(self):
        # the tail after n real-index pairs decays like |q|^n, up to the
        # bounded oscillation of the phase
        t, u = 1.0, 2.0
        q = abs(t * u / ((-1j * t - 1.0) * (1j * u - 1.0)))
        errs = [abs(cauchy_truncated(1.0, n, t, u) - 0.5) for n in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[0] == pytest.approx(q**10, rel=0.5)
        assert errs[2] / errs[1] == pytest.approx(q**20, rel=0.5)

    def test_scaled_arguments(self):
        assert cauchy_truncated(2.0, 200, 1.0, 0.0) == pytest.approx(
            cauchy_kernel(2.0, 1.0, 0.0), abs=1e-10
        )


class TestGeometricClosedForm:
    def test_matches_direct_summation(self):
        for n in (1, 4, 25):
            for t, u in [(0.0, 0.0), (1.0, 2.0), (-1.5, 0.7), (3.0, 3.0)]:
                direct = sum(
                    np.conj(cauchy_psi_complex(m, t)) * cauchy_psi_complex(m, u)
                    for m in range(n)
                )
                assert cauchy_partial_sum_closed_form(n, t, u) == pytest.approx(
                    complex(direct), abs=1e-13
                )

    def test_n1_at_origin(self):
        assert cauchy_partial_sum_closed_form(1, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_limit(self):
        for t, u in [(1.0, 2.0), (-0.5, 2.5)]:
            limit = 0.5 / ((-1j * t - 1.0) * (1j * u - 1.0) - t * u)
            assert cauchy_partial_sum_closed_form(200, t, u) == pytest.approx(
                limit, abs=1e-10
            )
            # swapping the arguments gives the conjugate closed form
            assert cauchy_partial_sum_closed_form(200, u, t) == pytest.approx(
                np.conj(limit), abs=1e-10
            )

    def test_sum_plus_conjugate_is_kernel(self):
        for t, u in [(1.0, 2.0), (-2.0, 0.3), (0.0, 1.5)]:
            s = cauchy_partial_sum_closed_form(400, t, u)
            assert (s + np.conj(s)).real == pytest.approx(
                cauchy_kernel(1.0, t, u), abs=1e-10
            )

    @given(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
    def test_ratio_strictly_inside_unit_disk(self, t, u):
        q = (t * u) / ((-1j * t - 1.0) * (1j * u - 1.0))
        assert abs(q) < 1.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            cauchy_partial_sum_closed_form(0, 1.0, 2.0)

    @pytest.mark.parametrize("t, u", [(1e4, 1e4), (1e6, 1e6), (1e6, -1e6), (3e5, 2e5),
                                      (-1e3, -1.1e3), (0.3, -2.0), (-50.0, 60.0)])
    def test_relative_to_mpmath_as_the_ratio_nears_one(self, t, u):
        # 1 - q and 1 - q^n cancelled as q nears 1: 9.2e-12 and 1.5e-10 off
        # at t = u = 1e4 and 1e6; now within 4.5e-16 on these points
        with mpmath.workdps(50):
            d = (-1j * mpmath.mpf(t) - 1) * (1j * mpmath.mpf(u) - 1)
            q = t * u / d
            ref = complex(0.5 / d * (1 - q**300) / (1 - q))
        got = cauchy_partial_sum_closed_form(300, t, u)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_ratio_that_rounds_to_one_gives_n_first_terms(self):
        # q = 1e200/(1e200 + 1) is 1 in floats; each term is 1/(2 (1e200 + 1))
        assert cauchy_partial_sum_closed_form(5, 1e100, 1e100) == pytest.approx(
            2.5e-200, rel=1e-15, abs=0)


def test_two_expansions_agree_groupwise():
    # group {m, -m-1} of the complex expansion vs real index m, m < 64
    for t, u in [(0.4, 1.9), (-2.2, -0.6), (3.0, -1.0)]:
        for m in (0, 1, 5, 23, 63):
            grp = (
                np.conj(cauchy_psi_complex(m, t)) * cauchy_psi_complex(m, u)
                + np.conj(cauchy_psi_complex(-m - 1, t)) * cauchy_psi_complex(-m - 1, u)
            )
            assert abs(grp.imag) < 1e-15
            real_pair = cauchy_real_basis("alpha", m, t) * cauchy_real_basis(
                "alpha", m, u
            ) + cauchy_real_basis("beta", m, t) * cauchy_real_basis("beta", m, u)
            assert grp.real == pytest.approx(real_pair, abs=1e-12)


@pytest.mark.parametrize("t", [0.7, -0.0, 0.0, np.linspace(-4.0, 4.0, 12).reshape(3, 4),
                               np.array(-0.4), np.array([]), np.linspace(-4.0, 4.0, CHUNK + 1)],
                         ids=["scalar", "neg_zero", "pos_zero", "array_2d", "zero_d", "empty",
                              "chunk_plus_one"])
@pytest.mark.parametrize("m", [0, 1, 2, 7, 30, 512])
def test_real_basis_is_exact_block_row(m, t):
    block = _real_basis_block(m + 1, np.atleast_1d(t).ravel())
    for kind, row in (("alpha", block[m]), ("beta", block[2 * m + 1])):
        got = cauchy_real_basis(kind, m, t)
        assert np.array_equal(got, row.reshape(np.shape(t)))
        assert type(got) is (float if np.ndim(t) == 0 else np.ndarray)


_SAME_ROUNDING = """
import numpy as np
from kernelbasis import FeatureMapSpec, features
from kernelbasis._lowrank import CHUNK
from kernelbasis.cauchy import _real_basis_block

rng = np.random.default_rng(5)
k = CHUNK // 4
x = np.concatenate([rng.uniform(-3.0, 3.0, 2 * k), rng.uniform(-1e3, 1e3, k),
                    np.geomspace(1e-8, 1e8, k + 1) * rng.choice([-1.0, 1.0], k + 1)])
block = _real_basis_block(32, x)
# features runs chunks of CHUNK points and 1 point
assert np.array_equal(features(FeatureMapSpec("cauchy", n=32), x), block.T)
for i in range(0, x.size, 61):  # every lane offset, in each range of values
    assert np.array_equal(_real_basis_block(32, x[i:i + 1])[:, 0], block[:, i]), i
"""


# the complex multiply of _real_basis_block must round a point alike in an
# array of any length, or values would depend on the chunking: checked under
# each x86 SIMD target numpy dispatches to, selected by disabling the better ones
@pytest.mark.parametrize("disabled", ["", "AVX512_SPR AVX512_ICL X86_V4",
                                      "AVX512_SPR AVX512_ICL X86_V4 X86_V3"],
                         ids=["best", "no_X86_V4", "no_X86_V3"])
def test_complex_multiply_rounds_alike_at_every_length_on_each_target(disabled):
    if disabled and disabled.split()[-1] not in np.show_config(mode="dicts")[
            "SIMD Extensions"]["found"]:
        pytest.skip(f"numpy found no {disabled.split()[-1]} on this machine")
    src = str(pathlib.Path(kernelbasis.__file__).resolve().parent.parent)
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _SAME_ROUNDING], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind", ["alpha", "beta"])
def test_real_basis_degree_is_capped(kind):
    # the degree cap of every table-backed scalar evaluator, orthopoly._last_row
    assert math.isfinite(cauchy_real_basis(kind, 512, 0.5))
    with pytest.raises(ValueError, match="m=513 exceeds the cap 512"):
        cauchy_real_basis(kind, 513, 0.5)


_LARGE_T = [37.5, -37.5, 1e3, -1e3, 1e6, -1e6]


def test_block_matches_exact_rational_sums_at_large_t():
    # the polar form's sqrt(1 - s), s = t^2/(t^2+1), cancels here (1.1e-5
    # relative at |t| = 1e6); the recurrence keeps full relative accuracy
    block = _real_basis_block(13, np.array(_LARGE_T))
    for m in range(13):
        for j, t in enumerate(_LARGE_T):
            a_ref = float(cauchy_alpha_sum(m, Fraction(t)))
            b_ref = float(cauchy_beta_sum(m, Fraction(t)))
            assert block[m, j] == pytest.approx(a_ref, rel=1e-13, abs=0), f"alpha m={m} t={t}"
            assert block[13 + m, j] == pytest.approx(b_ref, rel=1e-13, abs=0), f"beta m={m} t={t}"


_EXTREME_T = [1e200, -1e200, 1.7e308, -1.7e308, 5e-324, -5e-324, 0.0, -0.0]


def test_block_is_finite_over_the_whole_float_range():
    # t^2 overflows past |t| ~ 1.3e154; the reciprocal form never squares t
    x = np.array(_EXTREME_T)
    block = _real_basis_block(40, x)
    assert np.all(np.isfinite(block))
    assert np.all(np.abs(block) <= 1.0)
    # beta_0 = t/(1+t^2) is the one row that does not underflow at large |t|
    np.testing.assert_allclose(block[40, :4], 1.0 / x[:4], rtol=1e-15)
    np.testing.assert_array_equal(block[0, 4:], 1.0)
    for kind in ("alpha", "beta"):
        assert np.all(np.isfinite(cauchy_real_basis(kind, 40, x)))
