"""Cauchy kernel 1/(1 + (t-u)^2) and its rational orthonormal RKHS bases.

Complex basis, m in Z:

    psi_m(t)      = -(1/sqrt 2) (it)^m / (it-1)^{m+1}      for m >= 0,
    psi_{-m-1}(t) = -(1/sqrt 2) (it)^m / (it+1)^{m+1}      for m >= 0,

with conjugate symmetry psi_m^*(t) = -psi_{-m-1}(t) = psi_m(-t).

Real basis: alpha_m = (psi_m + psi_m^*)/sqrt 2, beta_m = (psi_m - psi_m^*)/(i sqrt 2),
so w_m = alpha_m + i beta_m = z^m / (1 - it) with z = it/(it - 1), a geometric
sequence with |z| = |t|/sqrt(1+t^2) < 1.  The block forms w_0 = (1 + it)/(1 + t^2)
and z = (t^2 - it)/(1 + t^2) in real arithmetic, from r = 1/t where |t| > 1
(1/(1+t^2) = r^2/(1+r^2), t/(1+t^2) = r/(1+r^2), t^2/(1+t^2) = 1/(1+r^2)), so
t^2 never overflows and every finite t gives finite values; each further row
costs four real multiplies in place.  numpy's complex multiply would be faster
but rounds a one-point array differently from the same point in a longer one,
which would make values depend on the chunking.  The recurrence is more
accurate than the polar form s^m sqrt(1-s) cos/sin((m+1) arctan t),
s = t^2/(t^2+1), whose sqrt(1-s) cancels as |t| grows (absolute error 1.1e-11
against 3e-20 at |t| = 1e6).  The explicit real-parameter polynomial sums
overflow through t^{2m} and cancel catastrophically (the raw alternating sums
lose ~15 digits by m ~ 100 at |t| ~ 3); they serve only as exact Fraction
oracles in the tests.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._lowrank import check_int, check_lam, check_not_nan, pair_values, rank_product
from .orthopoly import _last_row

__all__ = [
    "cauchy_kernel",
    "cauchy_psi_complex",
    "cauchy_real_basis",
    "cauchy_truncated",
    "cauchy_partial_sum_closed_form",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def cauchy_kernel(lam: float, t, u):
    """Cauchy kernel with length-scale: 1 / (1 + lam^2 (t-u)^2)."""
    check_lam(lam)
    return pair_values(lambda d: 1.0 / (1.0 + d * d), lam, t, u)


def cauchy_psi_complex(m: int, t):
    """Complex Cauchy--Laguerre function psi_m(t), any integer m.

    Evaluated as -(1/sqrt 2) ratio^k / pole with |ratio| < 1, so large |m|
    cannot overflow.  At t = +-inf it is its limit 0; NaN t raises ValueError.
    """
    check_int(m, "m", None)
    x = check_not_nan(np.asarray(t, dtype=float))
    inf = np.isinf(x)
    it = 1j * np.where(inf, 0.0, x)  # 1j * inf is nan+infj
    j, pole = (m, it - 1.0) if m >= 0 else (-m - 1, it + 1.0)
    vals = np.where(inf, 0j, -_INV_SQRT2 * (it / pole) ** j / pole)
    return complex(vals) if x.ndim == 0 else vals


def _real_basis_block(n: int, x: np.ndarray, out=None):
    """Rows [alpha_0..alpha_{n-1}, beta_0..beta_{n-1}] at points x: the real
    and imaginary parts of w_m = z^m w_0 (see the module docstring), written
    into ``out`` (a (2n, N) array or a list of 2n row views) if given."""
    big = np.abs(x) > 1.0
    r = np.divide(1.0, x, out=x.copy(), where=big)  # t, or 1/t where |t| > 1
    c = 1.0 / (1.0 + r * r)
    beta0 = r * c  # t/(1+t^2) either way
    rrc = r * beta0
    alpha0 = np.where(big, rrc, c)  # 1/(1+t^2)
    p = np.where(big, c, rrc)  # t^2/(1+t^2)
    out = np.empty((2 * n, x.size)) if out is None else out
    alpha, beta = out[:n], out[n:]
    alpha[0][...], beta[0][...] = alpha0, beta0  # into the rows: a list item would be rebound
    tmp = np.empty(x.size)
    for m in range(n - 1):  # w_{m+1} = (p - i beta0) w_m
        np.multiply(p, alpha[m], out=alpha[m + 1])
        np.multiply(beta0, beta[m], out=tmp)
        alpha[m + 1] += tmp
        np.multiply(p, beta[m], out=beta[m + 1])
        np.multiply(beta0, alpha[m], out=tmp)
        beta[m + 1] -= tmp
    return out


def cauchy_real_basis(kind: str, m: int, t):
    """Real Cauchy--Laguerre basis function alpha_m or beta_m, m <= MAX_DEGREE:
    the last row of the kind's half of :func:`_real_basis_block`, on two rolling row pairs."""
    if kind not in ("alpha", "beta"):
        raise ValueError(f"kind must be 'alpha' or 'beta', got {kind!r}")

    def rolling(n: int, p: np.ndarray) -> list[np.ndarray]:  # rows k of alpha, beta in pair k % 2
        pairs = np.empty((2, 2, p.size))
        rows = _real_basis_block(n, p, [pairs[i, k % 2] for i in (0, 1) for k in range(n)])
        return rows[:n] if kind == "alpha" else rows[n:]

    return _last_row(rolling, m, t)


def cauchy_truncated(lam: float, n: int, t, u):
    """Partial expansion sum_{m<n} [alpha_m(lam t) alpha_m(lam u) + beta beta]."""
    check_lam(lam)
    check_int(n, "n", 1)
    return rank_product(lambda x: _real_basis_block(n, x), lam, t, u)


def cauchy_partial_sum_closed_form(n: int, t: float, u: float) -> complex:
    """Finite geometric form of sum_{m=0}^{n-1} psi_m^*(t) psi_m(u).

    First term 1/(2d), d = (-it-1)(iu-1) = tu + 1 + i(t - u), and ratio
    q = t u / d, |q| < 1 for all finite real t, u.  1 - q = (1 + i(t - u))/d
    exactly, so the sum is (1 - q^n)/(2 (1 + i(t - u))), whose n -> infty
    limit is 1/(2 (1 + i(t - u))); exchanging t and u conjugates it.  Where
    |q| >= 1/2, 1 - q^n = -expm1(n log q), with r^2 = 1 - |q|^2 =
    (t^2 + u^2 + 1)/((t^2 + 1)(u^2 + 1)) in log|q|, so nothing cancels as q
    nears 1.  A NaN or non-scalar t or u raises.  Where t or u is infinite or
    t u overflows, every term is below 1/(2|t u|) < 3e-309 in modulus, and the
    sum is 0.
    """
    check_int(n, "n", 1)
    for name, value in (("t", t), ("u", u)):
        value = check_not_nan(np.asarray(value, dtype=float), name)
        if value.ndim:
            raise ValueError(f"{name} must be a scalar, got shape {value.shape}")
    t, u = float(t), float(u)
    if not math.isfinite(t * u):
        return 0j
    q = (t * u) / ((-1j * t - 1.0) * (1j * u - 1.0))
    if abs(q) < 0.5:
        one_minus_qn = 1.0 - q**n
    else:
        r = math.hypot(t, u, 1.0) / (math.hypot(t, 1.0) * math.hypot(u, 1.0))
        x, y = 0.5 * n * math.log1p(-r * r), n * cmath.phase(q)
        # -expm1(x + iy); both real terms are >= 0 where cos y >= 0
        one_minus_qn = complex(2.0 * math.sin(0.5 * y) ** 2 - math.expm1(x) * math.cos(y),
                               -math.exp(x) * math.sin(y))
    return 0.5 * one_minus_qn / complex(1.0, t - u)
