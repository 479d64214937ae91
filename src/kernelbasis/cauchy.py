"""Cauchy kernel 1/(1 + (t-u)^2) and its rational orthonormal RKHS bases.

Complex basis, m in Z:

    psi_m(t)      = -(1/sqrt 2) (it)^m / (it-1)^{m+1}      for m >= 0,
    psi_{-m-1}(t) = -(1/sqrt 2) (it)^m / (it+1)^{m+1}      for m >= 0,

with conjugate symmetry psi_m^*(t) = -psi_{-m-1}(t) = psi_m(-t).

Real basis: alpha_m = (psi_m + psi_m^*)/sqrt 2, beta_m = (psi_m - psi_m^*)/(i sqrt 2).
Both are evaluated in polar form with s = t^2/(t^2+1) and theta = arctan t:

    alpha_{2m}   = (-1)^m     s^m       sqrt(1-s) cos((2m+1) theta)
    beta_{2m}    = (-1)^m     s^m       sqrt(1-s) sin((2m+1) theta)
    alpha_{2m+1} = (-1)^m     s^{m+1/2} sqrt(1-s) sin((2m+2) theta) sign(t)
    beta_{2m+1}  = (-1)^{m+1} s^{m+1/2} sqrt(1-s) cos((2m+2) theta) sign(t)

These are the explicit real-parameter polynomial formulas with the powers
of (1 + it) collected in polar form: every factor is bounded by 1, which
avoids both the overflow of t^{2m} and the catastrophic cancellation of the
alternating sums (the raw sums lose ~15 digits by m ~ 100 at |t| ~ 3).
"""

from __future__ import annotations

import math

import numpy as np

from ._lowrank import check_lam, rank_product

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
    d = lam * (np.asarray(t, dtype=float) - np.asarray(u, dtype=float))
    vals = 1.0 / (1.0 + d * d)
    return float(vals) if vals.ndim == 0 else vals


def cauchy_psi_complex(m: int, t):
    """Complex Cauchy--Laguerre function psi_m(t), any integer m.

    Evaluated as -(1/sqrt 2) ratio^k / pole with |ratio| < 1, so large |m|
    cannot overflow.
    """
    x = np.asarray(t, dtype=float)
    scalar = x.ndim == 0
    it = 1j * x
    if m >= 0:
        pole = it - 1.0
        vals = -_INV_SQRT2 * (it / pole) ** m / pole
    else:
        pole = it + 1.0
        vals = -_INV_SQRT2 * (it / pole) ** (-m - 1) / pole
    return complex(vals) if scalar else vals


def _polar_parts(x: np.ndarray):
    s = x * x / (x * x + 1.0)
    root = np.sqrt(1.0 - s)
    theta = np.arctan(x)
    return s, np.sqrt(s), root, theta, np.sign(x)


def _polar_pair(mu: int, parts) -> tuple[np.ndarray, np.ndarray]:
    """alpha_mu and beta_mu from the _polar_parts of the points."""
    s, rs, root, theta, sg = parts
    half, odd = divmod(mu, 2)
    sign_half = (-1.0) ** half
    if not odd:
        c = sign_half * s**half * root
        return c * np.cos((mu + 1) * theta), c * np.sin((mu + 1) * theta)
    c = sign_half * s**half * rs * root * sg
    return c * np.sin((mu + 1) * theta), -c * np.cos((mu + 1) * theta)


def cauchy_real_basis(kind: str, m: int, t):
    """Real Cauchy--Laguerre basis function alpha_m or beta_m."""
    if kind not in ("alpha", "beta"):
        raise ValueError(f"kind must be 'alpha' or 'beta', got {kind!r}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    x = np.asarray(t, dtype=float)
    vals = _polar_pair(m, _polar_parts(x.ravel()))[kind == "beta"].reshape(x.shape)
    return float(vals) if x.ndim == 0 else vals


def _real_basis_block(n: int, x: np.ndarray) -> np.ndarray:
    """Rows [alpha_0..alpha_{n-1}, beta_0..beta_{n-1}] at points x."""
    parts = _polar_parts(x)
    out = np.empty((2 * n, x.size))
    for mu in range(n):
        out[mu], out[n + mu] = _polar_pair(mu, parts)
    return out


def cauchy_truncated(lam: float, n: int, t, u):
    """Partial expansion sum_{m<n} [alpha_m(lam t) alpha_m(lam u) + beta beta]."""
    check_lam(lam)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return rank_product(lambda x: _real_basis_block(n, x), lam, t, u)


def cauchy_partial_sum_closed_form(n: int, t: float, u: float) -> complex:
    """Finite geometric form of sum_{m=0}^{n-1} psi_m^*(t) psi_m(u).

    First term psi_0^*(t) psi_0(u) = 1/(2 (-it-1)(iu-1)) and ratio
    q = t u / ((-it-1)(iu-1)), which satisfies |q| < 1 for all finite real
    t, u.  The n -> infty limit is 1/(2 ((-it-1)(iu-1) - tu)); the same
    value with t and u exchanged is its complex conjugate.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    denom = (-1j * t - 1.0) * (1j * u - 1.0)
    q = (t * u) / denom
    if abs(q) >= 1.0:
        raise ValueError(f"geometric ratio |q| = {abs(q)} >= 1; sum does not converge")
    first = 0.5 / denom
    return complex(first * (1.0 - q**n) / (1.0 - q))
