"""Half-integer Matern kernels and their Laguerre-type orthonormal RKHS basis.

The basis for smoothness nu + 1/2 splits into three classes:

* ``plus``:  psi+_{m,nu}(t) = c_nu m!/(m+nu+1)! (2t)^{nu+1} L_m^(nu+1)(2t) e^{-t}
  on t >= 0 (zero on t < 0), with c_nu = nu!/sqrt((2nu)!),
* ``minus``: psi-_{m,nu}(t) = (-1)^nu psi+_{m,nu}(-t), supported on t < 0,
* ``null``:  nu + 1 functions supported on the whole line, evaluated through
  the alternating binomial combination of Laguerre functions with indices
  -nu-1+m+k, k = 0..nu+1.

A scaling lam enters as psi(lam t) and r(lam t, lam u).  The ``null`` class
alone reproduces the kernel whenever the arguments lie on opposite sides of
the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from ._lowrank import block_row, check_int, check_lam, rank_product, stack_rows
from .laguerre import _laguerre_rows
from .orthopoly import assoc_laguerre_table
from .quadrature import _legendre_rule

__all__ = [
    "MaternOrder",
    "MaternBasisId",
    "MaternTruncation",
    "matern_kernel",
    "matern_psi",
    "matern_psi_unified",
    "matern_truncated",
    "matern_feature_map",
    "matern_psi_norm_sq",
    "matern_truncation_error_bound",
    "matern_exact_hs_error",
    "matern_psi_bound",
]

BASIS_CLASSES = ("plus", "minus", "null")


@dataclass(frozen=True)
class MaternOrder:
    """Smoothness nu + 1/2 (nu a nonnegative integer) and length-scale lam > 0."""

    nu: int
    lam: float = 1.0

    def __post_init__(self):
        check_int(self.nu, "nu")
        check_lam(self.lam)


@dataclass(frozen=True)
class MaternBasisId:
    """One basis function: a class in {plus, minus, null} and an index m >= 0.

    For the null class the index must additionally satisfy m <= nu, which
    depends on the order and is checked at evaluation time.
    """

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in BASIS_CLASSES:
            raise ValueError(f"kind must be one of {BASIS_CLASSES}, got {self.kind!r}")
        check_int(self.m, "m")

    def validate_for(self, order: MaternOrder) -> None:
        if self.kind == "null" and self.m > order.nu:
            raise ValueError(
                f"null-class index m={self.m} exceeds nu={order.nu}; "
                f"the null class has exactly nu+1 members"
            )


@dataclass(frozen=True)
class MaternTruncation:
    """Truncated expansion: all nu+1 null functions plus n per handed class."""

    order: MaternOrder
    n: int

    def __post_init__(self):
        check_int(self.n, "n", 1)

    @property
    def dim(self) -> int:
        return self.order.nu + 1 + 2 * self.n


def _log_c(nu: int) -> float:
    # log of nu!/sqrt((2 nu)!)
    return gammaln(nu + 1) - 0.5 * gammaln(2 * nu + 1)


def matern_kernel(order: MaternOrder, t, u):
    """Closed-form half-integer Matern kernel r(lam t, lam u).

    Uses the polynomial-times-exponential form
    e^{-d} (nu!/(2 nu)!) sum_k (nu+k)!/(k!(nu-k)!) (2d)^{nu-k}
    at d = lam |t - u|, each term formed as the exponential of its
    logarithm, so no factor overflows before it meets e^{-d}.  At d = 0
    only the k = nu term is nonzero, and it is exactly 1.
    """
    nu = order.nu
    d = order.lam * np.abs(np.asarray(t, dtype=float) - np.asarray(u, dtype=float))
    # an infinite distance is the largest float, so it gives 0 and not inf - inf
    d = np.minimum(d, np.finfo(float).max)
    with np.errstate(divide="ignore"):
        log2d = math.log(2.0) + np.log(d)
    logpref = gammaln(nu + 1) - gammaln(2 * nu + 1)
    vals = np.zeros_like(d)
    for k in range(nu + 1):
        logc = gammaln(nu + k + 1) - gammaln(k + 1) - gammaln(nu - k + 1) + logpref
        # (nu - k) log 2d is -inf at d = 0 for k < nu and absent for k = nu
        vals += np.exp((nu - k) * log2d + logc - d) if k < nu else np.exp(logc - d)
    return float(vals) if vals.ndim == 0 else vals


def _handed_weights(nu: int, count: int) -> np.ndarray:
    """c_nu m!/(m+nu+1)! for m = 0..count-1."""
    m = np.arange(count)
    return np.exp(_log_c(nu) + gammaln(m + 1) - gammaln(m + nu + 2))


def _handed_factor(nu: int, x: np.ndarray) -> np.ndarray:
    """(2|x|)^(nu+1) e^{-|x|}, times (-1)^nu where x < 0: the one factor per
    point that turns weighted Laguerre values into psi+ (x >= 0) or psi- (x < 0)."""
    ax = np.abs(x)
    factor = (2.0 * ax) ** (nu + 1) * np.exp(-ax)
    if nu % 2:
        np.negative(factor, out=factor, where=x < 0)
    return factor


def _handed_rows(nu: int, count: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..count-1 at (already scaled) points x of psi+_{m,nu}(x) where
    x >= 0 and psi-_{m,nu}(x) where x < 0, built in the Laguerre table's buffer."""
    rows = assoc_laguerre_table(count, nu + 1, 2.0 * np.abs(x))
    rows *= _handed_weights(nu, count)[:, None]
    rows *= _handed_factor(nu, x)
    return rows


def _handed_class(rows: np.ndarray, x: np.ndarray, kind: str) -> np.ndarray:
    """The ``kind`` class from _handed_rows (or one of its rows): plus lives on
    x >= 0, minus on x < 0, and every other column is exactly 0.0, even where
    the rows are not finite."""
    side = x < 0 if kind == "minus" else x >= 0
    return np.where(side, rows, 0.0)


def _null_block(nu: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..nu of psi0_{m,nu} at (already scaled) points x.

    psi0_m = c_nu/sqrt 2 sum_k C(nu+1, k) (-1)^k phi_{-nu-1+m+k}.  The indices
    run over -nu-1..nu, and each phi_i is one of the nu+1 Laguerre-function
    rows on one side of the origin and zero on the other, so each side is a
    signed binomial matrix times those rows.
    """
    right = np.zeros((nu + 1, nu + 1))
    left = np.zeros((nu + 1, nu + 1))
    for m in range(nu + 1):
        for k in range(nu + 2):
            c = math.comb(nu + 1, k) * (-1) ** k
            i = -nu - 1 + m + k
            if i >= 0:
                right[m, i] = c  # phi_i = row i on x >= 0
            else:
                left[m, -i - 1] = -c  # phi_i = -row (-i-1) on x < 0
    rows = _laguerre_rows(nu + 1, x)
    pref = math.exp(_log_c(nu)) / math.sqrt(2.0)
    return pref * np.where(x >= 0, right @ rows, left @ rows)


def _basis_block(tr: MaternTruncation, x: np.ndarray) -> np.ndarray:
    """All nu+1+2n basis values at scaled points, ordered null/minus/plus."""
    nu, n = tr.order.nu, tr.n
    out = np.empty((tr.dim, x.size))
    out[: nu + 1] = _null_block(nu, x)
    rows = _handed_rows(nu, n, x)
    out[nu + 1 : nu + 1 + n] = _handed_class(rows, x, "minus")
    out[nu + 1 + n :] = _handed_class(rows, x, "plus")
    return out


def matern_psi(order: MaternOrder, basis_id: MaternBasisId, t):
    """Evaluate one Matern--Laguerre basis function at lam * t: row m of
    :func:`_null_block`, or the last of m + 1 :func:`_handed_rows` kept to
    its class."""
    basis_id.validate_for(order)
    lam, nu, kind, m = order.lam, order.nu, basis_id.kind, basis_id.m
    if kind == "null":
        return block_row(lambda p: _null_block(nu, lam * p), m, t)

    def handed_row(p: np.ndarray) -> np.ndarray:
        x = lam * p
        return _handed_class(_handed_rows(nu, m + 1, x)[-1:], x, kind)

    return block_row(handed_row, 0, t)


def matern_psi_unified(order: MaternOrder, m: int, t):
    """Basis function by its two-sided integer index.

    m >= 0 is the plus class, -nu-1 <= m <= -1 the null class (member
    m + nu + 1), and m <= -nu-2 the minus class (member -nu-2-m).
    """
    nu = order.nu
    if m >= 0:
        return matern_psi(order, MaternBasisId("plus", m), t)
    if m >= -nu - 1:
        return matern_psi(order, MaternBasisId("null", m + nu + 1), t)
    return matern_psi(order, MaternBasisId("minus", -nu - 2 - m), t)


def matern_truncated(tr: MaternTruncation, t, u):
    """Truncated expansion: null-space sum plus n terms of each handed class.

    Whenever sign t != sign u every handed term vanishes and the value
    reduces to the null-space sum, which equals the kernel exactly.
    """
    return rank_product(lambda x: _basis_block(tr, x), tr.order.lam, t, u)


def matern_feature_map(tr: MaternTruncation, t) -> np.ndarray:
    """Feature vector [psi0_0..psi0_nu, psi-_0..psi-_{n-1}, psi+_0..psi+_{n-1}]
    at lam * t, so that dot(f(t), f(u)) == matern_truncated(t, u)."""
    x = tr.order.lam * np.asarray(t, dtype=float)
    return stack_rows(lambda p: _basis_block(tr, p), x.ravel(), tr.dim).reshape(*x.shape, tr.dim)


def matern_psi_norm_sq(order: MaternOrder, m: int) -> float:
    """Exact squared norm of psi+_{m,nu} (= psi-) in the weighted L2 space:
    (nu!)^2/(2 nu)! * m!/(m+nu+1)!."""
    check_int(m, "m")
    nu = order.nu
    return math.exp(
        2 * gammaln(nu + 1) - gammaln(2 * nu + 1) + gammaln(m + 1) - gammaln(m + nu + 2)
    )


def matern_truncation_error_bound(order: MaternOrder, n: int) -> float:
    """Weighted Hilbert--Schmidt truncation bound c_nu / n^{nu+1/2} with
    c_nu = (nu!)^2/(2 nu)! sqrt(2(2 nu+2)/(2 nu+1))."""
    check_int(n, "n", 1)
    nu = order.nu
    c = math.exp(2 * gammaln(nu + 1) - gammaln(2 * nu + 1)) * math.sqrt(
        2.0 * (2 * nu + 2) / (2 * nu + 1)
    )
    return c / n ** (nu + 0.5)


def _tail_term(nu: int, m: np.ndarray) -> np.ndarray:
    # (m!/(m+nu+1)!)^2 = prod_{j=1..nu+1} (m+j)^{-2}
    out = np.ones_like(m, dtype=float)
    for j in range(1, nu + 2):
        out /= (m + j) ** 2
    return out


def _tail_sum(nu: int, n: int) -> float:
    """sum_{m >= n} prod_j (m+j)^{-2} to near machine precision.

    Direct summation of the leading 512 (positive) terms plus an
    Euler--Maclaurin remainder whose integral piece is evaluated by
    Gauss--Legendre on the compactified variable m = N + y/(1-y).  Every
    contribution is positive, so no cancellation: the digamma/trigamma
    closed form loses all significant digits by nu = 4, n = 64, and naive
    summation to 1e-18 relative would need ~1e9 terms at nu = 0.
    """
    N = n + 512
    head = float(np.sum(_tail_term(nu, np.arange(n, N, dtype=float))))
    # m = N + N y/(1-y) keeps the decaying integrand free of boundary layers
    y, w = _legendre_rule(64)
    y = 0.5 * (y + 1.0)
    w = 0.5 * w
    integral = float(np.sum(w * _tail_term(nu, N + N * y / (1.0 - y)) * N / (1.0 - y) ** 2))
    # log-derivatives of f at N for the Euler--Maclaurin corrections
    j = np.arange(1, nu + 2, dtype=float)
    s1 = float(np.sum(1.0 / (N + j)))
    s2 = float(np.sum(1.0 / (N + j) ** 2))
    s3 = float(np.sum(1.0 / (N + j) ** 3))
    fN = float(_tail_term(nu, np.array(float(N))))
    g1 = -2.0 * s1
    g2 = 2.0 * s2
    g3 = -4.0 * s3
    f1 = g1 * fN
    f3 = (g3 + 3.0 * g1 * g2 + g1**3) * fN
    return head + integral + 0.5 * fN - f1 / 12.0 + f3 / 720.0


def matern_exact_hs_error(order: MaternOrder, n: int) -> float:
    """Exact weighted Hilbert--Schmidt truncation error,
    sqrt(2) (nu!)^2/(2 nu)! sqrt(sum_{m>=n} (m!/(m+nu+1)!)^2)."""
    check_int(n, "n", 1)
    nu = order.nu
    pref = math.exp(2 * gammaln(nu + 1) - gammaln(2 * nu + 1))
    return pref * math.sqrt(2.0 * _tail_sum(nu, n))


def matern_psi_bound(order: MaternOrder) -> float:
    """Uniform bound 2^nu nu!/sqrt((2 nu)!) on every basis function."""
    nu = order.nu
    return math.exp(nu * math.log(2.0) + _log_c(nu))
