"""Half-integer Matern kernels and their Laguerre-type orthonormal RKHS basis.

The basis for smoothness nu + 1/2 splits into three classes:

* ``plus``:  psi+_{m,nu}(t) = c_nu m!/(m+nu+1)! (2t)^{nu+1} L_m^(nu+1)(2t) e^{-t}
  on t >= 0 (zero on t < 0), with c_nu = nu!/sqrt((2nu)!),
* ``minus``: psi-_{m,nu}(t) = (-1)^nu psi+_{m,nu}(-t), supported on t < 0,
* ``null``:  nu + 1 functions supported on the whole line,
  psi0_m = c_nu/sqrt 2 sum_k C(nu+1, k) (-1)^k phi_{-nu-1+m+k}, k = 0..nu+1,
  with phi_i the Laguerre functions.

On t >= 0 both are rows of one sequence, R_M(t) = c_nu (-1)^(nu+1)
L_M^(-nu-1)(2t) e^{-t}: R_M = psi0_M for M <= nu, since
sum_j (-1)^j C(nu+1, j) L_{M-j} = L_M^(-nu-1), and R_M = psi+_{M-nu-1} for
M > nu, since L_{m+nu+1}^(-nu-1)(s) = m!/(m+nu+1)! (-s)^(nu+1) L_m^(nu+1)(s).
Row M is the two-sided index M - nu - 1 of :func:`matern_psi_unified`.  On
t < 0 the null rows mirror, psi0_m(t) = (-1)^nu psi0_{nu-m}(-t), so the
whole block is one weighted recurrence on |t|.

A scaling lam enters as psi(lam t) and r(lam t, lam u).  The ``null`` class
alone reproduces the kernel whenever the arguments lie on opposite sides of
the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lowrank import (block_row, check_int, check_lam, check_not_nan, pair_values, rank_product,
                       scaled, stack_rows)
from .laguerre import _weighted_rows
from .orthopoly import _LN2_HI, _LN2_LO
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


@functools.cache
def _c_sq(nu: int) -> tuple[float, int]:
    """(frac, exp) with c_nu^2 = (nu!)^2/(2 nu)! = frac 2^exp: the product of
    the factors k/(nu+k), k = 1..nu, with the exponent split off after each,
    so it never underflows.  Against 50-digit mpmath it is 3.7e-16 off at
    nu = 300 and 2.3e-15 at nu = 1000 (relative), where the lgamma difference
    2 lgamma(nu+1) - lgamma(2 nu+1) is 1.6e-13 and 1.3e-13 off."""
    frac, exp = 1.0, 0
    for k in range(1, nu + 1):
        frac, e = math.frexp(frac * (k / (nu + k)))
        exp += e
    return frac, exp


def _log_c(nu: int) -> float:
    """log c_nu = log(nu!/sqrt((2 nu)!)) from :func:`_c_sq`, within half an
    ulp: exp * ln 2 takes ln 2 split in two, whose high part times an
    integer is exact, so it adds no rounding of its own."""
    frac, exp = _c_sq(nu)
    return 0.5 * (math.log(frac) + exp * _LN2_LO + exp * _LN2_HI)


@functools.cache
def _kernel_log_coef(nu: int) -> tuple[float, ...]:
    """log of the coefficients (nu+k)! nu!/(k! (nu-k)! (2 nu)!), k = 0..nu, of
    :func:`matern_kernel`, cached per nu.  Each is a ratio of exact integers,
    (nu+k)!/(k! (nu-k)!) over (2 nu)!/nu!, with its bit length split off so
    that the quotient is one correctly rounded float in (1/2, 2); its log
    takes the split ln 2 of :func:`_log_c`.  Against 50-digit mpmath the
    logs are within an ulp; the lgamma differences were up to 3.6e-12 off at
    nu = 1000."""
    den, num, logs = math.prod(range(nu + 1, 2 * nu + 1)), 1, []
    for k in range(nu + 1):
        e = num.bit_length() - den.bit_length()
        frac = num / (den << e) if e >= 0 else (num << -e) / den
        logs.append(math.log(frac) + e * _LN2_LO + e * _LN2_HI)
        num = num * (nu + k + 1) * (nu - k) // (k + 1)
    return tuple(logs)


def matern_kernel(order: MaternOrder, t, u):
    """Closed-form half-integer Matern kernel r(lam t, lam u).

    Uses the polynomial-times-exponential form
    e^{-d} (nu!/(2 nu)!) sum_k (nu+k)!/(k!(nu-k)!) (2d)^{nu-k}
    at d = lam |t - u|, each term formed as the exponential of its
    logarithm (:func:`_kernel_log_coef`), so no factor overflows before it
    meets e^{-d}.  At d = 0 only the k = nu term is nonzero, and it is
    exactly 1.
    """
    def kernel(d):
        nu = order.nu
        # an infinite distance is the largest float, so it gives 0 and not inf - inf
        d = np.minimum(np.abs(d), np.finfo(float).max)
        with np.errstate(divide="ignore"):
            log2d = math.log(2.0) + np.log(d)
        vals = np.zeros_like(d)
        for k, logc in enumerate(_kernel_log_coef(nu)):
            # (nu - k) log 2d is -inf at d = 0 for k < nu and absent for k = nu
            vals += np.exp((nu - k) * log2d + logc - d) if k < nu else np.exp(logc - d)
        return vals

    return pair_values(kernel, order.lam, t, u)


def _rows(nu: int, count: int, x: np.ndarray, out=None):
    """Rows M = 0..count-1 at (already scaled) points x, written into ``out``
    (an array or a list of row views) when it is given: psi0_M for M <= nu,
    then psi+_{M-nu-1} where x >= 0 and psi-_{M-nu-1} where x < 0.  One
    recurrence on |x| gives R_M(|x|), signed (-1)^nu where x < 0; there
    the null rows are then reversed."""
    rows = _weighted_rows(count, -nu - 1, _log_c(nu), x, out, (-1.0) ** (nu + 1), nu % 2 == 1)
    left = np.flatnonzero(x < 0)
    null = rows[: nu + 1]
    for row, mirrored in zip(null, [row[left] for row in null[::-1]]):
        row[left] = mirrored
    return rows


def _handed_rows(nu: int, count: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..count-1 at (already scaled) points x of psi+_{m,nu}(x) where
    x >= 0 and psi-_{m,nu}(x) where x < 0."""
    return _rows(nu, nu + 1 + count, x)[nu + 1 :]


def _handed_class(rows: np.ndarray, x: np.ndarray, kind: str,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The ``kind`` class from _handed_rows (or one of its rows): plus lives on
    x >= 0, minus on x < 0, and every other column is exactly +0.0, even
    where the rows are not finite.  The bits of each column are ANDed with
    an all-ones or all-zeros word, so no select temporaries are made and
    ``out`` may be ``rows``."""
    side = x < 0 if kind == "minus" else x >= 0
    out = np.empty_like(rows) if out is None else out
    np.bitwise_and(rows.view(np.uint64), np.negative(side.astype(np.uint64)),
                   out=out.view(np.uint64))
    return out


def _null_block(nu: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..nu of psi0_{m,nu} at (already scaled) points x."""
    return _rows(nu, nu + 1, x)


def _basis_block(tr: MaternTruncation, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All nu+1+2n basis values at scaled points, ordered null/minus/plus,
    written into ``out`` (dim, N) when it is given.  One recurrence writes
    the null slot and then the plus slot; the handed rows are then split
    between the plus and minus slots."""
    nu, n = tr.order.nu, tr.n
    out = np.empty((tr.dim, x.size)) if out is None else out
    null, minus, plus = out[: nu + 1], out[nu + 1 : nu + 1 + n], out[nu + 1 + n :]
    _rows(nu, nu + 1 + n, x, [*null, *plus])
    _handed_class(plus, x, "minus", minus)
    _handed_class(plus, x, "plus", plus)
    return out


def matern_psi(order: MaternOrder, basis_id: MaternBasisId, t):
    """Evaluate one Matern--Laguerre basis function at lam * t: row m of
    :func:`_null_block`, or the last of m + 1 :func:`_handed_rows` kept to
    its class."""
    basis_id.validate_for(order)
    lam, nu, kind, m = order.lam, order.nu, basis_id.kind, basis_id.m
    if kind == "null":
        return block_row(lambda p: _null_block(nu, scaled(lam, p)), m, t)

    def handed_row(p: np.ndarray) -> np.ndarray:
        x = scaled(lam, p)
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
    at lam * t, so that dot(f(t), f(u)) == matern_truncated(t, u); NaN t raises."""
    x = check_not_nan(scaled(tr.order.lam, t))
    return stack_rows(lambda p, out: _basis_block(tr, p, out), x.ravel(), tr.dim).reshape(
        *x.shape, tr.dim)


def matern_psi_norm_sq(order: MaternOrder, m: int) -> float:
    """Exact squared norm of psi+_{m,nu} (= psi-) in the weighted L2 space:
    (nu!)^2/(2 nu)! * m!/(m+nu+1)!, the factors 1/(m+j), j = 1..nu+1, taken
    on :func:`_c_sq` with the exponent split off after each, as there."""
    check_int(m, "m")
    nu = order.nu
    frac, exp = _c_sq(nu)
    for j in range(1, nu + 2):
        frac, e = math.frexp(frac / (m + j))
        exp += e
    return math.ldexp(frac, exp)


def matern_truncation_error_bound(order: MaternOrder, n: int) -> float:
    """Weighted Hilbert--Schmidt truncation bound c_nu / n^{nu+1/2} with
    c_nu = (nu!)^2/(2 nu)! sqrt(2(2 nu+2)/(2 nu+1)).  The power is negative,
    so it underflows to 0 where n^{nu+1/2} would overflow, and the bound with
    it (c_nu <= 2)."""
    check_int(n, "n", 1)
    nu = order.nu
    c = math.ldexp(*_c_sq(nu)) * math.sqrt(2.0 * (2 * nu + 2) / (2 * nu + 1))
    return c * n ** -(nu + 0.5)


def _tail_term(nu: int, m: np.ndarray, n: int) -> np.ndarray:
    # (m!/(m+nu+1)!)^2 relative to its value at n: prod_{j=1..nu+1} ((n+j)/(m+j))^2
    out = np.ones_like(m, dtype=float)
    for j in range(1, nu + 2):
        out *= ((n + j) / (m + j)) ** 2
    return out


def _tail_sum(nu: int, n: int) -> float:
    """sum_{m >= n} prod_j ((n+j)/(m+j))^2 to near machine precision: the
    tail relative to its first term, which underflows for large nu.

    Direct summation of the leading 512 (positive) terms plus an
    Euler--Maclaurin remainder whose integral piece is evaluated by
    Gauss--Legendre on the compactified variable m = N + y/(1-y).  Every
    contribution is positive, so no cancellation: the digamma/trigamma
    closed form loses all significant digits by nu = 4, n = 64, and naive
    summation to 1e-18 relative would need ~1e9 terms at nu = 0.
    """
    N = n + 512
    head = float(np.sum(_tail_term(nu, np.arange(n, N, dtype=float), n)))
    # m = N + N y/(1-y) keeps the decaying integrand free of boundary layers
    y, w = _legendre_rule(64)
    y = 0.5 * (y + 1.0)
    w = 0.5 * w
    integral = float(np.sum(w * _tail_term(nu, N + N * y / (1.0 - y), n) * N / (1.0 - y) ** 2))
    # log-derivatives of f at N for the Euler--Maclaurin corrections
    j = np.arange(1, nu + 2, dtype=float)
    s1 = float(np.sum(1.0 / (N + j)))
    s2 = float(np.sum(1.0 / (N + j) ** 2))
    s3 = float(np.sum(1.0 / (N + j) ** 3))
    fN = float(_tail_term(nu, np.array(float(N)), n))
    g1 = -2.0 * s1
    g2 = 2.0 * s2
    g3 = -4.0 * s3
    f1 = g1 * fN
    f3 = (g3 + 3.0 * g1 * g2 + g1**3) * fN
    return head + integral + 0.5 * fN - f1 / 12.0 + f3 / 720.0


def matern_exact_hs_error(order: MaternOrder, n: int) -> float:
    """Exact weighted Hilbert--Schmidt truncation error,
    sqrt(2) (nu!)^2/(2 nu)! sqrt(sum_{m>=n} (m!/(m+nu+1)!)^2).  The tail is
    summed relative to its first term, and n!/(n+nu+1)! and (nu!)^2/(2 nu)!
    (:func:`_c_sq`) applied as factors below 1, so the result is flushed to 0
    only where it underflows itself."""
    check_int(n, "n", 1)
    nu = order.nu
    err = math.sqrt(2.0 * _tail_sum(nu, n))
    for j in range(1, nu + 2):
        err /= n + j
    frac, exp = _c_sq(nu)
    return math.ldexp(err * frac, exp)


def matern_psi_bound(order: MaternOrder) -> float:
    """Uniform bound 2^nu nu!/sqrt((2 nu)!) on every basis function, the root
    of 4^nu c_nu^2 (:func:`_c_sq`), which is O(nu^{1/4})."""
    frac, exp = _c_sq(order.nu)
    return math.sqrt(math.ldexp(frac, exp + 2 * order.nu))
