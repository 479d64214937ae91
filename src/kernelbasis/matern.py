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
null block is one weighted recurrence on |t|, written by
:func:`_basis_block` (n = 0 is the null block alone).  The handed rows
restart the same sequence at row nu + 1 from its closed form (see
:func:`_handed_rows`), so their cost does not grow with nu.

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
from .orthopoly import _LN2_HI, _LN2_LO, _laguerre_coef, _last_row
from .quadrature import _legendre_panel

__all__ = [
    "MAX_NU",
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
MAX_NU = 1000  # the largest order served: the kernel is checked against mpmath up to it


@dataclass(frozen=True)
class MaternOrder:
    """Smoothness nu + 1/2 (nu an integer in [0, MAX_NU]) and length-scale lam > 0."""

    nu: int
    lam: float = 1.0

    def __post_init__(self):
        check_int(self.nu, "nu", cap=MAX_NU)
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


def _ratio(num: int, den: int) -> tuple[float, int]:
    """(frac, exp) with num/den = frac 2^exp for positive integers: the exact
    quotient with the bit lengths split off, so frac is one correctly
    rounded float in (1/2, 2) and never under- or overflows."""
    e = num.bit_length() - den.bit_length()
    return (num / (den << e) if e >= 0 else (num << -e) / den), e


def _log_ratio(num: int, den: int) -> float:
    """log(num/den) from :func:`_ratio`; exp * ln 2 takes ln 2 split in two,
    whose high part times an integer is exact, so the log is within an ulp."""
    frac, e = _ratio(num, den)
    return math.log(frac) + e * _LN2_LO + e * _LN2_HI


@functools.cache
def _c_sq(nu: int) -> tuple[float, int]:
    """c_nu^2 = (nu!)^2/(2 nu)! = 1/C(2 nu, nu) as (frac, exp) of :func:`_ratio`."""
    return _ratio(1, math.comb(2 * nu, nu))


@functools.cache
def _log_c(nu: int, p: int = 0) -> float:
    """log(c_nu / p!), half the log of 1/(C(2 nu, nu) (p!)^2)."""
    return 0.5 * _log_ratio(1, math.comb(2 * nu, nu) * math.factorial(p) ** 2)


def _psi_norm_sq(nu: int, m: int) -> tuple[float, int]:
    """c_nu^2 m!/(m+nu+1)!, the squared norm of psi+_{m,nu}, as (frac, exp)
    of :func:`_ratio`."""
    return _ratio(1, math.comb(2 * nu, nu) * math.prod(range(m + 1, m + nu + 2)))


@functools.cache
def _kernel_log_coef(nu: int) -> tuple[float, ...]:
    """log of the coefficients (nu+k)! nu!/(k! (nu-k)! (2 nu)!), k = 0..nu, of
    :func:`matern_kernel`, cached per nu: :func:`_log_ratio` of the exact
    integers (nu+k)!/(k! (nu-k)!), updated from k - 1, over (2 nu)!/nu!."""
    den, num, logs = math.perm(2 * nu, nu), 1, []
    for k in range(nu + 1):
        logs.append(_log_ratio(num, den))
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


def _basis_block(nu: int, n: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All nu+1+2n basis values at (already scaled) points x, ordered
    null/minus/plus, written into ``out`` (dim, N) when it is given; n = 0
    is the null block alone.  One recurrence on |x| writes R_M(|x|), signed
    (-1)^nu where x < 0, into the null slot, whose rows are then reversed
    where x < 0; :func:`_handed_rows` writes the plus slot.  The handed rows
    are split between the plus and minus slots: plus lives on x >= 0, minus
    on x < 0, and every other column is exactly +0.0, even where the rows
    are not finite.  The bits of each column are ANDed with an all-ones or
    all-zeros word, so no select temporaries are made."""
    out = np.empty((nu + 1 + 2 * n, x.size)) if out is None else out
    null, minus, plus = out[: nu + 1], out[nu + 1 : nu + 1 + n], out[nu + 1 + n :]
    _weighted_rows(nu + 1, _laguerre_coef(-nu - 1), _log_c(nu), x, null, (-1.0) ** (nu + 1),
                   nu % 2 == 1)
    left = np.flatnonzero(x < 0)
    for row, mirrored in zip(null, [row[left] for row in null[::-1]]):
        row[left] = mirrored
    if n:
        _handed_rows(nu, n, x, plus)
        bits = plus.view(np.uint64)
        np.bitwise_and(bits, np.negative((x < 0).astype(np.uint64)), out=minus.view(np.uint64))
        np.bitwise_and(bits, np.negative((x >= 0).astype(np.uint64)), out=bits)
    return out


def _handed_rows(nu: int, count: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows m = 0..count-1 at (already scaled) points x of psi+_{m,nu}(x) where
    x >= 0 and psi-_{m,nu}(x) where x < 0, written into ``out`` when it is
    given: rows nu+1 onward of the sequence R_M, seeded at row nu+1 by
    psi+_0 = c_nu (2|x|)^(nu+1) e^{-|x|}/(nu+1)!.  The step from there has
    no term in row nu (c_{nu+1} = 0), so the cost is O(count), not O(nu + count)."""
    coef = _laguerre_coef(-nu - 1)
    return _weighted_rows(count, lambda k: coef(k + nu + 1), _log_c(nu, nu + 1), x, out,
                          odd=nu % 2 == 1, power=nu + 1)


def matern_psi(order: MaternOrder, basis_id: MaternBasisId, t):
    """Evaluate one Matern--Laguerre basis function at lam * t: row m of the
    null block of :func:`_basis_block`, or the last of m + 1 :func:`_handed_rows`
    kept to its side of the origin, m <= MAX_DEGREE by ``orthopoly._last_row``."""
    lam, nu, kind, m = order.lam, order.nu, basis_id.kind, basis_id.m
    if kind == "null":
        if m > nu:
            raise ValueError(f"null-class index m={m} exceeds nu={nu}; "
                             "the null class has exactly nu+1 members")
        return block_row(lambda p: _basis_block(nu, 0, scaled(lam, p)), m, t)

    def handed_row(count: int, p: np.ndarray) -> np.ndarray:
        x = scaled(lam, p)
        side = x < 0 if kind == "minus" else x >= 0
        return np.where(side, _handed_rows(nu, count, x)[-1:], 0.0)

    return _last_row(handed_row, m, t)


def matern_psi_unified(order: MaternOrder, m: int, t):
    """Basis function by its two-sided integer index.

    m >= 0 is the plus class, -nu-1 <= m <= -1 the null class (member
    m + nu + 1), and m <= -nu-2 the minus class (member -nu-2-m).
    """
    check_int(m, "m", None)
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
    return rank_product(functools.partial(_basis_block, tr.order.nu, tr.n), tr.order.lam, t, u)


def matern_feature_map(tr: MaternTruncation, t) -> np.ndarray:
    """Feature vector [psi0_0..psi0_nu, psi-_0..psi-_{n-1}, psi+_0..psi+_{n-1}]
    at lam * t, so that dot(f(t), f(u)) == matern_truncated(t, u); NaN t raises."""
    x = check_not_nan(scaled(tr.order.lam, t))
    block = functools.partial(_basis_block, tr.order.nu, tr.n)
    return stack_rows(block, x.ravel(), tr.dim).reshape(*x.shape, tr.dim)


def matern_psi_norm_sq(order: MaternOrder, m: int) -> float:
    """Exact squared norm of psi+_{m,nu} (= psi-) in the weighted L2 space:
    (nu!)^2/(2 nu)! * m!/(m+nu+1)!, correctly rounded where it is normal."""
    check_int(m, "m")
    return math.ldexp(*_psi_norm_sq(order.nu, m))


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
    y, w = _legendre_panel(64, 0.0, 1.0)
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
    summed relative to its first term, and the prefactor (nu!)^2/(2 nu)!
    n!/(n+nu+1)! (:func:`_psi_norm_sq`) applied with its exponent split off,
    so the result is flushed to 0 only where it underflows itself."""
    check_int(n, "n", 1)
    frac, exp = _psi_norm_sq(order.nu, n)
    return math.ldexp(math.sqrt(2.0 * _tail_sum(order.nu, n)) * frac, exp)


def matern_psi_bound(order: MaternOrder) -> float:
    """Uniform bound 2^nu nu!/sqrt((2 nu)!) on every basis function, the root
    of 4^nu c_nu^2 (:func:`_c_sq`), which is O(nu^{1/4})."""
    frac, exp = _c_sq(order.nu)
    return math.sqrt(math.ldexp(frac, exp + 2 * order.nu))
