"""Stable evaluation of the orthogonal polynomials underlying every basis family.

Every table, and every weighted basis block of the families, runs one
three-term step, :func:`_step`: row k+1 = ((x - a_k) row k - c_k row k-1) d_k,
in place in the caller's rows with one scratch row, from a seed row 0.
:func:`_recur` runs it down a table; :func:`_recur_scaled` runs it with a
per-point exponent for seeds that underflow.  The coefficients of each
family are written once, in :func:`_laguerre_coef` and :func:`_hermite_coef`.
The step skips its pass for d_k where d_k = 1: :func:`_hermite_raw` moves
the Hermite d_k into a scale s_k per row, which the Gram matrix of
``krr_fit_predict`` applies once, and :func:`_hermite_gram` builds that
Gram matrix from its first row and last column by the same step.
The ``*_table`` evaluators are the seed-1 case and return rows
m = 0..count-1; a family block seeds row 0 with its weight instead, so no
weight pass follows.  The scalar evaluators ``laguerre``,
``assoc_laguerre`` and ``hermite_normalized`` are the last row of a table,
built one chunk of points at a time, so their memory is O(m) per point of
a chunk and O(1) per input point.  The
physicist's ``hermite`` keeps a recurrence of its own: it is an
independent reference, not a building block.

The explicit binomial sums cancel catastrophically past degree ~20 and
appear only in the test suite, as exact-rational oracles.  Factorial-type
prefactors elsewhere in the package are quotients of exact integers with
the exponent split off (``matern._ratio``), never quotients of separately
evaluated factorials.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._lowrank import block_row, check_int, check_not_nan

__all__ = [
    "MAX_DEGREE",
    "laguerre",
    "assoc_laguerre",
    "hermite",
    "hermite_normalized",
    "assoc_laguerre_table",
    "hermite_normalized_table",
]

# Degree cap: recurrences stay accurate well past this, but callers asking
# for more are almost certainly misusing the module.
MAX_DEGREE = 512


# log of the smallest normal float: a seed below it has lost precision
_LOG_TINY = math.log(np.finfo(float).tiny)
# ln 2 = _LN2_HI + _LN2_LO, with j * _LN2_HI exact for integers |j| < 2^21
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _step(nxt, cur, prev, x, a: float, c: float, d: float, tmp) -> None:
    """nxt = ((x - a) cur - c prev) d, in place; tmp is a scratch row.  prev is
    not read when it is None (the first step, where row -1 is 0)."""
    if a:
        np.subtract(x, a, out=nxt)
        nxt *= cur
    else:
        np.multiply(x, cur, out=nxt)
    if prev is not None:
        np.multiply(prev, c, out=tmp)
        nxt -= tmp
    if d != 1.0:
        nxt *= d


def _recur(rows, x: np.ndarray, coef):
    """Fill rows[1:] from the seed rows[0] in place, with coef(k) = (a_k, c_k, d_k)
    of :func:`_step`; rows is a (count, N) array."""
    tmp = np.empty(x.shape)
    for k in range(len(rows) - 1):
        _step(rows[k + 1], rows[k], rows[k - 1] if k else None, x, *coef(k), tmp)
    return rows


def _split_ln2(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, r) with y = k ln 2 + r, |r| <= ln 2 / 2 and k an int64 array, for y
    clamped to [-2^40, 2^40].  k _LN2_HI is exact for |y| < 1.45e6, so r is
    within an ulp there; past it e^y under- or overflows any row it seeds."""
    y = np.clip(y, -(2.0**40), 2.0**40)
    k = np.rint(y / math.log(2.0))
    return k.astype(np.int64), (y - k * _LN2_HI) - k * _LN2_LO


def _recur_scaled(rows, x: np.ndarray, coef, log_seed: np.ndarray, exp2=0):
    """:func:`_recur` from the seed exp(log_seed) 2^exp2, for seeds that underflow.

    The log seed is split as k ln 2 + r, so the seed costs one rounding,
    exp(r).  Each point carries its two current rows divided by a power of
    two 2^j that keeps the larger of them in [1/2, 1), so the scaling is
    exact, and row k is ldexp(value, j), rounded once where it underflows
    and only where its own value does.  Several numpy calls per row on few
    points: a slow path for the points that need it.
    """
    prev, nxt, tmp = np.zeros(x.shape), np.empty(x.shape), np.empty(x.shape)
    j, r = _split_ln2(log_seed)
    j, cur = j + exp2, np.exp(r)
    np.ldexp(cur, j, out=rows[0])
    for k in range(len(rows) - 1):
        _step(nxt, cur, prev if k else None, x, *coef(k), tmp)
        shift = np.frexp(np.maximum(np.abs(nxt), np.abs(cur)))[1]
        np.ldexp(nxt, -shift, out=nxt)
        np.ldexp(cur, -shift, out=cur)
        j += shift
        np.ldexp(nxt, j, out=rows[k + 1])
        prev, cur, nxt = cur, nxt, prev
    return rows


def _check_finite(vals, m: int):
    """vals, or ValueError naming m where a value is not finite: there the
    true value overflows float64 (or t itself is not finite)."""
    finite = np.isfinite(vals)
    if not np.all(finite):
        raise ValueError(f"m={m}: {np.size(vals) - np.count_nonzero(finite)} of {np.size(vals)} "
                         "values are not finite (beyond float64, or t is not finite)")
    return vals


def _last_row(table, m: int, t, *args):
    """Row m of ``table(m + 1, *args, t)``, shaped like t (a float for scalar t),
    m <= MAX_DEGREE: the degree check of every scalar evaluator built on a table."""
    check_int(m, "m", cap=MAX_DEGREE)
    return block_row(lambda p: table(m + 1, *args, p), -1, t)


def laguerre(m: int, t):
    """Laguerre polynomial L_m(t): :func:`assoc_laguerre` at eta = 0."""
    return assoc_laguerre(m, 0, t)


def assoc_laguerre(m: int, eta: int, t):
    """Associated Laguerre polynomial L_m^(eta)(t): the last row of
    :func:`assoc_laguerre_table`."""
    return _last_row(assoc_laguerre_table, m, t, eta)


def hermite(m: int, t):
    """Physicist's Hermite polynomial H_m(t) by recurrence.

    H_{k+1}(t) = 2t H_k(t) - 2k H_{k-1}(t).  Overflows float64 around
    m ~ 270, where it raises ValueError; use :func:`hermite_normalized` for
    large degrees.
    """
    check_int(m, "m", cap=MAX_DEGREE)
    x = check_not_nan(np.asarray(t, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # a value beyond float64 raises below
        p_prev, p = np.ones_like(x), 2.0 * x
        for k in range(1, m):
            p, p_prev = 2.0 * x * p - 2.0 * k * p_prev, p
    vals = _check_finite(p if m else p_prev, m)
    return float(vals) if x.ndim == 0 else vals


def hermite_normalized(m: int, t):
    """Normalised Hermite polynomial H_m(t) / sqrt(2^m m!): the last row of
    :func:`hermite_normalized_table`."""
    return _last_row(hermite_normalized_table, m, t)


def _laguerre_coef(eta: int):
    """coef of :func:`_step` for L_k^(eta), eta any integer:
    (k+1) L_{k+1} = (2k+1+eta-x) L_k - (k+eta) L_{k-1}."""
    return lambda k: (2 * k + 1 + eta, -(k + eta), -1.0 / (k + 1))


def _hermite_coef(p: float = 1.0):
    """coef of :func:`_step` for p^{-k/2} e_k, e_k = H_k / sqrt(2^k k!):
    g_{k+1} = sqrt(2/((k+1) p)) x g_k - sqrt(k/(k+1))/p g_{k-1}."""
    return lambda k: (0.0, math.sqrt(k / (2.0 * p)), math.sqrt(2.0 / ((k + 1) * p)))


# a raw Hermite row exceeds its normalised row by at most about 2^_RAW_LIMIT
_RAW_LIMIT = 256


@functools.cache
def _hermite_raw(count: int, p: float):
    """coef of :func:`_step` for rows k = 0..count-1 of U_k = g_k / s_k, g_k
    the rows of :func:`_hermite_coef`, and the read-only scale s: U_{k+1} =
    r_k (x U_k - (k/2) r_{k-1} U_{k-1}) and s_{k+1} = s_k d_k / r_k, so the
    step has no multiply by d_k (k/2 = c_k / d_{k-1} exactly).  r_k = 1 unless
    s_{k+1} would fall below 2^-_RAW_LIMIT; then it is the power of two that
    puts s_{k+1} in [1/2, 1), so sums of U U^T stay finite (64 rows at p = 3
    need no reset, 200 need 2, 512 need 8).  The schedule depends on
    (count, p) only, and for p >= 2 every s_k <= 1, so no raw row underflows
    where its normalised row does not.
    """
    d = _hermite_coef(p)
    coef, s, r = [], np.ones(count), 1.0
    for k in range(count - 1):
        c, r = k / 2 * r, 1.0
        s[k + 1] = s[k] * d(k)[2]
        if s[k + 1] < 2.0**-_RAW_LIMIT:
            s[k + 1], e = math.frexp(s[k + 1])
            r = math.ldexp(1.0, e)
        coef.append((0.0, c, r))
    s.flags.writeable = False
    return coef.__getitem__, s


def _hermite_gram(coef, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The Gram matrix G = sum_i U(x_i) U(x_i)^T of n raw RKHS rows U_k
    (:func:`_hermite_raw` at p = 3, with its coef) from its first row
    ``first`` = G[0] and its last column ``last`` = G[:, n-1], in O(n^2).

    The step y U_k = U_{k+1}/d_k + c_k U_{k-1} writes sum_i y_i U_j U_k in
    two ways, so G[j+1, k] = d_j (G[j, k+1]/d_k + c_k G[j, k-1] - c_j G[j-1, k])
    for k < n-1; it runs forward, row by row from row 0.  The d_k are powers
    of two, so only the c_k terms round.  Forward propagation is stable only
    because the p = 3 rows decay as 3^(-k/2): against a long-double sum of
    U U^T it is within 8.4e-16 of max|G s s^T|, normwise on the rows' scale
    s, where the float64 sum U U^T is within 1.3e-15 (n <= 512; clustered,
    Cauchy, far, near-zero and extreme points).  It is not accurate entry by
    entry: on 5000 points in [-1.2, 1.2] at n = 64, the middle entries are
    off by up to 1e-3 of sqrt(G_jj G_kk) (U U^T: 1.2e-14), so a small ridge
    meets a larger error (see ``krr_fit_predict``).  At n = 64 the same
    identity is off by up to 5e23 of max|G| run downward from the last two
    rows, 5e5 on the p = 1 Hermite functions and 6e30 on Laguerre
    functions, so it serves no other rows.
    """
    n = first.size
    c, d = np.array([coef(k)[1:] for k in range(n - 1)]).reshape(-1, 2).T
    gram = np.empty((n, n))
    gram[0] = first
    gram[:, -1] = last
    for j in range(n - 1):
        row = gram[j, 1:] / d
        row[1:] += c[1:] * gram[j, :-2]
        if j:
            row -= c[j] * gram[j - 1, :-1]
        gram[j + 1, :-1] = d[j] * row
    return gram


def _table(count: int, t, coef) -> np.ndarray:
    """Rows 0..count-1 of the seed-1 recurrence with coefficients coef at the
    points t, flattened: (count, t.size); ValueError where t is NaN or a value
    lies beyond float64 (a non-finite row stays so, and the last row shows it)."""
    check_int(count, "count", 1, MAX_DEGREE + 1)
    x = check_not_nan(np.asarray(t, dtype=float).ravel())
    rows = np.empty((count, x.size))
    rows[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # a value beyond float64 raises below
        _recur(rows, x, coef)
    _check_finite(rows[-1], count - 1)
    return rows


def assoc_laguerre_table(count: int, eta: int, t) -> np.ndarray:
    """Rows m = 0..count-1 of L_m^(eta) at the points t, flattened: (count, t.size).
    eta = 0 gives the plain Laguerre polynomials."""
    check_int(eta, "eta")
    return _table(count, t, _laguerre_coef(eta))


def hermite_normalized_table(count: int, t) -> np.ndarray:
    """Rows m = 0..count-1 of H_m / sqrt(2^m m!) at the points t, flattened;
    |H_m / sqrt(2^m m!)| <= 1.086435 e^{t^2/2} (Cramer), finite for |t| < 37.6."""
    return _table(count, t, _hermite_coef())
