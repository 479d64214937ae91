"""Laguerre functions: an orthonormal basis of L2(R) indexed by all integers.

Time domain, for m >= 0:

    phi_m(t)      = sqrt(2) L_m(2t) e^{-t}   on t >= 0, zero on t < 0,
    phi_{-m-1}(t) = -phi_m(-t)               on t < 0,  zero on t >= 0.

The indicator convention is that t = 0 belongs to the nonnegative branch
only, so phi_m(0) = sqrt(2) for m >= 0 and phi_m(0) = 0 for m < 0.

Fourier domain:  phi_hat_m(w) = sqrt(2) (iw-1)^m / (iw+1)^{m+1}, m in Z.
"""

from __future__ import annotations

import math

import numpy as np

from ._lowrank import check_int, check_not_nan
from .orthopoly import (MAX_DEGREE, _LOG_TINY, _laguerre_coef, _last_row, _recur, _recur_scaled,
                        _split_ln2)

__all__ = ["laguerre_fn", "laguerre_fn_ft"]

_SQRT2 = math.sqrt(2.0)


# beyond this |x| every Laguerre-type row is 0, and 2|x| stays finite
_X_MAX = 1e300


def _weighted_rows(count: int, coef, log_c: float, x: np.ndarray, out=None,
                   sign: float = 1.0, odd: bool = False, power: int = 0):
    """Rows k = 0..count-1 of the recurrence ``coef`` of :func:`_step` on
    s = 2|x| from the seed row c s^power e^{-|x|}, c = sign e^log_c, at
    points x (N,), negated where x < 0 if ``odd``, written into ``out`` (a
    (count, N) array) when it is given.  With ``_laguerre_coef(eta)`` and
    power 0 they are c L_k^(eta)(2|x|) e^{-|x|}.

    The recurrence runs on the weighted rows, so no weight pass follows.
    The seed is c s^power, formed in log space, times e^{-|x|}, whose
    exponent is exact, so its rounding does not grow with |x|.  Where the
    seed underflows (far from the origin, and near it for power > 0) or
    e^{-|x|} does, the rows are redone by the exponent-tracked recurrence,
    so no row is flushed to 0 that is not 0; there -|x| = k ln 2 + r with k
    an exact integer, and only r joins the log of c s^power.
    Past |x| = 1e300 every row is 0, and |x| is clamped there.
    """
    rows = np.empty((count, x.size)) if out is None else out
    ax = np.minimum(np.abs(x), _X_MAX)
    s = 2.0 * ax
    seed = rows[0]
    with np.errstate(all="ignore"):  # log 0 = -inf; the slow path takes inf * 0
        log_poly = power * np.log(s) + log_c if power else log_c
        np.multiply(sign * np.exp(log_poly), np.exp(-ax), out=seed)
    log_seed = log_poly - ax
    low = np.flatnonzero((log_seed < _LOG_TINY) | (ax > -_LOG_TINY))
    if odd:
        np.negative(seed, out=seed, where=x < 0)
    _recur(rows, s, coef)
    if low.size:
        k, r = _split_ln2(-ax[low])
        log_rest = np.broadcast_to(log_poly, x.shape)[low] + r
        low_rows = _recur_scaled(np.empty((count, low.size)), s[low], coef, log_rest, k)
        low_rows *= sign
        if odd:
            np.negative(low_rows, out=low_rows, where=x[low] < 0)
        for row, low_row in zip(rows, low_rows):
            row[low] = low_row
    return rows


def _laguerre_rows(count: int, x: np.ndarray) -> np.ndarray:
    """Rows j = 0..count-1 of sqrt(2) L_j(2|x|) e^{-|x|} at points x (N,).

    Row j is phi_j on x >= 0 and -phi_{-j-1} on x < 0.
    """
    return _weighted_rows(count, _laguerre_coef(0), math.log(_SQRT2), x)


def laguerre_fn(m: int, t):
    """Laguerre function phi_m(t) for any integer index -MAX_DEGREE - 1 <= m <=
    MAX_DEGREE: row j of :func:`_laguerre_rows`, signed and kept on its side
    of the origin."""
    check_int(m, "m", None)
    j, sign = (m, 1.0) if m >= 0 else (-m - 1, -1.0)
    check_int(m, "m", None, MAX_DEGREE + 1 if m < 0 else MAX_DEGREE)  # names m, not the row j

    def signed_row(count: int, x: np.ndarray) -> np.ndarray:
        side = x >= 0 if m >= 0 else x < 0
        return np.where(side, sign * _laguerre_rows(count, x)[-1:], 0.0)

    return _last_row(signed_row, j, t)


def _ratio(omega: np.ndarray) -> np.ndarray:
    # unit-modulus ratio (iw - 1)/(iw + 1); keeps powers bounded for any m
    iw = 1j * omega
    return (iw - 1.0) / (iw + 1.0)


def laguerre_fn_ft(m: int, omega):
    """Fourier transform phi_hat_m(w) = sqrt(2) (iw-1)^m / (iw+1)^{m+1}: its
    limit 0 at w = +-inf, and ValueError where w is NaN."""
    check_int(m, "m", None)
    w = check_not_nan(np.asarray(omega, dtype=float), "omega")
    inf = np.isinf(w)
    wf = np.where(inf, 0.0, w)  # 1j * inf is nan+infj
    vals = np.where(inf, 0j, _SQRT2 * _ratio(wf) ** m / (1j * wf + 1.0))
    return complex(vals) if w.ndim == 0 else vals
