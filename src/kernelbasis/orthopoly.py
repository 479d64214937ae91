"""Stable evaluation of the orthogonal polynomials underlying every basis family.

All evaluators use three-term recurrences, each written once, in a
``*_table`` evaluator that returns rows m = 0..count-1.  The scalar
evaluators ``laguerre``, ``assoc_laguerre`` and ``hermite_normalized`` are
the last row of a table, built one chunk of points at a time, so their
memory is O(m) per point of a chunk and O(1) per input point.  The
physicist's ``hermite`` keeps a recurrence of its own: it is an
independent reference, not a building block.

The explicit binomial sums cancel catastrophically past degree ~20 and
appear only in the test suite, as exact-rational oracles.  Factorial-type
prefactors elsewhere in the package are formed from log-gamma differences,
never as quotients of separately evaluated factorials.
"""

from __future__ import annotations

import numpy as np

from ._lowrank import block_row, check_int

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


def _check_degree(m: int, name: str = "m") -> None:
    check_int(m, name)
    if m > MAX_DEGREE:
        raise ValueError(f"{name}={m} exceeds the degree cap {MAX_DEGREE}")


def _last_row(table, m: int, t, *args):
    """Row m of ``table(m + 1, *args, t)``, shaped like t (a float for scalar t)."""
    _check_degree(m)
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
    m ~ 270; use :func:`hermite_normalized` for large degrees.
    """
    _check_degree(m)
    x = np.asarray(t, dtype=float)
    p_prev, p = np.ones_like(x), 2.0 * x
    for k in range(1, m):
        p, p_prev = 2.0 * x * p - 2.0 * k * p_prev, p
    vals = p if m else p_prev
    return float(vals) if x.ndim == 0 else vals


def hermite_normalized(m: int, t):
    """Normalised Hermite polynomial H_m(t) / sqrt(2^m m!): the last row of
    :func:`hermite_normalized_table`."""
    return _last_row(hermite_normalized_table, m, t)


def assoc_laguerre_table(count: int, eta: int, t) -> np.ndarray:
    """Rows m = 0..count-1 of L_m^(eta) at the points t, flattened: (count, t.size).

    (k+1) L_{k+1}^(eta) = (2k+1+eta-t) L_k^(eta) - (k+eta) L_{k-1}^(eta),
    with L_0^(eta) = 1 and L_1^(eta) = 1 + eta - t; eta = 0 gives the
    plain Laguerre polynomials.
    """
    check_int(count, "count", 1)
    _check_degree(count - 1, "count-1")
    check_int(eta, "eta")
    x = np.asarray(t, dtype=float).ravel()
    out = np.empty((count, x.size))
    out[0] = 1.0
    if count > 1:
        out[1] = 1.0 + eta - x
    for k in range(1, count - 1):
        out[k + 1] = ((2 * k + 1 + eta - x) * out[k] - (k + eta) * out[k - 1]) / (k + 1)
    return out


def hermite_normalized_table(count: int, t) -> np.ndarray:
    """Rows m = 0..count-1 of H_m / sqrt(2^m m!) at the points t, flattened.

    e_{k+1} = sqrt(2/(k+1)) t e_k - sqrt(k/(k+1)) e_{k-1}; the values stay
    O(e^{t^2/2}) for every degree, so no overflow.
    """
    check_int(count, "count", 1)
    _check_degree(count - 1, "count-1")
    x = np.asarray(t, dtype=float).ravel()
    out = np.empty((count, x.size))
    out[0] = 1.0
    if count > 1:
        out[1] = np.sqrt(2.0) * x
    for k in range(1, count - 1):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out
