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

from .orthopoly import _last_row, assoc_laguerre_table
from .report import VerificationReport

__all__ = ["laguerre_fn", "laguerre_fn_ft", "check_identity", "IDENTITIES"]

_SQRT2 = math.sqrt(2.0)


def _laguerre_rows(count: int, x: np.ndarray) -> np.ndarray:
    """Rows j = 0..count-1 of sqrt(2) L_j(2|x|) e^{-|x|} at points x (N,),
    built in the Laguerre table's buffer.

    Row j is phi_j on x >= 0 and -phi_{-j-1} on x < 0.
    """
    ax = np.abs(x)
    rows = assoc_laguerre_table(count, 0, 2.0 * ax)
    rows *= _SQRT2
    rows *= np.exp(-ax)
    return rows


def laguerre_fn(m: int, t):
    """Laguerre function phi_m(t) for any integer index m: row j of
    :func:`_laguerre_rows`, signed and kept on its side of the origin."""
    j, sign = (m, 1.0) if m >= 0 else (-m - 1, -1.0)

    def signed_row(count: int, x: np.ndarray) -> np.ndarray:
        side = x >= 0 if m >= 0 else x < 0
        return np.where(side, sign * _laguerre_rows(count, x)[-1:], 0.0)

    return _last_row(signed_row, j, t)


def _ratio(omega: np.ndarray) -> np.ndarray:
    # unit-modulus ratio (iw - 1)/(iw + 1); keeps powers bounded for any m
    iw = 1j * omega
    return (iw - 1.0) / (iw + 1.0)


def laguerre_fn_ft(m: int, omega):
    """Fourier transform phi_hat_m(w) = sqrt(2) (iw-1)^m / (iw+1)^{m+1}."""
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    vals = _SQRT2 * _ratio(w) ** m / (1j * w + 1.0)
    return complex(vals) if scalar else vals


def _dev_conjugate_symmetry(params, w):
    (m,) = params
    return np.abs(np.conj(laguerre_fn_ft(-m - 1, w)) + laguerre_fn_ft(m, w))


def _dev_shift(params, w):
    m, k = params
    lhs = laguerre_fn_ft(m + k, w)
    rhs = _ratio(w) ** k * laguerre_fn_ft(m, w)
    return np.abs(lhs - rhs)


def _dev_multiplication(params, w):
    m, k = params
    lhs = laguerre_fn_ft(m, w) * laguerre_fn_ft(k, w)
    rhs = (laguerre_fn_ft(m + k, w) - laguerre_fn_ft(m + k + 1, w)) / _SQRT2
    return np.abs(lhs - rhs)


def _dev_binomial(params, w):
    (nu,) = params
    lhs = 2.0 ** (nu + 0.5) / (1j * w + 1.0) ** (nu + 1)
    rhs = sum(
        math.comb(nu, k) * (-1) ** k * laguerre_fn_ft(k, w) for k in range(nu + 1)
    )
    return np.abs(lhs - rhs)


IDENTITIES = {
    "conjugate_symmetry": _dev_conjugate_symmetry,
    "shift": _dev_shift,
    "multiplication": _dev_multiplication,
    "binomial": _dev_binomial,
}


def check_identity(which: str, params: tuple, omega_grid,
                   tolerance: float = 1e-12) -> VerificationReport:
    """Evaluate both sides of a named Fourier-domain identity on a grid.

    ``which`` is one of ``conjugate_symmetry`` (params ``(m,)``), ``shift``
    (``(m, k)``), ``multiplication`` (``(m, k)``) or ``binomial``
    (``(nu,)``).  Returns the maximum absolute deviation as a report.
    """
    if which not in IDENTITIES:
        raise ValueError(f"unknown identity {which!r}; expected one of {sorted(IDENTITIES)}")
    w = np.asarray(omega_grid, dtype=float)
    if w.size == 0 or not np.all(np.isfinite(w)):
        raise ValueError("omega_grid must be nonempty and finite")
    dev = float(np.max(IDENTITIES[which](tuple(params), w)))
    name = f"identities/{which}/params={tuple(int(p) for p in params)}"
    return VerificationReport.deviation_check(
        name, dev, tolerance, grid_size=int(w.size),
        omega_min=float(w.min()), omega_max=float(w.max()),
    )
