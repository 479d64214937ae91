"""Gaussian kernel exp(-(t-u)^2/2), its Hermite RKHS basis and Mercer form.

Every function here has the one form c q^m e^{-a t^2} e_m(b t), with
e_m = H_m / sqrt(2^m m!), and is a row of one block, :func:`_hermite_rows`,
whose normalised Hermite recurrence is seeded with the weight c e^{-a t^2},
so arbitrary degrees neither overflow nor lose the prefactor.  The block
takes (c, p, v, w) with p = q^{-2}, v = 1/a and w = 1/b, so t^2/3 and
2t/sqrt 3 each round once.  The four parameter sets (c, p, v, w):

* ``hermite_fn``, the Hermite functions: (pi^{-1/4}, 1, 2, 1);
* ``gaussian_psi``, the RKHS basis (2 sqrt 2 / 3)^{1/2} (6^m m!)^{-1/2}
  e^{-t^2/3} H_m(2t/sqrt 3): ((2 sqrt 2 / 3)^{1/2}, 3, 3, sqrt 3 / 2);
* ``gaussian_psi_scaled``, width kappa, with A = 1 + kappa^2/2 and
  S = 1 - kappa^2/A: ((sqrt 2 kappa/A)^{1/2}, 1/S, 2A/kappa^2, A sqrt(S)/kappa);
* ``mercer_eigenfunction``, for the weight w_alpha(t) = alpha pi^{-1/2}
  e^{-alpha^2 t^2}: (sqrt beta, 1, 1/delta^2, 1/(alpha beta)).

At alpha = sqrt(2/3) the basis is sqrt(mu_m) times the Mercer
eigenfunctions, with mu_m = 2/3^{m+1}; at kappa = 1 the width-kappa
basis is the RKHS basis.

The block also gives raw RKHS rows psi_m / s_m (:func:`_psi_raw`), with no
normalising multiply per row, for the kernel ridge regression's Gram
matrix, which applies s once and is built from its first row and last
column; every other caller uses the basis rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._lowrank import check_int, check_lam, pair_values, rank_product, scaled
from .orthopoly import _hermite_coef, _hermite_gram, _hermite_raw, _last_row, _recur
from .report import VerificationReport

__all__ = [
    "GaussianScale",
    "MercerParams",
    "MERCER_ALPHA_DEFAULT",
    "gaussian_kernel",
    "hermite_fn",
    "gaussian_psi",
    "gaussian_psi_scaled",
    "mercer_eigenvalue",
    "mercer_eigenfunction",
    "mercer_weight",
    "gaussian_truncated",
    "gaussian_truncation_error",
    "mehler_check",
]

MERCER_ALPHA_DEFAULT = math.sqrt(2.0 / 3.0)


@dataclass(frozen=True)
class GaussianScale:
    """Length-scale lam > 0, entering as r(lam t, lam u) and psi(lam t)."""

    lam: float = 1.0

    def __post_init__(self):
        check_lam(self.lam)


@dataclass(frozen=True)
class MercerParams:
    """Weight parameter alpha with the induced beta = (1 + 2/alpha^2)^{1/4}
    and delta_sq = alpha^2 (beta^2 - 1)/2."""

    alpha: float
    beta: float
    delta_sq: float

    def __post_init__(self):
        beta_ref, delta_ref = _beta_delta_sq(self.alpha)
        if abs(self.beta - beta_ref) > 1e-14 * beta_ref:
            raise ValueError(f"beta={self.beta} inconsistent with alpha={self.alpha}")
        if abs(self.delta_sq - delta_ref) > 1e-14 * max(delta_ref, 1e-300):
            raise ValueError(f"delta_sq={self.delta_sq} inconsistent with alpha={self.alpha}")

    @classmethod
    def from_alpha(cls, alpha: float) -> "MercerParams":
        beta, delta_sq = _beta_delta_sq(alpha)
        return cls(alpha=alpha, beta=beta, delta_sq=delta_sq)


def _beta_delta_sq(alpha: float) -> tuple[float, float]:
    """beta and delta^2 of alpha; ValueError naming alpha where alpha is not
    positive, or alpha^2 or 2/alpha^2 is not finite (alpha outside about
    1e-154..1.3e154).  delta^2 = alpha^2 (beta^2 - 1)/2 is formed as
    1/(1 + sqrt(1 + 2/alpha^2)), which has no cancellation: the direct
    form loses 1e-9 (relative) at alpha = 1e4 and rounds to 0 from ~1e8."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    sq = float(alpha) * float(alpha)
    if not 0 < sq < math.inf or not 2.0 / sq < math.inf:
        raise ValueError(f"alpha={alpha} is out of range: alpha^2 and 2/alpha^2 must be finite")
    r = 1.0 + 2.0 / alpha**2
    return r**0.25, 1.0 / (1.0 + math.sqrt(r))


def gaussian_kernel(scale: GaussianScale, t, u):
    """Gaussian kernel exp(-lam^2 (t-u)^2 / 2)."""
    return pair_values(lambda d: np.exp(-0.5 * d * d), scale.lam, t, u)


# beyond this |x| every seed e^{-x^2/v} (v < 1e297) is 0, and x^2 stays finite
_X_MAX = 1e150


def _hermite_rows(count: int, c: float, p: float, v: float, w: float, x: np.ndarray,
                  out: np.ndarray | None = None, coef=None) -> np.ndarray:
    """Rows m = 0..count-1 of c p^{-m/2} e^{-x^2/v} e_m(x/w) at points x (N,),
    written into ``out`` (count, N) when it is given; with ``coef`` from
    ``orthopoly._hermite_raw(count, p)``, the raw rows, each divided by its s.

    The recurrence of p^{-k/2} e_k (``orthopoly._hermite_coef``) runs at
    y = x/w on the weighted rows from g_0 = c e^{-x^2/v}, so no weight pass
    follows and the polynomial never overflows before it meets its
    exponential.  Past |x| = sqrt(745 v) the seed underflows and every row
    is 0.  For the RKHS basis (v = 3) that is |x| > 47.3, and the absolute
    error for m <= 511 is at most 3.5e-74 there and where the seed is
    subnormal (40-digit mpmath; 3e-80 at |x| = 48).  |x| is clamped at
    1e150, where every seed is 0, so x^2 stays finite.
    """
    rows = np.empty((count, x.size)) if out is None else out
    x = np.minimum(x, _X_MAX)
    np.maximum(x, -_X_MAX, out=x)
    seed = rows[0]
    np.multiply(x, x, out=seed)
    seed /= -v
    np.exp(seed, out=seed)
    seed *= c
    x /= w  # the clamped copy, so the points are copied once
    return _recur(rows, x, coef or _hermite_coef(p))


_HERMITE_FN = (math.pi**-0.25, 1.0, 2.0, 1.0)
_PSI = ((2.0 * math.sqrt(2.0) / 3.0) ** 0.5, 3.0, 3.0, 0.5 * math.sqrt(3.0))


def _psi_block(n: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows m = 0..n-1 of psi_m at (already scaled) points x."""
    return _hermite_rows(n, *_PSI, x, out)


def _psi_raw(n: int):
    """(block, s, gram): rows m = 0..n-1 of psi_m / s_m at (already scaled)
    points x, by ``block(x, out)``, their scale s (see :func:`_psi_block`),
    and ``gram(first, last)``, their Gram matrix (to be scaled once as
    s s^T) from its first row and last column (``orthopoly._hermite_gram``)."""
    coef, s = _hermite_raw(n, _PSI[1])
    return ((lambda x, out=None: _hermite_rows(n, *_PSI, x, out, coef)), s,
            partial(_hermite_gram, coef))


def _scaled_form(kappa: float) -> tuple[float, float, float, float]:
    """(c, p, v, w) of :func:`_hermite_rows` for the width-kappa basis."""
    if not 0.0 < kappa < math.sqrt(2.0):
        raise ValueError(f"kappa must lie in (0, sqrt(2)), got {kappa}")
    a2 = 1.0 + 0.5 * kappa * kappa
    shrink = 1.0 - kappa * kappa / a2
    c = (math.sqrt(2.0) * kappa / a2) ** 0.5
    # v = A/(A - 1) with A - 1 = kappa^2/2, which rounds to 0 for kappa < 1e-8
    return c, 1.0 / shrink, 2.0 * a2 / kappa / kappa, a2 * math.sqrt(shrink) / kappa


def _mercer_form(params: MercerParams) -> tuple[float, float, float, float]:
    """(c, p, v, w) of :func:`_hermite_rows` for the Mercer eigenfunctions;
    delta^2 is 0 only where 2/alpha^2 overflows (alpha < ~1e-154), and v =
    inf then gives e^0."""
    v = 1.0 / params.delta_sq if params.delta_sq > 0 else math.inf
    return math.sqrt(params.beta), 1.0, v, 1.0 / (params.alpha * params.beta)


def hermite_fn(m: int, t):
    """L2(R)-orthonormal Hermite function (2^m m! sqrt pi)^{-1/2} e^{-t^2/2} H_m(t)."""
    return _last_row(_hermite_rows, m, t, *_HERMITE_FN)


def gaussian_psi(m: int, t, scale: GaussianScale = GaussianScale()):
    """RKHS basis function psi_m evaluated at lam * t."""
    return _last_row(_hermite_rows, m, scaled(scale.lam, t), *_PSI)


def gaussian_psi_scaled(m: int, kappa: float, t):
    """Generalised basis from Hermite functions of width kappa in (0, sqrt 2);
    at kappa = 1 it is :func:`gaussian_psi`."""
    return _last_row(_hermite_rows, m, t, *_scaled_form(kappa))


def _mercer_s(params: MercerParams) -> float:
    return params.alpha**2 + params.delta_sq + 0.5


def mercer_eigenvalue(params: MercerParams, m: int) -> float:
    """Eigenvalue mu_{m,alpha}: a strictly decreasing geometric sequence."""
    check_int(m, "m")
    s = _mercer_s(params)
    return math.sqrt(params.alpha**2 / s) * (0.5 / s) ** m


def mercer_eigenfunction(params: MercerParams, m: int, t):
    """Eigenfunction theta_{m,alpha}(t) = sqrt(beta/(2^m m!)) e^{-delta^2 t^2} H_m(alpha beta t),
    orthonormal under the weight w_alpha."""
    return _last_row(_hermite_rows, m, t, *_mercer_form(params))


def mercer_weight(params: MercerParams, t):
    """Gaussian weight w_alpha(t) = alpha pi^{-1/2} e^{-alpha^2 t^2}."""
    x = np.asarray(t, dtype=float)
    vals = params.alpha / math.sqrt(math.pi) * np.exp(-params.alpha**2 * x * x)
    return float(vals) if np.ndim(t) == 0 else vals


def gaussian_truncated(scale: GaussianScale, n: int, t, u):
    """Partial sum r_n(t, u) = sum_{m<n} psi_m(lam t) psi_m(lam u)."""
    check_int(n, "n", 1)
    return rank_product(lambda x: _psi_block(n, x), scale.lam, t, u)


def gaussian_truncation_error(n: int) -> float:
    """Exact weighted Hilbert--Schmidt truncation error (1/sqrt 2) 3^{-n}
    for the weight w_alpha with alpha = sqrt(2/3)."""
    check_int(n, "n", 1)
    return 3.0 ** (-n) / math.sqrt(2.0)


def mehler_check(rho: float, x: float, y: float, tolerance: float = 1e-10,
                 increment_tol: float = 1e-14, max_terms: int = 500) -> VerificationReport:
    """Compare the bilinear Hermite generating series against its closed form.

    Series: sum_m (rho/2)^m / m! H_m(x) H_m(y) e^{-(x^2+y^2)/2}, summed until
    the absolute increment drops below ``increment_tol`` (or ``max_terms``).
    Closed form: (1-rho^2)^{-1/2} exp((4 x y rho - (1+rho^2)(x^2+y^2)) / (2(1-rho^2))).
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    damp = math.exp(-0.5 * (x * x + y * y))
    # (rho/2)^m/m! H_m(x) H_m(y) = rho^m e_m(x) e_m(y) with e_m = H_m/sqrt(2^m m!)
    ex_prev, ey_prev = 1.0, 1.0
    ex, ey = math.sqrt(2.0) * x, math.sqrt(2.0) * y
    total = damp
    terms = 1
    small_streak = 0
    for m in range(1, max_terms):
        inc = rho**m * ex * ey * damp
        total += inc
        terms += 1
        # odd terms vanish identically at x = 0 or y = 0; require two
        # consecutive small increments before declaring convergence
        small_streak = small_streak + 1 if abs(inc) < increment_tol else 0
        if small_streak >= 2:
            break
        cnext = math.sqrt(2.0 / (m + 1))
        cprev = math.sqrt(m / (m + 1.0))
        ex, ex_prev = cnext * x * ex - cprev * ex_prev, ex
        ey, ey_prev = cnext * y * ey - cprev * ey_prev, ey
    closed = math.sqrt(1.0 / (1.0 - rho * rho)) * math.exp(
        (4.0 * x * y * rho - (1.0 + rho * rho) * (x * x + y * y)) / (2.0 * (1.0 - rho * rho))
    )
    return VerificationReport.scalar_check(
        f"gaussian/mehler/rho={rho:g}/x={x:g}/y={y:g}",
        total,
        closed,
        tolerance,
        terms=terms,
        rho=rho,
        x=x,
        y=y,
    )
