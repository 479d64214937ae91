"""Gaussian kernel exp(-(t-u)^2/2), its Hermite RKHS basis and Mercer form.

RKHS basis:

    psi_m(t) = (2 sqrt 2 / 3)^{1/2} (6^m m!)^{-1/2} e^{-t^2/3} H_m(2t/sqrt 3),

evaluated through the normalised Hermite recurrence so that arbitrary
degrees neither overflow nor lose the prefactor.  The same basis arises as
sqrt(mu_m) times the Mercer eigenfunctions for the Gaussian weight
w_alpha(t) = alpha pi^{-1/2} e^{-alpha^2 t^2} at alpha = sqrt(2/3), where
mu_m = 2/3^{m+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lowrank import check_lam, rank_product
from .orthopoly import hermite_normalized, hermite_normalized_table
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

_SQRT3 = math.sqrt(3.0)
# (2 sqrt 2 / 3)^{1/2}
_PSI_COEFF = (2.0 * math.sqrt(2.0) / 3.0) ** 0.5

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
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        beta_ref = (1.0 + 2.0 / self.alpha**2) ** 0.25
        delta_ref = 0.5 * self.alpha**2 * (beta_ref**2 - 1.0)
        if abs(self.beta - beta_ref) > 1e-14 * beta_ref:
            raise ValueError(f"beta={self.beta} inconsistent with alpha={self.alpha}")
        if abs(self.delta_sq - delta_ref) > 1e-14 * max(delta_ref, 1e-300):
            raise ValueError(f"delta_sq={self.delta_sq} inconsistent with alpha={self.alpha}")

    @classmethod
    def from_alpha(cls, alpha: float) -> "MercerParams":
        beta = (1.0 + 2.0 / alpha**2) ** 0.25
        return cls(alpha=alpha, beta=beta, delta_sq=0.5 * alpha**2 * (beta**2 - 1.0))


def gaussian_kernel(scale: GaussianScale, t, u):
    """Gaussian kernel exp(-lam^2 (t-u)^2 / 2)."""
    d = scale.lam * (np.asarray(t, dtype=float) - np.asarray(u, dtype=float))
    vals = np.exp(-0.5 * d * d)
    return float(vals) if vals.ndim == 0 else vals


def hermite_fn(m: int, t):
    """L2(R)-orthonormal Hermite function (2^m m! sqrt pi)^{-1/2} e^{-t^2/2} H_m(t)."""
    x = np.asarray(t, dtype=float)
    vals = math.pi ** (-0.25) * np.exp(-0.5 * x * x) * hermite_normalized(m, x)
    return float(vals) if np.ndim(t) == 0 else vals


def gaussian_psi(m: int, t, scale: GaussianScale = GaussianScale()):
    """RKHS basis function psi_m evaluated at lam * t."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    x = scale.lam * np.asarray(t, dtype=float)
    e_m = hermite_normalized(m, 2.0 * x / _SQRT3)
    vals = _psi_weights(m + 1)[-1] * e_m * np.exp(-x * x / 3.0)
    return float(vals) if x.ndim == 0 else vals


def _psi_weights(n: int) -> np.ndarray:
    """(2 sqrt 2 / 3)^{1/2} 3^{-m/2} for m = 0..n-1: psi_m over e_m(2t/sqrt 3) e^{-t^2/3}."""
    return _PSI_COEFF * 3.0 ** (-0.5 * np.arange(n))


def _psi_block(n: int, x: np.ndarray) -> np.ndarray:
    """Rows m = 0..n-1 of psi_m at (already scaled) points x."""
    table = hermite_normalized_table(n, 2.0 * x / _SQRT3)
    table *= _psi_weights(n)[:, None]
    table *= np.exp(-x * x / 3.0)
    return table


def gaussian_psi_scaled(m: int, kappa: float, t):
    """Generalised basis from Hermite functions of width kappa in (0, sqrt 2).

    At kappa = 1 this reduces to :func:`gaussian_psi` (a^2 = 3/2, both the
    exponent and the Hermite argument collapse to the 2t/sqrt 3 form).
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if not 0.0 < kappa < math.sqrt(2.0):
        raise ValueError(f"kappa must lie in (0, sqrt(2)), got {kappa}")
    a2 = 1.0 + 0.5 * kappa * kappa
    shrink = 1.0 - kappa * kappa / a2
    x = np.asarray(t, dtype=float)
    vals = (
        (math.sqrt(2.0) * kappa / a2) ** 0.5
        * shrink ** (0.5 * m)
        * np.exp(-(1.0 - 1.0 / a2) * x * x)
        * hermite_normalized(m, kappa * x / (a2 * math.sqrt(shrink)))
    )
    return float(vals) if np.ndim(t) == 0 else vals


def _mercer_s(params: MercerParams) -> float:
    return params.alpha**2 + params.delta_sq + 0.5


def mercer_eigenvalue(params: MercerParams, m: int) -> float:
    """Eigenvalue mu_{m,alpha}: a strictly decreasing geometric sequence."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    s = _mercer_s(params)
    return math.sqrt(params.alpha**2 / s) * (0.5 / s) ** m


def mercer_eigenfunction(params: MercerParams, m: int, t):
    """Eigenfunction theta_{m,alpha}(t) = sqrt(beta/(2^m m!)) e^{-delta^2 t^2} H_m(alpha beta t),
    orthonormal under the weight w_alpha."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    x = np.asarray(t, dtype=float)
    vals = (
        math.sqrt(params.beta)
        * np.exp(-params.delta_sq * x * x)
        * hermite_normalized(m, params.alpha * params.beta * x)
    )
    return float(vals) if np.ndim(t) == 0 else vals


def mercer_weight(params: MercerParams, t):
    """Gaussian weight w_alpha(t) = alpha pi^{-1/2} e^{-alpha^2 t^2}."""
    x = np.asarray(t, dtype=float)
    vals = params.alpha / math.sqrt(math.pi) * np.exp(-params.alpha**2 * x * x)
    return float(vals) if np.ndim(t) == 0 else vals


def gaussian_truncated(scale: GaussianScale, n: int, t, u):
    """Partial sum r_n(t, u) = sum_{m<n} psi_m(lam t) psi_m(lam u)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return rank_product(lambda x: _psi_block(n, x), scale.lam, t, u)


def gaussian_truncation_error(n: int) -> float:
    """Exact weighted Hilbert--Schmidt truncation error (1/sqrt 2) 3^{-n}
    for the weight w_alpha with alpha = sqrt(2/3)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
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
