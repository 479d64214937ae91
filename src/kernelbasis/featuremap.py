"""Uniform finite-dimensional feature maps over the three kernel families.

A feature map stacks truncated-basis values so that the Euclidean inner
product of two feature vectors equals the truncated kernel.  This is the
downstream-facing surface for reduced-rank kernel methods; a minimal
kernel ridge regression built on it demonstrates the O(n^2 N) use case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import cauchy as _cauchy
from . import gaussian as _gaussian
from . import matern as _matern
from ._lowrank import check_int, check_lam, chunks, rank_product, stack_rows

__all__ = ["FeatureMapSpec", "ConditioningError", "features", "krr_fit_predict"]

FAMILIES = ("matern", "cauchy", "gaussian")

# interpolation (ridge = 0) refuses Gram matrices worse conditioned than this
COND_LIMIT = 1e12


class ConditioningError(RuntimeError):
    """Raised when an unregularised solve is numerically singular."""

    def __init__(self, message: str, cond: float):
        super().__init__(message)
        self.cond = cond


@dataclass(frozen=True)
class FeatureMapSpec:
    """Family, length-scale, truncation level and (for Matern) smoothness.

    Feature dimension: nu+1+2n for Matern, 2n for Cauchy (alpha block then
    beta block), n for Gaussian.
    """

    family: str
    lam: float = 1.0
    n: int = 8
    nu: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        check_lam(self.lam)
        check_int(self.n, "n", 1)
        if self.family == "matern":
            check_int(self.nu, "nu")
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for the matern family")

    @property
    def dim(self) -> int:
        if self.family == "matern":
            return self.nu + 1 + 2 * self.n
        if self.family == "cauchy":
            return 2 * self.n
        return self.n

    def index_labels(self) -> list[str]:
        """Column labels documenting the feature ordering."""
        if self.family == "matern":
            return (
                [f"null_{m}" for m in range(self.nu + 1)]
                + [f"minus_{m}" for m in range(self.n)]
                + [f"plus_{m}" for m in range(self.n)]
            )
        if self.family == "cauchy":
            return [f"alpha_{m}" for m in range(self.n)] + [f"beta_{m}" for m in range(self.n)]
        return [f"psi_{m}" for m in range(self.n)]

    def _block(self, x: np.ndarray) -> np.ndarray:
        """Basis rows (dim, N) at already scaled points x of shape (N,)."""
        if self.family == "matern":
            order = _matern.MaternOrder(self.nu, self.lam)
            return _matern._basis_block(_matern.MaternTruncation(order, self.n), x)
        if self.family == "cauchy":
            return _cauchy._real_basis_block(self.n, x)
        return _gaussian._psi_block(self.n, x)

    def truncated_kernel(self, t, u):
        """Truncated kernel the feature inner products reproduce."""
        return rank_product(self._block, self.lam, t, u)

    def kernel(self, t, u):
        """Closed-form kernel of the family."""
        if self.family == "matern":
            return _matern.matern_kernel(_matern.MaternOrder(self.nu, self.lam), t, u)
        if self.family == "cauchy":
            return _cauchy.cauchy_kernel(self.lam, t, u)
        return _gaussian.gaussian_kernel(_gaussian.GaussianScale(self.lam), t, u)


def _check_points(points, name: str = "points") -> np.ndarray:
    """``points`` (or targets) as a finite 1-D float array; a scalar is one point."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim > 1:
        raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} must be finite")
    return pts


def _scaled_block(spec: FeatureMapSpec):
    """Basis rows (dim, k) at unscaled points of shape (k,)."""
    return lambda p: spec._block(spec.lam * p)


def features(spec: FeatureMapSpec, points) -> np.ndarray:
    """Feature matrix: row i holds the feature vector of points[i]."""
    return stack_rows(_scaled_block(spec), _check_points(points), spec.dim)


def krr_fit_predict(spec: FeatureMapSpec, train_x, train_y, ridge: float, test_x) -> np.ndarray:
    """Reduced-rank kernel ridge regression.

    For ridge > 0 solves the dim x dim normal equations
    (F^T F + ridge I) c = F^T y by Cholesky and predicts F_test c.  F^T F
    and F^T y are accumulated over chunks of points, so F is never formed
    and memory does not grow with N.  For ridge = 0 the fit is exact
    interpolation through the N x N feature Gram matrix F F^T, which must
    be well conditioned; duplicated inputs raise :class:`ConditioningError`
    with the estimated condition number.
    """
    train_y = np.asarray(train_y, dtype=float)
    if np.shape(train_x) != train_y.shape:
        raise ValueError("train_x and train_y must have the same length")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge}")
    x = _check_points(train_x, "train_x")
    y = _check_points(train_y, "train_y")
    xt = _check_points(test_x, "test_x")
    block = _scaled_block(spec)
    if ridge > 0:
        gram = ridge * np.eye(spec.dim)
        rhs = np.zeros(spec.dim)
        for s in chunks(x.size):
            b = block(x[s])
            gram += b @ b.T
            rhs += b @ y[s]
            del b  # free this chunk's block before the next one is built
        coef = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True), rhs)
        pred = np.empty(xt.size)
        for s in chunks(xt.size):
            pred[s] = coef @ block(xt[s])
        return pred
    F = stack_rows(block, x, spec.dim)
    gram = F @ F.T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"ridge=0 interpolation is numerically singular "
            f"(estimated condition number {cond:.3e}); add regularisation",
            cond=cond,
        )
    dual = scipy.linalg.solve(gram, y, assume_a="pos")
    return stack_rows(block, xt, spec.dim) @ (F.T @ dual)
