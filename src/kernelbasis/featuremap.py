"""Uniform finite-dimensional feature maps over the three kernel families.

A feature map stacks truncated-basis values so that the Euclidean inner
product of two feature vectors equals the truncated kernel.  This is the
downstream-facing surface for reduced-rank kernel methods; a minimal
kernel ridge regression built on it demonstrates the O(n^2 N) use case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cauchy as _cauchy
from . import gaussian as _gaussian
from . import matern as _matern
from ._lowrank import (chunk_blocks, chunk_buffer, check_int, check_lam, rank_product, scaled,
                       stack_rows)

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
    """Family, length-scale, truncation level and (for Matern) smoothness;
    ``index_labels()`` names the feature columns, in order."""

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
            _matern.MaternOrder(self.nu)  # the one check of nu
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for the matern family")

    def _classes(self) -> list[tuple[str, int]]:
        """(class name, column count) of each block of the layout, in order."""
        if self.family == "matern":
            return [("null", self.nu + 1), ("minus", self.n), ("plus", self.n)]
        if self.family == "cauchy":
            return [("alpha", self.n), ("beta", self.n)]
        return [("psi", self.n)]

    @property
    def dim(self) -> int:
        return sum(count for _, count in self._classes())

    def index_labels(self) -> list[str]:
        """Column labels documenting the feature ordering."""
        return [f"{name}_{m}" for name, count in self._classes() for m in range(count)]

    def _block(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Basis rows (dim, N) at already scaled points x of shape (N,),
        written into ``out`` when it is given."""
        if self.family == "matern":
            return _matern._basis_block(self.nu, self.n, x, out)
        if self.family == "cauchy":
            return _cauchy._real_basis_block(self.n, x, out)
        return _gaussian._psi_block(self.n, x, out)

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


def _scaled_block(lam: float, rows):
    """``rows(x, out)``, a block such as ``FeatureMapSpec._block``, at the
    points x = lam p for unscaled points p of shape (k,).  A scaled point may
    overflow to +-inf, where every block gives its limit, 0."""
    return lambda p, out=None: rows(scaled(lam, p), out)


def features(spec: FeatureMapSpec, points) -> np.ndarray:
    """Feature matrix: row i holds the feature vector of points[i]."""
    return stack_rows(_scaled_block(spec.lam, spec._block), _check_points(points), spec.dim)


def _fit(spec: FeatureMapSpec, x: np.ndarray, y: np.ndarray, ridge: float, buf: np.ndarray):
    """(block, c): a block at unscaled points and c with predictions
    c @ block(x_test).  The fit's Gram matrix and sums are freed on return,
    before the test blocks are built."""
    if ridge > 0 and spec.family == "gaussian":
        rows, scale, edges = _gaussian._psi_raw(spec.n)
        block = _scaled_block(spec.lam, rows)
        first, last, rhs = np.zeros(spec.dim), np.zeros(spec.dim), np.zeros(spec.dim)
        for s, b in chunk_blocks(block, x, buf):
            first += b @ b[0]
            last += b @ b[-1]
            rhs += b @ y[s]
        # the Gram matrix from its edges, scaled before the ridge goes on
        gram = edges(first, last)
        gram *= np.outer(scale, scale)
        gram[np.diag_indices(spec.dim)] += ridge
        return block, scale * np.linalg.solve(gram, scale * rhs)
    block = _scaled_block(spec.lam, spec._block)
    if ridge > 0:
        gram, rhs = ridge * np.eye(spec.dim), np.zeros(spec.dim)
        for s, b in chunk_blocks(block, x, buf):
            gram += b @ b.T
            rhs += b @ y[s]
        return block, np.linalg.solve(gram, rhs)
    F = stack_rows(block, x, spec.dim)
    gram = F @ F.T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"ridge=0 interpolation is numerically singular "
            f"(estimated condition number {cond:.3e}); add regularisation",
            cond=cond,
        )
    return block, F.T @ np.linalg.solve(gram, y)


def krr_fit_predict(spec: FeatureMapSpec, train_x, train_y, ridge: float, test_x) -> np.ndarray:
    """Reduced-rank kernel ridge regression.

    For ridge > 0 solves the dim x dim normal equations
    (F^T F + ridge I) c = F^T y by ``np.linalg.solve`` and predicts F_test c.  F^T F
    and F^T y are accumulated over chunks of points, whose blocks share one
    buffer, so F is never formed and memory does not grow with N.  Gaussian
    blocks are raw Hermite rows U = D^-1 F^T (``gaussian._psi_raw``),
    which skip the normalising multiply of every row.  U U^T is not summed:
    each chunk adds its first row and last column, two matrix-vector
    products beside U y, and the Hermite three-term identity builds the
    matrix from them once (``orthopoly._hermite_gram``).  It is as accurate
    as the summed matrix normwise, not entry by entry: on 5000 points at
    lam 0.4, predictions differ from a long-double Gram matrix's by 9.2e-14
    of their maximum at ridge 1e-3 and 2.0e-11 at ridge 1e-8 (summed:
    2.3e-14 and 1.7e-12).  It and U y are scaled once, to D U U^T D +
    ridge I and D U y, and the test blocks meet D c.  For ridge = 0 the fit
    is exact interpolation through the N x N feature Gram matrix F F^T,
    which must be well conditioned: more points than features (rank at
    most dim < N) raise :class:`ConditioningError` with cond = inf before F
    is formed, and duplicated inputs raise it with the estimated condition
    number.  Its coefficients are c = F^T (F F^T)^-1 y.  Both ridges
    stream their predictions c @ block(x_test) chunk by chunk, so the test
    feature matrix is never formed either.
    """
    train_y = np.asarray(train_y, dtype=float)
    if np.shape(train_x) != train_y.shape:
        raise ValueError("train_x and train_y must have the same length")
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge}")
    x = _check_points(train_x, "train_x")
    y = _check_points(train_y, "train_y")
    xt = _check_points(test_x, "test_x")
    if ridge == 0 and x.size > spec.dim:
        raise ConditioningError(
            f"ridge=0 interpolation of N={x.size} points with dim={spec.dim} features is "
            f"singular (the N x N Gram matrix has rank at most dim, condition number inf); "
            f"add regularisation",
            cond=np.inf,
        )
    # one buffer serves the training and the test chunks
    buf = chunk_buffer(spec.dim, x.size, xt.size)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite prediction raises below
        block, coef = _fit(spec, x, y, ridge, buf)
        pred = np.empty(xt.size)
        for s, b in chunk_blocks(block, xt, buf):
            pred[s] = coef @ b
    if not np.all(np.isfinite(pred)):
        raise ValueError("predictions leave the float range; scale train_y down")
    return pred
