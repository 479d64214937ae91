"""Shared by the kernel families: the length-scale check, and truncated
kernels as rank-dim inner products of basis blocks."""

from __future__ import annotations

import numpy as np


def check_lam(lam) -> None:
    """Reject a length-scale that is not positive and finite (inf, NaN, <= 0)."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


def rank_product(block, lam: float, t, u):
    """sum_k b_k(lam t) b_k(lam u) over the broadcast of t and u.

    ``block`` maps points of shape (N,) to basis rows of shape (dim, N); it
    runs once on the distinct values of each argument.  When there are no
    more distinct pairs than output pairs (a grid) the small Gram matrix is
    formed and gathered; otherwise the block columns are gathered and
    contracted pair by pair, so element-wise inputs never cost O(N^2).
    """
    x, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    xs, ix = np.unique(lam * x.ravel(), return_inverse=True)
    ys, iy = np.unique(lam * y.ravel(), return_inverse=True)
    bx, by = block(xs), block(ys)
    if xs.size * ys.size <= ix.size:
        vals = (bx.T @ by)[ix, iy]
    else:
        vals = np.einsum("kn,kn->n", bx[:, ix], by[:, iy])
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)
