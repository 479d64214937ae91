"""Shared by the kernel families: the length-scale and integer checks, the
point-chunk loop that evaluates basis blocks, and truncated kernels as
rank-dim inner products of basis blocks."""

from __future__ import annotations

import numbers

import numpy as np

# points per block evaluation, so memory does not grow with N.  A (dim, CHUNK)
# block of ~70 rows is 2.3 MB; on a 2 MiB-L2 Xeon, 4096 gave the fastest
# features over all five benchmark specs (Matern blocks slow down by a
# third at 8192, Gaussian ones speed up by a fifth)
CHUNK = 4096


def check_lam(lam) -> None:
    """Reject a length-scale that is not positive and finite (inf, NaN, <= 0)."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


def check_int(value, name: str, low: int = 0) -> None:
    """Reject an index, order or level that is not an integer (numpy integers
    count) or is below ``low`` (0 or 1)."""
    if not isinstance(value, numbers.Integral) or value < low:
        kind = "nonnegative" if low == 0 else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def chunks(n: int):
    """Consecutive slices of at most CHUNK indices covering range(n).  For
    n = 0 there is one empty slice, so a block evaluated on each slice runs
    its own argument checks on every call."""
    return (slice(start, start + CHUNK) for start in range(0, max(n, 1), CHUNK))


def stack_rows(block, x: np.ndarray, dim: int) -> np.ndarray:
    """C-ordered (N, dim) array whose row i is column i of ``block`` (which
    maps points of shape (k,) to rows of shape (dim, k)) at the points x (N,)."""
    out = np.empty((x.size, dim))
    for s in chunks(x.size):
        out[s] = block(x[s]).T
    return out


def block_row(block, row: int, t):
    """Row ``row`` of ``block`` (as in stack_rows) at the points t, shaped like
    t (a float for scalar or 0-d t).  The block runs one chunk of points at a
    time, so memory is O(dim * CHUNK) whatever the number of points."""
    x = np.asarray(t, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size)
    for s in chunks(flat.size):
        out[s] = block(flat[s])[row]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _distinct(v: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of lam * v and, for each element of v
    (flattened), the index of its value among them.

    Each axis along which v is constant (compared with ==, so -0.0 and 0.0
    merge as np.unique merges them, and NaN never counts as constant) is
    cut to its first slice before the sort, so a meshgrid sorts one axis of
    values, not all of them.
    """
    core = v
    for axis in range(v.ndim):
        if core.shape[axis] > 1:
            first = core.take([0], axis=axis)
            if np.all(core == first):
                core = first
    vals, inverse = np.unique(lam * core.ravel(), return_inverse=True)
    return vals, np.broadcast_to(inverse.reshape(core.shape), v.shape).ravel()


def rank_product(block, lam: float, t, u):
    """sum_k b_k(lam t) b_k(lam u) over the broadcast of t and u.

    ``block`` maps points of shape (N,) to basis rows of shape (dim, N); it
    runs once on the distinct values of each argument.  When there are no
    more distinct pairs than output pairs (a grid) the small Gram matrix is
    formed and gathered; otherwise the block columns are gathered and
    contracted pair by pair, so element-wise inputs never cost O(N^2).
    """
    x, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    xs, ix = _distinct(x, lam)
    ys, iy = _distinct(y, lam)
    bx, by = block(xs), block(ys)
    if xs.size * ys.size <= ix.size:
        vals = (bx.T @ by)[ix, iy]
    else:
        vals = np.einsum("kn,kn->n", bx[:, ix], by[:, iy])
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)
