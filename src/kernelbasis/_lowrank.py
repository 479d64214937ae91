"""Shared by the kernel families: the length-scale and integer checks, the
point-chunk loop that evaluates basis blocks, and truncated kernels as
rank-dim inner products of basis blocks."""

from __future__ import annotations

import numbers

import numpy as np

# points per block evaluation, so memory does not grow with N.  Each
# features or krr call writes every chunk's block into one buffer of
# dim rows, 2.3 MB at ~70 rows.  On a 2 MiB-L2 Xeon, 4096 was re-swept
# against 2048 and 8192 with the weighted in-place recurrences: see the
# CHUNK sweep in CHANGES.md.  A chunk's rows are _stride(k) floats apart,
# not 32 KiB, so they do not share L1 sets in the transposing copy
CHUNK = 4096


def check_lam(lam) -> None:
    """Reject a length-scale that is a bool or not positive and finite (inf, NaN, <= 0)."""
    if isinstance(lam, bool) or not 0 < lam < np.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")


def check_int(value, name: str, low: int | None = 0, cap: int | None = None) -> None:
    """Reject an index, order, level or node count that is not an integer (numpy
    integers count, a bool does not), is below ``low`` (0 or 1; None for a
    signed index, such as the m in Z of phi_m and psi_m) or above ``cap``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or low is not None and value < low):
        kind = {None: "an", 0: "a nonnegative", 1: "a positive"}[low]
        raise ValueError(f"{name} must be {kind} integer, got {value!r}")
    if cap is not None and value > cap:
        raise ValueError(f"{name}={value} exceeds the cap {cap}")


def chunks(n: int):
    """Consecutive slices of at most CHUNK indices covering range(n).  For
    n = 0 there is one empty slice, so a block evaluated on each slice runs
    its own argument checks on every call."""
    return (slice(start, start + CHUNK) for start in range(0, max(n, 1), CHUNK))


def _stride(k: int) -> int:
    """Floats from one block row to the next for a chunk of k points: k, or
    one 64-byte line (8 floats) more where k floats fill whole 4 KiB pages,
    whose rows would all start on one L1 set.  Other chunks stay contiguous,
    as a product with a block of a few points rounds as on a new block."""
    return k + 8 if 8 * k % 4096 == 0 else k


def chunk_buffer(dim: int, *sizes: int) -> np.ndarray:
    """One block buffer for chunk loops over point sets of these sizes: dim
    rows of _stride(k) <= k + 8 floats for every chunk of k points."""
    return np.empty((dim, min(CHUNK, max(sizes)) + 8))


def chunk_blocks(block, x: np.ndarray, buf: np.ndarray):
    """(slice, block) for each chunk of the points x (N,): ``block(p, out)``
    maps points of shape (k,) to rows of shape (dim, k) written into ``out``,
    here a (dim, k) view of ``buf`` (from chunk_buffer) whose contiguous rows
    are _stride(k) floats apart.  Each block lives only until the next chunk
    is built."""
    dim, flat = buf.shape[0], buf.reshape(-1)
    for s in chunks(x.size):
        p = x[s]
        stride = _stride(p.size)
        yield s, block(p, flat[: dim * stride].reshape(dim, stride)[:, : p.size])


def stack_rows(block, x: np.ndarray, dim: int) -> np.ndarray:
    """C-ordered (N, dim) array whose row i is column i of ``block`` (as in
    chunk_blocks) at the points x (N,), built in a block buffer of its own."""
    out = np.empty((x.size, dim))
    for s, b in chunk_blocks(block, x, chunk_buffer(dim, x.size)):
        out[s] = b.T
    return out


def check_not_nan(x: np.ndarray, name: str = "t") -> np.ndarray:
    """x, or ValueError where a point of it is NaN, which has no basis value."""
    nan = np.count_nonzero(np.isnan(x))
    if nan:
        raise ValueError(f"{name} is NaN at {nan} of {x.size} points")
    return x


def scaled(lam: float, t) -> np.ndarray:
    """lam * t as floats; an overflow is +-inf, where every block gives its limit 0."""
    with np.errstate(over="ignore"):
        return lam * np.asarray(t, dtype=float)


def pair_values(kernel, lam: float, t, u):
    """``kernel(d)`` at d = lam (t - u) over the broadcast of t and u, a float
    for scalars.  NaN and t = u = +-inf (no limit) raise ValueError; an
    overflow is +-inf, where every kernel gives its limit 0."""
    x, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    check_not_nan(x, "t")
    check_not_nan(y, "u")
    same = np.isinf(x) & (x == y)
    if np.any(same):
        raise ValueError(f"the kernel has no limit at t = u = {x[same][0]}")
    with np.errstate(over="ignore"):
        vals = kernel(lam * (x - y))
    return float(vals) if vals.ndim == 0 else vals


def block_row(block, row: int, t):
    """Row ``row`` of ``block`` (as in stack_rows) at the points t, shaped like
    t (a float for scalar or 0-d t); ValueError where t is NaN.  The block runs
    one chunk of points at a time, so memory is O(dim * CHUNK) whatever the
    number of points."""
    x = check_not_nan(np.asarray(t, dtype=float))
    flat = x.ravel()
    out = np.empty(flat.size)
    for s in chunks(flat.size):
        out[s] = block(flat[s])[row]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _distinct(v: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of lam * v and, for each element of v's
    core, the index of its value among them; the index array has the core's
    shape, which broadcasts to v.shape.

    The core is v with each axis along which v is constant (compared with
    ==, so -0.0 and 0.0 merge as np.unique merges them, and NaN never counts
    as constant) cut to its first slice, so a meshgrid sorts one axis of
    values, not all of them, and its index is (n, 1) or (1, m), not (n m,).
    A scaled value may overflow to +-inf, where every block gives its limit.
    The second slice is compared first, so an axis along which it already
    differs from the first is rejected without a whole-array comparison.
    A strictly increasing core (no NaN, no repeat) is its own sorted
    distinct values, with index arange: np.unique's output, without its sort.
    """
    core = v
    for axis in range(v.ndim):
        if core.shape[axis] > 1:
            first = core.take([0], axis=axis)
            if np.all(core.take([1], axis=axis) == first) and np.all(core == first):
                core = first
    vals = scaled(lam, core.ravel())
    if np.all(vals[1:] > vals[:-1]):
        return vals, np.arange(vals.size).reshape(core.shape)
    vals, inverse = np.unique(vals, return_inverse=True)
    return vals, inverse.reshape(core.shape)


def rank_product(block, lam: float, t, u):
    """sum_k b_k(lam t) b_k(lam u) over the broadcast of t and u.

    ``block`` maps points of shape (N,) to basis rows of shape (dim, N).  The
    first two of three branches read the Gram matrix of the distinct values:
    one block on both while they number at most CHUNK, else the block of the
    side with fewer values and the other's one chunk at a time, which besides
    the Gram matrix take O(dim (fewer + min(CHUNK, more))) floats:
    * outer grid: the index cores of _distinct vary on disjoint axes, one's
      all before the other's, span the output's shape together and list
      their values in increasing C order; the Gram matrix (transposed when
      u's axes come first) is then the output.  A product of gathered
      columns rounds by place in it, so it would not be exact on other grids;
    * Gram gather: other inputs with no more distinct pairs than output
      pairs gather the Gram matrix through broadcast views of the cores;
    * pairwise: the rest (element-wise inputs) run one chunk of pairs at a
      time, a block and then its columns' products summed row by row, so
      memory is O(dim * CHUNK) and a pair rounds the same wherever it sits
      (einsum and a sum over axis 0 round by place and by shape).

    The values equal one block per argument's while no side has more than
    CHUNK distinct values; beyond, a chunk's product may round otherwise.
    """
    x, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    xs, ix = _distinct(x, lam)
    ys, iy = _distinct(y, lam)
    for v, vals, name in ((x, xs, "t"), (y, ys, "u")):
        if np.isnan(vals[-1:]).any():  # np.unique sorts NaN last
            check_not_nan(v, name)
    # broadcast views: the two cores need not broadcast to x.shape together
    # (both may be constant along one axis)
    bix, biy = np.broadcast_to(ix, x.shape), np.broadcast_to(iy, x.shape)
    if xs.size * ys.size > x.size:
        bix, biy, vals = bix.ravel(), biy.ravel(), np.empty(x.size)
        for s in chunks(x.size):
            b = block(np.concatenate([xs[bix[s]], ys[biy[s]]]))
            vals[s] = sum(row_x * row_y for row_x, row_y in zip(b[:, : vals[s].size],
                                                                 b[:, vals[s].size :]))
        return vals.reshape(x.shape)
    # x's block stays the left operand: a product rounds by which operand is which
    if xs.size + ys.size <= CHUNK:
        # one block call: a block per side made the 300 x 300 grid bench 15 %
        # slower.  With a one-valued side numpy's matrix-vector product rounds by strides
        bx, by = np.hsplit(block(np.concatenate([xs, ys])), [xs.size])
        if min(xs.size, ys.size) == 1:
            bx, by = bx.copy(), by.copy()
        gram = bx.T @ by
    elif xs.size <= ys.size:
        gram, bx = np.empty((xs.size, ys.size)), block(xs)
        for s in chunks(ys.size):
            np.matmul(bx.T, block(ys[s]), out=gram[:, s])
    else:
        gram, by = np.empty((xs.size, ys.size)), block(ys)
        for s in chunks(xs.size):
            np.matmul(block(xs[s]).T, by, out=gram[s])
    ax, ay = ([a for a, k in enumerate(i.shape) if k > 1] for i in (ix, iy))
    if (ax and ay and (ax[-1] < ay[0] or ay[-1] < ax[0])
            and np.broadcast_shapes(ix.shape, iy.shape) == x.shape
            and all(np.array_equal(i.ravel(), np.arange(i.size)) for i in (ix, iy))):
        return (gram if ax[-1] < ay[0] else gram.T.copy()).reshape(x.shape)
    vals = gram[bix, biy]
    return float(vals) if x.ndim == 0 else vals.reshape(x.shape)
