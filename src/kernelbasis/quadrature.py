"""Gaussian quadrature rules for the weighted integrals behind every cross-check.

Gauss--Laguerre and Gauss--Hermite rules are built by Golub--Welsch: nodes
are eigenvalues of the symmetric tridiagonal Jacobi matrix of the weight's
orthogonal polynomials, and each weight is the Christoffel number mass /
sum_k q_k(x_i)^2, the q_k being the orthonormal polynomials run by the same
matrix's three-term recurrence.  Gauss--Legendre panels come from numpy's
``np.polynomial.legendre.leggauss`` instead: at 64 nodes its worst node error
against 40-digit roots is 6.0e-17, against 9.4e-16 for Golub--Welsch.

Convention: a rule integrates ``f`` against its base weight,

    sum_i w_i f(x_i) ~ int f(x) w_base(x) dx,

so integrands must be supplied with the base weight divided out.  Products
such as ``exp(-2t)`` times a polynomial are the caller's responsibility,
normally via the change of variables s = 2t.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lowrank import check_int
from .orthopoly import _recur

__all__ = [
    "QuadratureRule",
    "gauss_laguerre_rule",
    "gauss_hermite_rule",
    "MAX_NODES",
]

MAX_NODES = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a fixed quadrature rule: equal-length read-only
    1-d arrays of finite values, nodes strictly increasing, weights positive.
    The side of the origin the rule lives on is read from its first and last
    nodes."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.ndim != 1 or not 0 < nodes.size == weights.size:
            raise ValueError("nodes and weights must be nonempty 1-d arrays of equal length")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("nodes and weights must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def reflected(self) -> "QuadratureRule":
        """Mirror the rule about the origin (rules on one side of it only)."""
        if self.nodes[0] < 0.0 < self.nodes[-1]:
            raise ValueError("only half-line rules can be reflected: the nodes straddle 0")
        return QuadratureRule(-self.nodes[::-1], self.weights[::-1].copy())


@functools.cache
def _golub_welsch(n: int, eta: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule of the Jacobi matrix (diag,
    off): Gauss--Laguerre for weight t^eta e^{-t}, or Gauss--Hermite for eta
    None.  Nodes are its eigenvalues, and each weight mass / sum_k q_k(x_i)^2
    sums positive terms, so it is accurate relative to itself.  Weights that
    underflow to 0 or NaN (past ~190 Laguerre, ~370 Hermite nodes) are dropped
    with their nodes.  Built once per (n, eta), returned read-only: rules share them."""
    k = np.arange(n, dtype=float)
    if eta is None:
        diag, off, mass = np.zeros(n), np.sqrt(k[1:] / 2.0), math.sqrt(math.pi)
    else:
        diag, off = 2.0 * k + eta + 1.0, np.sqrt(k[1:] * (k[1:] + eta))
        try:
            mass = math.gamma(eta + 1.0)
        except OverflowError:
            raise ValueError(f"eta = {eta} is too large: Gamma(eta + 1) overflows") from None
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    q = np.ones((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        _recur(q, nodes, lambda j: (diag[j], off[j - 1], 1.0 / off[j]))
        weights = mass / np.sum(q * q, axis=0)
    keep = weights > 0.0
    nodes, weights = nodes[keep], weights[keep]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_laguerre_rule(n: int, eta: float = 0.0) -> QuadratureRule:
    """Generalised Gauss--Laguerre rule for weight t^eta e^{-t} on (0, inf).

    Exact for polynomials of degree <= 2n-1.  Jacobi coefficients:
    a_k = 2k + eta + 1, b_k = sqrt(k (k + eta)).
    """
    check_int(n, "node count", 1, MAX_NODES)
    if not 0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    return QuadratureRule(*_golub_welsch(n, eta))


def gauss_hermite_rule(n: int) -> QuadratureRule:
    """Gauss--Hermite rule for weight e^{-t^2} on the real line.

    Exact for polynomials of degree <= 2n-1.  Jacobi coefficients:
    a_k = 0, b_k = sqrt(k/2).
    """
    check_int(n, "node count", 1, MAX_NODES)
    return QuadratureRule(*_golub_welsch(n, None))


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss--Legendre nodes and weights on [-1, 1], built once per node
    count and returned read-only, since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre_panel(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss--Legendre nodes and weights on [a, b]."""
    check_int(n, "node count", 1, MAX_NODES)
    x, w = _legendre_rule(n)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w
