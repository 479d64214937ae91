"""Independent test oracles and test-only quadrature.

The exact oracles deliberately use the explicit binomial-sum definitions
(slow, cancellation-prone in floats, exact over Fraction) so the
recurrence-based library code is checked against an arithmetic path it
shares nothing with.  ``uniform_truncated_rule`` and ``integrate`` serve
the tests' own quadrature cross-checks, such as Plancherel in the Fourier
domain.  The mpmath references evaluate the unweighted polynomials by
their recurrences at high precision and apply the weights at the end, the
order the weighted float recurrences avoid.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, factorial
from typing import Callable

import mpmath
import numpy as np

from kernelbasis.quadrature import QuadratureRule, _check_node_count, _legendre_panel


def laguerre_sum(m: int, eta: int, t: Fraction) -> Fraction:
    """L_m^(eta)(t) = sum_k C(m+eta, m-k) (-1)^k / k! t^k, exactly."""
    acc = Fraction(0)
    for k in range(m + 1):
        acc += Fraction(comb(m + eta, m - k) * (-1) ** k, factorial(k)) * t**k
    return acc


def hermite_sum(m: int, t: Fraction) -> Fraction:
    """H_m(t) = m! sum_{k<=m/2} (-1)^k / (k! (m-2k)!) (2t)^{m-2k}, exactly."""
    acc = Fraction(0)
    for k in range(m // 2 + 1):
        acc += Fraction((-1) ** k, factorial(k) * factorial(m - 2 * k)) * (2 * t) ** (m - 2 * k)
    return factorial(m) * acc


def cauchy_alpha_sum(m: int, t: Fraction) -> Fraction:
    """Real Cauchy basis alpha_m from the explicit even/odd-split sums."""
    tt = t * t
    if m % 2 == 0:
        half = m // 2
        s = sum(
            Fraction(comb(m + 1, 2 * k)) * (-1) ** k * tt**k for k in range(half + 1)
        )
        return Fraction((-1) ** half) * t**m / (tt + 1) ** (m + 1) * s
    half = (m - 1) // 2
    s = sum(
        Fraction(comb(m + 1, 2 * k + 1)) * (-1) ** k * t ** (2 * k + 1)
        for k in range(half + 1)
    )
    return Fraction((-1) ** half) * t**m / (tt + 1) ** (m + 1) * s


def cauchy_beta_sum(m: int, t: Fraction) -> Fraction:
    """Real Cauchy basis beta_m from the explicit even/odd-split sums."""
    tt = t * t
    if m % 2 == 0:
        half = m // 2
        s = sum(
            Fraction(comb(m + 1, 2 * k + 1)) * (-1) ** k * t ** (2 * k + 1)
            for k in range(half + 1)
        )
        return Fraction((-1) ** half) * t**m / (tt + 1) ** (m + 1) * s
    half = (m - 1) // 2
    s = sum(
        Fraction(comb(m + 1, 2 * k)) * (-1) ** k * tt**k for k in range(half + 2)
    )
    return Fraction((-1) ** (half + 1)) * t**m / (tt + 1) ** (m + 1) * s


def uniform_truncated_rule(n: int, R: float) -> QuadratureRule:
    """Composite rule for weight 1 on [-R, R].

    Panels grow geometrically away from the origin so that slowly decaying
    rational integrands (e.g. 1/(1+w^2) out to R ~ 1e8) are resolved with a
    modest node budget; each panel carries a 16-point Gauss--Legendre rule.
    """
    _check_node_count(n)
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    if n < 4:
        per_panel = n
        bounds = [(-R, R)]
    elif R <= 1.0 or n < 64:
        per_panel = n // 2
        bounds = [(-R, 0.0), (0.0, R)]
    else:
        # per side: one linear panel near the origin plus geometric panels
        # out to R, 16 Gauss--Legendre nodes each
        per_panel = 16
        geo = n // 32 - 1
        edges = np.geomspace(1.0, R, geo + 1)
        bounds = [(0.0, edges[0])] + [(edges[i], edges[i + 1]) for i in range(geo)]
        bounds = [(-b, -a) for (a, b) in reversed(bounds)] + bounds
    nodes, weights = [], []
    for a, b in bounds:
        x, w = _legendre_panel(per_panel, a, b)
        nodes.append(x)
        weights.append(w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    return QuadratureRule(nodes[order], weights[order])


def integrate(rule: QuadratureRule, f: Callable) -> float:
    """Apply the rule: sum_i w_i f(x_i).

    ``f`` must accept an ndarray of nodes (or be scalar-callable) and may
    not return non-finite values at any node.
    """
    try:
        vals = np.asarray(f(rule.nodes), dtype=float)
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in rule.nodes])
    if vals.shape != rule.nodes.shape:
        vals = np.broadcast_to(vals, rule.nodes.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"integrand is not finite at node {i} (x={rule.nodes[i]!r}): {vals[i]!r}"
        )
    return float(rule.weights @ vals)


@functools.lru_cache
def _hermite_mp_coefs(count: int, prec: int) -> list:
    """(sqrt(2/(k+1)), sqrt(k/(k+1)), sqrt(2(k+1))) for k < count - 1 at mpmath precision prec."""
    with mpmath.workprec(prec):
        return [(mpmath.sqrt(mpmath.mpf(2) / (k + 1)), mpmath.sqrt(mpmath.mpf(k) / (k + 1)),
                 mpmath.sqrt(2 * (k + 1))) for k in range(count - 1)]


def hermite_form_mp(ms, c, p, v, w, x) -> list:
    """(f_m(x), x f_m'(x)) for m in ms of f_m = c p^{-m/2} e^{-x^2/v} e_m(x/w),
    e_m = H_m / sqrt(2^m m!), in the current mpmath precision, with c, p, v
    and w exact (mpmath numbers or exact floats): the unweighted normalised
    Hermite recurrence, the weight applied at the end, and e_m' = sqrt(2m) e_{m-1}."""
    count = max(ms) + 1
    coefs = _hermite_mp_coefs(count, mpmath.mp.prec)
    x = mpmath.mpf(x)
    y = x / w
    e = [mpmath.mpf(1), mpmath.sqrt(2) * y]
    for k in range(1, count - 1):
        e.append(coefs[k][0] * y * e[k] - coefs[k][1] * e[k - 1])
    weight, slope = c * mpmath.exp(-x * x / v), 2 * x / v
    rows = []
    for m in ms:
        scale = weight * mpmath.power(p, -mpmath.mpf(m) / 2)
        de = coefs[m - 1][2] * e[m - 1] / w if m else 0
        rows.append((scale * e[m], scale * x * (de - slope * e[m])))
    return rows


def gaussian_psi_mp(count: int, x: float) -> list:
    """psi_m(x) = (2 sqrt 2/3)^{1/2} 3^{-m/2} e^{-x^2/3} H_m(y)/sqrt(2^m m!),
    y = 2x/sqrt 3, for m < count, in the current mpmath precision
    (:func:`hermite_form_mp`)."""
    c = mpmath.sqrt(2 * mpmath.sqrt(2) / 3)
    return [f for f, _ in hermite_form_mp(range(count), c, 3, 3, mpmath.sqrt(3) / 2, x)]


def laguerre_form_mp(count: int, eta: int, power: int, x) -> list:
    """(g_m(x), x g_m'(x)) for m < count of g_m = s^power L_m^(eta)(s) e^{-x},
    s = 2x, at x >= 0, in the current mpmath precision: L_m by the
    unweighted associated-Laguerre recurrence (any integer eta), the factors
    applied at the end, and s L_m' = m L_m - (m + eta) L_{m-1}."""
    x = mpmath.mpf(x)
    s = 2 * x
    lag = [mpmath.mpf(1), 1 + eta - s]
    for k in range(1, count - 1):
        lag.append(((2 * k + 1 + eta - s) * lag[k] - (k + eta) * lag[k - 1]) / (k + 1))
    factor = mpmath.power(s, power) * mpmath.exp(-x)
    return [(factor * lag[m],
             factor * ((power + m - x) * lag[m] - ((m + eta) * lag[m - 1] if m else 0)))
            for m in range(count)]


def matern_c_mp(nu: int):
    """c_nu = nu!/sqrt((2 nu)!) in the current mpmath precision."""
    return mpmath.factorial(nu) / mpmath.sqrt(mpmath.factorial(2 * nu))


def matern_convolution_mp(nu: int, m: int, t: float):
    """The defining integral of the Matern basis function of two-sided index
    m, int h(t - tau) phi_m(tau) dtau with h(r) = 2^(nu+1/2) r^nu e^(-r) /
    sqrt((2 nu)!) on r > 0 and phi_m the Laguerre function, by mpmath's
    tanh-sinh quadrature over the integrand's support in the current mpmath
    precision.  For m < 0 the integrand is e^(2 tau) times a polynomial of
    degree d = nu - m - 1, which peaks near tau = min(t, 0) - d/2, and the
    support is split there and far past it."""
    t = mpmath.mpf(t)
    k = mpmath.power(2, nu + mpmath.mpf(1) / 2) / mpmath.sqrt(mpmath.factorial(2 * nu))
    sqrt2 = mpmath.sqrt(2)

    def h(r):
        return k * r**nu * mpmath.exp(-r)

    if m >= 0:
        if t <= 0:
            return mpmath.mpf(0)
        return mpmath.quad(lambda tau: h(t - tau) * sqrt2 * mpmath.laguerre(m, 0, 2 * tau)
                           * mpmath.exp(-tau), [0, t])
    b, d = min(t, 0), nu - m - 1
    return mpmath.quad(lambda tau: -h(t - tau) * sqrt2 * mpmath.laguerre(-m - 1, 0, -2 * tau)
                       * mpmath.exp(tau), [-mpmath.inf, b - 2 * d - 40, b - d / 2 - 10, b])


def matern_handed_mp(nu: int, count: int, x: float, with_derivative: bool = False) -> list:
    """psi+_{m,nu}(|x|), times (-1)^nu where x < 0, for m < count, in the
    current mpmath precision: c_nu m!/(m+nu+1)! (2|x|)^(nu+1) L_m^(nu+1)(2|x|)
    e^{-|x|} (:func:`laguerre_form_mp`); with ``with_derivative``, pairs
    (value, x times its derivative)."""
    sign = -1 if x < 0 and nu % 2 else 1
    c = sign * matern_c_mp(nu) / mpmath.factorial(nu + 1)  # c_nu m!/(m+nu+1)! at m = 0
    rows = []
    for m, (g, dg) in enumerate(laguerre_form_mp(count, nu + 1, nu + 1, abs(x))):
        rows.append((c * g, c * dg))
        c = c * (m + 1) / (m + nu + 2)
    return rows if with_derivative else [f for f, _ in rows]


def matern_null_mp(nu: int, x: float) -> list:
    """(psi0_m(x), x psi0_m'(x)) for m = 0..nu in the current mpmath precision:
    c_nu (-1)^(nu+1) L_m^(-nu-1)(2x) e^{-x} on x >= 0, and (-1)^nu
    psi0_{nu-m}(-x) on x < 0."""
    c = (-1) ** (nu + 1) * matern_c_mp(nu)
    rows = [(c * g, c * dg) for g, dg in laguerre_form_mp(nu + 1, -nu - 1, 0, abs(x))]
    if x < 0:
        # x f'(x) = |x| g'(|x|) for f(x) = g(-x)
        rows = [((-1) ** nu * f, (-1) ** nu * xf) for f, xf in rows[::-1]]
    return rows


def cauchy_psi_mp(m: int, x: float) -> tuple:
    """(psi_m(x), x psi_m'(x)) of the complex Cauchy basis in the current
    mpmath precision: -(1/sqrt 2) (ix)^k / (ix -+ 1)^(k+1), k = m for m >= 0
    (pole at ix = 1) and k = -m - 1 otherwise, whose logarithmic derivative
    gives x psi' = psi (k - (k + 1) ix / (ix -+ 1))."""
    ix = mpmath.mpc(0, x)
    k, pole = (m, ix - 1) if m >= 0 else (-m - 1, ix + 1)
    f = -ix**k / pole ** (k + 1) / mpmath.sqrt(2)
    return f, f * (k - (k + 1) * ix / pole)


def laguerre_fn_ft_mp(m: int, w: float) -> tuple:
    """(phi_hat_m(w), w phi_hat_m'(w)) of sqrt(2) (iw - 1)^m / (iw + 1)^(m+1)
    in the current mpmath precision."""
    iw = mpmath.mpc(0, w)
    f = mpmath.sqrt(2) * (iw - 1) ** m / (iw + 1) ** (m + 1)
    return f, f * (m * iw / (iw - 1) - (m + 1) * iw / (iw + 1))


def rank_product_gather(block, lam: float, t, u):
    """Truncated kernel sum_k b_k(lam t) b_k(lam u) the direct way: the block
    once per argument on the sorted distinct values of all its (broadcast)
    elements, then the Gram matrix of the two blocks, or for element-wise
    inputs their columns, gathered with flat indices of the output's size,
    whose products are summed row by row in order."""
    x, y = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(u, dtype=float))
    with np.errstate(over="ignore"):
        xs, ix = np.unique(lam * x.ravel(), return_inverse=True)
        ys, iy = np.unique(lam * y.ravel(), return_inverse=True)
    bx, by = block(xs), block(ys)
    if xs.size * ys.size <= ix.size:
        vals = (bx.T @ by)[ix, iy]
    else:
        vals = sum(row_x * row_y for row_x, row_y in zip(bx[:, ix], by[:, iy]))
    return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)
