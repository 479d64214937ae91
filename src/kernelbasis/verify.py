"""Verification harness: every identity, bound and error formula as a check.

The module provides three reusable operations (a convolution oracle for the
basis construction, weighted Gram matrices, and truncation-error sweeps)
plus named suites that bundle them into checks.  A suite is a table of
check rows ``(name, computed, reference, tolerance, metadata)``, and
:func:`_report` alone turns rows into :class:`VerificationReport`, so a new
check is one more row; the public checks :func:`check_identity` and
:func:`mehler_check` build theirs by it too.  Gram matrices and the suites
evaluate the package's own basis blocks, once per grid; the convolution
oracle, the independent check, runs only the raw recurrences, both families
through the exponent-tracked ``orthopoly._recur_scaled``.  All randomness
is drawn from a fixed seed so reports are bit-reproducible on one platform.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from . import cauchy as _c
from . import gaussian as _g
from . import matern as _m
from ._lowrank import check_int
from .featuremap import FeatureMapSpec
from .laguerre import _X_MAX, _ratio, laguerre_fn_ft
from .orthopoly import MAX_DEGREE, _hermite_coef, _laguerre_coef, _recur_scaled
from .quadrature import (MAX_NODES, QuadratureRule, _legendre_panel, gauss_hermite_rule,
                         gauss_laguerre_rule)
from .report import VerificationReport

__all__ = [
    "VerificationReport",
    "DEFAULT_SEED",
    "IDENTITIES",
    "check_identity",
    "mehler_check",
    "convolution_oracle",
    "gram_matrix",
    "truncation_sweep",
    "run_suite",
    "SUITE_NAMES",
]

DEFAULT_SEED = 0x5EED
# t, u in {-5, -4.5, ..., 5}
DEFAULT_GRID = np.linspace(-5.0, 5.0, 21)
ALGEBRAIC_TOL = 1e-12
MEHLER_TOL = 1e-10  # of mehler_check and both gaussian/mehler_* rows
GRAM_TOL = 2e-13  # 4x the worst _gram_row entry under five OpenBLAS core types, 3.97e-14
_QUAD_NODES = 128  # of every Gauss rule behind a Gram or tensor-quadrature check
# large orders of the Matern checks that need no quadrature rule
_LARGE_NUS = (30, 100, 300)


# ---------------------------------------------------------------------------
# convolution oracle


def convolution_oracle(family: str, m: int, t: float, nu: int | None = None) -> float:
    """Evaluate the defining convolution int h(t - tau) phi_m(tau) dtau by one Gauss rule.

    ``family`` is ``matern`` (requires ``nu``, checked by ``MaternOrder``; any
    integer index m) or ``gaussian`` (m >= 0, no ``nu``), at a finite t.  Each
    integrand is a polynomial times a rule's weight, so a rule of the right
    size integrates it exactly; ValueError, naming m and nu, is raised where it
    would need more than MAX_NODES nodes.  Both families sum it by
    ``_recur_scaled``, with an exponent per node, so a value that underflows
    is 0.  The Gaussian value is accurate in absolute terms only: at larger m
    the sum of O(1) terms cancels to a small psi_m (m = 60, t = 6: 2.8e-15 off
    a value of -3.8e-11).  Shares only the raw three-term recurrences with the
    closed-form basis code, so agreement is an independent check.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    t = min(max(t, -_X_MAX), _X_MAX)  # past it every value is 0, and 2t stays finite
    if family == "matern":
        _m.MaternOrder(nu)  # the one check of nu
    elif family != "gaussian":
        raise ValueError(f"unknown family {family!r}; expected 'matern' or 'gaussian'")
    elif nu is not None:
        raise ValueError("nu is only meaningful for the matern family")
    check_int(m, "m", None if family == "matern" else 0)
    # each integrand below is a weight times a polynomial of degree nu + degree
    # (Gaussian: m), which a rule of `size` nodes integrates exactly
    degree = m if m >= 0 else -m - 1
    size = ((nu or 0) + degree) // 2 + 1
    if size > MAX_NODES:
        at = f"m={m}, nu={nu}" if family == "matern" else f"m={m}"
        raise ValueError(f"{at} needs a rule of {size} nodes, past the cap {MAX_NODES}")
    if family == "matern":
        # h(r) = 2^{nu+1/2} r^nu e^{-r} / sqrt((2 nu)!) on r > 0; the positive
        # factors are summed in log space (log_k: h's constant, phi_m's sqrt 2)
        log_k, coef = (nu + 1.0) * math.log(2.0) - 0.5 * math.lgamma(2 * nu + 1), _laguerre_coef(0)
        if m >= 0:
            # phi_m = sqrt 2 L_m(2 tau) e^{-tau} on tau >= 0; over tau = t x the
            # integrand is e^{-t} t^{nu+1} times a polynomial of degree nu + m
            if t <= 0:
                return 0.0
            x, w = _legendre_panel(size, 0.0, 1.0)
            log_f = np.log(w) + nu * np.log1p(-x) + (nu + 1) * math.log(t) - t
            arg, sign = 2.0 * t * x, 1.0
        else:
            # phi_m = -sqrt 2 L_mm(-2 tau) e^{tau} on tau < 0, mm = -m - 1; over
            # tau = b - s/2, b = min(t, 0), the integrand is e^{2b-t}/2 e^{-s}
            # times a polynomial of degree nu + mm
            b = min(t, 0.0)
            rule = gauss_laguerre_rule(size)
            log_f = np.log(rule.weights) + nu * np.log(t - b + 0.5 * rule.nodes) + 2.0 * b - t
            arg, sign = rule.nodes - 2.0 * b, -0.5
    else:
        # h(r) = (2/pi)^{1/4} e^{-r^2}: the integral is (8/(9 pi^2))^{1/4} e^{-t^2/3}
        # times Gauss--Hermite in s = sqrt(3/2) (tau - 2t/3) of H_m(tau)/sqrt(2^m m!);
        # 64 nodes cancel less than the exact m // 2 + 1 (measured in CHANGES.md)
        rule, coef = gauss_hermite_rule(max(64, size)), _hermite_coef()
        log_f, log_k = np.log(rule.weights) - t * t / 3.0, 0.25 * math.log(8.0 / (9.0 * math.pi**2))
        arg, sign = math.sqrt(2.0 / 3.0) * rule.nodes + 2.0 * t / 3.0, 1.0
    rows = _recur_scaled(np.empty((degree + 1, arg.size)), arg, coef, log_f + log_k)
    return sign * float(np.sum(rows[-1]))


# ---------------------------------------------------------------------------
# weighted Gram matrices

def _matern_rows(count: int, s: np.ndarray, nu) -> np.ndarray:
    # t = s/2 lies on the rule's half line, so the handed rows there are psi+
    # (s > 0) or psi-_{m,nu} (s < 0); the strip removes |s|^{nu+1} e^{-|s|}
    if nu is None:
        raise ValueError("matern gram needs nu")
    nu = _m.MaternOrder(nu).nu
    a = np.abs(s)
    return _m._handed_rows(nu, count, 0.5 * s) * (np.exp(0.5 * a) * a ** (-(nu + 1.0)))


def _hermite_fn_rows(count: int, s: np.ndarray, nu) -> np.ndarray:
    return _g._hermite_rows(count, *_g._HERMITE_FN, s) * np.exp(0.5 * s * s)


def _psi_rows(count: int, s: np.ndarray, nu) -> np.ndarray:
    # t = sqrt(3) s / 2 turns psi_m psi_k w_alpha dt, alpha = sqrt(2/3), into
    # (psi_m strip)(psi_k strip) e^{-s^2} ds
    const = math.sqrt(_g.MERCER_ALPHA_DEFAULT * math.sqrt(3.0) / (2.0 * math.sqrt(math.pi)))
    return _g._psi_block(count, math.sqrt(3.0) * s / 2.0) * (const * np.exp(0.25 * s * s))


def _mercer_rows(count: int, s: np.ndarray, nu) -> np.ndarray:
    params = _g.MercerParams(_g.MERCER_ALPHA_DEFAULT)
    t = s / (params.alpha * params.beta)
    strip = math.pi**-0.25 / math.sqrt(params.beta) * np.exp(params.delta_sq * t * t)
    return _g._hermite_rows(count, *_g._mercer_form(params), t) * strip


# family -> (side of its rule's nodes: 1 all > 0, -1 all < 0, 0 the first
# <= 0 <= the last; rows m = 0..count-1 at the rule's nodes times the strip
# that reduces the weighted integrand to the rule's base weight)
_GRAM = {
    "matern_plus": (1, _matern_rows),
    "matern_minus": (-1, _matern_rows),
    "hermite_fn": (0, _hermite_fn_rows),
    "gaussian_psi": (0, _psi_rows),
    "mercer": (0, _mercer_rows),
}
_SIDES = ("real-line", "positive half line", "negative half line")  # by side 0, 1, -1
GRAM_FAMILIES = tuple(_GRAM)


def gram_matrix(family: str, indices, rule: QuadratureRule, nu: int | None = None) -> np.ndarray:
    """Pairwise weighted inner products of basis functions under a rule.

    The weighted integrand is reduced to the rule's base weight by the
    documented change of variables for each family (s = 2t for the Matern
    classes, s proportional to t for the Gaussian ones, the Mercer ones at
    MERCER_ALPHA_DEFAULT).  The family's block is evaluated once at the
    rule's nodes, and the rows ``indices`` (in any order, each at most
    MAX_DEGREE, past which no rule of MAX_NODES nodes is exact) are taken
    from it.  The rule's end nodes must lie on the family's side of 0
    (``_GRAM``), and a Gram matrix that is not finite there raises ValueError.
    ``nu`` is the Matern order, checked by ``MaternOrder``, and is refused
    for the other families.
    """
    if family not in _GRAM:
        raise ValueError(f"unknown gram family {family!r}; expected one of {GRAM_FAMILIES}")
    if nu is not None and not family.startswith("matern"):
        raise ValueError(f"nu is only meaningful for the matern families, not {family}")
    idx = list(indices)
    if not idx:
        raise ValueError("indices must be nonempty")
    for k, i in enumerate(idx):
        check_int(i, f"indices[{k}]", cap=MAX_DEGREE)
    side, rows = _GRAM[family]
    lo, hi = rule.nodes[0], rule.nodes[-1]
    if (1 if lo > 0 else -1 if hi < 0 else 0) != side:
        raise ValueError(f"{family} needs a {_SIDES[side]} rule, got nodes in [{lo:.3g}, {hi:.3g}]")
    with np.errstate(all="ignore"):  # a row's 0 times its strip's inf is caught below
        B = rows(max(idx) + 1, rule.nodes, nu)[idx]
        G = (B * rule.weights) @ B.T
    if not np.all(np.isfinite(G)):
        raise ValueError(f"{family} rows leave the float range on nodes in [{lo:.3g}, {hi:.3g}]")
    return G


def _gram_row(name: str, family: str, rule: QuadratureRule, norms, nu: int | None = None):
    """A basis Gram check: every entry of ``gram_matrix`` less diag(norms), over
    sqrt(N_j) sqrt(N_k), an outer product of roots (the norms reach 6.7e-266)."""
    root, G = np.sqrt(norms), gram_matrix(family, range(len(norms)), rule, nu)
    return (name, np.abs(G - np.diag(norms)) / np.outer(root, root), None, GRAM_TOL,
            dict(nodes=rule.nodes.size, m_max=len(norms) - 1))


# ---------------------------------------------------------------------------
# the runner


def _report(row) -> VerificationReport:
    """Turn one check row into its report; a ready-made report passes through.

    A row is ``(name, computed, reference, tolerance, metadata)``.
    ``computed`` is a number, an array or a list of either, and the check
    reads its maximum, taken by ``np.max``: unlike ``max`` it keeps a NaN,
    so a NaN anywhere fails the check.  With ``reference`` None the row is a
    deviation check, whose maximum is clamped at 0 from below (a value
    inside its bound deviates by 0); otherwise it is a scalar check of the
    maximum against ``reference``.
    """
    if isinstance(row, VerificationReport):
        return row
    name, computed, reference, tolerance, metadata = row
    value = np.max(computed)
    if reference is None:
        # np.maximum keeps a NaN, and puts 0.0 where the maximum is -0.0
        value, reference = np.maximum(value, 0.0), 0.0
    return VerificationReport(name, value, reference, tolerance, metadata)


# ---------------------------------------------------------------------------
# truncation sweeps


def truncation_sweep(family: str, n_list, sample_pairs, nu: int | None = None,
                     pointwise_tol: float = 1e-6) -> list[VerificationReport]:
    """Truncation-error reports over increasing n, lam = 1: the max pointwise
    error at the final n against ``pointwise_tol`` (its metadata holds the
    error at every n), and an error-decay check between the first and last n.
    """
    n_list = list(n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be nonempty and increasing")
    pairs = [(float(a), float(b)) for a, b in sample_pairs]
    if not pairs:
        raise ValueError("sample_pairs must hold at least one (t, u) pair")
    ts = np.array([p[0] for p in pairs])
    us = np.array([p[1] for p in pairs])
    kvals = FeatureMapSpec(family, n=n_list[0], nu=nu).kernel(ts, us)
    tag = f"{family}" + (f"/nu={nu}" if family == "matern" else "")

    def rows():
        errors = {}
        for n in n_list:
            trunc = FeatureMapSpec(family, n=n, nu=nu).truncated_kernel(ts, us)
            errors[n] = float(np.max(np.abs(kvals - trunc)))
        n_last, n_first = n_list[-1], n_list[0]
        yield (f"{tag}/pointwise/n={n_last}", errors[n_last], None, pointwise_tol,
               dict(errors={str(k): v for k, v in errors.items()}, pairs=len(pairs)))
        yield (f"{tag}/pointwise_decay/{n_first}->{n_last}", errors[n_last] - errors[n_first],
               None, 1e-13, dict(first=errors[n_first], last=errors[n_last]))

    return [_report(row) for row in rows()]


# ---------------------------------------------------------------------------
# suites: each yields rows (see _report) and ready-made reports


def _sample_pairs(count: int, lo: float, hi: float, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(count, 2))
    return [(float(a), float(b)) for a, b in pts]


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
    rhs = (laguerre_fn_ft(m + k, w) - laguerre_fn_ft(m + k + 1, w)) / math.sqrt(2.0)
    return np.abs(lhs - rhs)


def _dev_binomial(params, w):
    (nu,) = params
    lhs = 2.0 ** (nu + 0.5) / (1j * w + 1.0) ** (nu + 1)
    rhs = sum(math.comb(nu, k) * (-1) ** k * laguerre_fn_ft(k, w) for k in range(nu + 1))
    return np.abs(lhs - rhs)


IDENTITIES = {
    "conjugate_symmetry": _dev_conjugate_symmetry,
    "shift": _dev_shift,
    "multiplication": _dev_multiplication,
    "binomial": _dev_binomial,
}


def check_identity(which: str, params: tuple, omega_grid) -> VerificationReport:
    """Evaluate both sides of a named Laguerre Fourier-domain identity on a grid.

    ``which`` is one of ``conjugate_symmetry`` (params ``(m,)``), ``shift``
    (``(m, k)``), ``multiplication`` (``(m, k)``) or ``binomial``
    (``(nu,)``).  Returns the maximum absolute deviation, checked to ALGEBRAIC_TOL.
    """
    if which not in IDENTITIES:
        raise ValueError(f"unknown identity {which!r}; expected one of {sorted(IDENTITIES)}")
    for p in params:
        check_int(p, "params", None)
    w = np.asarray(omega_grid, dtype=float)
    if w.size == 0 or not np.all(np.isfinite(w)):
        raise ValueError("omega_grid must be nonempty and finite")
    name = f"identities/{which}/params={tuple(int(p) for p in params)}"
    return _report((name, IDENTITIES[which](tuple(params), w), None, ALGEBRAIC_TOL, dict(
        grid_size=int(w.size), omega_min=float(w.min()), omega_max=float(w.max()))))


def suite_identities(seed: int) -> Iterator:
    grid = np.linspace(-20.0, 20.0, 50)
    ks = range(-6, 7)
    for m in range(-6, 7):
        yield check_identity("conjugate_symmetry", (m,), grid)
        for which in ("shift", "multiplication"):
            yield (f"identities/{which}/m={m}/max_over_k",
                   [check_identity(which, (m, k), grid).computed for k in ks],
                   None, ALGEBRAIC_TOL, dict(k_min=-6, k_max=6))
    for nu in range(7):
        yield check_identity("binomial", (nu,), grid)
    # |phi_hat_m| is sqrt(2)/sqrt(1+w^2) for every m
    modulus = math.sqrt(2.0) / np.sqrt(1 + grid**2)
    yield ("identities/modulus/max_over_m",
           [np.abs(np.abs(laguerre_fn_ft(m, grid)) - modulus) for m in range(-6, 7)],
           None, ALGEBRAIC_TOL, {})


def _null_annihilation_residuals(nu: int, t: float) -> np.ndarray:
    """|(D+1)^{nu+1} psi0_m(t)|, m = 0..nu, at a positive t, as
    e^{-t} D^{nu+1}(e^t psi0_m): e^t psi0_m is a polynomial of degree <= nu
    on t > 0, so the forward difference of order nu + 1 cancels it exactly,
    and the step h = 0.05 keeps the float64 roundoff of the differences small."""
    h, k = 0.05, nu + 1
    pts = t + h * np.arange(k + 1)
    coeffs = np.array([(-1.0) ** (k - j) * math.comb(k, j) for j in range(k + 1)])
    vals = np.exp(pts) * _m._basis_block(nu, 0, pts)
    return np.abs(math.exp(-t) * (vals @ coeffs) / h**k)


def suite_matern(seed: int) -> Iterator:
    grid = DEFAULT_GRID
    # Gram matrices, m < 64: diagonal = the exact norms, off-diagonal = 0
    for nu in (0, 1, 2, 3, 4, 6, 10, 30, 100):
        rule = gauss_laguerre_rule(_QUAD_NODES, nu + 1.0)
        norms = [_m.matern_psi_norm_sq(_m.MaternOrder(nu), m) for m in range(64)]
        for kind, r in (("plus", rule), ("minus", rule.reflected())):
            yield _gram_row(f"matern/gram_{kind}/nu={nu}", f"matern_{kind}", r, norms, nu)
    # null-space symmetry psi0_{nu-m}(t) = (-1)^nu psi0_m(-t)
    for nu in range(7):
        block = _m._basis_block(nu, 0, np.concatenate([grid, -grid]))
        lhs, rhs = block[::-1, : grid.size], (-1.0) ** nu * block[:, grid.size :]
        yield f"matern/null_symmetry/nu={nu}", np.abs(lhs - rhs), None, ALGEBRAIC_TOL, {}
    # uniform bound over the unified two-sided index
    tgrid = np.linspace(-8.0, 8.0, 801)
    for nu in (*range(5), *_LARGE_NUS):
        bound = _m.matern_psi_bound(_m.MaternOrder(nu))
        # every null function and psi+-_0..psi+-_30
        peak = float(np.max(np.abs(_m._basis_block(nu, 31, tgrid))))
        yield (f"matern/uniform_bound/nu={nu}", peak - bound, None, ALGEBRAIC_TOL,
               dict(peak=peak, bound=bound))
    # opposite signs: the n = 1 truncation is already exact
    pairs = _sample_pairs(20, 0.1, 4.0, seed)
    for nu in (*range(4), *_LARGE_NUS):
        order = _m.MaternOrder(nu)
        tr = _m.MaternTruncation(order, 1)
        yield (f"matern/sign_split/nu={nu}",
               [abs(_m.matern_kernel(order, -a, b) - _m.matern_truncated(tr, -a, b))
                for a, b in pairs], None, ALGEBRAIC_TOL, {})
    # null-space sum reproduces the kernel at r(0, d); nu = 1, 2 are the
    # classical (1+d)e^-d and (1+d+d^2/3)e^-d closed forms
    dgrid = np.linspace(0.0, 6.0, 61)
    for nu in (*range(7), *_LARGE_NUS):
        block = _m._basis_block(nu, 0, np.concatenate([[0.0], dgrid]))
        nullsum = np.sum(block[:, :1] * block[:, 1:], axis=0)
        yield (f"matern/null_reconstruction/nu={nu}",
               np.abs(nullsum - _m.matern_kernel(_m.MaternOrder(nu), 0.0, dgrid)),
               None, ALGEBRAIC_TOL, {})
    # annihilation by (D+1)^{nu+1} on the positive half line
    for nu in range(4):
        yield (f"matern/null_annihilation/nu={nu}",
               [_null_annihilation_residuals(nu, t) for t in (0.5, 1.0, 1.7, 2.5)],
               None, 1e-4, {})
    # exact Hilbert--Schmidt error vs the n^{-(nu+1/2)} bound: a ratio in (0, 1]
    for nu in range(5):
        order = _m.MaternOrder(nu)
        for n in (1, 2, 4, 8, 16, 32, 64):
            exact = _m.matern_exact_hs_error(order, n)
            bound = _m.matern_truncation_error_bound(order, n)
            yield (f"matern/nu={nu}/hs_ratio/n={n}", exact / bound, 0.5, 0.5,
                   dict(exact=exact, bound=bound))
    # the nu = 0 tail is the trigamma psi'(n+1) = pi^2/6 - sum_{k<=n} 1/k^2
    order0 = _m.MaternOrder(0)
    for n in (1, 7, 64):
        trigamma = math.pi**2 / 6.0 - math.fsum(1.0 / k**2 for k in range(1, n + 1))
        yield (f"matern/hs_trigamma/n={n}", _m.matern_exact_hs_error(order0, n),
               math.sqrt(2.0 * trigamma), 1e-14, {})
    # pointwise convergence of the truncated kernel (slow for small nu)
    for nu, tol in ((0, 5e-2), (1, 5e-3), (3, 1e-6)):
        yield from truncation_sweep("matern", [1, 2, 4, 8, 16, 32, 64, 128, 256],
                                    _sample_pairs(20, -3.0, 3.0, seed), nu=nu, pointwise_tol=tol)
    # feature map factorises the truncated kernel
    tr = _m.MaternTruncation(_m.MaternOrder(1), 8)
    pts = np.linspace(-3.0, 3.0, 13)
    F = np.vstack([_m.matern_feature_map(tr, p) for p in pts])
    direct = _m.matern_truncated(tr, pts[:, None], pts[None, :])
    yield "matern/feature_factorization/nu=1", np.abs(F @ F.T - direct), None, 1e-13, {}


def suite_cauchy(seed: int) -> Iterator:
    grid = DEFAULT_GRID
    psi = _c.cauchy_psi_complex
    # real basis from the recurrence block vs sqrt(2) Re/Im of psi_m
    derived = math.sqrt(2.0) * np.array([psi(m, grid) for m in range(13)])
    direct = _c._real_basis_block(13, grid)
    for kind, part, rows in (("alpha", derived.real, direct[:13]),
                             ("beta", derived.imag, direct[13:])):
        yield f"cauchy/real_basis_consistency/{kind}", np.abs(rows - part), None, ALGEBRAIC_TOL, {}
    # conjugate symmetry psi_m^*(t) = -psi_{-m-1}(t) = psi_m(-t)
    conj = {m: np.conj(psi(m, grid)) for m in range(-6, 7)}
    yield ("cauchy/conjugate_symmetry",
           [np.abs(c + psi(-m - 1, grid)) for m, c in conj.items()]
           + [np.abs(c - psi(m, -grid)) for m, c in conj.items()], None, ALGEBRAIC_TOL, {})
    pairs = _sample_pairs(20, -3.0, 3.0, seed)
    # geometric closed form of the positive-index partial sums
    for n in (1, 7, 40):
        yield (f"cauchy/geometric_partial/n={n}",
               [abs(sum(np.conj(psi(m, t)) * psi(m, u) for m in range(n))
                    - _c.cauchy_partial_sum_closed_form(n, t, u)) for t, u in pairs],
               None, ALGEBRAIC_TOL, {})
    # n -> infinity limit of the geometric sum; the tail |first q^n/(1-q)|
    # reaches 3.5e-10 at n = 200 on [-3, 3]^2 but stays below 1e-14 at n = 300
    yield ("cauchy/geometric_limit/n=300",
           [abs(_c.cauchy_partial_sum_closed_form(300, t, u)
                - 0.5 / ((-1j * t - 1.0) * (1j * u - 1.0) - t * u)) for t, u in pairs],
           None, 1e-10, {})
    # complex and real expansions agree group-by-group
    yield ("cauchy/two_expansions/n<=64",
           [abs(sum((np.conj(psi(m, t)) * psi(m, u)).real for m in range(-n, n))
                - _c.cauchy_truncated(1.0, n, t, u))
            for n in (1, 2, 4, 8, 16, 32, 64) for t, u in pairs[:8]], None, ALGEBRAIC_TOL, {})
    # kernel reconstruction and the finite reduction at the origin
    yield from truncation_sweep("cauchy", [1, 4, 16, 64, 256, 400], pairs, pointwise_tol=1e-10)
    tgrid = np.linspace(-4.0, 4.0, 81)
    yield ("cauchy/origin_reduction",
           np.abs(_c.cauchy_truncated(1.0, 1, tgrid, 0.0) - 1.0 / (tgrid**2 + 1.0)),
           None, ALGEBRAIC_TOL, {})
    # |psi_m(t)| <= 2^{-1/2} |t|^m (t^2+1)^{-(m+1)/2} <= 2^{-1/2}
    yield ("cauchy/modulus_envelope",
           [np.abs(psi(m, grid)) - 2.0**-0.5 * np.abs(grid) ** m / (grid**2 + 1.0) ** ((m + 1) / 2.0)
            for m in range(31)], None, ALGEBRAIC_TOL, {})


def mehler_check(rho: float, x: float, y: float) -> VerificationReport:
    """Check the bilinear Hermite generating series against its closed form to MEHLER_TOL.

    Series: sum_m (rho/2)^m / m! H_m(x) H_m(y) e^{-(x^2+y^2)/2} = sqrt(pi)
    sum_m rho^m h_m(x) h_m(y), with h_m the Hermite functions, the rows of
    one ``gaussian._hermite_rows`` block.  Cramer's inequality |h_m| <= k pi^{-1/4},
    k = 1.086435, bounds the tail after M terms by k^2 |rho|^M / (1 - |rho|),
    and M is the least count that puts it below 1e-16 (ValueError past 500).
    Closed form: (1-rho^2)^{-1/2} exp((4 x y rho - (1+rho^2)(x^2+y^2)) / (2(1-rho^2))).
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"rho must satisfy |rho| < 1, got {rho}")
    a = abs(rho)
    terms = 1 if a == 0 else math.ceil(math.log(1e-16 * (1 - a) / 1.086435**2) / math.log(a))
    if terms > 500:
        raise ValueError(f"rho={rho}: the tail bound needs {terms} terms, past the 500-term limit")
    h = _g._hermite_rows(terms, *_g._HERMITE_FN, np.array([x, y], dtype=float))
    total = math.sqrt(math.pi) * float(rho ** np.arange(terms) @ (h[:, 0] * h[:, 1]))
    closed = math.sqrt(1.0 / (1.0 - rho * rho)) * math.exp(
        (4.0 * x * y * rho - (1.0 + rho * rho) * (x * x + y * y)) / (2.0 * (1.0 - rho * rho))
    )
    return _report((f"gaussian/mehler/rho={rho:g}/x={x:g}/y={y:g}", total, closed, MEHLER_TOL,
                    dict(terms=terms, rho=rho, x=x, y=y)))


def suite_gaussian(seed: int) -> Iterator:
    grid = DEFAULT_GRID
    hr = gauss_hermite_rule(_QUAD_NODES)
    # Gram matrices, m < 64: Hermite functions and Mercer eigenfunctions are
    # orthonormal, the basis under the Gaussian weight has norms 2/3^{m+1}
    for name, family, norms in (("hermite_fn_orthonormal", "hermite_fn", np.ones(64)),
                                ("mercer_orthonormal", "mercer", np.ones(64)),
                                ("psi_gram", "gaussian_psi", 2.0 / 3.0 ** np.arange(1.0, 65.0))):
        yield _gram_row(f"gaussian/{name}", family, hr, norms)
    # sqrt(mu_m) theta_m == psi_m at alpha = sqrt(2/3)
    params = _g.MercerParams(_g.MERCER_ALPHA_DEFAULT)
    sqrt_mu = np.sqrt([_g.mercer_eigenvalue(params, m) for m in range(16)])
    lhs = sqrt_mu[:, None] * _g._hermite_rows(16, *_g._mercer_form(params), grid)
    yield ("gaussian/mercer_relation", np.abs(lhs - _g._psi_block(16, grid)),
           None, ALGEBRAIC_TOL, {})
    # eigenvalues sum to their geometric closed form
    s = _g._mercer_s(params)
    closed = math.sqrt(params.alpha**2 / s) / (1.0 - 0.5 / s)
    partial = sum(_g.mercer_eigenvalue(params, m) for m in range(80))
    yield "gaussian/eigenvalue_sum", partial, closed, 1e-12, {}
    # exact Hilbert--Schmidt error vs tensor quadrature on the Hermite rule
    t_nodes = hr.nodes / _g.MERCER_ALPHA_DEFAULT
    w2 = np.outer(hr.weights, hr.weights) / math.pi
    T, U = np.meshgrid(t_nodes, t_nodes, indexing="ij")
    scale = _g.GaussianScale(1.0)
    r_full = _g.gaussian_kernel(scale, T, U)
    for n in range(1, 7):
        r_n = _g.gaussian_truncated(scale, n, T, U)
        quad = math.sqrt(float(np.sum(w2 * (r_full - r_n) ** 2)))
        exact = _g.gaussian_truncation_error(n)
        yield f"gaussian/hs_quadrature/n={n}", quad, exact, 1e-6 * exact, dict(nodes=_QUAD_NODES)
    # Mehler series vs closed form on a 5x5 grid at rho = 1/3
    mgrid = np.linspace(-2.0, 2.0, 5)
    yield ("gaussian/mehler_grid",
           [mehler_check(1.0 / 3.0, float(x), float(y)).abs_error for x in mgrid for y in mgrid],
           None, MEHLER_TOL, {})
    # rho = 1/3 substitution reproduces the kernel
    pairs = _sample_pairs(20, -3.0, 3.0, seed)
    root3 = math.sqrt(3.0)
    yield ("gaussian/mehler_kernel",
           [abs((2.0 * math.sqrt(2.0) / 3.0) * math.exp((t * t + u * u) / 3.0)
                * mehler_check(1.0 / 3.0, 2.0 * t / root3, 2.0 * u / root3).computed
                - _g.gaussian_kernel(scale, t, u)) for t, u in pairs], None, MEHLER_TOL, {})
    # multiplication theorem: psi_m as a combination of Hermite functions;
    # matching the m = 0 term pins the constant at (2 sqrt(2 pi)/3)^{1/2}
    tg = np.linspace(-4.0, 4.0, 41)
    hermite = _g._hermite_rows(21, *_g._HERMITE_FN, math.sqrt(2.0 / 3.0) * tg)
    psi = _g._psi_block(21, tg)

    def reexpressed(m: int) -> np.ndarray:
        logc0 = 0.5 * (
            math.log(2.0 * math.sqrt(2.0 * math.pi) / 3.0)
            + m * math.log(2.0 / 3.0)
            + math.lgamma(m + 1)
        )
        return sum(
            math.exp(logc0 - k * math.log(4.0) - math.lgamma(k + 1)
                     - 0.5 * math.lgamma(m - 2 * k + 1)) * hermite[m - 2 * k]
            for k in range(m // 2 + 1)
        )

    yield ("gaussian/hermite_reexpression", [np.abs(reexpressed(m) - psi[m]) for m in range(21)],
           None, 1e-10, {})
    # kappa = 1 reduces the generalised basis to the standard one
    scaled = _g._hermite_rows(13, *_g._scaled_form(1.0), grid)
    yield ("gaussian/scaled_kappa1", np.abs(scaled - _g._psi_block(13, grid)),
           None, ALGEBRAIC_TOL, {})
    # generalised basis still reproduces the kernel pointwise (kappa = 0.7)
    t, u = np.array(pairs[:8]).T
    block = _g._hermite_rows(120, *_g._scaled_form(0.7), np.concatenate([t, u]))
    acc = np.sum(block[:, : t.size] * block[:, t.size :], axis=0)
    yield ("gaussian/scaled_kappa0.7_converges", np.abs(acc - _g.gaussian_kernel(scale, t, u)),
           None, 1e-8, {})
    # truncated kernels dip negative for small n
    tg = np.linspace(-6.0, 6.0, 1201)
    for n in (3, 11):
        low = float(np.min(_g.gaussian_truncated(scale, n, tg, 0.0)))
        yield f"gaussian/negative_exhibit/n={n}", low + 1e-6, None, 0.0, dict(min_value=low)
    # pointwise convergence at n = 60
    yield from truncation_sweep("gaussian", [1, 2, 4, 8, 16, 32, 60], pairs, pointwise_tol=1e-8)
    # krr's Gram matrix of raw rows from its first row and last column,
    # against U U^T, normwise on the scaled rows
    rows, s, edges = _g._psi_raw(64)
    u = rows(np.random.default_rng(seed).uniform(-4.0, 4.0, 2000))
    gram = edges(u @ u[0], u @ u[-1])
    ss = np.outer(s, s)
    dev = float(np.max(np.abs((gram - u @ u.T) * ss)) / np.max(np.abs(u @ u.T * ss)))
    yield "gaussian/krr_gram_identity", dev, None, 1e-14, {}


def suite_oracle(seed: int) -> Iterator:
    grid = [float(t) for t in DEFAULT_GRID]

    def deviations(nu: int, kind: str, ms, shift: int) -> list[float]:
        # oracle at unified index m + shift against the closed form of (kind, m)
        order = _m.MaternOrder(nu)
        return [abs(convolution_oracle("matern", m + shift, t, nu=nu)
                    - _m.matern_psi(order, _m.MaternBasisId(kind, m), t))
                for m in ms for t in grid]

    for nu in range(4):
        yield (f"oracle/matern_plus/nu={nu}", deviations(nu, "plus", range(9), 0),
               None, 1e-6, dict(m_max=8, grid=len(grid)))
    # the convolution vanishes identically left of the origin
    yield ("oracle/matern_negative_side",
           [abs(convolution_oracle("matern", m, t, nu=1)) for m in range(9)
            for t in (-3.0, -1.0, -0.25)], None, ALGEBRAIC_TOL, {})
    # null-space members come out of the same convolution at negative indices
    for nu in range(3):
        yield (f"oracle/matern_null/nu={nu}", deviations(nu, "null", range(nu + 1), -nu - 1),
               None, 1e-6, {})
    yield ("oracle/gaussian",
           [abs(convolution_oracle("gaussian", m, t) - _g.gaussian_psi(m, t))
            for m in range(11) for t in grid], None, 1e-6, dict(m_max=10))


_SUITES = {
    "identities": suite_identities,
    "matern": suite_matern,
    "cauchy": suite_cauchy,
    "gaussian": suite_gaussian,
    "oracle": suite_oracle,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Run one named suite (or ``all``), sorted by check name.

    Every report is built here, from the suites' rows, by :func:`_report`;
    ``seed`` draws the random inputs of the checks that take them.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    suites = _SUITES.values() if name == "all" else [_SUITES[name]]
    reports = [_report(row) for suite in suites for row in suite(seed)]
    return sorted(reports, key=lambda r: r.check_name)
