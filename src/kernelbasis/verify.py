"""Verification harness: every identity, bound and error formula as a check.

The module provides three reusable operations (a convolution oracle for the
basis construction, weighted Gram matrices, and truncation-error sweeps)
plus named suites that bundle them into checks.  A suite is a table of
check rows ``(name, computed, reference, tolerance, metadata)``, and
:func:`run_suite` alone turns rows into :class:`VerificationReport`, so a
new check is one more row.  Gram matrices and the suites evaluate the
package's own basis blocks, once per grid; the convolution oracle alone
keeps the raw polynomial evaluators, because it is the independent check.
All randomness is drawn from a fixed seed so reports are bit-reproducible
on one platform.
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
from .laguerre import check_identity, laguerre_fn_ft
from .orthopoly import hermite_normalized, laguerre
from .quadrature import (
    NEGATIVE_HALF_LINE,
    POSITIVE_HALF_LINE,
    REAL_LINE,
    QuadratureRule,
    gauss_hermite_rule,
    gauss_laguerre_rule,
    _legendre_panel,
)
from .report import VerificationReport

__all__ = [
    "VerificationReport",
    "DEFAULT_SEED",
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
QUADRATURE_TOL = 1e-8
# large orders of the Matern checks that need no quadrature rule
_LARGE_NUS = (30, 100, 300)


# ---------------------------------------------------------------------------
# convolution oracle


def _panel_integral(f, a: float, b: float, panels: int, nodes: int = 32) -> float:
    total = 0.0
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = _legendre_panel(nodes, lo, hi)
        total += float(w @ f(x))
    return total


def _refined_integral(f, a: float, b: float, tol: float = 1e-12,
                      max_refine: int = 8, label: str = "") -> float:
    if b <= a:
        return 0.0
    prev = _panel_integral(f, a, b, 1)
    panels = 2
    for _ in range(max_refine):
        cur = _panel_integral(f, a, b, panels)
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        panels *= 2
    raise RuntimeError(
        f"panel refinement did not converge for {label or 'integral'} on "
        f"[{a}, {b}]: last estimates {prev!r} vs {cur!r} at {panels} panels"
    )


def _h_matern(nu: int, x: np.ndarray) -> np.ndarray:
    # spectral square-root in time domain: vanishes on the negative axis
    c = 2.0 ** (nu + 0.5) * math.exp(math.lgamma(nu + 1) - 0.5 * math.lgamma(2 * nu + 1))
    pos = x >= 0
    xp = np.where(pos, x, 0.0)
    return np.where(pos, c * xp**nu * np.exp(-xp) / math.factorial(nu), 0.0)


def convolution_oracle(family: str, m: int, t: float, nu: int | None = None) -> float:
    """Numerically evaluate the defining convolution int h(t - tau) phi_m(tau) dtau.

    ``family`` is ``matern`` (requires ``nu``; any integer index m) or
    ``gaussian`` (m >= 0).  Shares only the raw polynomial evaluators with
    the closed-form basis code, so agreement is an independent check.
    """
    if family == "matern":
        check_int(nu, "nu")
        if m >= 0:
            # phi_m lives on [0, inf), h on [0, inf): support is [0, t]
            if t <= 0:
                return 0.0

            def f(tau):
                phi = math.sqrt(2.0) * laguerre(m, 2.0 * tau) * np.exp(-tau)
                return _h_matern(nu, t - tau) * phi

            return _refined_integral(f, 0.0, t, label=f"matern conv m={m}")
        mm = -m - 1
        lo = min(t, 0.0) - 45.0  # phi_{-mm-1} decays like e^{tau}
        hi = min(t, 0.0)

        def f(tau):
            phi = -math.sqrt(2.0) * laguerre(mm, -2.0 * tau) * np.exp(tau)
            return _h_matern(nu, t - tau) * phi

        return _refined_integral(f, lo, hi, label=f"matern conv m={m}")
    if family == "gaussian":
        check_int(m, "m")
        # complete the square: the integral becomes Gauss--Hermite in
        # s = sqrt(3/2) (tau - 2t/3)
        rule = gauss_hermite_rule(max(64, m // 2 + 8))
        tau = math.sqrt(2.0 / 3.0) * rule.nodes + 2.0 * t / 3.0
        acc = float(rule.weights @ hermite_normalized(m, tau))
        return (
            2.0**0.25
            * math.pi**-0.5
            * math.sqrt(2.0 / 3.0)
            * math.exp(-t * t / 3.0)
            * acc
        )
    raise ValueError(f"unknown family {family!r}; expected 'matern' or 'gaussian'")


# ---------------------------------------------------------------------------
# weighted Gram matrices

def _matern_rows(count: int, s: np.ndarray, nu, mercer) -> np.ndarray:
    # t = s/2 lies on the rule's half line, so the handed rows there are psi+
    # (s > 0) or psi-_{m,nu} (s < 0); the strip removes |s|^{nu+1} e^{-|s|}
    if nu is None:
        raise ValueError("matern gram needs nu")
    nu = _m.MaternOrder(nu).nu
    a = np.abs(s)
    return _m._handed_rows(nu, count, 0.5 * s) * (np.exp(0.5 * a) * a ** (-(nu + 1.0)))


def _hermite_fn_rows(count: int, s: np.ndarray, nu, mercer) -> np.ndarray:
    return _g._hermite_rows(count, *_g._HERMITE_FN, s) * np.exp(0.5 * s * s)


def _psi_rows(count: int, s: np.ndarray, nu, mercer) -> np.ndarray:
    # t = sqrt(3) s / 2 turns psi_m psi_k w_alpha dt, alpha = sqrt(2/3), into
    # (psi_m strip)(psi_k strip) e^{-s^2} ds
    const = math.sqrt(_g.MERCER_ALPHA_DEFAULT * math.sqrt(3.0) / (2.0 * math.sqrt(math.pi)))
    return _g._psi_block(count, math.sqrt(3.0) * s / 2.0) * (const * np.exp(0.25 * s * s))


def _mercer_rows(count: int, s: np.ndarray, nu, mercer) -> np.ndarray:
    params = mercer if mercer is not None else _g.MercerParams.from_alpha(_g.MERCER_ALPHA_DEFAULT)
    t = s / (params.alpha * params.beta)
    strip = math.pi**-0.25 / math.sqrt(params.beta) * np.exp(params.delta_sq * t * t)
    return _g._hermite_rows(count, *_g._mercer_form(params), t) * strip


# family -> (domain of its rule, message when the rule has another, rows
# m = 0..count-1 at the rule's nodes times the strip that reduces the
# weighted integrand to the rule's base weight)
_GRAM = {
    "matern_plus": (POSITIVE_HALF_LINE, "psi+ lives on the positive half line", _matern_rows),
    "matern_minus": (NEGATIVE_HALF_LINE, "psi- lives on the negative half line", _matern_rows),
    "hermite_fn": (REAL_LINE, "Hermite functions need a real-line rule", _hermite_fn_rows),
    "gaussian_psi": (REAL_LINE, "gaussian basis needs a real-line rule", _psi_rows),
    "mercer": (REAL_LINE, "mercer basis needs a real-line rule", _mercer_rows),
}
GRAM_FAMILIES = tuple(_GRAM)


def gram_matrix(family: str, indices, rule: QuadratureRule,
                nu: int | None = None,
                mercer: "_g.MercerParams | None" = None) -> np.ndarray:
    """Pairwise weighted inner products of basis functions under a rule.

    The weighted integrand is reduced to the rule's base weight by the
    documented change of variables for each family (s = 2t for the Matern
    classes, s proportional to t for the Gaussian ones).  The family's
    block is evaluated once at the rule's nodes, and the rows ``indices``
    (nonnegative, in any order) are taken from it.
    """
    if family not in _GRAM:
        raise ValueError(f"unknown gram family {family!r}; expected one of {GRAM_FAMILIES}")
    idx = list(indices)
    if not idx:
        raise ValueError("indices must be nonempty")
    for k, i in enumerate(idx):
        check_int(i, f"indices[{k}]")
    domain, message, rows = _GRAM[family]
    if rule.domain != domain:
        raise ValueError(f"{message}, rule has {rule.domain}")
    B = rows(max(idx) + 1, rule.nodes, nu, mercer)[idx]
    return (B * rule.weights) @ B.T


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
    value = float(np.max(computed))
    if reference is None:
        # np.maximum keeps a NaN, and puts 0.0 where the maximum is -0.0
        return VerificationReport.deviation_check(
            name, float(np.maximum(value, 0.0)), tolerance, **metadata)
    return VerificationReport.scalar_check(name, value, reference, tolerance, **metadata)


# ---------------------------------------------------------------------------
# truncation sweeps


def truncation_sweep(family: str, n_list, sample_pairs, nu: int | None = None,
                     lam: float = 1.0, pointwise_tol: float = 1e-6) -> list[VerificationReport]:
    """Truncation-error reports over increasing n.

    Emits the analytic weighted-HS check per n (exact value for Gaussian,
    exact-vs-bound ratio in (0, 1] for Matern), the max pointwise error at
    the final n against ``pointwise_tol``, and an error-decay check between
    the first and last n.
    """
    n_list = list(n_list)
    if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be nonempty and increasing")
    pairs = [(float(a), float(b)) for a, b in sample_pairs]
    if not pairs:
        raise ValueError("sample_pairs must hold at least one (t, u) pair")
    ts = np.array([p[0] for p in pairs])
    us = np.array([p[1] for p in pairs])
    kvals = FeatureMapSpec(family, lam, n_list[0], nu).kernel(ts, us)
    tag = f"{family}" + (f"/nu={nu}" if family == "matern" else "")

    def rows():
        errors = {}
        for n in n_list:
            trunc = FeatureMapSpec(family, lam, n, nu).truncated_kernel(ts, us)
            errors[n] = float(np.max(np.abs(kvals - trunc)))
            if family == "matern":
                order = _m.MaternOrder(nu, lam)
                exact = _m.matern_exact_hs_error(order, n)
                bound = _m.matern_truncation_error_bound(order, n)
                yield f"{tag}/hs_ratio/n={n}", exact / bound, 0.5, 0.5, dict(exact=exact, bound=bound)
            elif family == "gaussian":
                yield (f"{tag}/hs_exact/n={n}", _g.gaussian_truncation_error(n),
                       3.0 ** (-n) / math.sqrt(2.0), 1e-15, {})
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


def suite_identities(quad_nodes: int = 128, seed: int = DEFAULT_SEED) -> Iterator:
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


def _null_annihilation_residual(nu: int, m: int, t: float) -> float:
    """|(D+1)^{nu+1} psi0_m| at a positive t, by finite differences."""
    order = _m.MaternOrder(nu)
    bid = _m.MaternBasisId("null", m)
    stencils = {
        1: (np.array([-0.5, 0.0, 0.5]), 1),
        2: (np.array([1.0, -2.0, 1.0]), 2),
        3: (np.array([-0.5, 1.0, 0.0, -1.0, 0.5]), 3),
        4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 4),
    }
    if nu <= 2:
        # literal binomial expansion of (D+1)^{nu+1} at the stated step
        h = 1e-3
        total = _m.matern_psi(order, bid, t)
        for j in range(1, nu + 2):
            coeffs, power = stencils[j]
            offs = np.arange(len(coeffs)) - (len(coeffs) - 1) / 2.0
            vals = _m.matern_psi(order, bid, t + offs * h)
            total += math.comb(nu + 1, j) * float(coeffs @ vals) / h**power
    else:
        # (D+1)^{k} f = e^{-t} D^{k} (e^t f); e^t psi0 is a polynomial on
        # t > 0, so the stencil is exact and a larger step absorbs the
        # float64 roundoff that dominates 4th differences at h = 1e-3
        h = 0.05
        coeffs, power = stencils[nu + 1]
        offs = np.arange(len(coeffs)) - (len(coeffs) - 1) / 2.0
        pts = t + offs * h
        vals = np.exp(pts) * _m.matern_psi(order, bid, pts)
        total = math.exp(-t) * float(coeffs @ vals) / h**power
    return abs(total)


def suite_matern(quad_nodes: int = 128, seed: int = DEFAULT_SEED) -> Iterator:
    grid = DEFAULT_GRID
    # Gram matrices: diagonal = exact norms, off-diagonal = 0
    idx = list(range(13))
    for kind, nus in (("plus", range(5)), ("minus", (0, 2, 4))):
        for nu in nus:
            rule = gauss_laguerre_rule(quad_nodes, nu + 1.0)
            G = gram_matrix(f"matern_{kind}", idx, rule if kind == "plus" else rule.reflected(),
                            nu=nu)
            expected = np.diag([_m.matern_psi_norm_sq(_m.MaternOrder(nu), m) for m in idx])
            yield (f"matern/gram_{kind}/nu={nu}", np.abs(G - expected), None, QUADRATURE_TOL,
                   dict(nodes=quad_nodes, m_max=idx[-1]))
    # null-space symmetry psi0_{nu-m}(t) = (-1)^nu psi0_m(-t)
    for nu in range(7):
        block = _m._null_block(nu, np.concatenate([grid, -grid]))
        lhs, rhs = block[::-1, : grid.size], (-1.0) ** nu * block[:, grid.size :]
        yield f"matern/null_symmetry/nu={nu}", np.abs(lhs - rhs), None, ALGEBRAIC_TOL, {}
    # uniform bound over the unified two-sided index
    tgrid = np.linspace(-8.0, 8.0, 801)
    for nu in (*range(5), *_LARGE_NUS):
        bound = _m.matern_psi_bound(_m.MaternOrder(nu))
        # indices -30..30: every null function, psi+_0..psi+_30 (the handed
        # rows on t >= 0) and psi-_0..psi-_{28-nu} (the handed rows on t < 0).
        # From nu = 29 on those indices hold no psi-, so there the peak is
        # over the whole null block and 31 handed rows on either side
        handed = np.abs(_m._handed_rows(nu, 31, tgrid))
        minus = 29 - nu if nu < 29 else 31
        peak = float(np.max([np.max(np.abs(_m._null_block(nu, tgrid))),
                             np.max(handed[:, tgrid >= 0]), np.max(handed[:minus, tgrid < 0])]))
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
        block = _m._null_block(nu, np.concatenate([[0.0], dgrid]))
        nullsum = np.sum(block[:, :1] * block[:, 1:], axis=0)
        yield (f"matern/null_reconstruction/nu={nu}",
               np.abs(nullsum - _m.matern_kernel(_m.MaternOrder(nu), 0.0, dgrid)),
               None, ALGEBRAIC_TOL, {})
    # annihilation by (D+1)^{nu+1} on the positive half line
    for nu in range(4):
        yield (f"matern/null_annihilation/nu={nu}",
               [_null_annihilation_residual(nu, m, t)
                for m in range(nu + 1) for t in (0.5, 1.0, 1.7, 2.5)], None, 1e-4, {})
    # exact Hilbert--Schmidt error vs the n^{-(nu+1/2)} bound
    for nu in range(5):
        sweep = truncation_sweep(
            "matern", [1, 2, 4, 8, 16, 32, 64], _sample_pairs(20, -3.0, 3.0, seed),
            nu=nu, pointwise_tol=math.inf,
        )
        yield from (r for r in sweep if "hs_ratio" in r.check_name)
    # trigamma closed form for the nu = 0 tail, against scipy's as the reference
    from scipy.special import polygamma

    order0 = _m.MaternOrder(0)
    for n in (1, 7, 64):
        yield (f"matern/hs_trigamma/n={n}", _m.matern_exact_hs_error(order0, n),
               math.sqrt(2.0 * float(polygamma(1, n + 1))), 1e-14, {})
    # pointwise convergence of the truncated kernel (slow for small nu)
    for nu, tol in ((0, 5e-2), (1, 5e-3), (3, 1e-6)):
        sweep = truncation_sweep(
            "matern", [1, 2, 4, 8, 16, 32, 64, 128, 256],
            _sample_pairs(20, -3.0, 3.0, seed), nu=nu, pointwise_tol=tol,
        )
        yield from (r for r in sweep if "pointwise" in r.check_name)
    # feature map factorises the truncated kernel
    tr = _m.MaternTruncation(_m.MaternOrder(1), 8)
    pts = np.linspace(-3.0, 3.0, 13)
    F = np.vstack([_m.matern_feature_map(tr, p) for p in pts])
    direct = _m.matern_truncated(tr, pts[:, None], pts[None, :])
    yield "matern/feature_factorization/nu=1", np.abs(F @ F.T - direct), None, 1e-13, {}


def suite_cauchy(quad_nodes: int = 128, seed: int = DEFAULT_SEED) -> Iterator:
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
    sweep = truncation_sweep("cauchy", [1, 4, 16, 64, 256, 400], pairs, pointwise_tol=1e-10)
    yield from (r for r in sweep if "pointwise" in r.check_name)
    tgrid = np.linspace(-4.0, 4.0, 81)
    yield ("cauchy/origin_reduction",
           np.abs(_c.cauchy_truncated(1.0, 1, tgrid, 0.0) - 1.0 / (tgrid**2 + 1.0)),
           None, ALGEBRAIC_TOL, {})
    # |psi_m(t)| <= 2^{-1/2} |t|^m (t^2+1)^{-(m+1)/2} <= 2^{-1/2}
    yield ("cauchy/modulus_envelope",
           [np.abs(psi(m, grid)) - 2.0**-0.5 * np.abs(grid) ** m / (grid**2 + 1.0) ** ((m + 1) / 2.0)
            for m in range(31)], None, ALGEBRAIC_TOL, {})


def suite_gaussian(quad_nodes: int = 128, seed: int = DEFAULT_SEED) -> Iterator:
    grid = DEFAULT_GRID
    hr = gauss_hermite_rule(quad_nodes)
    # Hermite functions are orthonormal under the unit weight
    G = gram_matrix("hermite_fn", range(16), hr)
    yield "gaussian/hermite_fn_orthonormal", np.abs(G - np.eye(16)), None, 1e-10, {}
    # basis Gram under the Gaussian weight: diag = 2/3^{m+1}
    G = gram_matrix("gaussian_psi", range(13), hr)
    expected = np.diag([2.0 / 3.0 ** (m + 1) for m in range(13)])
    yield "gaussian/psi_gram", np.abs(G - expected), None, QUADRATURE_TOL, {}
    # Mercer eigenfunctions are orthonormal
    G = gram_matrix("mercer", range(13), hr)
    yield "gaussian/mercer_orthonormal", np.abs(G - np.eye(13)), None, 1e-10, {}
    # sqrt(mu_m) theta_m == psi_m at alpha = sqrt(2/3)
    params = _g.MercerParams.from_alpha(_g.MERCER_ALPHA_DEFAULT)
    sqrt_mu = np.sqrt([_g.mercer_eigenvalue(params, m) for m in range(16)])
    lhs = sqrt_mu[:, None] * _g._hermite_rows(16, *_g._mercer_form(params), grid)
    yield ("gaussian/mercer_relation", np.abs(lhs - _g._psi_block(16, grid)),
           None, ALGEBRAIC_TOL, {})
    # eigenvalues sum to their geometric closed form
    s = params.alpha**2 + params.delta_sq + 0.5
    closed = math.sqrt(params.alpha**2 / s) / (1.0 - 0.5 / s)
    partial = sum(_g.mercer_eigenvalue(params, m) for m in range(80))
    yield "gaussian/eigenvalue_sum", partial, closed, 1e-12, {}
    # exact Hilbert--Schmidt error vs 128-node tensor quadrature
    t_nodes = hr.nodes / _g.MERCER_ALPHA_DEFAULT
    w2 = np.outer(hr.weights, hr.weights) / math.pi
    T, U = np.meshgrid(t_nodes, t_nodes, indexing="ij")
    scale = _g.GaussianScale(1.0)
    r_full = _g.gaussian_kernel(scale, T, U)
    for n in range(1, 7):
        r_n = _g.gaussian_truncated(scale, n, T, U)
        quad = math.sqrt(float(np.sum(w2 * (r_full - r_n) ** 2)))
        exact = _g.gaussian_truncation_error(n)
        yield f"gaussian/hs_quadrature/n={n}", quad, exact, 1e-6 * exact, dict(nodes=quad_nodes)
    # Mehler series vs closed form on a 5x5 grid at rho = 1/3
    mgrid = np.linspace(-2.0, 2.0, 5)
    yield ("gaussian/mehler_grid",
           [_g.mehler_check(1.0 / 3.0, float(x), float(y)).abs_error for x in mgrid for y in mgrid],
           None, 1e-10, {})
    # rho = 1/3 substitution reproduces the kernel
    pairs = _sample_pairs(20, -3.0, 3.0, seed)
    root3 = math.sqrt(3.0)
    yield ("gaussian/mehler_kernel",
           [abs((2.0 * math.sqrt(2.0) / 3.0) * math.exp((t * t + u * u) / 3.0)
                * _g.mehler_check(1.0 / 3.0, 2.0 * t / root3, 2.0 * u / root3).computed
                - _g.gaussian_kernel(scale, t, u)) for t, u in pairs], None, 1e-10, {})
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
    sweep = truncation_sweep("gaussian", [1, 2, 4, 8, 16, 32, 60], pairs, pointwise_tol=1e-8)
    yield from (r for r in sweep if "pointwise" in r.check_name)
    # krr's Gram matrix of raw rows from its first row and last column,
    # against U U^T, normwise on the scaled rows
    rows, s, edges = _g._psi_raw(64)
    u = rows(np.random.default_rng(seed).uniform(-4.0, 4.0, 2000))
    gram = edges(u @ u[0], u @ u[-1])
    ss = np.outer(s, s)
    dev = float(np.max(np.abs((gram - u @ u.T) * ss)) / np.max(np.abs(u @ u.T * ss)))
    yield "gaussian/krr_gram_identity", dev, None, 1e-14, {}


def suite_oracle(quad_nodes: int = 128, seed: int = DEFAULT_SEED) -> Iterator:
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


def run_suite(name: str, tol: float | None = None, quad_nodes: int = 128,
              seed: int = DEFAULT_SEED) -> list[VerificationReport]:
    """Run one named suite (or ``all``), sorted by check name.

    Every report is built here, from the suites' rows, by :func:`_report`.
    ``tol`` overrides every report's tolerance (the pass flags are
    recomputed); ``quad_nodes`` sets the rule sizes of quadrature-backed
    checks.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    suites = _SUITES.values() if name == "all" else [_SUITES[name]]
    reports = [_report(row) for suite in suites for row in suite(quad_nodes=quad_nodes, seed=seed)]
    if tol is not None:
        reports = [r.with_tolerance(tol) for r in reports]
    return sorted(reports, key=lambda r: r.check_name)
