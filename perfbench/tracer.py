"""Outside-in trace of kernelbasis: spans recorded around public functions.

The tracer changes no file under ``src/``.  While installed it replaces every
public function (a name in a module's ``__all__`` that the module defines)
with a wrapper, both at the module attribute and in every ``kernelbasis``
namespace that imported the same object, so calls between modules nest:
``krr_fit_predict -> features`` and ``laguerre_fn -> laguerre`` become parent
and child spans.  Private ``_``-functions are not wrapped; their time stays
in the self time of the public caller.  ``numpy.polynomial.legendre.leggauss``
is wrapped to count Gauss--Legendre rules, without a span.

Spans are kept in memory with their parent and summarised after the pass.
The wrapper's own bookkeeping (counting points, finding distinct inputs)
runs outside the span it belongs to, and the parent discounts the whole
child interval, so bookkeeping lands in no module's self time; it shows up
only in the traced pass's time, i.e. in ``trace.overhead_s``.  Spans are
timed with ``time.perf_counter`` (wall time), which costs a fraction of the
CPU-time clock the passes use; tracing is single-threaded, so the two agree
but for time the host takes the CPU away.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.legendre as _legendre

MODULES = (
    "orthopoly",
    "laguerre",
    "matern",
    "cauchy",
    "gaussian",
    "featuremap",
    "quadrature",
    "verify",
)


@dataclass
class Span:
    module: str
    name: str
    parent: int | None
    points: int
    distinct: int
    # outer interval includes the wrapper's bookkeeping, inner does not
    outer_start: float = 0.0
    start: float = 0.0
    end: float = 0.0
    outer_end: float = 0.0


def count_points(args, kwargs) -> tuple[int, list[np.ndarray]]:
    """Array elements among the arguments (plain numbers count as none)."""
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    return sum(a.size for a in arrays), arrays


def count_distinct(arrays: list[np.ndarray]) -> int:
    if not arrays:
        return 0
    flat = np.concatenate([np.ravel(a) for a in arrays])
    return int(np.unique(flat).size)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-module self time: each span's inner duration minus the part of it
    that its child spans' outer intervals cover.

    A child in the same module (recursion) is discounted from its parent and
    counted once as its own span, so nothing is counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.outer_start, span.outer_end))
    out: dict[str, float] = {}
    for i, span in enumerate(spans):
        covered = _covered(children.get(i, []), span.start, span.end)
        out[span.module] = out.get(span.module, 0.0) + (span.end - span.start) - covered
    return out


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarise(spans: list[Span], legendre_rules: int) -> dict[str, float]:
    """Per-pass layer numbers: self time, calls and points per module, the
    distinct-input ratio of orthopoly and the Gauss--Legendre rule count."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for m in MODULES:
        mine = [s for s in spans if s.module == m]
        out[f"{m}.self_s"] = selfs.get(m, 0.0)
        out[f"{m}.calls"] = len(mine)
        out[f"{m}.points"] = sum(s.points for s in mine)
    ortho = [s for s in spans if s.module == "orthopoly"]
    points = sum(s.points for s in ortho)
    out["orthopoly.distinct_ratio"] = (
        sum(s.distinct for s in ortho) / points if points else 1.0
    )
    out["quadrature.legendre_rules"] = legendre_rules
    return out


class Tracer:
    """Installs span wrappers on kernelbasis and counts Legendre rules.

    Use as a context manager around one pass; ``spans`` and
    ``legendre_rules`` hold that pass's records afterwards.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.legendre_rules = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.spans, self.legendre_rules, self._stack = [], 0, []
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "kernelbasis" or name.startswith("kernelbasis.")
        ]
        for short in MODULES:
            module = importlib.import_module(f"kernelbasis.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(short, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        self._patch(_legendre, "leggauss", self._count_legendre(_legendre.leggauss))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count_legendre(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.legendre_rules += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, module: str, fn):
        # only orthopoly's inputs are checked for repeats (distinct_ratio)
        distinct_wanted = module == "orthopoly"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            points, arrays = count_points(args, kwargs)
            distinct = count_distinct(arrays) if distinct_wanted else 0
            span = Span(module, fn.__name__, self._stack[-1] if self._stack else None,
                        points, distinct, outer_start)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                span.outer_end = clock()

        return traced
