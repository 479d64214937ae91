"""Tests of the benchmark's own arithmetic: self time, tail percentile and
failure fraction.  Run with ``python3 -m pytest perfbench/tests -q``."""

import numpy as np
import pytest

import run
import summary
import workloads
from tracer import Span, Tracer, self_times, summarise


def span(module, parent, outer, inner=None, points=0, distinct=0):
    inner = inner or outer
    return Span(module, "f", parent, points, distinct,
                outer_start=outer[0], start=inner[0], end=inner[1], outer_end=outer[1])


def test_self_time_discounts_children_and_same_module_recursion():
    spans = [
        span("matern", None, (0.0, 10.0)),
        # recursion into matern; its bookkeeping (outer minus inner) is 1 s
        span("matern", 0, (1.0, 4.0), (1.5, 3.5)),
        span("laguerre", 1, (2.0, 3.0)),
        span("orthopoly", 0, (5.0, 7.0)),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"matern": 5.0 + 1.0, "laguerre": 1.0, "orthopoly": 2.0})
    # bookkeeping lands in no module: the self times sum to the wall time less it
    assert sum(got.values()) == pytest.approx(10.0 - 1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("featuremap", None, (0.0, 4.0)),
        span("orthopoly", 0, (1.0, 3.0)),
        span("orthopoly", 0, (2.0, 3.5)),
    ]
    assert self_times(spans)["featuremap"] == pytest.approx(1.5)


def test_summarise_counts_calls_points_and_distinct_ratio():
    spans = [
        span("gaussian", None, (0.0, 2.0), points=10),
        span("orthopoly", 0, (0.5, 1.0), points=10, distinct=4),
        span("orthopoly", 0, (1.0, 1.5), points=30, distinct=6),
    ]
    out = summarise(spans, legendre_rules=3)
    assert out["orthopoly.calls"] == 2
    assert out["orthopoly.points"] == 40
    assert out["orthopoly.distinct_ratio"] == pytest.approx(10 / 40)
    assert out["quadrature.legendre_rules"] == 3
    assert out["verify.calls"] == 0 and out["verify.self_s"] == 0.0


def test_tracer_nests_calls_across_modules_and_restores_them():
    import kernelbasis as kb

    spec = kb.FeatureMapSpec("gaussian", n=4)
    x = np.linspace(-1.0, 1.0, 7)
    original = kb.features
    with Tracer() as tr:
        kb.krr_fit_predict(spec, x, np.sin(x), 1e-3, x[:3])
        kb.laguerre_fn(2, x)
    assert kb.features is original
    by_name = {s.name: s for s in tr.spans}
    top = tr.spans.index(by_name["krr_fit_predict"])
    assert [s.name for s in tr.spans if s.parent == top] == ["features", "features"]
    lag = tr.spans.index(by_name["laguerre_fn"])
    assert [tr.spans[i].module for i in range(len(tr.spans)) if tr.spans[i].parent == lag] \
        == ["orthopoly"]
    assert by_name["laguerre_fn"].points == 7


@pytest.mark.parametrize("n, p, rank", [
    (9, None, None), (19, None, None), (20, 50.0, 10), (40, 75.0, 30),
    (100, 90.0, 90), (199, 90.0, 180), (200, 95.0, 190), (1000, 99.0, 990),
    (10000, 99.9, 9990),
])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, p, rank):
    samples = list(range(n, 0, -1))  # values 1..n in any order: value == rank
    got = summary.tail_percentile(samples)
    if p is None:
        assert got is None
    else:
        assert got == (p, rank)
        assert n - rank >= summary.MIN_BEYOND


def test_describe_takes_the_tail_of_a_rate_on_the_low_side():
    rates = list(range(1, 21))  # 20 samples: the 50th percentile qualifies
    assert summary.describe(rates, "1/s")["tail"] == {"p": 50.0, "side": "high", "value": 10}
    low = summary.describe(rates, "1/s", higher_is_better=True)["tail"]
    assert low == {"p": 50.0, "side": "low", "value": 11}


def test_failure_fraction_counts_raises_and_non_finite_results():
    def boom():
        raise ValueError("bad input")

    check = workloads._array_check((2,), lambda arr: (0.0, 1.0))
    ops = [
        workloads.Op("raises", "a", boom, check, lambda _: 2),
        workloads.Op("nan", "a", lambda: np.array([1.0, np.nan]), check, lambda _: 2),
        workloads.Op("ok", "b", lambda: np.array([1.0, 2.0]), check, lambda _: 2),
    ]
    tally = summary.Tally()
    totals = run.run_pass(workloads.Workload("w", "items", ops), tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)
    assert totals["items"] == 4  # the raising call completed nothing
    assert len(tally.reasons) == 2


def test_failed_verification_checks_count_each_check():
    from kernelbasis.report import VerificationReport

    reports = [
        VerificationReport.scalar_check("ok", 1.0, 1.0, 1e-12),
        VerificationReport.scalar_check("off", 1.0, 2.0, 1e-12),
    ]
    attempted, problems = workloads.check_reports(reports)
    assert attempted == 2 and len(problems) == 1
