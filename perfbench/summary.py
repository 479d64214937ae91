"""Sample statistics and failure accounting shared by every workload."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.  A percentile is reported only
# when at least MIN_BEYOND samples lie beyond it, so it rests on real data.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def nearest_rank(samples, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile with at least MIN_BEYOND samples beyond it.

    Returns ``(p, value)``, or ``None`` when there are too few samples for
    even the median to qualify.
    """
    n = len(samples)
    best = None
    for p in TAIL_PERCENTILES:
        # samples strictly above the nearest-rank position
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    if best is None:
        return None
    return best, nearest_rank(samples, best)


def describe(samples, unit: str, higher_is_better: bool = False) -> dict:
    """Median, quartiles, sample count and tail percentile of a sample list.

    The tail is taken on the bad side: high values for a time, low values
    (reported as the percentile from the top) for a rate.
    """
    values = list(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    sign = -1.0 if higher_is_better else 1.0
    tail = tail_percentile([sign * v for v in values])
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "tail": None if tail is None else {
            "p": tail[0], "side": "low" if higher_is_better else "high",
            "value": sign * tail[1]},
        "unit": unit,
    }


class Tally:
    """Counts attempted and failed operations and keeps the first reasons.

    An operation fails when it raises, returns a non-finite value or misses
    its reference check; a checker may also report several sub-results
    (one per verification check) as separate attempts.
    """

    MAX_REASONS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        room = self.MAX_REASONS - len(self.reasons)
        self.reasons.extend(problems[:room])

    def raised(self, label: str, exc: BaseException) -> None:
        self.add(1, [f"{label}: raised {exc!r}"])

    def check(self, label: str, check, result) -> None:
        """Run ``check(result) -> (attempted, problems)`` and record it."""
        try:
            attempted, problems = check(result)
        except (ArithmeticError, ValueError, TypeError, IndexError) as exc:
            attempted, problems = 1, [f"check raised {exc!r}"]
        self.add(attempted, [f"{label}: {p}" for p in problems])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
