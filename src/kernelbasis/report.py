"""Verification report record shared by the identity checkers and the harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = ["VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named numerical check.

    For scalar checks ``abs_error == |computed - reference|``; for grid
    checks ``computed`` is the maximum deviation and ``reference`` is 0.
    ``passed`` always equals ``abs_error <= tolerance``, so a non-finite
    ``computed`` (a NaN or infinite error) fails instead of raising.
    """

    check_name: str
    computed: float
    reference: float
    abs_error: float
    tolerance: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expect = abs(self.computed - self.reference)
        both_nan = math.isnan(expect) and math.isnan(self.abs_error)
        if not (both_nan or self.abs_error == expect or abs(self.abs_error - expect) <= 1e-300):
            raise ValueError("abs_error must equal |computed - reference|")
        if self.passed != (self.abs_error <= self.tolerance):
            raise ValueError("passed must equal (abs_error <= tolerance)")

    @classmethod
    def scalar_check(cls, name: str, computed: float, reference: float,
                     tolerance: float, **metadata) -> "VerificationReport":
        err = abs(float(computed) - float(reference))
        return cls(
            check_name=name,
            computed=float(computed),
            reference=float(reference),
            abs_error=err,
            tolerance=float(tolerance),
            passed=err <= tolerance,
            metadata=metadata,
        )

    @classmethod
    def deviation_check(cls, name: str, max_deviation: float,
                        tolerance: float, **metadata) -> "VerificationReport":
        return cls.scalar_check(name, float(max_deviation), 0.0, tolerance, **metadata)

    def with_tolerance(self, tolerance: float) -> "VerificationReport":
        return replace(self, tolerance=float(tolerance),
                       passed=self.abs_error <= tolerance)

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "computed": self.computed,
            "reference": self.reference,
            "abs_error": self.abs_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "metadata": self.metadata,
        }
