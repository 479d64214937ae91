"""Verification report record shared by the identity checkers and the harness."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["VerificationReport"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named numerical check.

    ``abs_error = |computed - reference|`` and ``passed = abs_error <=
    tolerance`` are derived on construction and cannot be passed in, so a
    non-finite ``computed`` (a NaN or infinite error) fails instead of
    raising.  For grid checks ``computed`` is the maximum deviation and
    ``reference`` is 0.
    """

    check_name: str
    computed: float
    reference: float
    abs_error: float = field(init=False)
    tolerance: float
    passed: bool = field(init=False)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("computed", "reference", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "abs_error", abs(self.computed - self.reference))
        object.__setattr__(self, "passed", self.abs_error <= self.tolerance)

    @classmethod  # for perfbench/tests; the package calls the constructor
    def scalar_check(cls, name: str, computed: float, reference: float,
                     tolerance: float, **metadata) -> "VerificationReport":
        return cls(name, computed, reference, tolerance, metadata)

    def to_dict(self) -> dict:
        return asdict(self)
