#!/usr/bin/env python3
"""Compare two verification reports, as ``kernelbasis verify all --report`` writes them.

Prints every check whose ``computed`` value moved (name, old -> new, the
tolerance), every check whose ``abs_error`` drifted past a factor K either
way, every check added or removed, every changed tolerance and every check
that passed before and fails now (``failed NAME``), then one summary line.
Values are compared bit for bit, by their repr; errors at or below FLOOR
compare as FLOOR.  Exits 1 when a check is added or removed, a tolerance
changes, a passing check fails or an error drifts, else 0.  Tier-1 runs it
on a fresh report against ``tests/verify_baseline.jsonl``:

    kernelbasis verify all --report old.jsonl   # in the old checkout
    kernelbasis verify all --report new.jsonl   # in the new one
    python3 scripts/verify_diff.py old.jsonl new.jsonl
"""

import argparse
import json
import sys

# Measured with no code change (numpy's OpenBLAS 0.3.31, AVX-512 Xeon): under
# four OpenBLAS core types 5 to 28 of the 188 rows moved, by at most 4.0x
# (Nehalem, matern/feature_factorization/nu=1; 3.5x Prescott,
# gaussian/krr_gram_identity) or 1.35x with the floor below, and one went
# 2.2e-16 -> 0; the Gram rows (GRAM_TOL, 8e-15 to 4e-14) by at most 1.03x.
# A past refactor moved one row 4.9e-16 -> 2.3e-15, 4.7x (the then absolute
# matern/gram_plus/nu=0).  The oracle rows read about 1e-15 under bars of
# 1e-6, so a factor 10 passes all of these and catches a 1e5-fold loss there.
K = 10.0
# Four ulp of 1.0: 27 rows read exactly 0 and 103 at most this, where an error
# is rounding noise, not accuracy.
FLOOR = 2.0**-50


def load(path: str) -> dict[str, dict]:
    """The report's rows by check name."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["check_name"]: row for row in rows}


def drifted(old: float, new: float) -> bool:
    """Whether an error moved past a factor K, either way; errors up to FLOOR read as FLOOR."""
    old, new = max(old, FLOOR), max(new, FLOOR)
    return not (old <= K * new and new <= K * old)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier report (JSON lines)")
    parser.add_argument("new", help="the later report (JSON lines)")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)
    removed = [name for name in old if name not in new]
    added = [name for name in new if name not in old]
    common = [name for name in new if name in old]
    moved = [name for name in common if repr(old[name]["computed"]) != repr(new[name]["computed"])]
    drift = [name for name in common
             if drifted(old[name]["abs_error"], new[name]["abs_error"])]
    retoleranced = [name for name in common
                    if repr(old[name]["tolerance"]) != repr(new[name]["tolerance"])]
    failed = [name for name in common if old[name]["passed"] and not new[name]["passed"]]
    for name in moved:
        print(f"moved {name}: {old[name]['computed']!r} -> {new[name]['computed']!r} "
              f"(tol {new[name]['tolerance']!r})")
    for name in drift:
        print(f"drifted {name}: abs_error {old[name]['abs_error']!r} -> "
              f"{new[name]['abs_error']!r}, past a factor {K:g}")
    for name in added:
        print(f"added {name}")
    for name in removed:
        print(f"removed {name}")
    for name in retoleranced:
        print(f"tolerance {name}: {old[name]['tolerance']!r} -> {new[name]['tolerance']!r}")
    for name in failed:
        print(f"failed {name}")
    print(f"{len(moved)} moved, {len(drift)} drifted, {len(added)} added, {len(removed)} removed, "
          f"{len(retoleranced)} tolerances changed, {len(failed)} newly failed, "
          f"of {len(old)} -> {len(new)} checks")
    return 1 if drift or added or removed or retoleranced or failed else 0


if __name__ == "__main__":
    sys.exit(main())
