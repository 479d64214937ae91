#!/usr/bin/env python3
"""Compare two verification reports, as ``kernelbasis verify all --report`` writes them.

Prints every check whose ``computed`` value moved (name, old -> new, the
tolerance), every check added or removed, every changed tolerance and
every check that passed before and fails now (``failed NAME``), then one
summary line.  Values are compared bit for bit, by their repr.  Exits 1
when a check is removed, a tolerance changes or a passing check fails,
else 0:

    kernelbasis verify all --report old.jsonl   # in the old checkout
    kernelbasis verify all --report new.jsonl   # in the new one
    python3 scripts/verify_diff.py old.jsonl new.jsonl
"""

import argparse
import json
import sys


def load(path: str) -> dict[str, dict]:
    """The report's rows by check name."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["check_name"]: row for row in rows}


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
    retoleranced = [name for name in common
                    if repr(old[name]["tolerance"]) != repr(new[name]["tolerance"])]
    failed = [name for name in common if old[name]["passed"] and not new[name]["passed"]]
    for name in moved:
        print(f"moved {name}: {old[name]['computed']!r} -> {new[name]['computed']!r} "
              f"(tol {new[name]['tolerance']!r})")
    for name in added:
        print(f"added {name}")
    for name in removed:
        print(f"removed {name}")
    for name in retoleranced:
        print(f"tolerance {name}: {old[name]['tolerance']!r} -> {new[name]['tolerance']!r}")
    for name in failed:
        print(f"failed {name}")
    print(f"{len(moved)} moved, {len(added)} added, {len(removed)} removed, "
          f"{len(retoleranced)} tolerances changed, {len(failed)} newly failed, "
          f"of {len(old)} -> {len(new)} checks")
    return 1 if removed or retoleranced or failed else 0


if __name__ == "__main__":
    sys.exit(main())
