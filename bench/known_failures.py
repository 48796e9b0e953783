"""Run the ops that failed at the seed baseline and report which still fail.

    python3 bench/known_failures.py          (from the root of a checkout)

The timed workloads leave out the ops listed under ``known_failures`` in
``bench/refs/references.json``, so that every op of a timed run succeeds.
This script keeps those defects in view: it runs every period_sweep point,
the CLI's period paths on the fixtures and every verify_battery family once
(as ``regen_refs.py`` does to record the baseline), prints each failing op,
and lists the baseline failures that now pass and the failures that are new.
It exits 1 when an op fails that is not in the baseline.
"""

from __future__ import annotations

import sys

import regen_refs
import run
import workloads


def main() -> int:
    pkg = run.load_package()
    refs = workloads.load_refs()
    now = regen_refs.baseline(pkg, refs)
    new_failures = 0
    for workload, stored in sorted(refs["known_failures"].items()):
        failing = set(now.get(workload, []))
        fixed = [k for k in stored if k not in failing]
        new = sorted(failing - set(stored))
        new_failures += len(new)
        print(
            f"{workload}: {len(failing)} failing ops, {len(stored)} at the seed baseline; "
            f"{len(fixed)} of those now pass, {len(new)} new"
        )
        for k in fixed:
            print(f"  passes now: {k}")
        for k in new:
            print(f"  NEW FAILURE: {k}")
    return 1 if new_failures else 0


if __name__ == "__main__":
    sys.exit(main())
