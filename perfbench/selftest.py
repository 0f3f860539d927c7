"""Self-test of the benchmark's verdict check.

Flips the expected Table 2 verdict of one row, runs the real
``verify-table2`` pass code over that row and one other, and confirms
the flipped row is counted as a failure while the other is not.  Also
checks that errors count as failures and ``unknown`` as undecided.

    python3 perfbench/selftest.py        # exit 0 when the check works
"""

from __future__ import annotations

import sys

from env import use_source_tree


def main() -> int:
    use_source_tree()
    from inproc import verify_one
    from problems import Tally
    from repro.models.registry import runnable_benchmarks

    chosen = tuple(
        bench for bench in runnable_benchmarks() if bench.row in ("9/Dekker", "6/K-Induction")
    )
    flipped = chosen[0].name
    tally = Tally()
    tally.expected[flipped] = not tally.expected[flipped]
    for bench in chosen:
        verify_one(bench, tally)
    checks = [
        (tally.attempted == 2, f"attempted {tally.attempted}, want 2"),
        (tally.decided == 2, f"decided {tally.decided}, want 2"),
        (tally.failed == 1, f"failed {tally.failed}, want 1"),
        (tally.failed_share == 0.5, f"failed_share {tally.failed_share}, want 0.5"),
        (flipped in tally.failures[0] if tally.failures else False, "failure names the flipped row"),
    ]

    other = Tally()
    other.record(chosen[1].name, "unknown")
    other.record(chosen[1].name, None, error="timed out")
    checks.append((other.decided == 0 and other.failed == 1, "unknown undecided, error failed"))

    bad = [message for ok, message in checks if not ok]
    for message in bad:
        print(f"FAIL {message}")
    print("selftest:", "FAILED" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
