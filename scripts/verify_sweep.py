#!/usr/bin/env python3
"""Sweep the verification suite over several seeds and print a summary table.

The secs column is each seed's wall time, to the millisecond.
"""

import argparse
import sys
import time

from ohmatrix import VerifyOptions, run_verify_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument(
        "--max-walk-incidences", type=int, default=VerifyOptions.max_walk_incidences
    )
    args = parser.parse_args()

    options = VerifyOptions(
        trials=args.trials, max_walk_incidences=args.max_walk_incidences
    )
    print(f"{'seed':>6} {'checks':>7} {'failed':>7} {'secs':>8}  status")
    worst = 0
    for seed in args.seeds:
        started = time.monotonic()
        report = run_verify_suite(seed=seed, options=options)
        elapsed = time.monotonic() - started
        status = "ok" if report.passed() else ("INCOMPLETE" if not report.complete else "FAILED")
        print(
            f"{seed:>6} {len(report.results):>7} {len(report.failures):>7} "
            f"{elapsed:>8.3f}  {status}"
        )
        worst = max(worst, len(report.failures) + (0 if report.complete else 1))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
