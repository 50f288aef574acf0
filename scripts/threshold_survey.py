"""Survey compiled k-of-n threshold words: measured lengths versus estimates.

For each pair in the grid, compiles the threshold with build_k_of_n and
reports as-constructed and reduced letter counts, the gate depth, the
arithmetic estimate, and whether exhaustive verification ran and agreed.
Each threshold compiles to the reduced product of the balanced
1-of-(n-k+1) words over every (n-k+1)-subset of the nails.  Rows that blow
the letter budget are reported as skipped rather than aborting the survey.
"""

from __future__ import annotations

import argparse
import time

from picturehang import BudgetExceededError, build_k_of_n


def survey(max_n: int, budget: int, verify: bool | None) -> None:
    print(
        f"{'k':>3} {'n':>3} {'as_built':>10} {'reduced':>10} {'estimate':>10} "
        f"{'depth':>5} {'verified':>8} {'secs':>7}"
    )
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            t0 = time.perf_counter()
            try:
                report = build_k_of_n(k, n, budget=budget, verify=verify)
            except BudgetExceededError:
                print(f"{k:>3} {n:>3} {'-':>10} {'-':>10} {'over budget':>10}")
                continue
            dt = time.perf_counter() - t0
            print(
                f"{k:>3} {n:>3} {report.as_constructed_length:>10} "
                f"{report.reduced_length:>10} {report.estimate:>10} "
                f"{report.depth:>5} {str(report.verified):>8} {dt:>7.2f}"
            )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--budget", type=int, default=10**7)
    ap.add_argument(
        "--no-verify", action="store_true", help="skip exhaustive table checks"
    )
    args = ap.parse_args()
    survey(args.max_n, args.budget, False if args.no_verify else None)


if __name__ == "__main__":
    main()
