"""Survey compiled k-of-n threshold words: measured lengths versus estimates.

For each pair in the grid, compiles the threshold with build_k_of_n and
reports the compile route, as-constructed and reduced letter counts, the
gate depth, the arithmetic estimate, and how verification went: whether
it agreed, the method that decided ("boundary", "table" or "skipped") and
the masks it checked.  A threshold compiles to the reduced product of the
balanced 1-of-(n-k+1) words over every (n-k+1)-subset of the nails, route
"clause-product", except (n-1)-of-n for n >= 3, whose clauses are every
pair of nails: it compiles to the 2n-letter word x1 ... xn X1 ... Xn, route
"two-cnf".  Rows that blow the letter budget are reported as skipped
rather than aborting the survey.

``build_s`` times the compile alone (``verify=False``); ``total_s`` times
build_k_of_n again with its default verification, which runs under the
compiler's own rule (within the exhaustive limit and the auto-verification
work cap), so ``total_s - build_s`` is what verification took.  With
``--no-verify`` the second compile is not made and a row shows ``-``.

    PYTHONPATH=src python scripts/threshold_survey.py --max-n 6
"""

from __future__ import annotations

import argparse
import time

from picturehang import BudgetExceededError, build_k_of_n


def survey(max_n: int, budget: int, verify: bool) -> None:
    print(
        f"{'k':>3} {'n':>3} {'route':>14} {'as_built':>10} {'reduced':>10} {'estimate':>10} "
        f"{'depth':>5} {'verified':>8} {'method':>8} {'masks':>8} {'build_s':>8} {'total_s':>8}"
    )
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            t0 = time.perf_counter()
            try:
                report = build_k_of_n(k, n, budget=budget, verify=False)
            except BudgetExceededError:
                print(f"{k:>3} {n:>3} {'-':>14} {'-':>10} {'-':>10} {'over budget':>10}")
                continue
            build_s = time.perf_counter() - t0
            total_s = "-"
            if verify:
                t0 = time.perf_counter()
                report = build_k_of_n(k, n, budget=budget)
                total_s = f"{time.perf_counter() - t0:.5f}"
            print(
                f"{k:>3} {n:>3} {report.route:>14} {report.as_constructed_length:>10} "
                f"{report.reduced_length:>10} {report.estimate:>10} {report.depth:>5} "
                f"{str(report.verified):>8} {report.verify_method:>8} {report.masks_checked:>8} "
                f"{build_s:>8.5f} {total_s:>8}"
            )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--budget", type=int, default=10**7)
    ap.add_argument("--no-verify", action="store_true", help="skip verification")
    args = ap.parse_args()
    survey(args.max_n, args.budget, not args.no_verify)


if __name__ == "__main__":
    main()
