"""Survey compiled k-of-n threshold words: measured lengths versus estimates.

For each pair in the grid, 1 <= k <= n for 2 <= n <= ``--max-n`` (1-of-1 is
the word x1), compiles the threshold with build_k_of_n and
reports the compile route, as-constructed and reduced letter counts, the
``product`` column, the gate depth, the arithmetic estimate, and how
verification went: whether it agreed, the method that decided
("boundary", "table" or "skipped") and the masks it checked.  The clauses
of k-of-n are every (n-k+1)-subset of the nails, and ``product`` is the
closed-form length of their balanced words side by side, C(n, w) e(w) for
w = n - k + 1, so each row shows what the emitted word saves.  The word
is the shortest plan of the compiler's table: route "factored" brackets
shared clause prefixes, "two-cnf" is the 2n-letter word x1 ... xn X1 ...
Xn of (n-1)-of-n for n >= 3, whose clauses are every pair, and
"clause-product" the product itself, kept on a tie (one clause, or one
nail per clause).  Each piece of the plan is laid out rotated or
inverted where it meets the word so far when that cancels more letters,
starts that cancel equally told apart by the next piece, so ``reduced``
is often below ``as_built``.  Rows that blow the letter
budget are reported as skipped rather than aborting the survey.

``build_s`` times the compile alone (``verify=False``); ``total_s`` times
build_k_of_n again with its default verification, each the best of
``--repeat`` rounds (one by default).  Verification runs under the
compiler's own rule: within the exhaustive limit, and within the
auto-verification work cap on the plan that then runs
(``verifier._verify_plan``: the boundary's C(n, k) + C(n, k-1) subsets).
So ``total_s - build_s`` is what verification took.  With
``--no-verify`` the second compile is not made and a row shows ``-``.
The next to last line gives the geometric means of ``reduced`` and
``estimate`` over the rows built; with ``--max-n 6`` the rows are the
compile-verify workload's grid, and the first is its ``letters_geomean``.
The last line sums ``build_s``, and ``total_s - build_s``, over the rows,
so ``--max-n 6 --repeat 50`` shows that grid's two stages apart.

    PYTHONPATH=src python scripts/threshold_survey.py --max-n 6 --repeat 50
"""

from __future__ import annotations

import argparse
import time

from math import comb, exp, log

from picturehang import BudgetExceededError, build_k_of_n, e_word_length


def survey(max_n: int, budget: int, verify: bool, repeat: int = 1) -> None:
    print(
        f"{'k':>3} {'n':>3} {'route':>14} {'as_built':>10} {'reduced':>10} {'product':>10} "
        f"{'estimate':>10} {'depth':>5} {'verified':>8} {'method':>8} {'masks':>8} "
        f"{'build_s':>8} {'total_s':>8}"
    )
    reduced, estimates, built, totals = [], [], [], []
    for n in range(2, max_n + 1):
        for k in range(1, n + 1):
            product = comb(n, n - k + 1) * e_word_length(n - k + 1)
            try:
                build_s, report = _best(repeat, k, n, budget, False)
            except BudgetExceededError:
                print(f"{k:>3} {n:>3} {'-':>14} {'-':>10} {'-':>10} {product:>10} {'over budget':>10}")
                continue
            built.append(build_s)
            total_s = "-"
            if verify:
                seconds, report = _best(repeat, k, n, budget, None)
                totals.append(seconds)
                total_s = f"{seconds:.5f}"
            print(
                f"{k:>3} {n:>3} {report.route:>14} {report.as_constructed_length:>10} "
                f"{report.reduced_length:>10} {product:>10} {report.estimate:>10} {report.depth:>5} "
                f"{str(report.verified):>8} {report.verify_method:>8} {report.masks_checked:>8} "
                f"{build_s:>8.5f} {total_s:>8}"
            )
            reduced.append(report.reduced_length)
            estimates.append(report.estimate)
    if reduced:
        print(
            f"geomean over {len(reduced)} rows: reduced {_geomean(reduced):.4f} "
            f"estimate {_geomean(estimates):.4f}"
        )
        line = f"summed over {len(built)} rows: build_s {sum(built):.5f}"
        if totals:
            line += f", verification (total_s - build_s) {sum(totals) - sum(built):.5f}"
        print(line)


def _best(repeat: int, k: int, n: int, budget: int, verify: bool | None):
    """The least seconds of ``repeat`` calls of build_k_of_n, and the report of the last."""
    seconds = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = build_k_of_n(k, n, budget=budget, verify=verify)
        seconds.append(time.perf_counter() - t0)
    return min(seconds), report


def _geomean(values: list[int]) -> float:
    return exp(sum(map(log, values)) / len(values))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--budget", type=int, default=10**7)
    ap.add_argument("--no-verify", action="store_true", help="skip verification")
    ap.add_argument("--repeat", type=int, default=1, help="time each row this many times, keep the best")
    args = ap.parse_args()
    survey(args.max_n, args.budget, not args.no_verify, args.repeat)


if __name__ == "__main__":
    main()
