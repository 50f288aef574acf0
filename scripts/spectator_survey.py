"""Time the exact spectator solvers on words whose answers lie near either end.

For ``min_fell_exact`` and ``max_survive_exact`` in turn, prints one row per
word: the word's letters (reduced), the best time of ``--rounds`` calls, and
the answer's mask and size.  The words are the compiled k-of-n words of
ROADMAP item 12's table (2-of-16, 2-of-20, 17-of-20, 19-of-20 and
20-of-20), whose answers sit at one end of the lattice or the other, and
one seeded Set Cover word per shape (n, r) of the spectator-setcover
workload: n in 6..8 sets, every element of m in 8..12 in exactly r = 2 or 3
of them.  ``max_survive_exact`` on 2-of-20 scans nearly every subset of
20 nails (210 s in one run on 2 cores, CPython 3.11.7), so it is skipped
unless ``--slow`` is given.

    PYTHONPATH=src python scripts/spectator_survey.py --rounds 3
"""

from __future__ import annotations

import argparse
import random
import time

from picturehang.sortnet import build_k_of_n
from picturehang.spectator import max_survive_exact, min_fell_exact, set_cover_to_hanging
from picturehang.words import Word

THRESHOLDS = [(2, 16), (2, 20), (17, 20), (19, 20), (20, 20)]
SLOW = {("max_survive", "2-of-20")}  # minutes per call


def words(seed: int) -> list[tuple[str, Word, int]]:
    out = [(f"{k}-of-{n}", build_k_of_n(k, n, verify=False).word, n) for k, n in THRESHOLDS]
    rng = random.Random(seed)
    for n in range(6, 9):
        for r in (2, 3):
            m = rng.randint(8, 12)
            sets: list[set[int]] = [set() for _ in range(n)]
            for element in range(1, m + 1):
                for i in rng.sample(range(n), r):
                    sets[i].add(element)
            out.append((f"cover-m{m}-n{n}-r{r}", set_cover_to_hanging(m, sets)[0], n))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--slow", action="store_true", help="also run the rows that take minutes")
    args = ap.parse_args()
    print(f"{'solver':>12} {'word':>18} {'n':>3} {'letters':>8} {'seconds':>9} {'mask':>8} {'size':>4}")
    for solver, solve in (("min_fell", min_fell_exact), ("max_survive", max_survive_exact)):
        for name, word, n in words(args.seed):
            if (solver, name) in SLOW and not args.slow:
                print(f"{solver:>12} {name:>18} {n:>3} {len(word.reduce()):>8} {'skipped':>9}")
                continue
            best = float("inf")
            for _ in range(args.rounds):
                start = time.perf_counter()
                answer = solve(word, n)
                best = min(best, time.perf_counter() - start)
            print(f"{solver:>12} {name:>18} {n:>3} {len(word.reduce()):>8} {best:>9.4f} "
                  f"{answer.mask:>8} {answer.size:>4}", flush=True)


if __name__ == "__main__":
    main()
