"""Letters per second of the free-reduction kernel, packed and int.

Builds seeded Set Cover words with ``set_cover_to_hanging`` (every element
in exactly r of the n sets) and times ``words._residual`` on each reduced
word three ways: plain reduction, a one-nail strip (each nail in turn) and
a keep-one-nail strip (every nail but one, each in turn), the last two
being what ``fall_table`` and ``max_survive_exact`` ask most.  Each way
runs on the word as a tuple of ints and packed one byte per letter
(``words._pack``).  The rate counts the letters the kernel is handed, so a
strip that drops most of them still counts them all; each figure is the
best of ``--repeat`` rounds.

    PYTHONPATH=src python scripts/kernel_rate.py --seed 1 --words 6
"""

from __future__ import annotations

import argparse
import random
import time

from picturehang.spectator import set_cover_to_hanging
from picturehang.words import _pack, _residual


def set_cover_words(seed: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """``count`` reduced Set Cover words with their nail counts, m in 8..12, n in 6..8."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n, r = rng.randint(8, 12), rng.randint(6, 8), rng.choice((2, 3))
        sets: list[set[int]] = [set() for _ in range(n)]
        for e in range(1, m + 1):
            for s in rng.sample(range(n), r):
                sets[s].add(e)
        word, _ = set_cover_to_hanging(m, [sorted(s) for s in sets])
        out.append((word.reduce().letters, n))
    return out


def rate(calls: list[tuple[object, int]], repeat: int) -> float:
    """Letters handed to the kernel per second, best of ``repeat`` rounds."""
    letters = sum(len(word) for word, _ in calls)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for word, mask in calls:
            _residual(word, mask)
        best = min(best, time.perf_counter() - t0)
    return letters / best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--words", type=int, default=6)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    words = set_cover_words(args.seed, args.words)
    total = sum(len(letters) for letters, _ in words)
    print(f"{len(words)} Set Cover words, {total} reduced letters, seed {args.seed}")
    print(f"{'kernel call':>16} {'int letters/s':>14} {'packed letters/s':>17} {'ratio':>6}")
    for name, masks in [
        ("plain", lambda n: [0]),
        ("one-nail strip", lambda n: [1 << i for i in range(n)]),
        ("keep-one strip", lambda n: [((1 << n) - 1) ^ 1 << i for i in range(n)]),
    ]:
        ints = [(letters, mask) for letters, n in words for mask in masks(n)]
        packed = [(_pack(letters), mask) for letters, mask in ints]
        int_rate, packed_rate = rate(ints, args.repeat), rate(packed, args.repeat)
        print(f"{name:>16} {int_rate:>14.3e} {packed_rate:>17.3e} {packed_rate / int_rate:>6.2f}")


if __name__ == "__main__":
    main()
