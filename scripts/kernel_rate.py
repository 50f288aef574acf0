"""Letters per second of the free-reduction kernel, packed and int.

Builds seeded Set Cover words with ``set_cover_to_hanging`` (every element
in exactly r of the n sets) and times ``words._residual`` on each reduced
word three ways: plain reduction, a one-nail strip (each nail in turn) and
a keep-one-nail strip (every nail but one, each in turn), the last two
being what ``fall_table`` and ``max_survive_exact`` ask most.  Each way
runs on the word as a tuple of ints and packed one byte per letter
(``words._pack``), as does the join product ``gadgets._product`` on the
reduced pieces of the top AND gadget of each encoding of two leaves or
more, which ``gadgets.gadget_and_tree`` lays out.  A second table times
keep-few strips (every set of one to three kept nails, packed) by
``_residual`` and by ``spectator._kept_residual``, which counts a lone kept
nail's letters and cancels several kept nails' adjacent pairs in C first,
sweep after sweep while a sweep halves them and more than 64 are left,
and beside them by a copy of ``_kept_residual`` that stops after one
sweep.  The rate
counts the letters the kernel is handed, so a strip that drops most of
them still counts them all.  A set-up row times what an exact spectator
search does before its first strip, in letters per second: the one
set-up ``spectator._set_up`` (check and pack by ``words._search_root``,
find the held nails, relabel them and the gadget tree onto 1..h unless
they are 1..h already, pick the residual source) on each Set Cover word
as laid out, which keeps its packed letters as its gadget tree's root
(``Word.tree.root``), beside the same word rebuilt from its int letters,
which is packed again and has no tree.  A third table times
the residuals the searches ask of a Set Cover word of two leaves or more,
read from its letters and from its gadget tree (``Word.tree``, laid out
again on its leaves' residuals): one-nail removals, each nail in turn,
by ``words._strip``, and keeps of every two and three nails by
``spectator._kept_residual``, against the tree's residual of the same
removal.  The tree keeps each leaf's cut letters reduced, so its rounds
after the first look them up.  A last row counts
strips instead: the boundary check
``verifier._boundary_mismatch`` on the reduced word of every threshold of
the compile-verify grid (k-of-n, 1 <= k <= n, 2 <= n <= 6), each word of 2
to 112 letters, in strips per second.  An exact word takes one strip per
(k-1)-subset but the empty one, and one per k-subset, so the rate is
the per-call cost of a small strip.  A last table lays out the plans
of 7-of-12, 10-of-19 and 2-of-40 on packed letters, as the compiler
does (``compiler.lay_out`` of a ``_Packed`` plan), turned where their
pieces meet, beside the same plans joined plain (``_meet`` swapped
for a join that turns nothing), in letters of the plan per second, over
``--repeat`` // 5 rounds (one at least), so that the cost of turning stays
visible.  Each figure is the best of
``--repeat`` rounds, followed by the median and the worst round: rounds
on a shared machine spread widely, and a rate is only as good as its
spread.  The Set Cover words encode one E-word per distinct minimal owner
set, so their rates compare only with rates taken on that encoding.

    PYTHONPATH=src python scripts/kernel_rate.py --seed 1 --words 6
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from itertools import combinations
from math import comb

from picturehang import compiler
from picturehang.circuits import _minimal_sets
from picturehang.constructions import _splice, build_e
from picturehang.gadgets import _AND_TEMPLATE, _G1, _G2, _product, gadget_and_tree
from picturehang.sortnet import build_k_of_n
from picturehang.spectator import _kept_residual, _set_up, set_cover_to_hanging
from picturehang.verifier import _boundary_mismatch
from picturehang.words import (
    _BYTES,
    _INVERSE,
    _PAIR,
    Word,
    _nails,
    _pack,
    _residual,
    _search_root,
    _strip,
    raw_inverse,
)


def set_cover_instances(seed: int, count: int) -> list[tuple[int, list[list[int]]]]:
    """``count`` Set Cover instances (m, sets), m in 8..12, n in 6..8."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n, r = rng.randint(8, 12), rng.randint(6, 8), rng.choice((2, 3))
        sets: list[set[int]] = [set() for _ in range(n)]
        for e in range(1, m + 1):
            for s in rng.sample(range(n), r):
                sets[s].add(e)
        out.append((m, [sorted(s) for s in sets]))
    return out


def leaves(m: int, sets: list[list[int]]) -> list:
    """The encoding's AND-tree leaves: E over each distinct minimal owner set, in element order."""
    word, owners = set_cover_to_hanging(m, sets)
    masks = [sum(1 << i - 1 for i in who) for who in owners.values()]
    minimal = set(_minimal_sets(masks))
    out = [build_e(_nails(mask)) for mask in dict.fromkeys(masks) if mask in minimal]
    assert gadget_and_tree(out) == word, "the leaves must rebuild the encoding"
    return out


def one_sweep(letters: bytes, keep: int) -> bytes:
    """``_kept_residual`` on packed letters with a single pair sweep, the baseline of its row."""
    if not keep & keep - 1:
        return _kept_residual(letters, keep)
    kept = bytes(_nails(keep))
    letters = letters.translate(None, _BYTES.translate(None, kept + kept.translate(_INVERSE)))
    for i in kept:
        letters = letters.replace(_PAIR[i], b"").replace(_PAIR[i][::-1], b"")
    return _residual(letters)


def _plain_meet(out, word, ahead):
    """``compiler._meet`` that turns nothing: the piece as given, and the letters it cancels there."""
    cut, most, base = 0, min(len(out), len(word)), 256 if isinstance(word, bytes) else 0
    while cut < most and word[cut] + out[-1 - cut] == base:
        cut += 1
    return cut, word


def rate(kernel, calls: list[tuple[object, object]], letters: int, repeat: int) -> list[float]:
    """``letters`` handed to ``kernel`` per second in each of ``repeat`` rounds, best first."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in calls:
            kernel(*args)
        times.append(time.perf_counter() - t0)
    return [letters / t for t in sorted(times)]


def spread(rates: list[float]) -> str:
    """The best, median and worst of the rates."""
    return f"{rates[0]:.3e} {statistics.median(rates):.2e} {rates[-1]:.2e}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--words", type=int, default=6)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    instances = set_cover_instances(args.seed, args.words)
    encoded = [(set_cover_to_hanging(m, sets)[0], len(sets)) for m, sets in instances]
    words = [(word.letters, n) for word, n in encoded]
    total = sum(len(letters) for letters, _ in words)
    print(f"{len(words)} Set Cover words, {total} reduced letters, seed {args.seed}")
    print("each figure: the best, median and worst round; each ratio: of the bests")
    print(f"{'kernel call':>16} {'int letters/s':>28} {'packed letters/s':>28} {'ratio':>6}")
    for name, masks in [
        ("plain", lambda n: [0]),
        ("one-nail strip", lambda n: [1 << i for i in range(n)]),
        ("keep-one strip", lambda n: [((1 << n) - 1) ^ 1 << i for i in range(n)]),
    ]:
        ints = [(letters, mask) for letters, n in words for mask in masks(n)]
        packed = [(_pack(letters), mask) for letters, mask in ints]
        letters = sum(len(word) for word, _ in ints)
        int_rate = rate(_residual, ints, letters, args.repeat)
        packed_rate = rate(_residual, packed, letters, args.repeat)
        ratio = packed_rate[0] / int_rate[0]
        print(f"{name:>16} {spread(int_rate):>28} {spread(packed_rate):>28} {ratio:>6.2f}")

    layouts = []
    for m, sets in instances:
        tree = leaves(m, sets)
        if len(tree) < 2:
            continue  # a lone leaf is the whole word: no top gadget
        half = (len(tree) + 1) // 2
        glue_p_q = (_G1, _G2, gadget_and_tree(tree[:half]), gadget_and_tree(tree[half:]))
        layouts.append([piece.letters for piece in _splice(_AND_TEMPLATE, glue_p_q, raw_inverse)])
    letters = sum(len(piece) for pieces in layouts for piece in pieces)
    ints = rate(_product, [(pieces,) for pieces in layouts], letters, args.repeat)
    packed = [([_pack(piece) for piece in pieces], True) for pieces in layouts]
    packed_rate = rate(_product, packed, letters, args.repeat)
    ratio = packed_rate[0] / ints[0]
    print(f"{'gadget layout':>16} {spread(ints):>28} {spread(packed_rate):>28} {ratio:>6.2f}")

    print(f"{'work':>16} {'_residual letters/s':>28} {'one sweep letters/s':>28}"
          f" {'repeated sweeps letters/s':>28} {'ratio':>6}")
    keeps = [
        (_pack(letters), sum(1 << i for i in kept), (1 << n) - 1)
        for letters, n in words
        for size in (1, 2, 3)
        for kept in combinations(range(n), size)
    ]
    letters = sum(len(word) for word, _, _ in keeps)
    strip = rate(_residual, [(word, full ^ keep) for word, keep, full in keeps], letters, args.repeat)
    calls = [(word, keep) for word, keep, _ in keeps]
    once, repeated = (rate(kernel, calls, letters, args.repeat) for kernel in (one_sweep, _kept_residual))
    print(f"{'keep-few strip':>16} {spread(strip):>28} {spread(once):>28} {spread(repeated):>28}"
          f" {repeated[0] / once[0]:>6.2f}")

    trees = [(word.tree.root, word.tree, n) for word, n in encoded if word.tree]
    print(f"{'work':>16} {'from letters letters/s':>28} {'from the tree letters/s':>28}"
          f" {'ratio':>6}")
    for name, size, letter_path in [
        ("one-nail removal", 1, _strip),  # a search's child step: strip the nail
        ("keep two", 2, _kept_residual),  # the keep-few test, and below the removal of the rest
        ("keep three", 3, _kept_residual),
    ]:
        from_letters, from_tree = [], []
        for packed, tree, n in trees:
            for nails in combinations(range(1, n + 1), size):
                mask = sum(1 << i - 1 for i in nails)
                from_letters.append((packed, nails[0] if size == 1 else mask))
                from_tree.append((tree, mask if size == 1 else (1 << n) - 1 ^ mask))
        assert all(letter_path(*args) == tree.residual(mask)
                   for args, (tree, mask) in zip(from_letters, from_tree))
        letters = sum(len(packed) for packed, _ in from_letters)
        by_letters = rate(letter_path, from_letters, letters, args.repeat)
        by_tree = rate(lambda tree, mask: tree.residual(mask), from_tree, letters, args.repeat)
        print(f"{name:>16} {spread(by_letters):>28} {spread(by_tree):>28}"
              f" {by_tree[0] / by_letters[0]:>6.2f}")

    rebuilt = [(Word(word.letters, reduced=True), n) for word, n in encoded]
    ints, laid_out = (rate(_set_up, forms, total, args.repeat) for forms in (rebuilt, encoded))
    print(f"{'work':>16} {'from ints letters/s':>28} {'as laid out letters/s':>28} {'ratio':>6}")
    print(f"{'search set-up':>16} {spread(ints):>28} {spread(laid_out):>28} {laid_out[0] / ints[0]:>6.2f}")

    grid = [(k, n) for n in range(2, 7) for k in range(1, n + 1)]
    calls = [(_search_root(build_k_of_n(k, n).word, n), n, k) for k, n in grid]
    assert all(_boundary_mismatch(*call) is None for call in calls)
    rounds = 50  # a grid pass, 218 strips, takes about 0.5 ms: a timed round makes this many
    calls *= rounds
    strips = rounds * sum(comb(n, k - 1) - 1 + comb(n, k) for k, n in grid)
    print(f"{'work':>16} {'strips/s':>28}")
    print(f"{'grid strips':>16} {spread(rate(_boundary_mismatch, calls, strips, args.repeat)):>28}")

    def laid_out(k: int, n: int) -> None:
        compiler.lay_out(compiler._Packed(compiler._threshold_plan(range(1, n + 1), n - k + 1)[2]))

    print(f"{'layout':>16} {'turned letters/s':>28} {'joined plain letters/s':>28} {'ratio':>6}")
    rounds = max(1, args.repeat // 5)  # 10-of-19's plan, 1.37e6 letters, takes about 0.3 s a round
    for k, n in ((7, 12), (10, 19), (2, 40)):
        letters = compiler._threshold_plan(range(1, n + 1), n - k + 1)[0]
        turned = rate(laid_out, [(k, n)], letters, rounds)
        compiler._meet, meet = _plain_meet, compiler._meet
        try:
            plain = rate(laid_out, [(k, n)], letters, rounds)
        finally:
            compiler._meet = meet
        print(f"{f'{k}-of-{n}':>16} {spread(turned):>28} {spread(plain):>28} {turned[0] / plain[0]:>6.2f}")

if __name__ == "__main__":
    main()
