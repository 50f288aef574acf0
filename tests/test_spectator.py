"""Exact and greedy nail-removal optimization, plus the Set Cover bridge."""

import itertools
import random
import time

import pytest

from picturehang.circuits import _minimal_sets
from picturehang.constructions import _balanced, _splice, build_disjoint, build_e, build_s
from picturehang.gadgets import _AND_TEMPLATE, _OR_TEMPLATE
from picturehang.gadgets import _Tree, gadget_and, gadget_and_tree, gadget_or
from picturehang.sortnet import build_k_of_n
import picturehang.spectator as spectator
from picturehang.spectator import (
    _hit,
    _relabel,
    _relabel_held,
    _set_up,
    greedy_min_fell,
    max_survive_exact,
    min_fell_exact,
    set_cover_to_hanging,
)
from picturehang.words import (
    ExhaustiveLimitError,
    NailSubset,
    Word,
    _nails,
    _pack,
    _residual,
    fall_table,
    falls,
    raw_commutator,
    raw_concat,
    raw_inverse,
    remove_nails,
)


def test_min_fell_on_one_out_of_n():
    assert min_fell_exact(build_s(3), 3).size == 1
    assert min_fell_exact(build_s(3), 3).members == {1}


def test_min_fell_tie_breaks_to_smallest_mask():
    w = Word((1, 2, 3, -1, -2, -3))
    subset = min_fell_exact(w, 3)
    assert subset.size == 2
    assert subset.members == {1, 2}


def test_min_fell_single_generator():
    assert min_fell_exact(Word((1,)), 1).members == {1}


def test_min_fell_trivial_word_is_empty_subset():
    assert min_fell_exact(Word(()), 2).size == 0


def test_min_fell_respects_limit():
    with pytest.raises(ExhaustiveLimitError):
        min_fell_exact(Word((1,)), 25)
    with pytest.raises(ValueError):
        min_fell_exact(Word((5,)), 3)


def test_max_survive_on_one_out_of_n():
    assert max_survive_exact(build_s(3), 3).size == 0


def test_max_survive_on_two_out_of_three():
    subset = max_survive_exact(Word((1, 2, 3, -1, -2, -3)), 3)
    assert subset.size == 1
    assert subset.members == {1}


def test_max_survive_on_disjoint_classes():
    subset = max_survive_exact(build_disjoint([{1, 2}, {3, 4}]), 4)
    assert subset.size == 2
    assert not falls(build_disjoint([{1, 2}, {3, 4}]), subset)


def test_max_survive_rejects_trivial_word():
    with pytest.raises(ValueError):
        max_survive_exact(Word((1, -1)), 2)


def test_greedy_never_beats_exact():
    rng = random.Random(5)
    for _ in range(50):
        letters = tuple(
            x for x in (rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(14))
        )
        w = Word(letters)
        exact = min_fell_exact(w, 4)
        greedy = greedy_min_fell(w, 4)
        assert falls(w, greedy)
        assert exact.size <= greedy.size


def test_greedy_matches_optimum_on_two_of_three_word():
    assert greedy_min_fell(Word((1, 2, 3, -1, -2, -3)), 3).size == 2


def test_monotone_frontier_consistency():
    w = build_e([1, 2, 3])
    best = min_fell_exact(w, 3)
    for extra_mask in range(8):
        if extra_mask & best.mask == best.mask:
            assert falls(w, [i + 1 for i in range(3) if (extra_mask >> i) & 1])
    top = max_survive_exact(w, 3)
    for mask in range(8):
        if mask | top.mask == top.mask:
            assert not falls(w, [i + 1 for i in range(3) if (mask >> i) & 1])


def test_set_cover_single_element_single_set():
    w, owners = set_cover_to_hanging(1, [[1]])
    assert w.letters == (1,)
    assert owners == {1: (1,)}


def test_set_cover_two_singletons_is_and():
    w, _ = set_cover_to_hanging(2, [[1], [2]])
    assert w.reduce().letters == (1, 1, 1, 1, -2, -2, -2, -2)
    assert min_fell_exact(w, 2).size == 2


def test_set_cover_shared_element_is_e_word():
    w, owners = set_cover_to_hanging(1, [[1], [1]])
    assert w == build_e([1, 2])
    assert owners == {1: (1, 2)}
    assert min_fell_exact(w, 2).size == 1


def test_set_cover_rejects_uncovered_element():
    with pytest.raises(ValueError):
        set_cover_to_hanging(2, [[1], [1]])


def test_set_cover_rejects_element_outside_universe():
    with pytest.raises(ValueError, match=r"^set 1 holds element 5, outside the universe 1\.\.2$"):
        set_cover_to_hanging(2, [[1, 5], [2, 0]])
    with pytest.raises(ValueError, match="^set 2 holds element 0,"):
        set_cover_to_hanging(2, [[1, 2], [2, 0]])


def test_set_cover_words_fall_exactly_on_covers():
    """Seeded instances, repeated and dominated owner sets included, fall on covers alone.

    An instance whose owner sets are all distinct and minimal keeps the
    word of one E-word per element.
    """
    rng = random.Random(26)
    repeated = dominated = plain = 0
    for _ in range(200):
        n, m = rng.randint(1, 8), rng.randint(1, 16)
        owners = [sorted(rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))) for _ in range(m)]
        sets = [[j for j, who in enumerate(owners, start=1) if i in who] for i in range(1, n + 1)]
        word, got = set_cover_to_hanging(m, sets)
        assert got == {j: tuple(who) for j, who in enumerate(owners, start=1)}
        masks = [sum(1 << i - 1 for i in who) for who in owners]
        covers = [all(mask & owner for owner in masks) for mask in range(1 << n)]
        assert fall_table(word, n) == covers, (n, owners)
        if len(set(masks)) < m:
            repeated += 1
        elif any(a != b and a & b == a for a in masks for b in masks):
            dominated += 1
        else:
            plain += 1
            assert word == gadget_and_tree([build_e(who) for who in owners]), owners
    assert repeated and dominated and plain
    assert set_cover_to_hanging(2, [[1, 2], [1, 2]])[0] == build_e([1, 2])
    assert set_cover_to_hanging(2, [[1, 2]])[0].letters == (1,)


def _int_set_cover(m, sets):
    """The Set Cover word and owners as laid out on ints, each owner mask a scan of every set."""
    masks = [sum(1 << i for i, s in enumerate(sets) if j in s) for j in range(1, m + 1)]
    minimal = set(_minimal_sets(masks))
    leaves = [build_e(_nails(mask)) for mask in dict.fromkeys(masks) if mask in minimal]

    def gadget(p, q):  # the AND template's layout, reduced whole
        return raw_concat(*_splice(_AND_TEMPLATE, (Word((1,)), Word((2,)), p, q), raw_inverse)).reduce()

    return _balanced(leaves, gadget), dict(enumerate(map(_nails, masks), start=1))


def test_set_cover_words_equal_the_int_layout():
    """Seeded instances, packed (n <= 127) and on ints (a set numbered above 127)."""
    rng = random.Random(29)
    instances = []
    for _ in range(60):
        m, n, r = rng.randint(1, 12), rng.randint(3, 9), rng.randint(1, 3)
        sets = [set() for _ in range(n)]
        for element in range(1, m + 1):
            for i in rng.sample(range(n), r):
                sets[i].add(element)
        instances.append((m, [sorted(s) for s in sets]))
    wide = [[] for _ in range(130)]
    wide[0], wide[127], wide[128], wide[129] = [3], [1, 2], [1, 3], [2]
    instances.append((3, wide))
    for m, sets in instances:
        word, owners = set_cover_to_hanging(m, sets)
        want_word, want_owners = _int_set_cover(m, sets)
        assert word.letters == want_word.letters and owners == want_owners, (m, sets)
    assert set_cover_to_hanging(3, wide)[0].max_nail == 130


def test_set_cover_words_keep_their_packed_letters_for_the_solvers():
    """A Set Cover word with and without its packed letters: equal, alike hashed, same answers."""
    rng = random.Random(31)
    packed = 0
    for _ in range(24):
        m, n, r = rng.randint(2, 9), rng.randint(3, 7), rng.randint(1, 3)
        sets = [set() for _ in range(n)]
        for element in range(1, m + 1):
            for i in rng.sample(range(n), r):
                sets[i].add(element)
        word = set_cover_to_hanging(m, sets)[0]
        plain = Word(word.letters)
        assert word.tree is None or word.tree.root == _pack(word.letters)
        assert word == plain and hash(word) == hash(plain) and len(word) == len(plain)
        for solve in (min_fell_exact, max_survive_exact, greedy_min_fell):
            assert solve(word, n) == solve(plain, n), (m, sets)
        packed += word.tree is not None
    assert packed


def _seeded_cover_words(seed, count):
    """Seeded Set Cover words of two leaves or more on n <= 8 sets, with their n.

    Words are drawn at most 50 times ``count`` times, so an encoding that
    gives no word a tree fails here instead of drawing forever.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        m, n, r = rng.randint(2, 12), rng.randint(3, 8), rng.randint(1, 3)
        sets = [set() for _ in range(n)]
        for element in range(1, m + 1):
            for i in rng.sample(range(n), r):
                sets[i].add(element)
        word = set_cover_to_hanging(m, [sorted(s) for s in sets])[0]
        if word.tree is not None:
            out.append((word, n))
    assert len(out) == count, f"seed {seed}: {len(out)} of {count} words with a tree in {50 * count} draws"
    return out


def _seeded_gadget_words(seed):
    """Gadget words over seeded reduced words on nails 1..n, n <= 8, with their n.

    The leaves are random words, not E-words: a removal that hits one need
    not empty it.
    """
    rng = random.Random(seed)

    def leaf(n, most):
        letters = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, most))]
        return Word(tuple(letters)).reduce()

    out = []
    while len(out) < 24:
        n = rng.randint(3, 8)
        p, q = leaf(n, 6), leaf(n, 6)
        if p and q:
            out += [(gadget_and(p, q), n), (gadget_or(p, q), n)]
        tree = [w for w in (leaf(n, 5) for _ in range(rng.randint(2, 6))) if w]
        if len(tree) > 1:
            out.append((gadget_and_tree(tree), n))
    return out


def test_tree_residuals_equal_the_letter_residuals_on_every_mask():
    """A packed layout of two leaves or more answers each removal from its tree, byte for byte.

    So does the tree relabeled onto the nails the word holds, all of them
    or all but one taken as held: the other nail is deleted, although the
    leaves hold it.
    """
    words = _seeded_cover_words(34, 40) + _seeded_gadget_words(34)
    for w, n in words:
        assert w.tree is not None and w.tree.root == _pack(w.letters) == w.tree.residual(0)
        for mask in range(1 << n):
            assert w.tree.residual(mask) == _residual(w.tree.root, mask), (w, n, mask)
    for w, n in words[::8]:
        nails = _relabel_held(w.tree.root, n)[0]
        for size in (len(nails) - 1, len(nails)):
            for held in map(list, itertools.combinations(nails, size)):
                gone = sum(1 << i - 1 for i in nails if i not in held)
                letters = _residual(w.tree.root, gone).translate(_relabel(held))
                tree = w.tree.relabel(held)
                assert tree.root == letters == tree.residual(0), (w, held)
                for mask in range(1 << size):
                    assert tree.residual(mask) == _residual(letters, mask), (w, held, mask)
    assert gadget_and_tree([build_e([1, 2])]).tree is None
    assert gadget_and(Word((1,)), Word((200,))).tree is None  # laid out on ints


def test_both_templates_lay_out_nothing_on_two_empty_arguments():
    """The invariant behind a gadget join's skip of two empty pieces."""
    for template in (_AND_TEMPLATE, _OR_TEMPLATE):
        assert not _residual(template, 0b1100)
    assert gadget_and(Word(()), Word(())).letters == ()
    assert gadget_or(Word((1, -1)), Word(())).tree.root == b""


def test_solvers_answer_alike_with_and_without_the_tree():
    """The three solvers and the fall table on each gadget word, and on its letters with no tree.

    A few words are searched over n = 200 too, where the root is set up on ints.
    """
    words = _seeded_cover_words(35, 60) + _seeded_gadget_words(35)
    for w, n in words + [(w, 200) for w, _ in words[::20]]:
        plain = Word(w.letters, reduced=True)
        assert plain.tree is None and plain == w
        if n <= 8:
            assert fall_table(w, n) == fall_table(plain, n), (w, n)
        for solve in (min_fell_exact, max_survive_exact):
            assert solve(w, n, limit=200) == solve(plain, n, limit=200), (solve.__name__, w, n)
        assert greedy_min_fell(w, n) == greedy_min_fell(plain, n), (w, n)


def test_the_set_up_relabels_a_gapped_word_and_its_tree_and_a_dense_one_neither(monkeypatch):
    """A word packed on nails 1..h is searched as given, tree and all; one with a gap is relabeled.

    Either way the tree answers each step and each kept set of two nails or
    more, byte for byte the residual of the set-up's letters.
    """
    tables, relabeled, asked = [], [], []  # the letters' relabel tables, the tree's relabels, the trees asked
    relabel, residual = _Tree.relabel, _Tree.residual
    monkeypatch.setattr(spectator, "_relabel", lambda held: tables.append(held) or _relabel(held))
    monkeypatch.setattr(_Tree, "relabel", lambda tree, held: relabeled.append(held) or relabel(tree, held))
    monkeypatch.setattr(_Tree, "residual", lambda tree, mask: asked.append(tree) or residual(tree, mask))
    dense = gadget_and_tree([build_e([1, 2]), build_e([2, 3])])
    gapped = gadget_and_tree([build_e([2, 5]), build_e([5, 7])])
    for w, n, want in [(dense, 3, [1, 2, 3]), (gapped, 8, [1, 2, 5, 7])]:
        held, letters, step, kept = _set_up(w, n)
        assert held == want
        if w is dense:
            assert letters is w.tree.root and tables == relabeled == []
        else:
            assert letters == w.tree.root.translate(_relabel(held)) and tables == relabeled == [held]
        full = (1 << len(held)) - 1
        for mask in range(1, full + 1):
            asked.clear()
            assert step(None, mask, None) == _residual(letters, mask), (w, mask)
            assert kept(letters, full ^ mask) == _residual(letters, mask), (w, mask)
            trees = [w.tree] * (2 if (full ^ mask).bit_count() > 1 else 1)
            assert (asked == trees) == (w is dense), (w, mask)


def test_each_solver_sets_its_search_up_once(monkeypatch):
    set_up, calls = _set_up, []
    monkeypatch.setattr(spectator, "_set_up", lambda *args: calls.append(args) or set_up(*args))
    cover = set_cover_to_hanging(4, [[1, 2], [2, 3], [3, 4], [1, 4]])[0]
    for w, n in [(cover, 4), (cover, 200), (Word((1, 3, -1, -3)), 3), (Word(()), 2)]:
        for solve, limit in [(min_fell_exact, n), (max_survive_exact, n), (greedy_min_fell, None)]:
            calls.clear()
            args = (w, n) if limit is None else (w, n, limit)
            if w or solve is not max_survive_exact:
                solve(*args)
            else:
                with pytest.raises(ValueError, match="trivial"):
                    solve(*args)
            assert len(calls) == 1, (solve.__name__, w, n)


def _brute_cover_optimum(m, sets):
    best = None
    for choice in itertools.product([0, 1], repeat=len(sets)):
        if all(any(j in s for s, c in zip(sets, choice) if c) for j in range(1, m + 1)):
            size = sum(choice)
            best = size if best is None else min(best, size)
    return best


def test_set_cover_reduction_fidelity_random():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 3)
        n = rng.randint(2, 4)
        while True:
            sets = [sorted(rng.sample(range(1, m + 1), rng.randint(0, m))) for _ in range(n)]
            if all(any(j in s for s in sets) for j in range(1, m + 1)):
                break
        word, _ = set_cover_to_hanging(m, sets)
        assert min_fell_exact(word, n).size == _brute_cover_optimum(m, sets)


def _reference_min_fell(w, n):
    """The per-mask scan: every mask of each size in numeric (Gosper) order."""
    for k in range(n + 1):
        masks = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(n), k))
        for mask in masks:
            if falls(w, NailSubset(n, mask)):
                return mask
    raise AssertionError("the full subset always fells")


def _reference_max_survive(w, n):
    """The per-mask scan from size n - 1 down, each size in numeric order."""
    full = (1 << n) - 1
    for k in range(n - 1, -1, -1):
        kept = itertools.combinations(range(n), n - k)
        for mask in sorted(full ^ sum(1 << i for i in c) for c in kept):
            if not falls(w, NailSubset(n, mask)):
                return mask
    raise AssertionError("the empty subset hangs a nontrivial word")


def _reference_greedy(w, n):
    """Remove the most shortening nail, lowest index on ties, until it falls."""
    chosen = set()
    residual = w.reduce()
    while residual:
        best_nail, best_len = 0, -1
        for i in range(1, n + 1):
            if i in chosen:
                continue
            length = len(remove_nails(residual, (i,)))
            if best_len < 0 or length < best_len:
                best_nail, best_len = i, length
        chosen.add(best_nail)
        residual = remove_nails(residual, (best_nail,))
    return NailSubset.from_members(n, chosen).mask


def _differential_corpus():
    rng = random.Random(11)
    corpus = [(Word(()), n) for n in range(4)]
    for n in range(9):
        for _ in range(12):
            nails = list(range(1, n + 1))
            if nails and rng.random() < 0.4:  # only some of the n nails
                nails = rng.sample(nails, rng.randint(1, n))
            length = rng.randint(0, 24) if nails else 0
            corpus.append((Word(tuple(rng.choice(nails) * rng.choice((1, -1))
                                      for _ in range(length))), n))
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(2, 6)
        while True:
            sets = [rng.sample(range(1, m + 1), rng.randint(0, m)) for _ in range(n)]
            if all(any(j in s for s in sets) for j in range(1, m + 1)):
                break
        corpus.append((set_cover_to_hanging(m, sets)[0], n))
    # Every element in exactly r sets: owner sets of 2 and 3 nails, the
    # clauses the top side of min_fell_exact finds after two or three layers.
    for r in (2, 3):
        for _ in range(12):
            m, n = rng.randint(4, 10), rng.randint(r + 1, 8)
            sets = [set() for _ in range(n)]
            for element in range(1, m + 1):
                for i in rng.sample(range(n), r):
                    sets[i].add(element)
            corpus.append((set_cover_to_hanging(m, sets)[0], n))
    corpus += [(build_k_of_n(k, n, verify=False).word, n) for n in range(1, 9) for k in range(1, n + 1)]
    # Deeply nested commutators: S_n, commutators of commutators that share
    # nails, and conjugates by their own parts, whose strips cancel across
    # many levels at once.
    corpus += [(build_s(n), n) for n in range(2, 8)]
    deep = [Word((i,)) for i in (1, 2, 3, 1, 4, 2, 3)]
    for _ in range(4):
        deep = [raw_commutator(a, b) for a, b in zip(deep, deep[1:])]
    corpus += [(w, 4) for w in deep]
    corpus += [(raw_commutator(raw_commutator(build_s(3), build_e([2, 4])), build_s(4)), 5),
               (raw_concat(deep[0], build_s(4), raw_inverse(deep[0])), 6)]
    # Packed words (every nail at most 127) searched over n = 200 nails: a
    # mask bit i >= 128 must not strip nail 256 - i.  Nail 128 stays on ints.
    # max_survive_exact scans only the held nails 1 and 127 of the commutator.
    corpus += [(Word((127,)), 200), (Word((1, 127, 1, -127)), 200),
               (Word((1, 127, -1, -127)), 200),
               (Word((125, 126, 127, -125, -126, -127, 127)), 200),
               (Word((1, 128, 1, -128)), 200)]
    return corpus


def test_min_fell_decides_near_the_top_fast():
    """20-of-20 and 19-of-20 fall on every nail but one at most; the top side sees it at once."""
    for k in (20, 19):
        w = build_k_of_n(k, 20, verify=False).word
        start = time.perf_counter()
        assert min_fell_exact(w, 20).mask == (1 << k) - 1
        assert time.perf_counter() - start < 0.5, k


def test_hitting_set_search_finds_the_numerically_first():
    """The candidate search against a scan of every mask of each size."""
    rng = random.Random(27)
    for _ in range(150):
        h = rng.randint(1, 7)
        clauses = sorted({rng.randint(1, (1 << h) - 1) for _ in range(rng.randint(1, 6))}, key=int.bit_count)
        for size in range(h + 1):
            hits = (m for m in range(1 << h) if m.bit_count() == size and all(m & c for c in clauses))
            assert _hit(clauses, h, size, 0) == next(hits, None), (h, clauses, size)


def test_solvers_return_the_masks_of_the_per_mask_references():
    for w, n in _differential_corpus():
        assert min_fell_exact(w, n, limit=200).mask == _reference_min_fell(w, n), (w, n)
        assert greedy_min_fell(w, n).mask == _reference_greedy(w, n), (w, n)
        if w:
            assert max_survive_exact(w, n, limit=200).mask == _reference_max_survive(w, n), (w, n)
