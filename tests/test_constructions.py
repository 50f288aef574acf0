"""Commutator constructions: S_n, the quadratic E words, disjoint classes."""

import random
import tracemalloc
from operator import neg

import pytest

from picturehang.constructions import (
    _splice,
    build_disjoint,
    build_e,
    build_s,
    e_template,
    e_tree_length,
    e_word_length,
    lay_out_e,
    s_word_length,
)
from picturehang.words import (
    Word,
    _residual,
    commutator,
    fall_table,
    falls,
    nail_counts,
    parse_word,
    raw_commutator,
    raw_inverse,
)


def _e_tree(words):
    """The balanced recursion over words, laid out with raw commutators."""
    if len(words) == 1:
        return words[0]
    half = (len(words) + 1) // 2
    return raw_commutator(_e_tree(words[:half]), _e_tree(words[half:]))


def test_s1_is_the_single_generator():
    assert build_s(1).letters == (1,)


def test_s3_exact_letters():
    assert build_s(3) == parse_word("x1 x2 X1 X2 x3 x2 x1 X2 X1 X3")
    assert build_s(3).letters == tuple(parse_word("x1 x2 X1 X2 x3 x2 x1 X2 X1 X3").letters)


def test_s_is_commutator_of_previous_with_next_generator():
    s2 = build_s(2)
    assert commutator(s2, Word((3,))).letters == build_s(3).letters


def test_s_lengths_match_formula():
    for n in range(1, 13):
        assert len(build_s(n)) == s_word_length(n) == (1 << n) + (1 << (n - 1)) - 2


def test_s_falls_exactly_when_any_nail_removed():
    for n in range(1, 7):
        table = fall_table(build_s(n), n)
        assert table == [mask != 0 for mask in range(1 << n)]


def test_e14_exact_letters():
    assert build_e([1, 2, 3, 4]) == parse_word(
        "x1 x2 X1 X2 x3 x4 X3 X4 x2 x1 X2 X1 x4 x3 X4 X3"
    )


def test_e_singleton_and_pair():
    assert build_e([5]).letters == (5,)
    assert build_e([2, 7]).letters == (2, 7, -2, -7)


def test_e_rejects_bad_indices():
    with pytest.raises(ValueError):
        build_e([])
    with pytest.raises(ValueError):
        build_e([1, 1])
    with pytest.raises(ValueError, match="nail index 0 out of range"):
        build_e([0, 1])


def test_e_on_high_nails_stays_small():
    top = 10**9
    tracemalloc.start()
    try:
        w = build_e([top - 1, top])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert w.letters == (top - 1, top, 1 - top, -top)


def test_e_lengths_formula_and_quadratic_bound():
    for n in range(1, 65):
        w = build_e(list(range(1, n + 1)))
        assert len(w) == e_word_length(n)
        assert len(w) <= 2 * n * n
        assert max(nail_counts(w, n).values()) <= 2 * n


def test_e_words_are_flagged_reduced_honestly():
    rng = random.Random(31)
    for m in range(1, 21):
        w = build_e(rng.sample(range(1, 41), m))
        assert w.reduced and w.letters == tuple(_residual(w.letters)), m


def test_e_template_equals_the_commutator_recursion():
    rng = random.Random(12)
    for m in range(1, 17):
        for _ in range(4):
            nails = rng.sample(range(1, 100), m)  # unsorted, with gaps
            w = build_e(nails)
            assert w.letters == _e_tree([Word((i,)) for i in nails]).letters
            assert len(w) == e_word_length(m)


def test_disjoint_template_equals_the_commutator_recursion():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 12)
        nails = list(range(1, n + 1))
        rng.shuffle(nails)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        classes = [nails[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        want = _e_tree([Word(tuple(sorted(c))) for c in classes])
        assert build_disjoint(classes).letters == want.letters


def test_e_respects_arbitrary_index_sets():
    w = build_e([3, 1, 4])
    assert falls(w, {3})
    assert falls(w, {1})
    assert falls(w, {4})
    assert not falls(w, {2})


def test_e_falls_exactly_when_any_member_removed():
    for n in range(1, 7):
        table = fall_table(build_e(list(range(1, n + 1))), n)
        assert table == [mask != 0 for mask in range(1 << n)]


def test_disjoint_classes_fall_function():
    w = build_disjoint([{1, 2}, {3, 4}])
    table = fall_table(w, 4)
    for mask in range(16):
        expected = (mask & 0b0011) == 0b0011 or (mask & 0b1100) == 0b1100
        assert table[mask] == expected


def test_disjoint_validates_partition():
    with pytest.raises(ValueError):
        build_disjoint([])
    with pytest.raises(ValueError):
        build_disjoint([{1}, {1, 2}])
    with pytest.raises(ValueError):
        build_disjoint([{1}, {3}])


def test_disjoint_length_bound_random_partitions():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 12)
        nails = list(range(1, n + 1))
        rng.shuffle(nails)
        k = rng.randint(1, n)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        classes = []
        prev = 0
        for cut in cuts + [n]:
            classes.append(set(nails[prev:cut]))
            prev = cut
        assert len(build_disjoint(classes)) <= 2 * k * n
        assert e_tree_length([len(c) for c in classes]) == len(build_disjoint(classes))


def test_e_tree_length_refuses_no_sizes():
    with pytest.raises(ValueError):
        e_tree_length([])


def test_splice_reads_plus_i_as_argument_i_and_minus_i_as_its_inverse():
    template = (1, -2, 3, -1, 2, -3, -3)
    assert list(_splice(template, [7, 5, 9], neg)) == [7, -5, 9, -7, 5, -9, -9]
    a, b, c = Word((1, 2)), Word((3,)), Word((-4, 5))
    got = list(_splice(template, [a, b, c], raw_inverse))
    assert got == [a, raw_inverse(b), c, raw_inverse(a), b, raw_inverse(c), raw_inverse(c)]


def test_splice_lays_out_the_balanced_and_class_words_letter_by_letter():
    rng = random.Random(19)
    for m in range(1, 13):
        nails = rng.sample(range(1, 40), m)
        want = [nails[x - 1] if x > 0 else -nails[-x - 1] for x in e_template(m)]
        assert list(lay_out_e(nails)) == want == list(build_e(nails).letters)
    for _ in range(30):
        n = rng.randint(1, 10)
        nails = list(range(1, n + 1))
        rng.shuffle(nails)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        classes = [sorted(nails[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
        want = []
        for x in e_template(len(classes)):
            want += classes[x - 1] if x > 0 else [-i for i in reversed(classes[-x - 1])]
        assert list(build_disjoint(classes).letters) == want
