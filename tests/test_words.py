"""Free-group word core: reduction, fall machinery, formats."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from picturehang.words import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    EMPTY_WORD,
    ExhaustiveLimitError,
    NailSubset,
    Word,
    WordFormatError,
    commutator,
    concat,
    fall_table,
    falls,
    first_mismatch,
    format_word,
    inverse,
    is_monotone_table,
    nail_counts,
    parse_word,
    power,
    raw_commutator,
    reduce,
    remove_nails,
    verify_threshold,
    word_from_json,
    word_to_json,
)
from picturehang.words import (
    _holds,
    _kept_residual,
    _masks_of_size,
    _nails_of,
    _pack,
    _product,
    _residual,
    _search_root,
    check_limit,
    check_nails,
)

letters_st = st.lists(
    st.integers(min_value=-6, max_value=6).filter(lambda x: x != 0), max_size=40
)
words_st = letters_st.map(lambda xs: Word(tuple(xs)))


def test_reduce_cancels_adjacent_inverses():
    assert reduce(Word((1, -1))) == EMPTY_WORD
    assert reduce(Word((1, 2, -2, -1))) == EMPTY_WORD
    assert reduce(Word((1, 2, -2, 3))).letters == (1, 3)


def test_reduce_cascades_through_new_adjacencies():
    # x1 x2 x̄2 x̄1 x3: the outer pair only meets after the inner cancels.
    assert reduce(Word((1, 2, -2, -1, 3))).letters == (3,)


def test_reduction_stack_empties_mid_word_and_grows_again():
    w = parse_word("x1 X1 X2 x2 x3")
    assert reduce(w).letters == (3,)
    assert remove_nails(w, [2]).letters == (3,)
    assert remove_nails(w, [1, 2]).letters == (3,)
    assert remove_nails(w, [3]).letters == ()
    assert fall_table(w, 3) == [False, False, False, False, True, True, True, True]
    # After the stack empties, the next letter is pushed whatever its sign.
    assert reduce(parse_word("x1 X1 X1 x2")).letters == (-1, 2)
    assert reduce(parse_word("x1 X1 x1 x2")).letters == (1, 2)
    assert remove_nails(parse_word("x1 x3 X1 X3 X3 x2"), [1]).letters == (-3, 2)


def test_max_nail_takes_both_signs():
    assert EMPTY_WORD.max_nail == 0
    assert Word((2, -7, 3)).max_nail == 7
    assert Word((-4,)).max_nail == 4
    assert Word((4, -2)).max_nail == 4


def test_first_mismatch_reports_the_first_differing_mask():
    w = Word((1, 2, -1, -2))  # falls once nail 1 or nail 2 is removed
    table = fall_table(w, 2)
    assert first_mismatch(w, 2, table) is None
    assert first_mismatch(w, 2, tuple(table)) is None
    assert first_mismatch(w, 2, [False, True, False, False]) == 2
    assert first_mismatch(w, 2, [True, False, True, False]) == 0


def test_masks_of_size_in_numeric_order():
    assert list(_masks_of_size(4, 0)) == [0]
    assert list(_masks_of_size(4, 2)) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert list(_masks_of_size(3, 4)) == []
    for n in range(7):
        for k in range(n + 1):
            assert list(_masks_of_size(n, k)) == [m for m in range(1 << n) if m.bit_count() == k]


def test_verify_threshold_decides_on_the_boundary_and_names_the_first_mismatch():
    w = Word((1, 2, 3, -1, -2, -3))  # 2-of-3
    assert verify_threshold(w, 3, 2) == (None, "boundary", 6)
    assert verify_threshold(EMPTY_WORD, 3, 0) == (None, "boundary", 1)
    assert verify_threshold(Word((1,)), 3, 0) == (0, "table", 8)
    # x1 x2 X1 X2 is 1-of-2: against 2-of-2 it falls at {1}, mask 1, first.
    assert verify_threshold(Word((1, 2, -1, -2)), 2, 2) == (1, "table", 4)
    assert verify_threshold(Word((1, 2, -1, -2)), 3, 1) == (4, "table", 8)
    with pytest.raises(ValueError, match="k=4 out of range 0..3"):
        verify_threshold(w, 3, 4)
    with pytest.raises(ValueError, match="beyond n=2"):
        verify_threshold(w, 2, 1)


def test_equality_is_up_to_reduction():
    assert Word((1, 2, -2)) == Word((1,))
    assert Word((1, 2, -2)) != Word((2,))
    assert hash(Word((1, 2, -2))) == hash(Word((1,)))


def test_word_of_rejects_zero():
    with pytest.raises(ValueError):
        Word.of(1, 0, 2)


def test_checked_constructors_reject_a_zero_letter():
    # Word itself is unchecked by design; these three are the checked doors.
    assert Word((0,)).letters == (0,)
    with pytest.raises(ValueError, match="nonzero"):
        Word.of(0)
    with pytest.raises(WordFormatError, match="1-based"):
        parse_word("X0")
    with pytest.raises(WordFormatError, match="nonzero"):
        word_from_json("[0]")


def test_concat_inverse_power_are_reduced():
    w = Word((1, 2))
    assert concat(w, inverse(w)) == EMPTY_WORD
    assert inverse(w).letters == (-2, -1)
    assert power(w, 2).letters == (1, 2, 1, 2)
    assert power(w, -1) == inverse(w)
    assert power(w, 0) == EMPTY_WORD


def test_commutator_of_commuting_words_is_trivial():
    w = Word((1,))
    assert commutator(w, w) == EMPTY_WORD
    assert commutator(w, power(w, 3)) == EMPTY_WORD


def test_raw_commutator_keeps_unreduced_layout():
    assert raw_commutator(Word((1,)), Word((1,))).letters == (1, 1, -1, -1)


def test_remove_nails_deletes_and_reduces():
    w = Word((1, 2, 3, -1, -2, -3))
    assert remove_nails(w, {2}).letters == (1, 3, -1, -3)
    assert remove_nails(w, {1, 2, 3}) == EMPTY_WORD
    assert remove_nails(w, NailSubset.from_members(3, [2])).letters == (1, 3, -1, -3)


def test_remove_nails_equals_deleting_then_reducing():
    rng = random.Random(5)
    for length in (10, 300):
        w = Word(tuple(rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(length)))
        for mask in range(1 << 6):
            kept = Word(tuple(x for x in w.letters if not (mask >> (abs(x) - 1)) & 1))
            assert remove_nails(w, NailSubset(6, mask)).letters == kept.reduce().letters
            assert falls(w, NailSubset(6, mask)) == (not kept.reduce().letters)
        # Nails 7 and 8 are unused, so they must not change the table.
        assert fall_table(w, 8) == [falls(w, NailSubset(8, m)) for m in range(1 << 8)]


def test_remove_nails_drops_one_high_numbered_nail_from_a_long_word():
    w = Word((1, 100_000, 2, -100_000) * 50)
    assert remove_nails(w, [100_000]) == Word((1, 2) * 50)
    assert not falls(w, [100_000])
    assert falls(w, [1, 2])


def test_falls_matches_residual_triviality():
    w = Word((1, 2, -1, -2))
    assert not falls(w, ())
    assert falls(w, (1,))
    assert falls(w, (2,))


def test_fall_table_indexing_and_monotonicity():
    w = Word((1, 2, -1, -2))
    table = fall_table(w, 2)
    assert table == [False, True, True, True]
    assert is_monotone_table(table, 2)


def test_fall_table_validates_range_and_limit():
    with pytest.raises(ValueError):
        fall_table(Word((3,)), 2)
    with pytest.raises(ExhaustiveLimitError):
        fall_table(Word((1,)), DEFAULT_EXHAUSTIVE_LIMIT + 1)
    table = fall_table(Word((1,)), 21, limit=21)
    assert len(table) == 1 << 21


def test_exhaustive_limit_is_one_check_with_one_wording():
    from picturehang.circuits import PuzzleSpec, circuit_table, parse_formula
    from picturehang.sortnet import batcher_network, sorts_all_zero_one
    from picturehang.spectator import max_survive_exact, min_fell_exact

    calls = {
        "fall_table": lambda: fall_table(Word((1,)), 3, limit=2),
        "verify_threshold": lambda: verify_threshold(Word((1,)), 3, 1, limit=2),
        "circuit_table": lambda: circuit_table(parse_formula("r3"), limit=2),
        "PuzzleSpec.table": lambda: PuzzleSpec.from_threshold(3, 1).table(limit=2),
        "min_fell_exact": lambda: min_fell_exact(Word((1,)), 3, limit=2),
        "max_survive_exact": lambda: max_survive_exact(Word((1,)), 3, limit=2),
        "sorts_all_zero_one": lambda: sorts_all_zero_one(batcher_network(3), limit=2),
    }
    for what, call in calls.items():
        with pytest.raises(ExhaustiveLimitError) as info:
            call()
        assert str(info.value) == (
            f"{what} over n=3 enumerates 2^3 subsets, beyond the exhaustive limit 2; "
            "pass limit=3 to allow it"
        )


def test_fall_table_equals_falls_on_every_mask():
    rng = random.Random(11)

    def random_word(nails, length):
        return Word(tuple(rng.choice((1, -1)) * rng.choice(nails) for _ in range(length)))

    for n in range(11):
        nails = list(range(1, n + 1))
        words = [EMPTY_WORD, Word(tuple(nails))]  # the product falls only at the full set
        if n:
            some = rng.sample(nails, rng.randint(1, n))
            words.append(random_word(some, 30))  # leaves the other nails unused
            for _ in range(3):
                a, b = random_word(nails, rng.randint(1, 6)), random_word(nails, rng.randint(1, 6))
                words.append(random_word(nails, rng.randint(0, 20)))
                words.append(raw_commutator(a, b))
                words.append(raw_commutator(raw_commutator(a, b), random_word(some, 3)))
        for w in words:
            assert fall_table(w, n) == [falls(w, NailSubset(n, m)) for m in range(1 << n)]


def test_nail_subset_basics():
    s = NailSubset.from_members(4, [1, 3])
    assert s.mask == 0b0101
    assert s.members == frozenset({1, 3})
    assert s.size == 2
    assert 3 in s and 2 not in s
    assert list(s) == [1, 3]
    assert str(s) == "{1,3}"
    assert NailSubset.full(3).mask == 0b111
    with pytest.raises(ValueError):
        NailSubset.from_members(2, [3])


def test_nail_counts_include_zero_rows():
    w = Word((1, 1, -3))
    assert nail_counts(w, 3) == {1: 2, 2: 0, 3: 1}


def test_parse_and_format_round_trip():
    text = "x1 x2 X1 X2"
    w = parse_word(text)
    assert w.letters == (1, 2, -1, -2)
    assert format_word(w) == text
    assert parse_word("") == EMPTY_WORD
    assert format_word(EMPTY_WORD) == ""


def test_parse_word_rejects_bad_tokens():
    for bad in ("y1", "x0", "x", "x1 X0", "x-2"):
        with pytest.raises(WordFormatError):
            parse_word(bad)


def test_parse_word_reports_each_bad_token_at_its_own_position():
    text = "x1 X2 " * 500 + "x3 y1 x1 y1"
    with pytest.raises(WordFormatError) as err:
        parse_word(text)
    assert str(err.value) == "bad token 'y1' at position 1001"
    with pytest.raises(WordFormatError) as err:
        parse_word("x1 " * 50 + "x0")
    assert str(err.value) == "bad token 'x0' at position 50: nails are 1-based"


@given(letters_st)
def test_parse_word_round_trips_format_word(letters):
    assert parse_word(format_word(Word(tuple(letters)))).letters == tuple(letters)


def test_word_json_round_trip():
    w = Word((1, -2, 3))
    assert word_from_json(word_to_json(w)) == w
    with pytest.raises(WordFormatError):
        word_from_json("[1, 0]")
    with pytest.raises(WordFormatError):
        word_from_json("{}")
    with pytest.raises(WordFormatError):
        word_from_json("[true, 2, -1, -2]")


def _reduce_random_order(letters, rng):
    out = list(letters)
    while True:
        pairs = [i for i in range(len(out) - 1) if out[i] == -out[i + 1]]
        if not pairs:
            return tuple(out)
        i = rng.choice(pairs)
        del out[i : i + 2]


@settings(derandomize=True, max_examples=200)
@given(letters_st, st.integers(min_value=0, max_value=2**31))
def test_reduction_confluence(letters, seed):
    rng = random.Random(seed)
    assert Word(tuple(letters)).reduce().letters == _reduce_random_order(letters, rng)


@settings(derandomize=True, max_examples=200)
@given(words_st)
def test_inverse_law(w):
    assert concat(w, inverse(w)) == EMPTY_WORD
    assert inverse(inverse(w)) == w.reduce()


@settings(derandomize=True, max_examples=200)
@given(words_st, words_st, st.sets(st.integers(min_value=1, max_value=6)))
def test_removal_is_a_homomorphism(a, b, nails):
    lhs = remove_nails(concat(a, b), nails)
    rhs = concat(remove_nails(a, nails), remove_nails(b, nails))
    assert lhs == rhs


@settings(derandomize=True, max_examples=200)
@given(words_st)
def test_fall_tables_are_monotone(w):
    assert is_monotone_table(fall_table(w, 6), 6)


def _unpack(packed):
    """Letters of a packed residual: bytes above 127 are inverse letters."""
    return [x - 256 if x > 127 else x for x in packed]


@st.composite
def packable_letters_and_mask(draw):
    """Letters over a few nails in 1..127, and a mask of nails to drop.

    The mask takes the word's own nails, the nails 256 - i whose packed
    bytes would alias them, and any nail up to 300.
    """
    nails = draw(st.lists(st.integers(min_value=1, max_value=127), min_size=1, max_size=4,
                          unique=True))
    letters = draw(st.lists(st.sampled_from(nails + [-i for i in nails]), max_size=40))
    dropped = draw(st.sets(st.one_of(st.sampled_from(nails),
                                     st.sampled_from([256 - i for i in nails]),
                                     st.integers(min_value=1, max_value=300)), max_size=6))
    return letters, sum(1 << (i - 1) for i in dropped)


@settings(derandomize=True, max_examples=300)
@given(packable_letters_and_mask())
@example(([127, 1, -127, -1], 1 << 128))  # nail 129's bytes are nail 127's
@example(([-127, 127, 2, -2, 127], 1 << 127 | 1 << 1))  # nail 128 and nail 2
def test_packed_residual_equals_the_int_residual(case):
    letters, mask = case
    packed = _pack(letters)
    assert isinstance(packed, bytes)
    assert _unpack(packed) == letters
    assert _unpack(_residual(packed)) == _residual(letters)
    assert _unpack(_residual(packed, mask)) == _residual(letters, mask)


def test_nail_127_packs_and_nail_128_keeps_the_int_path():
    assert _pack((127, -127, 1, -1)) == bytes((127, 129, 1, 255))
    assert _pack(()) == b""
    for letters in [(128,), (-128,), (1, 128, -1, -128), (-300, 2)]:
        assert _pack(letters) is letters


@st.composite
def reduced_pieces(draw):
    """Reduced pieces whose product cancels at the joins.

    A piece is either a random reduced word or the inverse of a tail of the
    product so far, which can reach back across several pieces, followed
    by a random reduced word; a tail of exactly the last piece cancels it
    whole.
    """
    pieces: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        piece = list(draw(letters_st))
        if pieces and draw(st.booleans()):
            product = _residual([x for p in pieces for x in p])
            cut = draw(st.integers(min_value=0, max_value=len(product)))
            piece = [-x for x in reversed(product[cut:])] + piece
        pieces.append(tuple(_residual(piece)))
    return pieces


@settings(derandomize=True, max_examples=300)
@given(reduced_pieces())
@example([(1, 2), (3,), (-3,), (-2, -1), (4,)])  # a piece cancels whole, then a cascade
@example([(1, 2, 3), (-3,), (-2,), (-1, 5)])  # the product empties, then grows again
@example([(1,), (), (-1,), (-1,)])
def test_product_of_reduced_pieces_is_the_residual_of_their_concatenation(pieces):
    assert _product(pieces) == _residual([x for p in pieces for x in p])


def test_product_takes_pieces_of_any_iterable_type():
    assert _product([[1, 2], (-2, 3), iter([-3, -1])]) == []
    assert _product([(1, 2), map(abs, [-3, -4]), iter([-4, 5])]) == [1, 2, 3, 5]


@st.composite
def packable_letters_and_keep(draw):
    """Letters over a few nails in 1..127, and a mask of nails to keep."""
    letters, _ = draw(packable_letters_and_mask())
    nails = sorted({abs(x) for x in letters}) or [1]
    kept = draw(st.sets(st.one_of(st.sampled_from(nails), st.integers(1, 300)), max_size=4))
    return letters, sum(1 << (i - 1) for i in kept)


@settings(derandomize=True, max_examples=300)
@given(packable_letters_and_keep())
@example(([1, -1, 1, 1, -1, -1, 2, -2, -2], 0b1))  # x X x x X X strips to x X, then nothing
@example(([127, 1, -127, -1], 1 << 128 | 1))  # keep bit 129 must not keep nail 127
def test_kept_residual_is_the_residual_of_the_complement_strip(case):
    letters, keep = case
    want = _residual(letters, ((1 << 127) - 1) & ~keep)
    assert _kept_residual(letters, keep) == want
    assert _unpack(_kept_residual(_pack(letters), keep)) == want


def test_holds_and_nails_of_read_both_forms():
    letters = (3, -5, 127, -127)
    for form in (letters, _pack(letters)):
        assert _nails_of(form) == {3, 5, 127}
        assert [nail for nail in range(1, 300) if _holds(form, nail)] == [3, 5, 127]
    assert _nails_of((200, -1)) == {1, 200}
    assert _holds((200, -1), 200) and not _holds(b"\x01", 255)


def _check_errors(w, n, limit):
    """The errors of check_nails then check_limit, as (type, message), or None."""
    try:
        check_nails(w, n)
        check_limit("fall_table", n, limit)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# Words and n: a negative n, a cancelling nail beyond n, nails 127, 128 and
# -128 (whose byte would be its own inverse) on both sides of n, and nails
# beyond n when n is also over the limit.
SEARCH_ROOTS = [
    ((1,), -1), ((), -1), ((9, -9), 3), ((127,), 3), ((127, -127, 2), 127),
    ((128,), 127), ((-128,), 127), ((-128,), 128), ((-128, -128), 200),
    ((1, -128, 2, -2, 128, -1), 130), ((300, -300), 25), ((30,), 25), ((3,), 25),
    ((2, 1, -2), 2), ((), 0), ((1,), 0),
]


@pytest.mark.parametrize("letters, n", SEARCH_ROOTS)
def test_search_root_refuses_as_check_nails_does_in_the_same_order(letters, n):
    w = Word(letters)
    want = _check_errors(w, n, 20)
    try:
        fall_table(w, n, limit=20)
    except ValueError as exc:
        assert (type(exc), str(exc)) == want
    else:
        assert want is None
    try:
        root = _search_root(w, n)
    except ValueError as exc:
        assert (type(exc), str(exc)) == _check_errors(w, n, n)
    else:
        assert _check_errors(w, n, n) is None
        unpacked = _unpack(root) if isinstance(root, bytes) else list(root)
        assert unpacked == list(w.reduce().letters)
        assert isinstance(root, bytes) == all(abs(x) < 128 for x in letters)
