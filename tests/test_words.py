"""Free-group word core: reduction, fall machinery, formats."""

import random
from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from picturehang import compiler
from picturehang.circuits import PuzzleSpec, _minimal_sets, parse_formula
from picturehang.compiler import compile_circuit
from picturehang.gadgets import _product, gadget_and, gadget_and_tree
from picturehang.sortnet import build_k_of_n
from picturehang.spectator import _kept_residual, _masks_of_size
from picturehang.spectator import max_survive_exact, min_fell_exact
from picturehang.verifier import _verdict, verify_threshold
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
    format_word,
    inverse,
    is_monotone_table,
    nail_counts,
    parse_word,
    power,
    raw_commutator,
    reduce,
    remove_nails,
    word_from_json,
    word_to_json,
)
from picturehang.words import (
    _as_mask,
    _drop,
    _invert,
    _nails_of,
    _pack,
    _residual,
    _search_root,
    _strip,
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
    assert table == [False, True, True, True]
    specs = {
        None: PuzzleSpec.from_subsets(2, [[1], [2]]),
        1: PuzzleSpec.from_subsets(2, [[2]]),
        2: PuzzleSpec.from_formula(2, "r2 & r1 | r1"),
        0: PuzzleSpec.from_threshold(2, 0),
    }
    for mask, spec in specs.items():
        want = spec.table()
        assert next((m for m in range(4) if table[m] != want[m]), None) == mask
        assert spec.verify(w)[0] == mask


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


def test_a_threshold_is_compared_mask_by_mask_and_builds_no_table():
    """The walk decides a threshold against the masks' sizes; its reference is never called."""

    def reference():
        raise AssertionError("a threshold built its table")

    w = Word((1, 2, -1, -2))  # 1-of-2: it falls at mask 1, not 10-of-20
    assert _verdict(w, 20, 10, reference, "verify_threshold", 20) == (1, "table", 1 << 20)
    assert _verdict(w, 3, 1, reference, "verify_threshold", 20) == (4, "table", 8)
    assert _verdict(Word((1, 2, 3, -1, -2, -3)), 3, 2, reference, "x", 20) == (None, "boundary", 6)
    assert _verdict(EMPTY_WORD, 8, 0, reference, "x", 20) == (None, "boundary", 1)
    exact = build_k_of_n(4, 8).word  # decided on its 70 + 56 boundary subsets
    assert _verdict(exact, 8, 4, reference, "x", 20) == (None, "boundary", 126)
    assert _verdict(exact, 8, 5, reference, "x", 20)[0] == 15


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
    from picturehang.circuits import circuit_table
    from picturehang.sortnet import batcher_network, sorts_all_zero_one
    from picturehang.spectator import max_survive_exact, min_fell_exact

    calls = {
        "fall_table": lambda: fall_table(Word((1,)), 3, limit=2),
        "verify_threshold": lambda: verify_threshold(Word((1,)), 3, 1, limit=2),
        "circuit_table": lambda: circuit_table(parse_formula("r3"), limit=2),
        "PuzzleSpec.table": lambda: PuzzleSpec.from_threshold(3, 1).table(limit=2),
        "PuzzleSpec.verify": lambda: PuzzleSpec.from_subsets(3, [[1]]).verify(Word((1,)), limit=2),
        "compile_circuit": lambda: compile_circuit(parse_formula("r3"), verify=True, limit=2),
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
@example(([5, 127, -127, -5, 1, -1], 0))  # cancels down to the stack's sentinel
def test_packed_residual_equals_the_int_residual(case):
    letters, mask = case
    packed = _pack(letters)
    assert isinstance(packed, bytes)
    assert _unpack(packed) == letters
    assert _unpack(_residual(packed)) == _residual(letters)
    assert _unpack(_residual(packed, mask)) == _residual(letters, mask)
    for residual in (_residual(packed), _residual(packed, mask)):
        assert type(residual) is bytes  # the bytearray stack is handed back as bytes


def test_nail_127_packs_and_nail_128_keeps_the_int_path():
    assert _pack((127, -127, 1, -1)) == bytes((127, 129, 1, 255))
    assert _pack(()) == b""
    for letters in [(128,), (-128,), (1, 128, -1, -128), (-300, 2), (-129, 1), (200,)]:
        assert _pack(letters) is letters
    assert _pack([1, -2]) == bytes((1, 254))  # a list packs as a tuple does


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
@example([(1, 2), (3,), (4,), (), (-4, -3), (-2,), (-1, 5)])  # whole pieces cancel across joins
def test_product_of_reduced_pieces_is_the_residual_of_their_concatenation(pieces):
    want = _residual([x for p in pieces for x in p])
    assert _product(pieces) == want
    packed = _product([_pack(p) for p in pieces], packed=True)
    assert type(packed) is bytes and _unpack(packed) == want


def test_product_takes_the_sequences_its_callers_pass():
    """Tuples and lists on ints, bytes packed.

    (-3,) cancels whole, so [-1, 4] cancels into the first piece.
    """
    assert _product([[1, 2], (-2, 3), [-3, -1]]) == []
    pieces = [(5, 1, 2), [-2, 3], (-3,), [-1, 4], (-4, 6)]
    assert _product(pieces) == [5, 6] and type(_product(pieces)) is list
    assert _product([_pack(p) for p in pieces], packed=True) == _pack([5, 6])
    assert _product([b"", _pack([1, 2]), b"", _pack([-2, -1])], packed=True) == b""


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


def test_kept_residual_of_one_nail_is_its_letter_count_on_both_forms():
    """A one-nail keep, x_a^e with e = #a - #A, equals the complement strip as ints and as bytes."""
    rng = random.Random(29)
    cases = [((127, 1, 127, -1, 127), 1 << 126), ((127, -127, -127, 3), 1 << 126),
             ((1, 2, -1, 2), 1 << 4)]  # nail 127 kept, twice; a kept nail the word does not hold
    for _ in range(300):
        nails = rng.sample([*range(1, 9), 126, 127], rng.randint(1, 4))
        letters = [rng.choice(nails) * rng.choice((1, -1)) for _ in range(rng.randint(0, 30))]
        cases.append((letters, 1 << rng.choice([*nails, rng.randint(1, 127)]) - 1))
    for letters, keep in cases:
        want = _residual(letters, ((1 << 127) - 1) & ~keep)
        got = _kept_residual(list(letters), keep)
        assert type(got) is list and got == want, (letters, keep)
        packed = _kept_residual(_pack(letters), keep)
        assert type(packed) is bytes and _unpack(packed) == want, (letters, keep)
    assert _kept_residual(_pack((1, 1, 127)), 1 << 128 | 1 << 127) == b""  # bits above 127 ignored
    assert _kept_residual((128, 128, -1), 1 << 127) == [128, 128]


def test_kept_residual_equals_the_residual_of_the_other_nails_dropped(cover_leaves):
    """Seeded words on both forms, many of them u U, which sweep to nothing whatever is kept."""
    rng = random.Random(31)
    for _ in range(300):
        nails = rng.sample([*range(1, 9), 126, 127], rng.randint(2, 5))
        letters = [rng.choice(nails) * rng.choice((1, -1)) for _ in range(rng.randint(0, 60))]
        if rng.random() < 0.5:
            letters += _invert(letters)
        kept = rng.sample(nails, rng.randint(1, len(nails)))  # one nail: the count path
        keep = sum(1 << i - 1 for i in kept) | rng.choice((0, 1 << 127, 1 << 200))
        want = _residual(_drop(letters, [i for i in range(1, 128) if i not in kept]))
        assert _kept_residual(list(letters), keep) == want, (letters, keep)
        assert _unpack(_kept_residual(_pack(letters), keep)) == want, (letters, keep)
    assert _kept_residual(_pack([1, 2, -2, -1] * 20), 0b11) == b""  # 80 letters, one sweep to 2
    # AND trees over Set Cover leaves keeping two or three nails: 43 of these 70 keeps sweep more than once.
    for m, sets in [(9, [[1, 4, 7], [2, 5, 8], [3, 6, 9], [1, 2, 3], [4, 5, 6, 9], [7, 8]]),
                    (8, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8], [8, 1]])]:
        word = gadget_and_tree(cover_leaves(m, sets))
        for kept in [*combinations(range(1, 7), 2), *combinations(range(1, 7), 3)]:
            want = _residual(_drop(word.letters, [i for i in range(1, 9) if i not in kept]))
            assert _unpack(_kept_residual(word.tree.root, _as_mask(kept))) == want, (m, kept)
            assert _kept_residual(word.letters, _as_mask(kept)) == want, (m, kept)
    assert _kept_residual([200, 1, 5, -200, -1], 1 << 199 | 1) == [200, 1, -200, -1]


def test_nails_of_and_strip_read_both_forms():
    letters = (3, -5, 127, -127)
    for form in (letters, _pack(letters)):
        assert _nails_of(form, 127) == {3, 5, 127}
        held = [nail for nail in range(1, 128) if len(_strip(form, nail)) < len(form)]
        assert held == [3, 5, 127]
    assert _nails_of((200, -1), 200) == {1, 200}
    assert _nails_of(_pack(letters), 300) == {3, 5, 127}  # a packed word holds no nail above 127
    assert list(_strip((200, -1), 200)) == [-1]
    # Seeded words on nails up to n, packed, read under the bound n a caller
    # checked them against: every wrapped nail is found, and no other.
    rng = random.Random(28)
    for _ in range(300):
        n = rng.choice((1, 2, 8, 20, 126, 127))
        nails = rng.sample(range(1, n + 1), min(n, rng.randint(1, 5))) + [n]
        letters = [rng.choice(nails) * rng.choice((1, -1)) for _ in range(rng.randint(0, 40))]
        assert _nails_of(_pack(letters), n) == set(map(abs, letters)) == _nails_of(letters, n)


def test_strip_returns_the_letters_or_their_residual_less_the_nail():
    # Reduced seeded words, packed up to nail 127 and on ints up to nail 128.
    rng = random.Random(32)
    for _ in range(200):
        for top, form in ((127, _pack), (128, list)):
            nails = rng.sample(range(1, top), 3) + [top]
            letters = [rng.choice(nails) * rng.choice((1, -1)) for _ in range(rng.randint(0, 30))]
            letters = form(_residual(letters))
            held = _nails_of(letters, top)
            for nail in nails + [rng.randint(1, top)]:
                got = _strip(letters, nail)
                if nail in held:
                    assert got == _residual(_drop(letters, [nail])), (letters, nail)
                else:
                    assert got is letters, (letters, nail)


def test_table_strips_equal_the_int_path():
    # Seeded words on nails up to 127, stripped through the byte tables:
    # one nail by _strip, one to three by _drop and by a mask with bits
    # for nails 128 and above, which a packed word ignores.
    rng = random.Random(25)
    for _ in range(400):
        nails = rng.sample(range(1, 126), 3) + [126, 127]
        letters = [rng.choice(nails) * rng.choice((1, -1)) for _ in range(rng.randint(0, 30))]
        packed = _pack(letters)
        held = set(map(abs, letters))
        for nail in nails + [rng.randint(1, 127)]:
            stripped = _strip(packed, nail)
            assert (len(stripped) < len(packed)) == (nail in held), (letters, nail)
            assert _unpack(_residual(stripped)) == _residual(letters, 1 << nail - 1)
        dropped = rng.sample(nails, rng.randint(1, 3))
        want = _residual(letters, _as_mask(dropped))
        assert _unpack(_residual(_drop(packed, dropped))) == want
        assert _residual(_drop(letters, dropped)) == want
        high = rng.getrandbits(200) << 127  # nails 128 to 327
        assert _unpack(_residual(packed, _as_mask(dropped) | high)) == want


def _check_errors(w, n, limit, what="fall_table"):
    """The errors of check_nails then check_limit, as (type, message), or None."""
    try:
        check_nails(w, n)
        check_limit(what, n, limit)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# Each exhaustive search by the name its limit error gives; the threshold
# is n, in range whenever n passes the nail check.
SEARCHES = {
    "fall_table": fall_table,
    "verify_threshold": lambda w, n, limit: verify_threshold(w, n, n, limit),
    "min_fell_exact": min_fell_exact,
    "max_survive_exact": max_survive_exact,
}


# Words and n: a negative n, a cancelling nail beyond n, nails 127, 128 and
# -128 (whose byte would be its own inverse) on both sides of n, nails
# beyond n when n is also over the limit, and low nails on n above 127,
# which stay on ints.
SEARCH_ROOTS = [
    ((1,), -1), ((), -1), ((9, -9), 3), ((127,), 3), ((127, -127, 2), 127),
    ((128,), 127), ((-128,), 127), ((-128,), 128), ((-128, -128), 200),
    ((1, -128, 2, -2, 128, -1), 130), ((300, -300), 25), ((30,), 25), ((3,), 25),
    ((2, 1, -2), 2), ((), 0), ((1,), 0), ((3, -2), 200),
]


@pytest.mark.parametrize("letters, n", SEARCH_ROOTS)
def test_search_root_refuses_as_check_nails_does_in_the_same_order(letters, n):
    w = Word(letters)
    for what, search in SEARCHES.items():
        want = _check_errors(w, n, 20, what)
        if want is None and what == "max_survive_exact" and not w:
            want = ValueError, "word is trivial: the picture has already fallen"
        try:
            search(w, n, 20)
        except ValueError as exc:
            assert (type(exc), str(exc)) == want, what
        else:
            assert want is None, what
    try:
        root = _search_root(w, n)
    except ValueError as exc:
        assert (type(exc), str(exc)) == _check_errors(w, n, n)
    else:
        assert _check_errors(w, n, n) is None
        unpacked = _unpack(root) if isinstance(root, bytes) else list(root)
        assert unpacked == list(w.reduce().letters)
        assert isinstance(root, bytes) == (n < 128 and all(abs(x) < 128 for x in letters))


@pytest.mark.parametrize("letters, n", [(letters, n) for letters, n in SEARCH_ROOTS if n >= 1])
def test_every_verifier_refuses_nails_then_the_limit_under_its_own_name(letters, n, monkeypatch):
    # A spec of each kind through PuzzleSpec.verify, and each of them and a
    # bare circuit through a compile that lays out this word; a spec needs n >= 1.
    w = Word(letters)
    monkeypatch.setattr(compiler, "lay_out", lambda plan: w)
    specs = [
        PuzzleSpec.from_subsets(n, [[1]]),
        PuzzleSpec.from_formula(n, "r1"),
        PuzzleSpec.from_threshold(n, n),
    ]
    calls = [("PuzzleSpec.verify", partial(spec.verify, w, 20)) for spec in specs]
    for target in (*specs, parse_formula("r1", n)):
        calls.append(("compile_circuit", partial(compile_circuit, target, verify=True, limit=20)))
    for what, call in calls:
        want = _check_errors(w, n, 20, what)
        try:
            call()
        except ValueError as exc:
            assert (type(exc), str(exc)) == want, what
        else:
            assert want is None, what


def test_a_packed_word_is_checked_and_reduced_as_its_letters():
    w = gadget_and(Word((5,)), Word((3, 3)))
    letters = w.letters
    assert w.tree.root == _pack(letters) and w.reduce() is w
    assert w == Word(letters) and hash(w) == hash(Word(letters)) and len(w) == len(letters)
    for n in (4, 2, -1):  # nail 5 beyond n, and a negative n, refused as check_nails does
        with pytest.raises(ValueError) as exc:
            _search_root(w, n)
        assert (type(exc.value), str(exc.value)) == _check_errors(Word(letters), n, n)
    assert _search_root(w, 5) is w.tree.root


def test_a_word_takes_no_search_state_from_its_constructor():
    """Only letters and the reduced flag: a word's search state cannot disagree with them."""
    for field in ("packed", "tree"):
        with pytest.raises(TypeError):
            Word((1, 2, -1, -2), **{field: bytes((3,))})
    with pytest.raises(TypeError):
        Word((1, 2, -1, -2), False, bytes((3,)))
    w = Word((1, 2, -1, -2))
    assert fall_table(w, 3) == [False, True, True, True, False, True, True, True]
    assert min_fell_exact(w, 3).members == {1}


def test_minimal_sets_equal_the_pairwise_rule():
    rng = random.Random(20)
    for _ in range(300):
        bits = rng.randint(0, 12)
        sets = [rng.getrandbits(bits) | rng.getrandbits(bits) for _ in range(rng.randint(0, 30))]
        sets += [s & ~(s & -s) for s in rng.sample(sets, len(sets) // 2)]  # nested: one nail less
        sets += rng.sample(sets, len(sets) // 3)  # duplicates
        if rng.random() < 0.2:
            sets.append(0)
        want = [s for s in dict.fromkeys(sets) if not any(o & s == o != s for o in sets)]
        got = _minimal_sets(sets)
        assert sorted(got) == sorted(want)
        assert len(got) == len(set(got))
        assert [s.bit_count() for s in got] == sorted(s.bit_count() for s in got)
