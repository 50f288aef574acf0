"""Words in the free group on n generators, viewed as picture hangings.

A letter is a nonzero integer: +i means one clockwise wrap around nail i,
-i means one counterclockwise wrap.  A word is a finite letter sequence and
the empty word is the fallen picture.  Reduction repeatedly cancels adjacent
inverse pairs; the result is independent of cancellation order, so reduced
words are normal forms and two words are equal iff their reduced letter
tuples coincide.

Removing a set of nails deletes every letter on those nails.  The picture
falls for that removal iff the surviving letters reduce to the empty word.
Deleting a nail's letters is a group homomorphism, so it commutes with
reduction: the residual of S + {i} is the residual of S with nail i deleted
and reduced again.  Falling is monotone, since the empty word stays empty
under further deletions.  `fall_table` walks the subsets on both facts.

One kernel, `_residual`, reduces and strips.  A word is handed to it as
ints, or packed as bytes, one byte per letter (x mod 256), when every nail
is at most 127.  The subset searches here and in `spectator` check and
pack their word once (`_search_root`), so each of their many strips drops
letters with `bytes.translate` in C; plain reduction of a word as built
stays on ints, where packing would cost more than it saves.  Two routines
take work off the kernel's per-letter loop: `_product` reduces a product of
reduced pieces at their joins only, and `_kept_residual` cancels adjacent
pairs of the few nails a strip keeps in C before the loop.
"""

from __future__ import annotations

import json
from itertools import filterfalse
from math import comb
from typing import Iterable, Iterator, Sequence

DEFAULT_EXHAUSTIVE_LIMIT = 20
DEFAULT_LETTER_BUDGET = 10**7


class ExhaustiveLimitError(ValueError):
    """Raised when a 2^n enumeration is requested beyond the configured limit."""


def check_limit(what: str, n: int, limit: int) -> None:
    """Refuse to enumerate 2^n subsets (or 0/1 inputs) when n exceeds ``limit``."""
    if n > limit:
        raise ExhaustiveLimitError(
            f"{what} over n={n} enumerates 2^{n} subsets, beyond the "
            f"exhaustive limit {limit}; pass limit={n} to allow it"
        )


class BudgetExceededError(ValueError):
    """A word would have more letters than the letter budget allows."""


def check_budget(letters: int, budget: int | None) -> None:
    """Refuse a word of ``letters`` letters over ``budget``; None disables."""
    if budget is not None and letters > budget:
        raise BudgetExceededError(
            f"the word would have {letters} letters, more than the budget of {budget}"
        )


def check_nails(w: Word, n: int) -> None:
    """Refuse a negative n, then a word that wraps a nail above n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = w.max_nail
    if top > n:
        raise ValueError(f"word uses nail {top} beyond n={n}")


class WordFormatError(ValueError):
    """Raised when word text or word JSON cannot be parsed."""


def _check_letters(letters: tuple[int, ...]) -> None:
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise ValueError(f"invalid letter {x!r}: letters are nonzero integers")


_set = object.__setattr__  # how a record's __init__ sets its fields


class _Record:
    """Base of the package's immutable records.

    A record lists its fields in ``__slots__`` and sets them in ``__init__``
    with ``_set``; assigning to one afterwards raises AttributeError.  Two
    records of one class are equal, and hash alike, when their ``_key()``
    tuples are, by default every field in order.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Word(_Record):
    """An immutable letter sequence with a known-reduced flag.

    ``letters`` is the as-constructed sequence; ``len(w)`` counts it without
    reducing.  Equality and hashing go through the reduced normal form, so
    ``Word((1, -1))== Word(())`` holds.

    The constructor does not check its letters, so building a word costs no
    per-letter check.  Only ``Word.of``, ``parse_word`` and
    ``word_from_json`` reject a zero or non-integer letter; a zero letter
    passed straight to ``Word`` is undefined: reduction may raise
    ``IndexError`` or keep the zero.
    """

    __slots__ = ("letters", "reduced")

    def __init__(self, letters: tuple[int, ...] = (), reduced: bool = False) -> None:
        _set(self, "letters", letters)
        _set(self, "reduced", reduced)

    @classmethod
    def of(cls, *codes: int) -> "Word":
        letters = tuple(codes)
        _check_letters(letters)
        return cls(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.reduce().letters)

    @property
    def max_nail(self) -> int:
        """Largest nail index used, 0 for the empty word."""
        letters = self.letters
        return max(max(letters), -min(letters)) if letters else 0

    def reduce(self) -> "Word":
        if self.reduced:
            return self
        return Word(tuple(_residual(self.letters)), reduced=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.reduce().letters == other.reduce().letters

    def __hash__(self) -> int:
        return hash(self.reduce().letters)

    def __repr__(self) -> str:
        text = format_word(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"Word({text!r}, letters={len(self.letters)})"


EMPTY_WORD = Word((), reduced=True)


def _residual(letters: Sequence[int], mask: int = 0) -> Sequence[int]:
    """Reduced letters left after deleting those on the nails set in ``mask``.

    The one free-reduction kernel: every reduction and fall test runs this
    stack loop.  The stack starts with the sentinel 0, so a pop always
    leaves a letter to read, and ``neg`` holds the negated top; letters are
    nonzero, so no letter cancels the sentinel.  Masked letters are dropped
    in C before the loop rather than tested inside it.

    The type of ``letters`` selects the form.  Ints are filtered against a
    set of the dropped letters, and the result is a list.  Packed letters,
    from ``_pack``, are bytes: nail i is byte i and its inverse byte
    256 - i, which differ for nails 1..127, the only ones a packed word
    holds.  They are dropped with ``bytes.translate``, the loop negates mod
    256 with 256 as the sentinel's negation, and the result is bytes, ready
    for the next strip.  Mask bits above 127 are left out there: those
    nails are not in the word, and nail i >= 128 would alias the bytes of
    nail 256 - i.  Plain reduction of a word as built stays on ints: packing
    costs about as much as the loop, which runs no faster on bytes.
    """
    base = 256 if isinstance(letters, bytes) else 0  # the modulus; the sentinel's negation
    if mask:
        if base:
            mask &= _PACKED_NAILS
        drop: set[int] = set()
        while mask:
            low = mask & -mask
            nail = low.bit_length()
            drop.add(nail)
            drop.add(base - nail)
            mask ^= low
        if base:
            letters = letters.translate(None, bytes(drop))
        else:
            letters = filterfalse(drop.__contains__, letters)
    stack = [0]
    push = stack.append
    pop = stack.pop
    neg = base
    for x in letters:
        if x == neg:
            pop()
            neg = base - stack[-1]
        else:
            push(x)
            neg = base - x
    del stack[0]
    return bytes(stack) if base else stack


_PACKED_NAILS = (1 << 127) - 1  # mask bits of the nails a packed word can hold
_BYTES = bytes(range(256))
_NAIL_OF_BYTE = bytes(min(b, 256 - b) for b in range(256))


def _pack(letters: Sequence[int]) -> Sequence[int]:
    """Letters packed for ``_residual``, one byte per letter (x mod 256).

    Returns ``letters`` unchanged when a nail is above 127: ``array('b')``
    refuses a letter outside -128..127, and nail 128's inverse, -128, would
    pack to the byte of its own inverse.
    """
    from array import array  # loaded here: only the subset searches pack

    try:
        packed = array("b", letters).tobytes()  # two's complement bytes are x mod 256
    except OverflowError:
        return letters
    return letters if 128 in packed else packed


def _search_root(w: Word, n: int) -> Sequence[int]:
    """The reduced letters of w, packed when its nails allow, checked against n.

    Refuses what ``check_nails`` refuses, with its messages in its order.
    The as-built letters are packed once, and one ``bytes.translate``
    deleting nails 1..min(n, 127) shows whether any other nail is wrapped.
    Only then, when a nail is above 127 or for a negative n, is
    ``check_nails`` run, and a word it passes stays on ints.  A word known
    to be reduced is not reduced again.
    """
    if n >= 0:
        packed = _pack(w.letters)
        top = min(n, 127)
        allowed = _BYTES[1 : top + 1] + _BYTES[256 - top :]  # nails 1..top, both signs
        if isinstance(packed, bytes) and not packed.translate(None, allowed):
            return packed if w.reduced else _residual(packed)
    check_nails(w, n)
    return w.reduce().letters


def _nails_of(letters: Sequence[int]) -> set[int]:
    """The nails that packed or int letters wrap."""
    if isinstance(letters, bytes):
        return set(letters.translate(_NAIL_OF_BYTE))
    return set(map(abs, letters))


def _relabel_held(letters: Sequence[int]) -> tuple[list[int], Sequence[int]]:
    """The nails the letters wrap, sorted, and the letters relabeled 1..h, packed if h <= 127."""
    held = sorted(_nails_of(letters))
    if isinstance(letters, bytes):
        relabel = bytearray(_BYTES)
        for i, nail in enumerate(held, start=1):
            relabel[nail], relabel[256 - nail] = i, 256 - i
        return held, letters.translate(relabel)
    rank = {nail: i for i, nail in enumerate(held, start=1)}
    return held, _pack([rank[x] if x > 0 else -rank[-x] for x in letters])


def _holds(letters: Sequence[int], nail: int) -> bool:
    """True iff packed or int letters wrap ``nail``; two ``in`` tests in C."""
    if isinstance(letters, bytes):
        return nail < 128 and (nail in letters or 256 - nail in letters)
    return nail in letters or -nail in letters


def _kept_residual(letters: Sequence[int], keep: int) -> Sequence[int]:
    """Reduced letters left after deleting every nail not set in ``keep``.

    Made for subset searches that keep a few nails.  Packed letters lose
    the other nails in one ``bytes.translate``, and then each kept nail's
    adjacent inverse pairs in one ``bytes.replace`` sweep per order, in C,
    so the loop of ``_residual`` reads far fewer letters; cancelling a pair
    never changes the reduced word.  Keep bits above 127 are left out, as
    in ``_residual``.  Int letters are filtered, then reduced.
    """
    packed = isinstance(letters, bytes)
    if packed:
        keep &= _PACKED_NAILS
    kept = []
    while keep:
        low = keep & -keep
        kept.append(low.bit_length())
        keep ^= low
    if not packed:
        return _residual(list(filter({*kept, *(-i for i in kept)}.__contains__, letters)))
    dropped = _BYTES.translate(None, bytes(kept) + bytes(256 - i for i in kept))
    letters = letters.translate(None, dropped)
    for i in kept:
        letters = letters.replace(bytes((i, 256 - i)), b"").replace(bytes((256 - i, i)), b"")
    return _residual(letters)


def _product(pieces: Iterable[Iterable[int]]) -> list[int]:
    """The reduced product of reduced pieces of int letters.

    Only letters where two pieces meet can cancel, so each piece first
    cancels its head against the tail of the product so far, one pair per
    turn, and the rest of it is copied whole, in C.  A piece that cancels
    whole lets the next one cancel further back, across earlier pieces.
    """
    out = [0]  # a sentinel, as in _residual: no letter cancels it
    pop = out.pop
    for piece in pieces:
        rest = iter(piece)
        for x in rest:
            if out[-1] != -x:
                out.append(x)
                break
            pop()
        out += rest
    del out[0]
    return out


def reduce(w: Word) -> Word:
    """Normal form of w: all adjacent inverse pairs cancelled."""
    return w.reduce()


def raw_concat(*words: Word) -> Word:
    """Concatenation without reduction, preserving as-constructed letters."""
    out: list[int] = []
    for w in words:
        out.extend(w.letters)
    return Word(tuple(out))


def raw_inverse(w: Word) -> Word:
    """Formal inverse without reduction: reverse the letters and flip signs."""
    return Word(tuple([-x for x in reversed(w.letters)]))


def raw_commutator(a: Word, b: Word) -> Word:
    """a b a^-1 b^-1 with no reduction."""
    return raw_concat(a, b, raw_inverse(a), raw_inverse(b))


def raw_power(w: Word, k: int) -> Word:
    if k < 0:
        return raw_power(raw_inverse(w), -k)
    return Word(w.letters * k)


def concat(*words: Word) -> Word:
    """Reduced concatenation (the group product)."""
    return raw_concat(*words).reduce()


def inverse(w: Word) -> Word:
    return raw_inverse(w).reduce()


def power(w: Word, k: int) -> Word:
    return raw_power(w, k).reduce()


def commutator(a: Word, b: Word) -> Word:
    return raw_commutator(a, b).reduce()


def _as_mask(nails: "NailSubset | Iterable[int]") -> int:
    if isinstance(nails, NailSubset):
        return nails.mask
    mask = 0
    for i in nails:
        if i < 1:
            raise ValueError(f"nail index {i} out of range: nails are 1-based")
        mask |= 1 << (i - 1)
    return mask


def remove_nails(w: Word, nails: "NailSubset | Iterable[int]") -> Word:
    """Reduced residual word after deleting every letter on the given nails."""
    return Word(tuple(_residual(w.letters, _as_mask(nails))), reduced=True)


def falls(w: Word, nails: "NailSubset | Iterable[int]") -> bool:
    """True iff the picture falls when the given nails are removed."""
    return not _residual(w.letters, _as_mask(nails))


def fall_table(w: Word, n: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> list[bool]:
    """Fall value for every subset of nails 1..n, indexed by bitmask.

    Bit i-1 of the index is set iff nail i is removed.  Refuses n beyond
    ``limit`` since the enumeration is exhaustive over 2^n subsets.

    The subsets are walked depth first, each child removing one nail above
    its parent's highest, and a child's residual is its parent's residual
    with that one nail stripped and reduced again; deletion is a
    homomorphism, so this equals reducing the whole word without the
    child's nails.  An empty residual ends the descent: falling is
    monotone, so every mask below it falls.  At most one residual per depth
    is alive.  Nails above the reduced word's highest change nothing, so
    the table over the lower nails is repeated for them.  The residuals are
    packed when the nails allow it (see ``_residual``).
    """
    root = _search_root(w, n)
    check_limit("fall_table", n, limit)
    return _walk_table(root, n)


def _walk_table(root: Sequence[int], n: int) -> list[bool]:
    """The fall table of checked, reduced letters on nails 1..n (see ``fall_table``)."""
    top = max(_nails_of(root), default=0)  # nails above top change nothing
    table = [not root] * (1 << top)

    def walk(residual: Sequence[int], mask: int, start: int) -> None:
        for i in range(start, top):
            rest = _residual(residual, 1 << i)
            if rest:
                walk(rest, mask | 1 << i, i + 1)
            else:  # the subtree adds only nails above i, so it is one slice
                table[mask | 1 << i :: 2 << i] = [True] * (1 << (top - 1 - i))

    if root:
        walk(root, 0, 0)
    return table * (1 << (n - top))


def first_mismatch(
    w: Word, n: int, expected: Sequence[bool], limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> int | None:
    """First mask where the word's fall table on nails 1..n differs, or None."""
    return _first_difference(fall_table(w, n, limit), expected)


def _first_difference(got: list[bool], expected: Sequence[bool]) -> int | None:
    """First mask where two fall tables differ, or None."""
    if got == expected:
        return None
    return next((mask for mask, want in enumerate(expected) if got[mask] != want), None)


def _masks_of_size(n: int, k: int) -> Iterator[int]:
    """All n-bit masks with k bits set, in increasing numeric order."""
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        # Gosper's hack: next mask with the same popcount.
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple


def verify_threshold(
    w: Word, n: int, k: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[int | None, str, int]:
    """Check w against "at least k of nails 1..n removed", 0 <= k <= n.

    Returns the first mask where the word's fall table differs from the
    threshold's, or None; the method that decided, "boundary" or "table";
    and how many masks it checked.  Refuses what ``fall_table`` refuses.

    Falling is monotone, so the word realizes the threshold exactly when
    it hangs at every (k-1)-subset and falls at every k-subset (the
    argument is in the `compiler` docstring).  The boundary method checks
    those two layers (``_boundary_mismatch``), the table walks the subsets
    (``_walk_table``), and the one expected to read fewer letters runs
    (``_boundary_reads_less``).  A boundary check that fails hands over to
    the table, which names the first mask that differs.
    """
    root = _search_root(w, n)
    check_limit("verify_threshold", n, limit)
    if not 0 <= k <= n:
        raise ValueError(f"threshold k={k} out of range 0..{n}")
    if _boundary_reads_less(n, k) and _boundary_mismatch(root, n, k) is None:
        return None, "boundary", comb(n, k) + (k and comb(n, k - 1))
    expected = [mask.bit_count() >= k for mask in range(1 << n)]
    return _first_difference(_walk_table(root, n), expected), "table", 1 << n


def _boundary_reads_less(n: int, k: int) -> bool:
    """True unless the walk should read fewer letters than k-of-n's boundary check.

    Counted on the compiled word, the C(n, w) clause words of w = n - k + 1
    nails, and only the letters the loop of ``_residual`` reads: a strip
    first drops its nails' letters in C, 1/m of a residual for one nail of
    m.  The walk strips C(n, j+1) residuals at each depth j < k, each the
    C(n-j, w) clause words that miss the j nails removed.  The boundary
    keeps w of the n nails for each of the C(n, k-1) subsets below the
    threshold, none to do for the empty one, and strips the one clause word
    left for each of the C(n, k) at it.  The counts are kept in integers,
    in clause words times w n.  The word's length is a factor of both, so
    the choice rests on n and k alone.  A tie, as for k <= 2, where both
    make the same strips, goes to the boundary, which builds no table.
    """
    if k == 0:
        return True
    w = n - k + 1
    walk = sum(comb(n, j + 1) * comb(n - j - 1, w - 1) * (n - j - 1) * n for j in range(k))
    boundary = comb(n, k) * (w - 1) * n
    if k > 1:
        boundary += comb(n, k - 1) * comb(n, w) * w * w
    return boundary <= walk


def _boundary_mismatch(root: Sequence[int], n: int, k: int) -> int | None:
    """A mask where the checked, reduced letters disagree with k-of-n, or None.

    Each (k-1)-subset R must leave a nonempty residual, and each k-subset,
    R and one nail above R's highest, must empty it; every k-subset is
    reached once.  R's residual is stripped from the root, or built by
    ``_kept_residual`` from the n - k + 1 nails it keeps when they are no
    more than R's and a strip would leave the loop over
    `_PRE_CANCEL_LETTERS` letters.  The mask returned is not always the
    first that disagrees.
    """
    if not k:
        return 0 if root else None
    full = (1 << n) - 1
    w = n - k + 1
    few = w < k and len(root) * w > _PRE_CANCEL_LETTERS * n
    for below in _masks_of_size(n, k - 1):
        if not below:
            residual = root
        elif few:
            residual = _kept_residual(root, full ^ below)
        else:
            residual = _residual(root, below)
        if not residual:
            return below
        for i in range(below.bit_length(), n):
            if not _holds(residual, i + 1) or _residual(residual, 1 << i):
                return below | 1 << i
    return None


# Below this many letters left to the loop, the pair pre-cancel of
# ``_kept_residual`` costs more than it saves (threshold words, n <= 14).
_PRE_CANCEL_LETTERS = 64


def is_monotone_table(table: list[bool], n: int) -> bool:
    """True iff the table never flips from fall back to hang as nails are added."""
    for mask in range(1 << n):
        if not table[mask]:
            continue
        for i in range(n):
            if not (mask >> i) & 1 and not table[mask | (1 << i)]:
                return False
    return True


class NailSubset(_Record):
    """A subset of nails 1..n stored as a bitmask (bit i-1 = nail i removed)."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int) -> None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask:#x} out of range for n={n}")
        _set(self, "n", n)
        _set(self, "mask", mask)

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "NailSubset":
        mask = 0
        for i in members:
            if not 1 <= i <= n:
                raise ValueError(f"nail {i} out of range 1..{n}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "NailSubset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "NailSubset":
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(i + 1 for i in range(self.n) if (self.mask >> i) & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, nail: int) -> bool:
        return 1 <= nail <= self.n and bool((self.mask >> (nail - 1)) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self) + "}"


def nail_counts(w: Word, n: int | None = None) -> dict[int, int]:
    """Letters per nail in the as-constructed sequence (zero rows included)."""
    counts = {i: 0 for i in range(1, (n or w.max_nail) + 1)}
    for x in w.letters:
        nail = x if x > 0 else -x
        counts[nail] = counts.get(nail, 0) + 1
    return counts


def parse_word(text: str) -> Word:
    """Parse whitespace-separated tokens: x<k> clockwise, X<k> counterclockwise.

    Each distinct token is checked once, in order of first appearance, so
    the first bad token is reported at its first position.
    """
    tokens = text.split()
    codes: dict[str, int] = {}
    for token in dict.fromkeys(tokens):
        head, tail = token[:1], token[1:]
        if head not in ("x", "X") or not tail.isdigit():
            raise WordFormatError(f"bad token {token!r} at position {tokens.index(token)}")
        nail = int(tail)
        if nail < 1:
            raise WordFormatError(
                f"bad token {token!r} at position {tokens.index(token)}: nails are 1-based"
            )
        codes[token] = nail if head == "x" else -nail
    return Word(tuple(map(codes.__getitem__, tokens)))


def format_word(w: Word) -> str:
    return " ".join(f"x{x}" if x > 0 else f"X{-x}" for x in w.letters)


def word_to_json(w: Word) -> str:
    return json.dumps(list(w.letters))


def word_from_json(text: str) -> Word:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WordFormatError(f"bad word JSON: {exc}") from exc
    # type() and not isinstance(): JSON true would pass as the int 1.
    if not isinstance(data, list) or not all(type(x) is int and x != 0 for x in data):
        raise WordFormatError("word JSON must be an array of nonzero integers")
    return Word(tuple(data))
