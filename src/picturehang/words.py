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
is at most 127.  Every subset search here and in `spectator` is set up by
`_search_root`: nails checked, then the exhaustive limit, then the word
packed once (by one `struct.pack`, or, for a word the gadgets laid out on
bytes, the root its tree keeps) and reduced.  Each step to a child
residual is `_strip`: one `bytes.translate` in C, whose length shows
whether the nail was held, then the loop only if it was; a spectator
search asks the tree instead (`spectator._set_up`).
A packed word's nails are found by one memchr each (`_nails_of`).  Plain
reduction of a word as built stays on ints.

Every command compiles this module, so a helper only some callers use
lives in the one module they all load: the verifier in `verifier`, the
join product (`gadgets._product`) and the kept-set pre-cancel
(`spectator._kept_residual`), which take work off the kernel's loop, with
their callers.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from itertools import filterfalse
from typing import Iterable, Iterator, Sequence, TypeVar

DEFAULT_EXHAUSTIVE_LIMIT = 20
DEFAULT_LETTER_BUDGET = 10**7
_HUGE_LETTERS = 10**4000  # a count past it is not printed: str() stops at 4,300 digits
_T = TypeVar("_T")


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
        count = letters if letters <= _HUGE_LETTERS else "over 10^4000"
        raise BudgetExceededError(
            f"the word would have {count} letters, more than the budget of {budget}"
        )


def check_nails(w: Word, n: int) -> None:
    """Refuse a negative n, then a word that wraps a nail above n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = w.max_nail
    if top > n:
        raise ValueError(f"word uses nail {top} beyond n={n}")


def _check_range(nails: Iterable[int], n: int) -> None:
    """Refuse a nail outside 1..n."""
    for i in nails:
        if not 1 <= i <= n:
            raise ValueError(f"nail {i} out of range 1..{n}")


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

    ``tree`` is None, or the ``gadgets._Tree`` the word was laid out from
    on bytes: its ``root`` is the packed letters a search starts from
    (``_search_root``), and ``spectator._set_up`` makes it the search's one
    residual source.  Only ``gadgets._lay_out`` sets it (``_set_tree``);
    equality, hashing and ``len`` ignore it.
    """

    __slots__ = ("letters", "reduced", "tree")

    def __init__(self, letters: tuple[int, ...] = (), reduced: bool = False) -> None:
        _set_letters(self, letters)
        _set_reduced(self, reduced)
        _set_tree(self, None)

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


# Words are the records built most often: each slot is set by its own descriptor, not by ``_set``.
_set_letters, _set_reduced, _set_tree = (getattr(Word, f).__set__ for f in Word.__slots__)
EMPTY_WORD = Word((), reduced=True)


def _residual(letters: Sequence[int], mask: int = 0) -> Sequence[int]:
    """Reduced letters left after deleting those on the nails set in ``mask``.

    The one free-reduction kernel: every reduction and fall test runs this
    stack loop.  The stack starts with the sentinel 0, so a pop always
    leaves a letter to read, and ``neg`` holds the negated top; letters are
    nonzero, so no letter cancels the sentinel.  Masked letters are dropped
    in C by ``_drop`` before the loop rather than tested inside it.

    The type of ``letters`` selects the form.  Ints give a list.  Packed
    letters, from ``_pack``, are bytes: nail i is byte i and its inverse
    byte 256 - i, which differ for nails 1..127, the only ones a packed
    word holds, so mask bits above 127 are left out (nail i >= 128 would
    alias nail 256 - i).  Their stack is a bytearray, which stores a byte
    where a list stores a pointer; the loop negates mod 256, with 256 as
    the sentinel's negation, and the result is bytes, ready for the next
    strip.  Plain reduction of a word as built stays on ints: the loop
    runs no faster on bytes, so packing would be a cost with no return.
    """
    base = 256 if isinstance(letters, bytes) else 0  # the modulus; the sentinel's negation
    if mask:
        letters = _drop(letters, _nails(mask & _PACKED_NAILS if base else mask))
    stack = bytearray(1) if base else [0]
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
_INVERSE = bytes(-b & 255 for b in range(256))  # the byte of each packed letter's inverse
_PAIR = [bytes((i, -i & 255)) for i in range(128)]  # nail i's two bytes, x_i X_i


def _strip(letters: Sequence[int], nail: int) -> Sequence[int]:
    """The residual of reduced letters less nail's, or ``letters`` itself if they hold none."""
    if isinstance(letters, bytes):
        rest = letters.translate(None, _PAIR[nail])
    else:
        rest = [x for x in letters if x != nail and x != -nail]
    return _residual(rest) if len(rest) < len(letters) else letters


def _drop(letters: Sequence[int], nails: Sequence[int]) -> Iterable[int]:
    """Letters less those on ``nails``, unreduced; packed, the bytes b + b.translate(_INVERSE)."""
    if isinstance(letters, bytes):  # ``spectator._both`` inline: the verifier drops once a strip
        b = bytes(nails)
        return letters.translate(None, b + b.translate(_INVERSE))
    drop = {*nails, *(-i for i in nails)}
    return filterfalse(drop.__contains__, letters)


def _pack(letters: Sequence[int]) -> Sequence[int]:
    """Letters packed for ``_residual``, one byte per letter (x mod 256).

    One ``struct.pack`` of signed bytes, in C.  Returns ``letters``
    unchanged when a nail is above 127: the format refuses a letter
    outside -128..127, and nail 128's inverse, -128, would pack to the
    byte of its own inverse.
    """
    try:
        packed = struct.pack(f"{len(letters)}b", *letters)  # two's complement bytes are x mod 256
    except struct.error:
        return letters
    return letters if 128 in packed else packed


def _search_root(w: Word, n: int, what: str = "", limit: int | None = None) -> Sequence[int]:
    """The reduced letters of w, packed when n allows, set up for the search ``what``.

    Refuses what ``check_nails`` refuses, in its order and words, then an
    n over ``limit`` (None: none) as ``check_limit`` does; only then is the
    word reduced.  For n in 0..127, so that each nail a search strips has
    table bytes, the packed root of the word's gadget tree, or its letters
    packed once, are checked by one ``bytes.translate`` deleting nails
    1..n.  Otherwise ``check_nails`` runs, and a word it passes stays on
    ints.  A reduced word is not reduced again.
    """
    packed = (w.tree.root if w.tree else _pack(w.letters)) if 0 <= n <= 127 else None
    allowed = _BYTES[1 : n + 1] + _BYTES[256 - n :]  # nails 1..n, both signs
    if not isinstance(packed, bytes) or packed.translate(None, allowed):
        check_nails(w, n)
        packed = None
    if limit is not None:
        check_limit(what, n, limit)
    if packed is None:
        return w.reduce().letters
    return packed if w.reduced else _residual(packed)


def _nails_of(letters: Sequence[int], n: int) -> set[int]:
    """The nails that packed or int letters wrap, checked to be at most n.

    Packed letters are read as nails by one ``bytes.translate``, and each
    of nails 1..n is looked for by one ``in``, a memchr in C; a packed word
    holds no nail above 127.
    """
    if isinstance(letters, bytes):
        nails = letters.translate(_NAIL_OF_BYTE)
        return {i for i in range(1, min(n, 127) + 1) if i in nails}
    return set(map(abs, letters))


def _nails(mask: int) -> tuple[int, ...]:
    """The nails of a bitmask, in increasing order."""
    nails = []
    while mask:
        low = mask & -mask
        nails.append(low.bit_length())
        mask ^= low
    return tuple(nails)


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
    return Word(tuple(_invert(w.letters)))


def _invert(letters: Sequence[int]) -> Sequence[int]:
    """The formal inverse of int letters, as a list, or of packed ones by one translate."""
    if isinstance(letters, (bytes, bytearray)):
        return letters.translate(_INVERSE)[::-1]
    return [-x for x in reversed(letters)]


def raw_commutator(a: Word, b: Word) -> Word:
    """a b a^-1 b^-1 with no reduction."""
    return raw_concat(a, b, raw_inverse(a), raw_inverse(b))


def concat(*words: Word) -> Word:
    """Reduced concatenation (the group product)."""
    return raw_concat(*words).reduce()


def inverse(w: Word) -> Word:
    return raw_inverse(w).reduce()


def power(w: Word, k: int) -> Word:
    """w^k, reduced; a negative k takes the inverse."""
    return Word((w if k >= 0 else raw_inverse(w)).letters * abs(k)).reduce()


def commutator(a: Word, b: Word) -> Word:
    return raw_commutator(a, b).reduce()


def _check_positive(nails: Iterable[int]) -> None:
    """Refuse the first nail index below 1."""
    for i in nails:
        if i < 1:
            raise ValueError(f"nail index {i} out of range: nails are 1-based")


def _as_mask(nails: "NailSubset | Iterable[int]") -> int:
    if isinstance(nails, NailSubset):
        return nails.mask
    nails = tuple(nails)
    _check_positive(nails)
    mask = 0
    for i in nails:
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
    return _walk_table(_search_root(w, n, "fall_table", limit), n)


def _walk_table(root: Sequence[int], n: int) -> list[bool]:
    """The fall table of checked, reduced letters on nails 1..n (see ``fall_table``)."""
    top = max(_nails_of(root, n), default=0)  # nails above top change nothing
    table = [not root] * (1 << top)

    def walk(residual: Sequence[int], mask: int, start: int) -> None:
        for i in range(start, top):
            rest = _strip(residual, i + 1)
            if rest:
                walk(rest, mask | 1 << i, i + 1)
            else:  # the subtree adds only nails above i, so it is one slice
                table[mask | 1 << i :: 2 << i] = [True] * (1 << (top - 1 - i))

    if root:
        walk(root, 0, 0)
    return table * (1 << (n - top))


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
        members = tuple(members)
        _check_range(members, n)
        return cls(n, sum(1 << (i - 1) for i in set(members)))

    @classmethod
    def empty(cls, n: int) -> "NailSubset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "NailSubset":
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(_nails(self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, nail: int) -> bool:
        return 1 <= nail <= self.n and bool((self.mask >> (nail - 1)) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(_nails(self.mask))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self) + "}"


def nail_counts(w: Word, n: int | None = None) -> dict[int, int]:
    """Letters per nail in the as-constructed sequence (zero rows included).

    The rows run 1..n (or to the highest nail), then any nail above, in
    order of first appearance; the letters are counted in C.
    """
    counts = dict.fromkeys(range(1, (n or w.max_nail) + 1), 0)
    counts.update(Counter(map(abs, w.letters)))
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
