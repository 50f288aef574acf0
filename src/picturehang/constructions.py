"""Closed-form hanging words: nested commutators, balanced trees, class words.

All three builders return as-constructed words: every letter laid out by the
recursion is kept, no reduction is applied.  The classic length formulas are
stated against exactly these sequences (none of them admits a cancellation).
A template's letter +-i stands for its i-th argument or that argument's inverse;
`_splice` lays out every template: balanced and class words here, and the gadgets.
The balanced tree (`_balanced`) and the join of a reduced piece, cancelling only where
it meets the product (`_join`, under `gadgets._product`), serve the gadgets and the compiler.
"""

from __future__ import annotations

from operator import neg
from typing import Callable, Iterable, Iterator, Sequence

from .words import _T, Word, _check_positive, raw_commutator, raw_concat, raw_inverse


def build_s(n: int) -> Word:
    """Nested-commutator 1-of-n word: S_1 = x1, S_n = [S_{n-1}, x_n]."""
    if n < 1:
        raise ValueError(f"build_s needs n >= 1, got {n}")
    w = Word((1,), reduced=True)
    for i in range(2, n + 1):
        w = raw_commutator(w, Word((i,), reduced=True))
    return w


def s_word_length(n: int) -> int:
    """Letter count of S_n: 2^n + 2^(n-1) - 2."""
    return (1 << n) + (1 << (n - 1)) - 2


def build_e(indices: Sequence[int]) -> Word:
    """Balanced 1-of-n word over the given nails.

    A singleton is its generator; otherwise the commutator of E over the
    first ceil(m/2) indices and E over the rest.  Each generator appears at
    most 2n times and the whole word has at most 2n^2 letters.  It is
    returned flagged reduced: the halves of each commutator wrap disjoint
    nails, so no two adjacent letters cancel.
    """
    idx = list(indices)
    if not idx:
        raise ValueError("build_e needs at least one nail index")
    if len(set(idx)) != len(idx):
        raise ValueError("build_e indices must be distinct")
    _check_positive(idx)
    return Word(tuple(lay_out_e(idx)), reduced=True)


class _Templates(dict):
    """Width m -> the balanced 1-of-m word over nails 1..m, as constructed.

    Every balanced word of width m is this template with letter +-i standing
    for the i-th argument or its inverse: the ``raw_commutator`` of the
    templates of the two halves, the second shifted onto nails
    ceil(m/2)+1..m.  Only widths up to 64 are kept, about 1 MB in all; a
    wider template is rebuilt from kept parts on each lookup.
    """

    def __missing__(self, m: int) -> tuple[int, ...]:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        half = (m + 1) // 2
        right = _splice(self[m - half], range(half + 1, m + 1), neg)
        template = raw_commutator(Word(self[half]), Word(tuple(right))).letters
        if m <= 64:
            self[m] = template
        return template


e_template = _Templates({1: (1,)}).__getitem__  # a kept width is one C-level dict lookup


def _splice(template: Iterable[int], args: Sequence[_T], invert: Callable) -> Iterator[_T]:
    """The template with +i read as ``args[i-1]`` and -i as its ``invert``, inverted once.

    Label -i reads position 2m+1-i by negative indexing: the inverses are stored in reverse.
    """
    label = [None, *args, *map(invert, reversed(args))]
    return map(label.__getitem__, template)


def lay_out_e(indices: Sequence[int]) -> Iterable[int]:
    """The letters of ``build_e(indices)``, without checking the indices."""
    if len(indices) == 1:  # the generator itself, without a splice
        return indices
    return _splice(e_template(len(indices)), indices, neg)


def e_word_length(n: int) -> int:
    """Letter count of the balanced word on n nails.

    With n = 2^a + b and 0 <= b < 2^a this is (2^a)^2 + b(2^(a+2) - 2^a).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = n.bit_length() - 1
    b = n - (1 << a)
    return (1 << a) ** 2 + b * ((1 << (a + 2)) - (1 << a))


def build_disjoint(partition: Sequence[Iterable[int]]) -> Word:
    """Hanging word that falls iff some class of the partition is fully removed.

    Classes must partition 1..n.  Each class contributes the ascending
    concatenation of its generators; those class words then take the places
    of single generators in the balanced recursion.  With k classes the
    result has at most 2kn letters.
    """
    classes = [sorted(set(c)) for c in partition]
    if not classes or any(not c for c in classes):
        raise ValueError("partition classes must be nonempty")
    flat = sorted(i for c in classes for i in c)
    n = len(flat)
    if flat != list(range(1, n + 1)):
        raise ValueError("classes must partition 1..n with no overlap or gap")
    class_words = [Word(tuple(c)) for c in classes]
    return raw_concat(*_splice(e_template(len(classes)), class_words, raw_inverse))


def e_tree_length(sizes: Sequence[int]) -> int:
    """Letter count of the balanced recursion over words of the given lengths."""
    return _balanced(sizes, lambda left, right: 2 * (left + right))


def _balanced(items: Sequence[_T], join: Callable[[_T, _T], _T]) -> _T:
    """The items joined up a balanced tree, the first half rounding up; one item as given.

    Gadget AND trees, ``e_tree_length`` and ``estimate_length``'s price of a gate are built here.
    """
    if len(items) == 1:
        return items[0]
    if not items:
        raise ValueError("a balanced tree needs at least one item")
    half = (len(items) + 1) // 2
    return join(_balanced(items[:half], join), _balanced(items[half:], join))


def _join(out: list[int] | bytearray, piece: Iterable[int], base: int = 0) -> None:
    """Multiply reduced letters ``out``, behind a sentinel 0, by a reduced piece, in place.

    A letter and its inverse sum to ``base``: 0 on ints, 256 packed, on a
    bytearray.  The head cancels one pair per turn, the rest is copied whole
    in C; ``gadgets._product`` joins packed pieces inline (a call each cost 3%).
    """
    pop = out.pop
    rest = iter(piece)
    for x in rest:
        if out[-1] + x != base:
            out.append(x)
            break
        pop()
    out.extend(rest)
