"""Optimization problems for the spectator who removes nails.

Three questions about a hanging word: the fewest nail removals that drop
the picture, the most removals it survives, and a Set-Cover-shaped
instance generator whose optimum transfers to the felling problem.  One
routine, `_set_up`, sets each search up: `words._search_root` checks the
nails (and, for the exact two, the exhaustive limit), packs the word once
when n is at most 127 (a gadget word arrives packed, its `Word.tree`'s
root) and reduces it; the nails it holds (`words._nails_of`, a memchr
each) are relabeled 1..h with the tree unless they are 1..h already; and
the residual source is picked once: the tree, laid out again on its
leaves' residuals, or the letters.  Deleting nails is a homomorphism, so
a subset's residual is its parent's with one more nail stripped
(`words._strip`): `min_fell_exact` grows the hanging sets layer by layer
from the empty set, and `greedy_min_fell` keeps the residual of the nail
it picks.  From the other end, `_kept_sets` scans the sets of t = 1, 2,
... kept nails, cancelling their adjacent pairs in C first, sweep after
sweep (`_kept_residual`): `max_survive_exact` stops at the first whose
word does not fall, and `min_fell_exact` keeps such sets as clauses, which
every felling set meets, and tests the first smallest set that meets them
all.  `set_cover_to_hanging`'s gadgets and `circuits._minimal_sets` load
with its first call, not with the solvers, whose helpers live here, not
in `words`, which every command compiles.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .words import _BYTES, _INVERSE, _PACKED_NAILS, _PAIR, DEFAULT_EXHAUSTIVE_LIMIT, NailSubset
from .words import Word, _nails, _nails_of, _pack, _residual, _search_root, _strip

__all__ = [
    "min_fell_exact",
    "max_survive_exact",
    "greedy_min_fell",
    "set_cover_to_hanging",
]


def min_fell_exact(w: Word, n: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> NailSubset:
    """Smallest subset of nails whose removal fells the picture.

    Ties within a cardinality class break toward the numerically smallest
    bitmask.  Always well defined: removing every nail empties the word.

    The search runs from both ends on the h nails the reduced word holds,
    the only ones in a smallest answer, relabeled 1..h (``_set_up``).  The
    bottom side walks the hanging sets by size: a subset's parent is the
    subset less its lowest nail, and its residual is the parent's with the
    new nail stripped.  Parents go in increasing order and their children
    by increasing nail, so each layer comes out in numeric order and its
    first empty residual is the answer; a subset holding nail 1 has no
    children and keeps no residual.

    The top side keeps t = 1, 2, ... nails.  Keeping more nails never fells
    a word, so a removal hangs exactly when the nails it keeps hold a
    clause, a kept set whose word does not fall; the minimal ones are kept,
    each read from the bottom layer's residual of its highest removed nails.
    After each top layer, the candidate is the numerically first of the
    smallest sets that meet every clause and outsize the bottom's cleared
    layers.  Every smaller or earlier set misses a clause or was cleared,
    so it hangs, and if the candidate falls it is the answer; if not, the
    nails it keeps become a clause.  The cheaper side advances first: a
    bottom layer costs each parent's residual length times its children,
    a top layer of t nails about C(h - 1, t - 1) L, for a word of L letters.
    """
    held, letters, step, kept_residual = _set_up(w, n, "min_fell_exact", limit)
    if not letters:
        return NailSubset(n, 0)
    h, full = len(held), (1 << len(held)) - 1
    layer: dict[int, Sequence[int]] = {0: letters}  # every set of `cleared` nails hangs
    clauses: list[int] = []  # no set of fewer than `least` nails meets them all
    cleared, least, t = 0, 1, 1

    def kept(keep: int) -> Sequence[int]:
        source = full ^ keep
        for _ in range(source.bit_count() - cleared):
            source &= source - 1  # down to its highest `cleared` nails
        return kept_residual(layer.get(source, letters), keep)

    while True:
        price = sum(len(r) * ((m & -m).bit_length() - 1 if m else h) for m, r in layer.items())
        if price <= comb(h - 1, t - 1) * len(letters):
            children: dict[int, Sequence[int]] = {}
            for mask in list(layer):
                residual = layer.pop(mask)
                for i in range((mask & -mask).bit_length() - 1 if mask else h):
                    rest = step(residual, mask | 1 << i, i + 1)
                    if not rest:
                        return NailSubset(n, _unlabel(held, mask | 1 << i))
                    if i:
                        children[mask | 1 << i] = rest
            layer, cleared = children, cleared + 1
        else:
            clauses += list(_kept_sets(h, t, kept, clauses))
            t += 1
            if clauses:  # else the candidate is the first set of the bottom side's next layer
                ordered, least = sorted(clauses, key=int.bit_count), max(least, cleared + 1)
                while (candidate := _hit(ordered, h, least, 0)) is None:
                    least += 1
                if not kept(full ^ candidate):
                    return NailSubset(n, _unlabel(held, candidate))
                clauses.append(full ^ candidate)


def max_survive_exact(w: Word, n: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> NailSubset:
    """Largest subset of nails whose removal leaves the picture hanging.

    Same tie-break as min_fell_exact.  A trivial word has no answer: it
    has already fallen with no nails removed.

    Only the h nails the reduced word holds are scanned.  The others change
    nothing, so they belong to every largest answer, and with their bits
    fixed the numeric order of the answers is that of their held parts.
    ``_set_up`` relabels the held nails 1..h in order, which keeps that
    order.  The kept sets of t = 1, 2, ... nails are scanned as
    ``_kept_sets`` orders them; the first whose word does not fall, mapped
    back, is kept, and every other nail is the answer.
    """
    held, letters, _, kept = _set_up(w, n, "max_survive_exact", limit)
    if not letters:
        raise ValueError("word is trivial: the picture has already fallen")
    for t in range(1, len(held) + 1):
        for keep in _kept_sets(len(held), t, lambda keep: kept(letters, keep)):
            return NailSubset(n, (1 << n) - 1 ^ _unlabel(held, keep))
    raise AssertionError("unreachable: the empty subset hangs a nontrivial word")


def _unlabel(held: list[int], mask: int) -> int:
    """The mask over the original nails of a mask over the held nails relabeled 1..h."""
    return sum(1 << held[i - 1] - 1 for i in _nails(mask))


def _kept_sets(h: int, t: int, kept: Callable, clauses: Sequence[int] = ()) -> Iterator[int]:
    """Each set of t of nails 1..h holding no clause whose ``kept`` word hangs, last first.

    So the removals, their complements, come in numeric order.
    """
    for removed in _masks_of_size(h, h - t):
        keep = (1 << h) - 1 ^ removed
        if not any(keep & c == c for c in clauses) and kept(keep):
            yield keep


def _hit(clauses: list[int], j: int, left: int, chosen: int) -> int | None:
    """``chosen`` plus the numerically first ``left`` of nails 1..j meeting each clause, or None.

    Clauses are cut to nails 1..j, none empty.  Nail j is left out before it
    is taken in; a branch is cut when more clauses are disjoint than it may take.
    """
    if left > j:
        return None
    if not clauses:
        return chosen | (1 << left) - 1
    used = disjoint = 0
    for c in clauses:
        if not c & used:
            used, disjoint = used | c, disjoint + 1
    if disjoint > left:
        return None
    low = (1 << j - 1) - 1
    rest = [c & low for c in clauses]
    if left < j and all(rest) and (found := _hit(rest, j - 1, left, chosen)) is not None:
        return found
    return _hit([c for c in clauses if c <= low], j - 1, left - 1, chosen | low + 1)


def greedy_min_fell(w: Word, n: int) -> NailSubset:
    """Felling subset built by repeatedly removing the most shortening nail.

    Each step removes the nail that minimizes the reduced residual length,
    the lowest on ties, and keeps its residual for the next; the first
    empty one ends the step.  Only the nails the residual holds are tried:
    one chosen or cancelled cannot shorten it.  No approximation guarantee
    is claimed; the exact optimum is never larger.
    """
    held, residual, step, _ = _set_up(w, n)
    chosen, nails = 0, range(1, len(held) + 1)  # the root holds every nail 1..h
    while residual:
        best = 0, residual  # a strip of a held nail is shorter
        for nail in nails:
            rest = step(residual, chosen | 1 << nail - 1, nail)
            if len(rest) < len(best[1]):
                best = nail, rest
                if not rest:
                    break
        nail, residual = best
        chosen, nails = chosen | 1 << nail - 1, sorted(_nails_of(residual, len(held)))
    return NailSubset(n, _unlabel(held, chosen))


def set_cover_to_hanging(
    m: int, sets: Sequence[Iterable[int]]
) -> tuple[Word, dict[int, tuple[int, ...]]]:
    """Encode a Set Cover instance as a hanging word over one nail per set.

    A family covers element u_j when it meets its owner set, the sets
    containing it, and so every owner set containing that one: it covers the
    universe exactly when it meets each distinct minimal owner set.  Those
    become E-words, in the order of the first element owning each, under a
    balanced AND tree of unequal leaves (equal AND operands collapse), on
    bytes for up to 127 sets.  Removing a family's nails fells the word
    exactly when the family is a cover, so the minimum felling subset has
    the Set Cover optimum's size.  Returns the word and the per-element
    owner lists, built with the owner masks in one pass over the sets.
    """
    from .gadgets import gadget_and_tree  # loaded here: the solvers need none of it
    from .constructions import build_e
    from .circuits import _minimal_sets

    if m < 1:
        raise ValueError("universe must be nonempty")
    masks, owners = [0] * m, [[] for _ in range(m)]
    for i, s in enumerate(sets, start=1):
        for j in sorted(set(s)):
            if not 1 <= j <= m:
                raise ValueError(f"set {i} holds element {j}, outside the universe 1..{m}")
            masks[j - 1] |= 1 << i - 1
            owners[j - 1].append(i)
    if 0 in masks:
        raise ValueError(f"element {masks.index(0) + 1} is not covered by any set")
    minimal = set(_minimal_sets(masks))
    leaves = [build_e(_nails(mask)) for mask in dict.fromkeys(masks) if mask in minimal]
    return gadget_and_tree(leaves), dict(enumerate(map(tuple, owners), start=1))


def _set_up(w: Word, n: int, what: str = "", limit: int | None = None) -> tuple:
    """The search ``what`` on w, set up once: held nails, letters, child step and kept residual.

    ``words._search_root`` checks and reduces the word; its held nails and
    tree (``Word.tree``), if any, are relabeled 1..h unless already packed
    on 1..h.  ``step(parent, mask, nail)`` is the residual of removing
    ``mask``, the parent's removal plus ``nail``, and ``kept(source, keep)``
    that of keeping only ``keep`` of ``source``.  The tree answers both but
    a one-nail keep; without one, ``words._strip`` and ``_kept_residual`` do.
    """
    root, tree = _search_root(w, n, what, limit), w.tree
    held, letters = _relabel_held(root, n)
    if tree and letters is not root:
        tree = tree.relabel(held)
    if not tree:
        return held, letters, lambda parent, mask, nail: _strip(parent, nail), _kept_residual
    full = (1 << len(held)) - 1

    def kept(source: Sequence[int], keep: int) -> Sequence[int]:
        return tree.residual(full ^ keep) if keep & keep - 1 else _kept_residual(source, keep)

    return held, letters, lambda parent, mask, nail: tree.residual(mask), kept


def _relabel_held(letters: Sequence[int], n: int) -> tuple[list[int], Sequence[int]]:
    """The nails the letters wrap, checked against n and sorted, and the letters relabeled 1..h.

    They are packed if h <= 127; packed letters on nails 1..h are returned as they are.
    """
    held = sorted(_nails_of(letters, n))
    if isinstance(letters, bytes):
        return held, letters if len(held) == max(held, default=0) else letters.translate(_relabel(held))
    rank = {nail: i for i, nail in enumerate(held, start=1)}
    return held, _pack([rank[x] if x > 0 else -rank[-x] for x in letters])


def _relabel(held: list[int]) -> bytes:
    """The ``bytes.translate`` table taking the packed held nails, sorted, to 1..h."""
    return bytes.maketrans(_both(held), _both(range(1, len(held) + 1)))


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


def _both(nails: Iterable[int]) -> bytes:
    """The packed bytes of nails 1..127 and of their inverses."""
    b = bytes(nails)
    return b + b.translate(_INVERSE)


# Below this many letters left to the loop a pair sweep costs more than it saves (threshold
# words, n <= 14): `_kept_residual` sweeps above it.
_PRE_CANCEL_LETTERS = 64


def _kept_residual(letters: Sequence[int], keep: int) -> Sequence[int]:
    """Reduced letters left after deleting every nail not set in ``keep``.

    One kept nail a leaves x_a^e, e = #a - #A, read by two counts.  More
    kept nails: packed letters lose the rest in one ``bytes.translate``,
    then each kept nail's adjacent inverse pairs in one ``bytes.replace``
    sweep per order, in C, repeated while a sweep removes at least half
    the letters it read and leaves more than `_PRE_CANCEL_LETTERS`, so the
    loop of ``_residual`` reads far fewer letters; cancelling a pair never
    changes the reduced word.  Keep bits above 127 are left out, as in
    ``_residual``.  Int letters are filtered.
    """
    packed = isinstance(letters, bytes)
    keep &= _PACKED_NAILS if packed else keep
    if not keep & keep - 1:  # nail a = 0 for an empty keep, which keeps nothing
        a = keep.bit_length()
        inverse = -a & 255 if packed else -a
        e = letters.count(a) - letters.count(inverse)
        return (bytes if packed else list)((a if e > 0 else inverse,)) * abs(e)
    if not packed:
        kept = _nails(keep)
        return _residual(list(filter({*kept, *(-i for i in kept)}.__contains__, letters)))
    kept = bytes(_nails(keep))
    letters = letters.translate(None, _BYTES.translate(None, _both(kept)))
    while True:
        read = len(letters)
        for i in kept:
            letters = letters.replace(_PAIR[i], b"").replace(_PAIR[i][::-1], b"")
        if 2 * len(letters) > read or len(letters) <= _PRE_CANCEL_LETTERS:
            return _residual(letters)
