"""Optimization problems for the spectator who removes nails.

Three questions about a hanging word: the fewest nail removals that drop
the picture, the most removals it survives, and a Set-Cover-shaped
instance generator whose optimum transfers to the felling problem.  Both
exact searches go by cardinality with early exit; answers in practice are
small.  Deleting nails is a homomorphism, so the residual of a subset is
its parent's residual with one more nail stripped: `min_fell_exact` builds
each layer of subsets from the one below it, and `greedy_min_fell` keeps
the residual of the nail it picks.  `max_survive_exact` relabels the nails
the reduced word holds 1..h (`words._relabel_held`), scans each layer of
them from the top down and strips each subset's nails from the relabeled
word.  All three check and pack the word once, one byte per letter when
its nails are at most 127 (`words._search_root`), so every strip drops
letters in C.
The walks skip the strip of a nail the residual no longer holds, and
`max_survive_exact` keeps few nails, whose adjacent pairs it cancels in C
first (`words._kept_residual`).  `set_cover_to_hanging` joins its element
words with `gadgets.gadget_and_tree`, the one use of a gadget left; the
gadgets load with its first call, so the solvers load none of them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .words import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    NailSubset,
    Word,
    _holds,
    _kept_residual,
    _masks_of_size,
    _relabel_held,
    _residual,
    _search_root,
    check_limit,
)

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

    The scan goes layer by layer.  A subset of size k is its parent, the
    subset less its lowest nail, plus one nail i below the parent's lowest,
    and its residual is the parent's residual with nail i stripped.
    Parents are taken in increasing order and each one's children by
    increasing i, so every layer comes out in numeric order and the first
    empty residual is the answer.  A parent is freed once its children
    exist, and a subset holding nail 1 has no children, so it keeps no
    residual.  A child whose nail the parent's residual no longer holds
    keeps that residual unstripped.
    """
    root = _search_root(w, n)
    check_limit("min_fell_exact", n, limit)
    if not root:
        return NailSubset(n, 0)
    layer: list[tuple[int, Sequence[int]]] = [(0, root)]
    while layer:
        children: list[tuple[int, Sequence[int]]] = []
        layer.reverse()
        while layer:
            mask, residual = layer.pop()
            below = (mask & -mask).bit_length() - 1 if mask else n
            for i in range(below):
                rest = _residual(residual, 1 << i) if _holds(residual, i + 1) else residual
                if not rest:
                    return NailSubset(n, mask | 1 << i)
                if i:
                    children.append((mask | 1 << i, rest))
        layer = children
    raise AssertionError("unreachable: the full subset always fells")


def max_survive_exact(w: Word, n: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> NailSubset:
    """Largest subset of nails whose removal leaves the picture hanging.

    Same tie-break as min_fell_exact.  A trivial word has no answer: it
    has already fallen with no nails removed.

    Only the h nails the reduced word holds are scanned.  The others change
    nothing, so they belong to every largest answer, and with their bits
    fixed the numeric order of the answers is that of their held parts.
    The held nails are relabeled 1..h in order once, by one
    ``bytes.translate`` on a packed word, which keeps that order
    (``words._relabel_held``).  Each
    layer of masks on h nails is scanned in numeric order from size h - 1
    down, and each subset's nails are stripped from the relabeled word at
    once, keeping the few others; the first subset that leaves letters,
    mapped back and with every nail not held, is the answer.
    """
    root = _search_root(w, n)
    check_limit("max_survive_exact", n, limit)
    if not root:
        raise ValueError("word is trivial: the picture has already fallen")
    held, letters = _relabel_held(root)
    full = (1 << len(held)) - 1
    for k in range(len(held) - 1, -1, -1):
        for chosen in _masks_of_size(len(held), k):
            if _kept_residual(letters, full ^ chosen):
                mask = (1 << n) - 1
                for i, nail in enumerate(held):
                    if chosen >> i & 1 == 0:
                        mask ^= 1 << nail - 1
                return NailSubset(n, mask)
    raise AssertionError("unreachable: the empty subset hangs a nontrivial word")


def greedy_min_fell(w: Word, n: int) -> NailSubset:
    """Felling subset built by repeatedly removing the most shortening nail.

    Each step removes the nail that minimizes the reduced residual length,
    breaking ties toward the lowest index, and keeps that nail's residual
    for the next step.  No approximation guarantee is claimed; the exact
    optimum is never larger.
    """
    chosen = 0
    residual = _search_root(w, n)
    while residual:
        best_nail = -1
        best = residual
        for i in range(n):
            if not _holds(residual, i + 1):  # chosen, or cancelled: it cannot shorten
                continue
            rest = _residual(residual, 1 << i)
            if best_nail < 0 or len(rest) < len(best):
                best_nail, best = i, rest
        chosen |= 1 << best_nail
        residual = best
    return NailSubset(n, chosen)


def set_cover_to_hanging(
    m: int, sets: Sequence[Iterable[int]]
) -> tuple[Word, dict[int, tuple[int, ...]]]:
    """Encode a Set Cover instance as a hanging word over one nail per set.

    Element u_j becomes E over the sets containing it; the E-words combine
    under a balanced AND tree.  Removing the nails of a chosen family then
    fells the word exactly when the family covers the universe, so the
    minimum felling subset has the Set Cover optimum's cardinality.
    Returns the word and the per-element owner lists.
    """
    from .gadgets import gadget_and_tree  # loaded here: the solvers need none of it
    from .constructions import build_e

    if m < 1:
        raise ValueError("universe must be nonempty")
    n = len(sets)
    owner_sets = [tuple(sorted(set(s))) for s in sets]
    owners: dict[int, tuple[int, ...]] = {}
    for j in range(1, m + 1):
        who = tuple(i for i, s in enumerate(owner_sets, start=1) if j in s)
        if not who:
            raise ValueError(f"element {j} is not covered by any set")
        owners[j] = who
    if m > 1 and n < 2:
        raise ValueError("AND gadgets need at least 2 nails; got n=1 with m >= 2")
    return gadget_and_tree([build_e(owners[j]) for j in range(1, m + 1)]), owners
