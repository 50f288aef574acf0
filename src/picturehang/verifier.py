"""The one verifier: checks a word against a spec on nails 1..n, for every spec kind.

`verify_threshold`, `circuits.PuzzleSpec.verify` and `compiler.compile_circuit`
each call `_verdict` once under their own name.  A threshold is checked on its
boundary (`_boundary_mismatch`), every other spec on its whole fall table
(`words._walk_table`); `_verify_plan` picks and prices the method, and
`mismatch_line` reports a mismatch.
"""

from __future__ import annotations

from itertools import combinations, compress, count, repeat
from math import comb
from operator import ge, ne
from typing import Callable, Sequence

from .words import DEFAULT_EXHAUSTIVE_LIMIT, NailSubset, Word, _as_mask, _drop, _residual
from .words import _search_root, _strip, _walk_table, falls


def verify_threshold(
    w: Word, n: int, k: int, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[int | None, str, int]:
    """Check w against "at least k of nails 1..n removed", 0 <= k <= n (see ``_verdict``)."""
    return _verdict(w, n, k, None, "verify_threshold", limit)


def _verdict(
    w: Word,
    n: int,
    k: int | None,
    reference: Callable[[], list[bool]] | None,
    what: str,
    limit: int,
) -> tuple[int | None, str, int]:
    """Check w against a spec on nails 1..n: the package's one verifier.

    ``k`` is a k-of-n spec's threshold, None for any other spec, whose
    table ``reference()`` builds, only if the walk decides.  A threshold
    builds no table: the walk is compared with ``mask.bit_count() >= k``
    mask by mask, in C, up to the first mismatch, and ``reference`` is not
    called.  Returns the first mask where the word's fall table differs,
    or None; the method that decided, "boundary" or "table"; and the
    masks checked.

    The word is set up by ``_search_root`` under the caller's name
    ``what`` (nails, then ``limit``), and only then is a k outside 0..n
    refused.  ``_verify_plan`` picks the method: the boundary
    (``_boundary_mismatch``; exact since falling is monotone, see the
    `compiler` docstring) or the walk of every subset (``_walk_table``).
    A failed boundary hands over to the walk, which names the first mask.
    """
    root = _search_root(w, n, what, limit)
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"threshold k={k} out of range 0..{n}")
    method, masks = _verify_plan(n, k)
    if method == "boundary" and _boundary_mismatch(root, n, k) is None:
        return None, method, masks
    got = _walk_table(root, n)
    if k is not None:
        want = map(ge, map(int.bit_count, range(1 << n)), repeat(k))
    elif got == (want := reference()):
        return None, "table", 1 << n
    return next(compress(count(), map(ne, got, want)), None), "table", 1 << n


def _verify_plan(n: int, k: int | None) -> tuple[str, int]:
    """The method that would check a spec on nails 1..n, and the subsets it decides.

    ``k`` is a k-of-n spec's threshold, None for any other spec.  A threshold
    is checked on its boundary, its k- and (k-1)-subsets, which shares the
    residuals of their common first nails (``_boundary_mismatch``); the rest
    walk all 2^n subsets.
    """
    method = _verify_method(k)
    return method, comb(n, k) + (k and comb(n, k - 1)) if method == "boundary" else 1 << n


def _verify_method(k: int | None) -> str:
    """The method that checks a spec of threshold ``k``, None for any other spec."""
    return "table" if k is None else "boundary"


# Above this many letters `_boundary_mismatch` strips a residual one nail at a time and shares
# it; below it, dropping the rest of each subset at once costs less (threshold words, n <= 14).
_SHARED_PREFIX_LETTERS = 256


def _boundary_mismatch(root: Sequence[int], n: int, k: int) -> int | None:
    """A mask where the checked, reduced letters disagree with k-of-n, or None.

    Each (k-1)-subset R must leave a nonempty residual, and each k-subset,
    R and one nail above R's highest, must empty it; every k-subset is
    reached once, R in the lexicographic order of ``combinations``.  While
    a residual is longer than `_SHARED_PREFIX_LETTERS`, R's nails are
    stripped one at a time, lowest first, so every R that starts with the
    same nails shares their residual, as the walk of ``_walk_table`` does.
    Below it, the rest of each R is dropped from that residual by
    ``_drop``.  The nail above goes by ``_strip``, the search's one child
    step.  The mask returned is not always the first that disagrees.
    """
    if not k:
        return 0 if root else None

    def below(residual: Sequence[int], dropped: int, start: int, left: int) -> int | None:
        # Every R that holds the nails of ``dropped`` and ``left`` more from start..n.
        if left and len(residual) > _SHARED_PREFIX_LETTERS:
            for nail in range(start, n - left + 2):
                got = below(_strip(residual, nail), dropped | 1 << nail - 1, nail + 1, left - 1)
                if got is not None:
                    return got
            return None
        for rest in combinations(range(start, n + 1), left):
            kept = _residual(_drop(residual, rest)) if rest else residual
            if not kept:
                return dropped | _as_mask(rest)
            for nail in range(rest[-1] + 1 if rest else start, n + 1):
                if _strip(kept, nail):
                    return dropped | _as_mask(rest) | 1 << nail - 1
        return None

    return below(root, 0, 1, k - 1)


def mismatch_line(w: Word, n: int, mask: int) -> str:
    """How w disagrees with a spec on nails 1..n at the removal ``mask``."""
    subset = NailSubset(n, mask)
    word, spec = ("falls", "hang") if falls(w, subset) else ("hangs", "fall")
    return f"mismatch at subset {subset}: word {word} but spec says {spec}"
