"""Reference answers for the benchmark, written without picturehang.

Words are plain sequences of signed ints (+i clockwise around nail i, -i
counterclockwise).  Reference fall tables come straight from spec bodies
(popcount >= k, lists of felling subsets, formula trees); word tables come
from this module's own stack reducer.  Nothing here imports the package
under test, so a defect there cannot hide in the oracle.
"""

from __future__ import annotations

ANCHORS = 0b11  # nails 1 and 2: the gadgets' anchor nails


def strip(letters, nail: int = 0) -> list[int]:
    """Delete every letter on ``nail`` (0 deletes none) and freely reduce."""
    stack: list[int] = []
    push, pop = stack.append, stack.pop
    for x in letters:
        if x == nail or x == -nail:
            continue
        if stack and stack[-1] == -x:
            pop()
        else:
            push(x)
    return stack


def falls(letters, mask: int) -> bool:
    """True iff the word reduces to empty once the nails in ``mask`` are gone."""
    stack: list[int] = []
    for x in letters:
        if (mask >> (abs(x) - 1)) & 1:
            continue
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return not stack


def word_table(letters, n: int) -> list[bool]:
    """Fall value of every removal mask over nails 1..n.

    Depth first over subsets: each mask strips one nail from its parent's
    already-reduced residual instead of re-reducing the whole word.
    """
    if any(abs(x) > n or x == 0 for x in letters):
        raise ValueError(f"word uses a letter outside nails 1..{n}")
    table = [False] * (1 << n)

    def visit(mask: int, residual: list[int], start: int) -> None:
        table[mask] = not residual
        for i in range(start, n):
            visit(mask | (1 << i), strip(residual, i + 1) if residual else residual, i + 1)

    visit(0, strip(letters), 0)
    return table


def threshold_table(n: int, k: int) -> list[bool]:
    return [bin(mask).count("1") >= k for mask in range(1 << n)]


def subsets_table(n: int, subsets) -> list[bool]:
    masks = [sum(1 << (i - 1) for i in s) for s in subsets]
    return [any(mask & m == m for m in masks) for mask in range(1 << n)]


# --- formulas, as trees: an int is a variable, ("and"|"or", left, right) a gate


def formula_text(node) -> str:
    if isinstance(node, int):
        return f"r{node}"
    op, left, right = node
    return f"({formula_text(left)} {'&' if op == 'and' else '|'} {formula_text(right)})"


def formula_value(node, mask: int) -> bool:
    if isinstance(node, int):
        return bool((mask >> (node - 1)) & 1)
    op, left, right = node
    if op == "and":
        return formula_value(left, mask) and formula_value(right, mask)
    return formula_value(left, mask) or formula_value(right, mask)


def formula_table(node, n: int) -> list[bool]:
    return [formula_value(node, mask) for mask in range(1 << n)]


# --- text formats


def parse_tokens(text: str) -> list[int]:
    out = []
    for token in text.split():
        if token[:1] not in ("x", "X") or not token[1:].isdigit() or int(token[1:]) < 1:
            raise ValueError(f"bad token {token!r}")
        out.append(int(token[1:]) if token[0] == "x" else -int(token[1:]))
    return out


def format_tokens(letters) -> str:
    return " ".join(f"x{x}" if x > 0 else f"X{-x}" for x in letters)


def subset_mask(text: str) -> int:
    """Mask of a subset printed as ``{1,3}``."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"bad subset {text!r}")
    return sum(1 << (int(i) - 1) for i in body[1:-1].split(",") if i)


# --- optimisation answers


def extremes(table: list[bool], n: int) -> tuple[int, int]:
    """(size of the smallest felling subset, size of the largest hanging subset)."""
    sizes = [bin(mask).count("1") for mask in range(1 << n)]
    fell = min(s for s, t in zip(sizes, table) if t)
    hang = max((s for s, t in zip(sizes, table) if not t), default=-1)
    return fell, hang


def cover_table(m: int, sets) -> list[bool]:
    """Set Cover by brute force: entry ``mask`` is True iff those sets cover 1..m."""
    universe = (1 << m) - 1
    bits = [sum(1 << (e - 1) for e in s) for s in sets]
    table = []
    for mask in range(1 << len(sets)):
        got = 0
        for j, b in enumerate(bits):
            if (mask >> j) & 1:
                got |= b
        table.append(got == universe)
    return table
