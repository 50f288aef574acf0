"""Monotone Boolean circuits over removal variables r1..rn.

A circuit decides, for each subset of removed nails, whether the picture
should fall.  Variables are 1-based: r_i is true iff nail i was removed.
Only AND and OR gates are allowed, so every circuit is monotone by shape.
Constants may appear anywhere.  Every pass over a circuit is one call of
`evaluate`, a postorder fold over its distinct nodes.

Specs come in three bodies: an explicit list of felling subsets, a formula,
or a threshold k (fall iff at least k nails removed).  All three share one
JSON envelope keyed by "subsets", "formula" or "threshold_k".  A spec is
checked once, when it is built: n >= 1, at least one subset, each nonempty
and within nails 1..n, or 0 <= k <= n.  A fall function can be hung exactly
when it is monotone and holds once every nail is removed, so every spec that
can be built is realizable; `validate_spec` only normalizes.
"""

from __future__ import annotations

import json
import re
from operator import and_, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .words import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    NailSubset,
    Word,
    _as_mask,
    _Record,
    _set,
    check_limit,
    first_mismatch,
    verify_threshold,
)


class FormulaSyntaxError(ValueError):
    """Formula rejected; ``position`` is the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnrealizableSpecError(ValueError):
    """The requested fall function cannot be realized by any hanging."""


class Var(_Record):
    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class Const(_Record):
    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        _set(self, "value", value)


class Gate(_Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node) -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


Node = Var | Const | Gate

TRUE = Const(True)
FALSE = Const(False)


def make_and(a: Node, b: Node) -> Node:
    """AND with constants folded on the spot."""
    if isinstance(a, Const):
        return b if a.value else FALSE
    if isinstance(b, Const):
        return a if b.value else FALSE
    return Gate("and", a, b)


def make_or(a: Node, b: Node) -> Node:
    """OR with constants folded on the spot."""
    if isinstance(a, Const):
        return TRUE if a.value else b
    if isinstance(b, Const):
        return TRUE if b.value else a
    return Gate("or", a, b)


def _walk(root: Node):
    """Postorder over distinct nodes (shared subcircuits visited once)."""
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or not isinstance(node, Gate):
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))


_T = TypeVar("_T")


def evaluate(
    root: Node, leaf: Callable[[Var | Const], _T], gates: Mapping[str, Callable[[_T, _T], _T]]
) -> _T:
    """Value of the root, each distinct node valued once in postorder.

    A Var or Const is valued by ``leaf``; a gate by ``gates[op]`` applied
    to the values of its left and right child.  A value is dropped once its
    last parent has used it, so a long chain keeps only a few alive.
    """
    order = list(_walk(root))
    last_use: dict[int, Gate] = {}
    for node in order:
        if isinstance(node, Gate):
            last_use[id(node.left)] = last_use[id(node.right)] = node
    values: dict[int, _T] = {}
    for node in order:
        if isinstance(node, Gate):
            left, right = id(node.left), id(node.right)
            values[id(node)] = gates[node.op](values[left], values[right])
            for child in (left, right):
                if last_use[child] is node:
                    values.pop(child, None)  # not del: both inputs may be one node
        else:
            values[id(node)] = leaf(node)
    return values[id(root)]


class MonotoneCircuit(_Record):
    """A circuit root plus the number of nails n it speaks about."""

    __slots__ = ("n", "root")

    def __init__(self, n: int, root: Node) -> None:
        if n < 1:
            raise ValueError("circuits speak about nails 1..n, so n >= 1 is required")
        for node in _walk(root):
            if isinstance(node, Var) and not 1 <= node.index <= n:
                raise ValueError(f"variable r{node.index} out of range 1..{n}")
            if isinstance(node, Gate) and node.op not in ("and", "or"):
                raise ValueError(f"unknown gate op {node.op!r}")
        _set(self, "n", n)
        _set(self, "root", root)

    @property
    def gate_count(self) -> int:
        return sum(1 for node in _walk(self.root) if isinstance(node, Gate))

    @property
    def depth(self) -> int:
        return evaluate(self.root, lambda leaf: 0, {"and": _deeper, "or": _deeper})


def _deeper(a: int, b: int) -> int:
    return 1 + max(a, b)


_BOOLEAN = {"and": and_, "or": or_}


def eval_circuit(c: MonotoneCircuit, removed: NailSubset | Iterable[int]) -> bool:
    mask = _as_mask(removed)
    return evaluate(
        c.root,
        lambda leaf: bool(mask >> (leaf.index - 1) & 1) if isinstance(leaf, Var) else leaf.value,
        _BOOLEAN,
    )


def circuit_table(c: MonotoneCircuit, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> list[bool]:
    """Truth value for every removal bitmask 0..2^n-1.

    Evaluates all subsets at once: each node's table is packed into one big
    integer with bit `mask` holding the node value under that removal set.
    The root's integer is unpacked once, in linear time, through its binary
    digits, lowest first.
    """
    check_limit("circuit_table", c.n, limit)
    size = 1 << c.n
    all_ones = (1 << size) - 1
    pack = evaluate(
        c.root,
        lambda leaf: (
            _var_pack(leaf.index, c.n) if isinstance(leaf, Var) else all_ones if leaf.value else 0
        ),
        _BOOLEAN,
    )
    return list(map("1".__eq__, bin(pack)[:1:-1].ljust(size, "0")))


def _var_pack(index: int, n: int) -> int:
    period = 1 << (index - 1)
    pack = ((1 << period) - 1) << period
    width = period << 1
    size = 1 << n
    while width < size:
        pack |= pack << width
        width <<= 1
    return pack


def balanced_tree(op: str, leaves: Sequence[Node]) -> Node:
    """Balanced gate tree over the leaves; first half rounds up."""
    if not leaves:
        raise ValueError("balanced_tree needs at least one leaf")
    if len(leaves) == 1:
        return leaves[0]
    half = (len(leaves) + 1) // 2
    return Gate(op, balanced_tree(op, leaves[:half]), balanced_tree(op, leaves[half:]))


def _check_subsets(subsets: Sequence[Iterable[int]], n: int) -> None:
    """Refuse an empty list, an empty subset or a nail outside 1..n."""
    if not subsets:
        raise ValueError("need at least one felling subset")
    for s in subsets:
        if not s:
            raise ValueError("felling subsets must be nonempty")
        for i in s:
            if not 1 <= i <= n:
                raise ValueError(f"nail {i} out of range 1..{n}")


def subsets_to_circuit(subsets: Sequence[Iterable[int]], n: int) -> MonotoneCircuit:
    """Balanced OR of balanced ANDs: true iff some listed subset is fully removed."""
    groups = [sorted(set(s)) for s in subsets]
    _check_subsets(groups, n)
    terms = [balanced_tree("and", [Var(i) for i in group]) for group in groups]
    return MonotoneCircuit(n, balanced_tree("or", terms))


# --- formula text ---------------------------------------------------------

_TOKEN_RE = re.compile(r"r(\d+)|atleast\b|\d+|[&|();,]")

# The parser recurses once per parenthesis level; deeper formulas are
# rejected as syntax errors instead of exhausting the interpreter stack.
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens: list[tuple[str, int, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        lexeme = m.group(0)
        if m.group(1) is not None:
            tokens.append(("var", int(m.group(1)), pos))
        elif lexeme == "atleast":
            tokens.append(("atleast", 0, pos))
        elif lexeme.isdigit():
            tokens.append(("int", int(lexeme), pos))
        else:
            tokens.append((lexeme, 0, pos))
        pos = m.end()
    tokens.append(("end", 0, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.max_var = 0  # the largest index taken, folded away or not
        self.max_var_at = 0  # where it is first taken

    def peek(self) -> tuple[str, int, int]:
        return self.tokens[self.i]

    def take(self, kind: str) -> tuple[str, int, int]:
        token = self.tokens[self.i]
        if token[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {token[0]!r}", token[2])
        self.i += 1
        return token

    def parse(self) -> Node:
        node = self.expr()
        token = self.peek()
        if token[0] != "end":
            raise FormulaSyntaxError(f"unexpected {token[0]!r} after formula", token[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "|":
            self.take("|")
            node = make_or(node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "&":
            self.take("&")
            node = make_and(node, self.factor())
        return node

    def factor(self) -> Node:
        kind, _, pos = self.peek()
        if kind == "var":
            return Var(self.var())
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise FormulaSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.take("(")
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take(")")
            return node
        if kind == "atleast":
            return self.atleast()
        raise FormulaSyntaxError(f"expected a variable, '(' or 'atleast', found {kind!r}", pos)

    def atleast(self) -> Node:
        _, _, start = self.take("atleast")
        self.take("(")
        _, k, kpos = self.take("int")
        self.take(";")
        indices = [self.var()]
        while self.peek()[0] == ",":
            self.take(",")
            indices.append(self.var())
        self.take(")")
        if len(set(indices)) != len(indices):
            raise FormulaSyntaxError("atleast variables must be distinct", start)
        if not 0 <= k <= len(indices):
            raise FormulaSyntaxError(
                f"atleast({k}; ...) out of range 0..{len(indices)}", kpos
            )
        from .sortnet import threshold_over

        return threshold_over(k, [Var(i) for i in indices])

    def var(self) -> int:
        _, value, pos = self.take("var")
        if value < 1:
            raise FormulaSyntaxError(f"variable r{value}: indices are 1-based", pos)
        if value > self.max_var:
            self.max_var, self.max_var_at = value, pos
        return value


def parse_formula(text: str, n: int | None = None) -> MonotoneCircuit:
    """Parse `r<k>`, `&`, `|`, parentheses and the atleast(k; ...) macro.

    `&` binds tighter than `|`; both chain to the left.  If n is omitted it
    defaults to the largest variable index mentioned.
    """
    parser = _Parser(text)
    root = parser.parse()
    if n is None:
        n = parser.max_var
    if parser.max_var > n:
        raise FormulaSyntaxError(f"variable r{parser.max_var} exceeds n={n}", parser.max_var_at)
    return MonotoneCircuit(n, root)


def format_formula(c: MonotoneCircuit) -> str:
    """Render a circuit back to formula text, parenthesizing only where needed.

    Iterative, so chains thousands of gates deep render without recursion:
    the stack holds text still to emit and (node, parent op) pairs still to
    expand, pushed right to left.
    """
    out: list[str] = []
    stack: list[str | tuple[Node, str]] = [(c.root, "or")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent = item
        if isinstance(node, Var):
            out.append(f"r{node.index}")
        elif isinstance(node, Const):
            out.append("true" if node.value else "false")
        else:
            wrap = parent == "and" and node.op == "or"
            stack.append(")" if wrap else "")
            stack.append((node.right, node.op))
            stack.append(" & " if node.op == "and" else " | ")
            stack.append((node.left, node.op))
            stack.append("(" if wrap else "")
    return "".join(out)


# --- puzzle specs ---------------------------------------------------------


class PuzzleSpec(_Record):
    """A fall specification: subsets, formula or threshold, over nails 1..n.

    Checked when built, so every spec is realizable.  A formula is parsed
    here unless its circuit is given; ``atleast(k; ...)`` needs k at most
    its variable count, so no formula is constantly false.  Equality and
    hashing ignore ``circuit``.
    """

    __slots__ = ("n", "subsets", "formula", "circuit", "threshold_k")

    def __init__(
        self,
        n: int,
        subsets: tuple[frozenset[int], ...] | None = None,
        formula: str | None = None,
        circuit: MonotoneCircuit | None = None,
        threshold_k: int | None = None,
    ) -> None:
        bodies = sum(x is not None for x in (subsets, formula, threshold_k))
        if bodies != 1:
            raise ValueError("spec needs exactly one of subsets, formula, threshold_k")
        if n < 1:
            raise ValueError("spec needs n >= 1")
        if subsets is not None:
            _check_subsets(subsets, n)
        elif threshold_k is not None:
            if threshold_k < 0:
                raise ValueError(f"threshold k={threshold_k} must be nonnegative")
            if threshold_k > n:
                raise UnrealizableSpecError(
                    f"threshold k={threshold_k} exceeds n={n}: the picture could never fall"
                )
        elif circuit is None:
            circuit = parse_formula(formula, n)
        _set(self, "n", n)
        _set(self, "subsets", subsets)
        _set(self, "formula", formula)
        _set(self, "circuit", circuit)
        _set(self, "threshold_k", threshold_k)

    def _key(self) -> tuple:
        return self.n, self.subsets, self.formula, self.threshold_k

    @classmethod
    def from_subsets(cls, n: int, subsets: Sequence[Iterable[int]]) -> "PuzzleSpec":
        return cls(n=n, subsets=tuple(frozenset(s) for s in subsets))

    @classmethod
    def from_formula(cls, n: int, formula: str) -> "PuzzleSpec":
        return cls(n=n, formula=formula)

    @classmethod
    def from_threshold(cls, n: int, k: int) -> "PuzzleSpec":
        return cls(n=n, threshold_k=k)

    def to_circuit(self) -> MonotoneCircuit:
        if self.subsets is not None:
            return subsets_to_circuit([sorted(s) for s in self.subsets], self.n)
        if self.threshold_k is not None:
            from .sortnet import threshold_circuit

            return threshold_circuit(self.threshold_k, self.n)
        return self.circuit

    def table(self, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> list[bool]:
        """Reference truth table straight from the spec body, no circuitry."""
        check_limit("PuzzleSpec.table", self.n, limit)
        size = 1 << self.n
        if self.threshold_k is not None:
            return [mask.bit_count() >= self.threshold_k for mask in range(size)]
        if self.subsets is not None:
            masks = [sum(1 << (i - 1) for i in s) for s in self.subsets]
            return [any(mask & m == m for m in masks) for mask in range(size)]
        return circuit_table(self.to_circuit(), limit)

    def verify(self, w: Word, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[int | None, str, int]:
        """Check w against the spec on nails 1..n.

        Returns the first mask where they differ, or None; the method that
        decided, "boundary" or "table"; and how many masks it checked.  A
        threshold goes through `words.verify_threshold`, subsets and
        formulas through `table`, mask by mask.
        """
        if self.threshold_k is not None:
            return verify_threshold(w, self.n, self.threshold_k, limit)
        return first_mismatch(w, self.n, self.table(limit), limit), "table", 1 << self.n


def spec_to_json(spec: PuzzleSpec) -> str:
    data: dict = {"n": spec.n}
    if spec.subsets is not None:
        data["subsets"] = sorted(sorted(s) for s in spec.subsets)
    elif spec.threshold_k is not None:
        data["threshold_k"] = spec.threshold_k
    else:
        data["formula"] = spec.formula
    return json.dumps(data)


def spec_from_json(text: str) -> PuzzleSpec:
    """Read a spec from JSON; the types are checked here, the rest by PuzzleSpec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad spec JSON: {exc}") from exc
    # type() and not isinstance(): JSON true would pass as the int 1.
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise ValueError('spec JSON must be an object with an integer "n"')
    n = data["n"]
    bodies = [k for k in ("subsets", "formula", "threshold_k") if k in data]
    if len(bodies) != 1:
        raise ValueError('spec JSON needs exactly one of "subsets", "formula", "threshold_k"')
    if bodies[0] == "subsets":
        subsets = data["subsets"]
        ok = isinstance(subsets, list) and all(
            isinstance(s, list) and all(type(i) is int for i in s) for s in subsets
        )
        if not ok:
            raise ValueError('"subsets" must be a list of lists of integer nail indices')
        return PuzzleSpec.from_subsets(n, subsets)
    if bodies[0] == "threshold_k":
        if type(data["threshold_k"]) is not int:
            raise ValueError('"threshold_k" must be an integer')
        return PuzzleSpec.from_threshold(n, data["threshold_k"])
    if not isinstance(data["formula"], str):
        raise ValueError('"formula" must be a string')
    return PuzzleSpec.from_formula(n, data["formula"])


class SpecValidation(NamedTuple):
    spec: PuzzleSpec
    notices: tuple[str, ...]


def validate_spec(spec: PuzzleSpec) -> SpecValidation:
    """Normalize a spec, with a notice for each change worth reporting.

    The spec was checked when it was built, so nothing is refused here.
    Subset lists are normalized to antichains: duplicates and supersets of
    other listed subsets are dropped, each with a notice.  Threshold 0 gets
    a notice that it compiles to the empty word.
    """
    notices: list[str] = []
    if spec.threshold_k == 0:
        notices.append("threshold 0 falls for every subset; compiles to the empty word")
    if spec.subsets is not None:
        kept: list[frozenset[int]] = []
        seen: set[frozenset[int]] = set()
        for s in spec.subsets:
            if s in seen:
                notices.append(f"dropped duplicate subset {sorted(s)}")
                continue
            seen.add(s)
            if any(other < s for other in spec.subsets):
                notices.append(f"dropped subset {sorted(s)}: superset of another listed subset")
                continue
            kept.append(s)
        spec = PuzzleSpec.from_subsets(spec.n, [sorted(s) for s in kept])
    return SpecValidation(spec, tuple(notices))
