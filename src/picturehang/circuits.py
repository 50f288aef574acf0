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
can be built is realizable; `validate_spec` only normalizes, through the
one minimal-set routine, `_minimal_sets`, which the compiler's clause
lowering and the Set Cover encoding share.  The formula syntax is in
`formula`, loaded on first use; its public names resolve here too.
"""

from __future__ import annotations

import json
from functools import partial, reduce
from operator import and_, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .words import DEFAULT_EXHAUSTIVE_LIMIT, NailSubset, Word, _T, _as_mask, _check_range, _nails
from .words import _Record, _set, check_limit


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
    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: tuple[Node, ...]) -> None:
        _set(self, "op", op)
        _set(self, "operands", operands)


Node = Var | Const | Gate

TRUE = Const(True)
FALSE = Const(False)


def _make_gate(op: str, *nodes: Node) -> Node:
    """One gate over the nodes, constants folded; operand gates are kept whole, not flattened.

    So build a chain as one gate, ``make_and(*operands)``: folded with
    ``reduce(make_and, ...)``, 4,000 pair clauses compile in 1.0 to 1.6 s, not 0.12 s.
    """
    decider = op == "or"  # true decides an OR, false an AND
    if any(isinstance(node, Const) and node.value == decider for node in nodes):
        return Const(decider)
    kept = [node for node in nodes if not isinstance(node, Const)]
    return Gate(op, tuple(kept)) if len(kept) > 1 else kept[0] if kept else Const(not decider)


make_and = partial(_make_gate, "and")
make_or = partial(_make_gate, "or")


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
            stack.extend((x, False) for x in reversed(node.operands))


def evaluate(
    root: Node, leaf: Callable[[Var | Const], _T], gates: Mapping[str, Callable[[list[_T]], _T]]
) -> _T:
    """Value of the root, each distinct node valued once in postorder.

    A Var or Const is valued by ``leaf``; a gate by ``gates[op]`` applied
    to the list of its operands' values.  A value is dropped once its last
    parent has used it, so a long chain keeps only a few alive.
    """
    order = list(_walk(root))
    last_use: dict[int, Gate] = {}
    for node in order:
        if isinstance(node, Gate):
            last_use.update(dict.fromkeys(map(id, node.operands), node))
    values: dict[int, _T] = {}
    for node in order:
        if isinstance(node, Gate):
            operands = list(map(id, node.operands))
            values[id(node)] = gates[node.op](list(map(values.__getitem__, operands)))
            for operand in operands:
                if last_use[operand] is node:
                    values.pop(operand, None)  # not del: an operand may repeat
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
            if isinstance(node, Gate) and len(node.operands) < 2:
                raise ValueError(f"an {node.op} gate needs at least two operands")
        _set(self, "n", n)
        _set(self, "root", root)

    @property
    def gate_count(self) -> int:
        return sum(1 for node in _walk(self.root) if isinstance(node, Gate))

    @property
    def depth(self) -> int:
        return evaluate(self.root, lambda leaf: 0, {"and": _deeper, "or": _deeper})


def _deeper(depths: list[int]) -> int:
    return 1 + max(depths)


_BOOLEAN = {"and": partial(reduce, and_), "or": partial(reduce, or_)}


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
    return _unpack(pack, size)


def _unpack(pack: int, size: int) -> list[bool]:
    """Bits 0..size-1 of a packed table, through its binary digits, lowest first."""
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


def _check_subsets(subsets: Sequence[Iterable[int]], n: int) -> None:
    """Refuse an empty list, an empty subset or a nail outside 1..n."""
    if not subsets:
        raise ValueError("need at least one felling subset")
    for s in subsets:
        if not s:
            raise ValueError("felling subsets must be nonempty")
        _check_range(s, n)


def subsets_to_circuit(subsets: Sequence[Iterable[int]], n: int) -> MonotoneCircuit:
    """An OR of ANDs: true iff some listed subset is fully removed."""
    groups = [sorted(set(s)) for s in subsets]
    _check_subsets(groups, n)
    return MonotoneCircuit(n, make_or(*(make_and(*map(Var, group)) for group in groups)))


def __getattr__(name: str):
    """The formula syntax's public names, from `formula`, loaded on their first use (PEP 562)."""
    if name in ("FormulaSyntaxError", "MAX_NESTING", "format_formula", "parse_formula"):
        from . import formula

        return getattr(formula, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        bodies = (subsets is not None) + (formula is not None) + (threshold_k is not None)
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
            from .formula import parse_formula

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
        if self.subsets is not None:  # packed as in `circuit_table`, from the body itself
            pack = {i: _var_pack(i, self.n) for i in set().union(*self.subsets)}
            terms = (reduce(and_, map(pack.get, s)) for s in self.subsets)
            return _unpack(reduce(or_, terms), size)
        return circuit_table(self.to_circuit(), limit)

    def verify(self, w: Word, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[int | None, str, int]:
        """Check w against the spec's own ``table`` on nails 1..n.

        Returns what `verifier._verdict`, the one verifier, returns, and
        refuses what it refuses under this method's name, for every kind.
        """
        from .verifier import _verdict

        return _verdict(
            w, self.n, self.threshold_k, partial(self.table, limit), "PuzzleSpec.verify", limit
        )


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
        bit = {x: 1 << i for i, x in enumerate(dict.fromkeys(j for s in spec.subsets for j in s))}
        mask_of = {s: sum(map(bit.get, s)) for s in spec.subsets}  # a bit per nail, as first seen
        minimal = set(_minimal_sets(mask_of.values()))
        kept = [sorted(s) for s, mask in mask_of.items() if mask in minimal]
        for s in spec.subsets:
            if s not in mask_of:  # popped at its first sight
                notices.append(f"dropped duplicate subset {sorted(s)}")
            elif mask_of.pop(s) not in minimal:
                notices.append(f"dropped subset {sorted(s)}: superset of another listed subset")
        spec = PuzzleSpec.from_subsets(spec.n, kept)
    return SpecValidation(spec, tuple(notices))


def _minimal_sets(sets: Iterable[int]) -> list[int]:
    """The bitmasks among ``sets`` that contain no other one of them, each once.

    Taken by increasing size, each set kept goes into a trie keyed by its
    nails in increasing order.  A set is dropped when a path of its own
    nails ends at a kept set; the search follows only the children they name.
    """
    trie: dict = {}
    minimal: list[int] = []
    for mask in sorted(sets, key=int.bit_count):
        nails = _nails(mask)
        stack = [trie]
        while stack and None not in stack[-1]:
            stack.extend(filter(None, map(stack.pop().get, nails)))  # no child is empty
        if not stack:
            minimal.append(mask)
            node = trie
            for nail in nails:
                node = node.setdefault(nail, {})
            node[None] = {}
    return minimal
