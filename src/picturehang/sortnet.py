"""Batcher odd-even sorting networks and the threshold circuits they yield.

A comparator network sorts ascending: each comparator sends the smaller
value to its low wire.  On 0/1 inputs min is AND and max is OR, so wiring a
network over removal variables turns "at least k of n removed" into a
monotone circuit: after sorting, output wire w-k+1 carries a one iff at
least k inputs were ones.  The zero-one principle says checking all 0/1
inputs certifies the network for arbitrary values.

Widths that are not powers of two: the network generator drops comparators
that would touch phantom wires beyond n (they would carry values larger
than everything and never move).  The threshold builder pads its inputs to
a power of two with constant-false ones, which constant folding erases.
Unpadded wiring only mirrors the gate counts, k-of-m costing what
(m-k+1)-of-m costs padded, and a k*m dynamic-programming circuit was
slower (ROADMAP item 2, "`atleast` in closed form").

Which route a threshold takes: the compiler dualizes the circuits built
here, the parse of the `atleast(k; ...)` macro, into prime clauses, and a
threshold spec goes straight to `compiler._threshold_plan` over its
(n-k+1)-subsets, priced before any subset is listed.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Callable, Iterator, Sequence

from .circuits import (
    FALSE,
    TRUE,
    MonotoneCircuit,
    Node,
    PuzzleSpec,
    Var,
    _var_pack,
    make_and,
    make_or,
)
from .words import DEFAULT_EXHAUSTIVE_LIMIT, DEFAULT_LETTER_BUDGET, _Record, _set, check_limit


class Comparator(_Record):
    """One compare-exchange; min lands on wire ``low``, max on ``high`` (1-based)."""

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int) -> None:
        _set(self, "low", low)
        _set(self, "high", high)
        if not 1 <= low < high:
            raise ValueError(f"comparator wires must satisfy 1 <= low < high, got {self}")


class ComparatorNetwork(_Record):
    __slots__ = ("width", "layers")

    def __init__(self, width: int, layers: tuple[tuple[Comparator, ...], ...]) -> None:
        for layer in layers:
            used: set[int] = set()
            for comp in layer:
                if comp.high > width:
                    raise ValueError(f"{comp} exceeds width {width}")
                if comp.low in used or comp.high in used:
                    raise ValueError(f"wire reused within a layer: {comp}")
                used.update((comp.low, comp.high))
        _set(self, "width", width)
        _set(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def comparators(self) -> Iterator[Comparator]:
        for layer in self.layers:
            yield from layer

    @property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def apply(self, values: Sequence, lo: Callable = min, hi: Callable = max) -> list:
        """Run every comparator in order: lo(a, b) to its low wire, hi(a, b) to its high."""
        out = list(values)
        if len(out) != self.width:
            raise ValueError(f"expected {self.width} values, got {len(out)}")
        for comp in self.comparators():
            a, b = out[comp.low - 1], out[comp.high - 1]
            out[comp.low - 1], out[comp.high - 1] = lo(a, b), hi(a, b)
        return out


def batcher_network(n: int) -> ComparatorNetwork:
    """Odd-even mergesort network on n wires (Batcher's merge exchange).

    Comparators come out in parallel phases; each phase compares wires d
    apart, so no wire appears twice in a layer.
    """
    if n < 1:
        raise ValueError(f"network width must be >= 1, got {n}")
    layers: list[tuple[Comparator, ...]] = []
    t = max((n - 1).bit_length(), 1)
    p = 1 << (t - 1)
    while p > 0:
        q = 1 << (t - 1)
        r = 0
        d = p
        while d > 0:
            layer = tuple(
                Comparator(i + 1, i + d + 1)
                for i in range(n - d)
                if i & p == r
            )
            if layer:
                layers.append(layer)
            d = q - p
            q >>= 1
            r = p
        p >>= 1
    return ComparatorNetwork(n, tuple(layers))


def sorts_all_zero_one(
    net: ComparatorNetwork, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> bool:
    """Exhaustive 0/1 soundness check, bit-packed across all inputs at once."""
    check_limit("sorts_all_zero_one", net.width, limit)
    packs = net.apply([_var_pack(i + 1, net.width) for i in range(net.width)], and_, or_)
    return all(packs[i] & ~packs[i + 1] == 0 for i in range(net.width - 1))


def network_to_circuit(net: ComparatorNetwork, output_wire: int) -> MonotoneCircuit:
    """Run the network on Var(1)..Var(width): min becomes AND, max becomes OR."""
    if not 1 <= output_wire <= net.width:
        raise ValueError(f"output wire {output_wire} out of range 1..{net.width}")
    wires = net.apply([Var(i) for i in range(1, net.width + 1)], make_and, make_or)
    return MonotoneCircuit(net.width, wires[output_wire - 1])


def threshold_over(k: int, inputs: Sequence[Node]) -> Node:
    """Node that is true iff at least k of the given input nodes are true."""
    m = len(inputs)
    if not 0 <= k <= m:
        raise ValueError(f"threshold k={k} out of range 0..{m}")
    if k == 0:
        return TRUE
    width = 1 << (m - 1).bit_length()
    # Constant-false pads sit on the lowest wires, where an ascending sort
    # would leave them anyway; folding then erases every pad comparator.
    wires = batcher_network(width).apply([FALSE] * (width - m) + list(inputs), make_and, make_or)
    return wires[width - k]


def threshold_circuit(k: int, n: int) -> MonotoneCircuit:
    """Monotone circuit for "at least k of nails 1..n removed"; n >= 1, 0 <= k <= n."""
    return MonotoneCircuit(n, threshold_over(k, [Var(i) for i in range(1, n + 1)]))


def build_k_of_n(
    k: int, n: int, budget: int | None = DEFAULT_LETTER_BUDGET, verify: bool | None = None
):
    """Compile the k-of-n threshold to a hanging word; returns a CompileReport.

    The word is `compiler._threshold_plan`'s over every (n-k+1)-subset of
    the nails, its budget checked against the closed-form length before any
    subset is listed; None disables it, as in ``compile_circuit``.
    """
    global _compiler
    if not 1 <= k <= n:  # refused before the compiler is loaded
        raise ValueError(f"build_k_of_n needs 1 <= k <= n, got k={k}, n={n}")
    if _compiler is None:  # imported once: an import statement costs about 1 us a call
        from . import compiler as _compiler
    return _compiler.compile_circuit(PuzzleSpec.from_threshold(n, k), budget=budget, verify=verify)


_compiler = None  # the `compiler` module, once `build_k_of_n` has loaded it
