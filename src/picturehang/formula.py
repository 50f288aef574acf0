"""Formula text for monotone circuits: `parse_formula` reads it and `format_formula` writes it.

`r<k>` is variable k, `&` binds tighter than `|`, and `atleast(k; r<i>, ...)`
holds when at least k of its variables do.  Only a formula spec or a
`--formula` target needs this syntax, so `circuits` loads it on first use.
"""

from __future__ import annotations

import re
from typing import Callable

from .circuits import _T, Const, MonotoneCircuit, Node, Var, make_and, make_or


class FormulaSyntaxError(ValueError):
    """Formula rejected; ``position`` is the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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

    def separated(self, separator: str, item: Callable[[], _T]) -> list[_T]:
        """One or more items with a separator token between each two."""
        items = [item()]
        while self.peek()[0] == separator:
            self.take(separator)
            items.append(item())
        return items

    def expr(self) -> Node:
        return make_or(*self.separated("|", self.term))

    def term(self) -> Node:
        return make_and(*self.separated("&", self.factor))

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
        indices = self.separated(",", self.var)
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

    `&` binds tighter than `|`; each chain is one gate over its operands.
    If n is omitted it defaults to the largest variable index mentioned.
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

    Iterative, so circuits thousands of gates deep render without recursion:
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
            separator = " & " if node.op == "and" else " | "
            stack.append(")" if wrap else "")
            for operand in reversed(node.operands[1:]):
                stack += (operand, node.op), separator
            stack += (node.operands[0], node.op), "(" if wrap else ""
    return "".join(out)
