"""Schematic weaving diagrams for hanging words.

Nails sit on a horizontal line; the rope visits them in word order,
making one clockwise or counterclockwise loop per letter.  Wraps are
drawn as stacked loops in word order; over/under crossing optics are
deliberately not modeled, since the word determines the hanging up to
isotopy.  Output is deterministic text line art or SVG.
"""

from __future__ import annotations

from .words import DEFAULT_LETTER_BUDGET, Word, check_nails, nail_counts

__all__ = ["to_diagram", "SUPPORTED_FORMATS"]

_COL = 4


def _tok(x: int) -> str:
    return f"x{x}" if x > 0 else f"X{-x}"


def _legend_lines(w: Word, n: int) -> list[str]:
    counts = nail_counts(w, n)
    lines = [f"legend: {len(w)} letters"]
    for i in range(1, n + 1):
        lines.append(f"  nail {i}: {counts[i]} wraps")
    return lines


def _text_diagram(w: Word, n: int) -> str:
    header = "nails: " + "".join(str(i).ljust(_COL) for i in range(1, n + 1)).rstrip()
    marks = "       " + "".join("o".ljust(_COL) for _ in range(1, n + 1)).rstrip()
    rows = {}  # one row per distinct letter, formatted once
    for x in set(w.letters):
        nail = x if x > 0 else -x
        glyph = ")" if x > 0 else "("
        direction = "clockwise" if x > 0 else "counterclockwise"
        cells = "".join(
            (glyph if i == nail else ".").ljust(_COL) for i in range(1, n + 1)
        )
        rows[x] = f"       {cells}{_tok(x)}  {direction}"
    lines = [header, marks, *map(rows.__getitem__, w.letters)]
    if w.letters:
        lines[2] = "rope:  " + lines[2][7:]
    lines.extend(_legend_lines(w, n))
    return "\n".join(lines) + "\n"


def _vector_diagram(w: Word, n: int) -> str:
    margin = 30
    spacing = 60
    nail_y = 30
    rope_top = 70
    row_h = 26
    loop_r = 9
    width = margin * 2 + spacing * max(n - 1, 0) + 120
    height = rope_top + row_h * max(len(w), 1) + 24 * (n + 1) + 40

    def nx(i: int) -> int:
        return margin + spacing * (i - 1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>picture hanging on {n} nails</title>",
    ]
    for i in range(1, n + 1):
        parts.append(f'<circle cx="{nx(i)}" cy="{nail_y}" r="4" fill="black"/>')
        parts.append(
            f'<text x="{nx(i)}" y="{nail_y - 10}" font-size="12" '
            f'text-anchor="middle">{i}</text>'
        )
    if w.letters:
        # A letter's loop and label differ from row to row only in y, so
        # the fragments around each y are formatted once per distinct letter.
        frags = {}
        for x in set(w.letters):
            cx = nx(x if x > 0 else -x)
            arc = f"A {loop_r} {loop_r} 0 1 {1 if x > 0 else 0}"
            frags[x] = (
                f"L {cx - loop_r} ",
                f" {arc} {cx + loop_r} ",
                f" {arc} {cx - loop_r} ",
                f'<text x="{cx + loop_r + 6}" y="',
                f'" font-size="11">{_tok(x)} {"cw" if x > 0 else "ccw"}</text>',
            )
        d = [f"M {margin - 20} {rope_top}"]
        labels = []
        rows_y = range(rope_top, rope_top + row_h * len(w), row_h)
        for x, y in zip(w.letters, rows_y):
            lead, arc_out, arc_back, label, label_end = frags[x]
            text_y = str(y)  # formatted once, used three times
            d.append(f"{lead}{text_y}{arc_out}{text_y}{arc_back}{text_y}")
            labels.append(f"{label}{y + 4}{label_end}")
        d.append(f"L {width - margin + 10} {rope_top + row_h * (len(w) - 1)}")
        parts.append(
            f'<path d="{" ".join(d)}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        parts.extend(labels)
    legend_y = rope_top + row_h * max(len(w), 1) + 20
    for k, line in enumerate(_legend_lines(w, n)):
        parts.append(
            f'<text x="{margin - 20}" y="{legend_y + 24 * k}" font-size="12" '
            f'xml:space="preserve">{line}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# The largest diagram of each format, in nails and in letters.  In a fresh
# `render` process (CPython 3.11) the largest each accepts peaked at 164 MB
# for text (200,000 nails by 49 letters, every row distinct) and 121 MB for
# vector (200,000 letters); the cell cap alone let a diagram take 634 MB.
_FORMATS = {
    "text": (_text_diagram, 200_000, 1_000_000),
    "vector": (_vector_diagram, 100_000, 200_000),
}
SUPPORTED_FORMATS = tuple(_FORMATS)


def to_diagram(w: Word, n: int, format: str = "text") -> str:
    """Render the weaving diagram for w on n nails in the given format."""
    check_nails(w, n)
    check_size(n, len(w), format)
    return _FORMATS[format][0](w, n)


def check_size(n: int, letters: int, format: str) -> None:
    """Refuse, in one line, a diagram past the cell cap or its format's bounds."""
    if n * (letters + 1) > DEFAULT_LETTER_BUDGET:  # a row of n cells per letter and header
        raise ValueError(
            f"a diagram of {n} nails by {letters} letters exceeds {DEFAULT_LETTER_BUDGET} cells"
        )
    if format not in _FORMATS:
        raise ValueError(
            f"unsupported format {format!r}; supported formats: {', '.join(SUPPORTED_FORMATS)}"
        )
    _, nails, most = _FORMATS[format]
    if n > nails or letters > most:
        raise ValueError(
            f"a {format} diagram takes at most {nails} nails and {most} letters, "
            f"not {n} and {letters}"
        )
