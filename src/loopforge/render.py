"""Class-diagram rendering: rank-3 three-circle layout, rank-4 band grid.

Output is purely presentational but deterministic: identical partitions
render to identical bytes.  Explicit position labels are added when the
degree is at most 20.
"""

from __future__ import annotations

from .errors import UnsupportedRank
from .gf2 import ClassPartition, Sigma

POINT_LABEL_LIMIT = 20


def _label(sigma: Sigma, size: int) -> str:
    return "".join(str(i) for i in sigma) + f":{size}"


def _legend(partition: ClassPartition) -> list[str]:
    lines = []
    if partition.length <= POINT_LABEL_LIMIT:
        for sigma, block in partition.blocks:
            if block.bits:
                name = "".join(str(i) for i in sigma)
                pts = ",".join(str(p) for p in block.positions)
                lines.append(f"X{name} = {{{pts}}}")
    return lines


def _summary(partition: ClassPartition) -> str:
    nonempty = sum(1 for _, b in partition.blocks if b.bits)
    return f"m={partition.length}  nonempty classes: {nonempty}"


def check_rank(rank: int) -> None:
    """Diagrams exist for ranks 3 and 4 only; check before partitioning."""
    if rank not in (3, 4):
        raise UnsupportedRank("diagrams exist for ranks 3 and 4")


def render_ascii(partition: ClassPartition) -> str:
    check_rank(partition.rank)
    return _ascii_rank3(partition) if partition.rank == 3 else _ascii_rank4(partition)


def _ascii_rank3(partition: ClassPartition) -> str:
    s = partition.sizes
    w = max(len(_label(sig, n)) for sig, n in s.items()) + 2

    def c(text: str) -> str:
        return text.center(w)

    blank = c("")
    x1 = c(_label((1,), s[(1,)]))
    x12 = c(_label((1, 2), s[(1, 2)]))
    x13 = c(_label((1, 3), s[(1, 3)]))
    x123 = c(_label((1, 2, 3), s[(1, 2, 3)]))
    x2 = c(_label((2,), s[(2,)]))
    x23 = c(_label((2, 3), s[(2, 3)]))
    x3 = c(_label((3,), s[(3,)]))
    bar = "-" * w
    pad = " " * (w + 1)
    lines = [
        f"{pad}.{bar}.",
        f"{pad}|{c('v1')}|",
        f"{pad}|{x1}|",
        f".{bar}+{bar}+{bar}.",
        f"|{x12}|{blank}|{x13}|",
        f"|{blank}|{x123}|{blank}|",
        f"|{x2}+{bar}+{x3}|",
        f"|{c('v2')}|{x23}|{c('v3')}|",
        f"'{bar}+{bar}+{bar}'",
        "",
    ]
    lines.append(_summary(partition))
    lines.extend(_legend(partition))
    return "\n".join(lines) + "\n"


def _ascii_rank4(partition: ClassPartition) -> str:
    s = partition.sizes
    grid: list[list[str]] = [
        ["", _label((2,), s[(2,)]), _label((2, 4), s[(2, 4)]), _label((4,), s[(4,)])],
        [
            _label((1,), s[(1,)]),
            _label((1, 2), s[(1, 2)]),
            _label((1, 2, 4), s[(1, 2, 4)]),
            _label((1, 4), s[(1, 4)]),
        ],
        [
            _label((1, 3), s[(1, 3)]),
            _label((1, 2, 3), s[(1, 2, 3)]),
            _label((1, 2, 3, 4), s[(1, 2, 3, 4)]),
            _label((1, 3, 4), s[(1, 3, 4)]),
        ],
        [
            _label((3,), s[(3,)]),
            _label((2, 3), s[(2, 3)]),
            _label((2, 3, 4), s[(2, 3, 4)]),
            _label((3, 4), s[(3, 4)]),
        ],
    ]
    width = max(max(len(cell) for cell in row) for row in grid) + 2
    row_names = ["", "v1", "v1&v3", "v3"]
    name_w = max(len(r) for r in row_names) + 1
    header = (
        " " * (name_w + 1)
        + "".join(h.center(width + 1) for h in ["", "v2", "v2&v4", "v4"])
    )
    rule = " " * name_w + "+" + "+".join("-" * width for _ in range(4)) + "+"
    lines = [header, rule]
    for name, row in zip(row_names, grid):
        cells = "|".join(cell.center(width) for cell in row)
        lines.append(f"{name.ljust(name_w)}|{cells}|")
        lines.append(rule)
    lines.append("")
    lines.append(_summary(partition))
    lines.extend(_legend(partition))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG


def _svg_text(x: float, y: float, text: str, size: int = 12, anchor: str = "middle") -> str:
    from xml.sax.saxutils import escape

    return (
        f'<text x="{x:.0f}" y="{y:.0f}" font-size="{size}" '
        f'text-anchor="{anchor}" font-family="monospace">{escape(text)}</text>'
    )


def render_svg(partition: ClassPartition) -> str:
    check_rank(partition.rank)
    return _svg_rank3(partition) if partition.rank == 3 else _svg_rank4(partition)


def _positions_text(partition: ClassPartition, sigma: Sigma) -> str:
    if partition.length > POINT_LABEL_LIMIT:
        return ""
    block = partition.block(sigma)
    return "{" + ",".join(str(p) for p in block.positions) + "}"


def _svg_rank3(partition: ClassPartition) -> str:
    s = partition.sizes
    centers = {
        (1,): (200, 110),
        (2,): (140, 220),
        (3,): (260, 220),
        (1, 2): (160, 160),
        (1, 3): (240, 160),
        (2, 3): (200, 240),
        (1, 2, 3): (200, 185),
    }
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="320" '
        'viewBox="0 0 400 320">',
        '<circle cx="200" cy="140" r="90" fill="none" stroke="red"/>',
        '<circle cx="160" cy="200" r="90" fill="none" stroke="green"/>',
        '<circle cx="240" cy="200" r="90" fill="none" stroke="blue"/>',
        _svg_text(200, 40, "v1"),
        _svg_text(70, 290, "v2"),
        _svg_text(330, 290, "v3"),
    ]
    for sigma, (x, y) in centers.items():
        parts.append(_svg_text(x, y, _label(sigma, s[sigma]), size=11))
        pts = _positions_text(partition, sigma)
        if pts:
            parts.append(_svg_text(x, y + 12, pts, size=8))
    parts.append(_svg_text(200, 310, _summary(partition), size=10))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_GRID_CELLS: dict[tuple[int, int], Sigma | None] = {
    (0, 0): None, (1, 0): (2,), (2, 0): (2, 4), (3, 0): (4,),
    (0, 1): (1,), (1, 1): (1, 2), (2, 1): (1, 2, 4), (3, 1): (1, 4),
    (0, 2): (1, 3), (1, 2): (1, 2, 3), (2, 2): (1, 2, 3, 4), (3, 2): (1, 3, 4),
    (0, 3): (3,), (1, 3): (2, 3), (2, 3): (2, 3, 4), (3, 3): (3, 4),
}


def _svg_rank4(partition: ClassPartition) -> str:
    s = partition.sizes
    cw, ch, ox, oy = 110, 70, 70, 50
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="540" height="400" '
        'viewBox="0 0 540 400">',
        f'<rect x="{ox}" y="{oy}" width="{4 * cw}" height="{4 * ch}" '
        'fill="none" stroke="black"/>',
    ]
    vcolors = ["green", "orange", "green"]
    for i, color in enumerate(vcolors, start=1):
        x = ox + i * cw
        parts.append(f'<line x1="{x}" y1="{oy}" x2="{x}" y2="{oy + 4 * ch}" stroke="{color}"/>')
    hcolors = ["blue", "red", "blue"]
    for i, color in enumerate(hcolors, start=1):
        y = oy + i * ch
        parts.append(f'<line x1="{ox}" y1="{y}" x2="{ox + 4 * cw}" y2="{y}" stroke="{color}"/>')
    for text, col in (("v2", 1), ("v2&v4", 2), ("v4", 3)):
        parts.append(_svg_text(ox + col * cw + cw / 2, oy - 12, text))
    for text, row in (("v1", 1), ("v1&v3", 2), ("v3", 3)):
        parts.append(_svg_text(ox - 38, oy + row * ch + ch / 2, text, size=11))
    for (col, row), sigma in _GRID_CELLS.items():
        if sigma is None:
            continue
        x = ox + col * cw + cw / 2
        y = oy + row * ch + ch / 2
        parts.append(_svg_text(x, y, _label(sigma, s[sigma]), size=11))
        pts = _positions_text(partition, sigma)
        if pts:
            parts.append(_svg_text(x, y + 13, pts, size=8))
    parts.append(_svg_text(270, 385, _summary(partition), size=10))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
