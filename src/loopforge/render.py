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


# rank-4 band grid, one tuple per row: rows 1-3 lie in v1, v1&v3 and v3 and
# columns 1-3 in v2, v2&v4 and v4; row and column 0 lie outside them
_ROW_NAMES = ("v1", "v1&v3", "v3")
_COL_NAMES = ("v2", "v2&v4", "v4")
_GRID_CELLS: tuple[tuple[Sigma | None, ...], ...] = (
    (None, (2,), (2, 4), (4,)),
    ((1,), (1, 2), (1, 2, 4), (1, 4)),
    ((1, 3), (1, 2, 3), (1, 2, 3, 4), (1, 3, 4)),
    ((3,), (2, 3), (2, 3, 4), (3, 4)),
)


def render_ascii(partition: ClassPartition) -> str:
    check_rank(partition.rank)
    return _ascii_rank3(partition) if partition.rank == 3 else _ascii_rank4(partition)


def _ascii_rank3(partition: ClassPartition) -> str:
    labels = [_label(sigma, n) for sigma, n in partition.sizes.items()]
    w = max(map(len, labels)) + 2

    def c(text: str) -> str:
        return text.center(w)

    blank = c("")
    x123, x12, x13, x1, x23, x2, x3 = map(c, labels)  # class_order(3)
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
    grid = [["" if sigma is None else _label(sigma, s[sigma]) for sigma in row] for row in _GRID_CELLS]
    width = max(len(cell) for row in grid for cell in row) + 2
    row_names = ("", *_ROW_NAMES)
    name_w = max(map(len, row_names)) + 1
    header = " " * (name_w + 1) + "".join(h.center(width + 1) for h in ("", *_COL_NAMES))
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


def _svg_text(x: float, y: float, text: str, size: int = 12) -> str:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{x:.0f}" y="{y:.0f}" font-size="{size}" '
        f'text-anchor="middle" font-family="monospace">{text}</text>'
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
    for col, text in enumerate(_COL_NAMES, start=1):
        parts.append(_svg_text(ox + col * cw + cw / 2, oy - 12, text))
    for row, text in enumerate(_ROW_NAMES, start=1):
        parts.append(_svg_text(ox - 38, oy + row * ch + ch / 2, text, size=11))
    for row, cells in enumerate(_GRID_CELLS):
        for col, sigma in enumerate(cells):
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
