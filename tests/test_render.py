"""Diagram rendering: layout invariants, legends, determinism."""

from __future__ import annotations

import hashlib
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from loopforge.catalog import ENTRIES
from loopforge.errors import UnsupportedRank
from loopforge.gf2 import CodeBasis, class_partition
from loopforge.render import render_ascii, render_svg
from loopforge.search import ReducedRepresentation, assemble_representation


def part_for(loop: str):
    return class_partition(ENTRIES[loop].basis())


def test_ascii_rank3_mentions_every_class():
    art = render_ascii(part_for("C3_2"))
    for label in ("123:1", "12:3", "13:3", "1:1", "23:3", "2:1", "3:1"):
        assert label in art
    assert "nonempty classes: 7" in art
    assert "X123 = {1}" in art  # legend appears for degree <= 20


def test_ascii_rank4_grid():
    art = render_ascii(part_for("C4_3"))
    assert "nonempty classes: 9" in art
    assert "1234:" in art and "v2&v4" in art
    lines = art.splitlines()
    rules = [ln for ln in lines if set(ln.strip()) <= {"+", "-"} and ln.strip()]
    assert len(rules) == 5  # 4x4 grid has five horizontal rules


def test_ascii_legend_suppressed_for_large_degree():
    # a degree-21 representation has no point labels
    from loopforge.charvec import LoopClassId, representative
    from loopforge.search import enumerate_reduced

    cv = representative(LoopClassId(3, 2))
    big = next(rep for rep in enumerate_reduced(cv) if rep.degree > 20)
    art = render_ascii(class_partition(big.basis))
    assert "X123 = " not in art


def test_ascii_rank_cap():
    basis = CodeBasis.from_positions(2, [(1,), (2,)])
    with pytest.raises(UnsupportedRank):
        render_ascii(class_partition(basis))


def test_svg_rank3_well_formed():
    svg = render_svg(part_for("C3_1"))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "123:1" in texts
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 3


def test_svg_rank4_well_formed():
    svg = render_svg(part_for("C4_16"))
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "1234:0" in texts
    assert any(t and t.startswith("{") for t in texts)  # point labels at degree 17


def test_render_deterministic():
    assert render_ascii(part_for("C4_14")) == render_ascii(part_for("C4_14"))
    assert render_svg(part_for("C4_14")) == render_svg(part_for("C4_14"))


# leading 16 hex digits of the SHA-256 of the ascii and the svg bytes
RENDER_DIGESTS = {
    "C3_1": ("5f7f82a2c4b2c15c", "fb422db17188839f"),
    "C3_2": ("2c38c0042321e265", "458222e97dd83415"),
    "C3_3": ("feb4d8c9517590d1", "e9fcc589981adf33"),
    "C3_4": ("e6e873fe89cfcd02", "24d1eabb268e225a"),
    "C3_5": ("cf6e12c5bb226193", "0e448e06a2b39783"),
    "C4_1": ("bada6c06d081f154", "c86e89d416c06c6b"),
    "C4_2": ("8a34c82899baec5c", "2dd94ca7f791db6d"),
    "C4_3": ("05e9fe0572dce2ad", "cd38d4c0dbe8af71"),
    "C4_4": ("2091c731e6c2c484", "ecba0378ba4dd749"),
    "C4_5": ("c03422fb18fd0ce1", "24f659938650955c"),
    "C4_6": ("fc2029a81b4f674b", "89cf980d2906610f"),
    "C4_7": ("fcad0e5a32f93f1e", "bd0bb6eb750c8a6e"),
    "C4_8": ("875c99ab125652eb", "63abd3786e0ceade"),
    "C4_9": ("a30af29bd93a8859", "14a699b3ce626230"),
    "C4_10": ("3c2dee4311711279", "5bbb760b27cc0ed3"),
    "C4_11": ("ee6e427eb2899910", "321d01d6f33ff469"),
    "C4_12": ("2518cad727975a4f", "8d306000afa20eb9"),
    "C4_13": ("70c2afd2196d6698", "193d20ea76b317ad"),
    "C4_14": ("7c973c419b6c536c", "7d9d98ec5f2efcc9"),
    "C4_15": ("e681accdcbc70eec", "5449e539c8097861"),
    "C4_16": ("96c59d15f6d43189", "48133a3d430842f8"),
    "rank 3, degree 31": ("05ac65299ccb5385", "a0edf53735fdaaa2"),
    "rank 4, degree 25": ("5df22aca65b1eecc", "1cc954af5b6cc749"),
}


def test_render_output_is_pinned():
    # the catalog bases, and two codes too long for point labels
    parts = {name: part_for(name) for name in ENTRIES}
    for n, counts in ((3, (1, 3, 3, 7, 3, 7, 7)), (4, (0, 1, 0, 0, 3, 3, 2, 7, 0, 1, 0, 3, 0, 3, 2))):
        rep = ReducedRepresentation(counts, sum(counts))
        parts[f"rank {n}, degree {rep.degree}"] = class_partition(assemble_representation(rep))
    digests = {
        name: tuple(hashlib.sha256(draw(part).encode()).hexdigest()[:16] for draw in (render_ascii, render_svg))
        for name, part in parts.items()
    }
    assert digests == RENDER_DIGESTS


def test_svg_render_imports_no_xml_escaper():
    # xml.sax.saxutils pulls in urllib.request, a cold-start cost that
    # escaping three characters does not need
    code = (
        "import os, sys; sys.path[:0] = ['src']; from loopforge import cli; "
        "cli.main(['render', '--loop', 'C4_3', '--style', 'svg', '--output', os.devnull]); "
        "print(sorted({'xml.sax.saxutils', 'urllib.request'} & set(sys.modules)))"
    )
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
