"""Source-level checks on the library itself."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "loopforge").glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"charvec.py", "gf2.py", "search.py", "cli.py"}


def test_no_assert_statements_in_the_library():
    # ``python -O`` strips asserts, so invariants must be explicit checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
