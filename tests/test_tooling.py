"""Source-level checks on the library itself."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "loopforge").glob("*.py"))


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


def test_benchmark_tracer_finds_every_function_it_wraps():
    # perfbench/tracer.py wraps library functions by module and name, so a
    # rename in src/ must fail here, not only in a traced benchmark run
    code = "import sys; sys.path[:0] = ['perfbench', 'src']; from tracer import Tracer; Tracer().install()"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
