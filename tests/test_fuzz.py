"""Property-based fuzzing of the text parsers and the command line.

Malformed or padded input must end in a package error (exit 1 or 2 with one
short ``error:`` line), never in a traceback, a hang or a huge message.
Generator positions stay small: a position p is a p-bit integer, so the
strategies pad the ambient length ``m``, not the positions.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopforge.catalog import ENTRIES
from loopforge.cli import main
from loopforge.errors import LoopforgeError
from loopforge.fileio import parse_code_text, parse_lambda

LOOPS = sorted(ENTRIES)
MAX_ERROR_BYTES = 300

bitstrings = st.text(alphabet="01", max_size=16)
lambdas = st.one_of(bitstrings, bitstrings.map("full:".__add__), st.text(max_size=20))
ambient = st.one_of(st.integers(-3, 40), st.integers(-3, 10**13))
generator_lines = st.one_of(
    st.lists(st.integers(-2, 40), max_size=10).map(lambda ps: ",".join(map(str, ps))),
    bitstrings.map("b:".__add__),
    st.text(max_size=12),
)


def _code_text(m, n, lines) -> str:
    return f"m={m} n={n}\n" + "\n".join(lines) + "\n"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_outcome(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:MAX_ERROR_BYTES]
        assert len(err.encode()) <= MAX_ERROR_BYTES, err[:MAX_ERROR_BYTES]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.text(max_size=60),
        st.builds(_code_text, ambient, st.integers(-1, 5), st.lists(generator_lines, max_size=5)),
    )
)
def test_parse_code_text_raises_only_package_errors(text):
    try:
        parse_code_text(text)
    except LoopforgeError:
        pass


@settings(max_examples=150, deadline=None)
@given(lambdas)
def test_parse_lambda_raises_only_package_errors(text):
    try:
        parse_lambda(text)
    except LoopforgeError:
        pass


@settings(max_examples=40, deadline=None)
@given(
    loop=st.sampled_from(LOOPS),
    published=st.booleans(),
    m=ambient,
    n_shift=st.sampled_from((0, 0, 0, -1, 1)),
    command=st.sampled_from(("classify", "render", "loop")),
    fmt=st.sampled_from(("text", "json", "csv")),
)
@example(loop="C4_1", published=False, m=10**12, n_shift=0, command="classify", fmt="text")
@example(loop="C4_1", published=False, m=10**12, n_shift=0, command="render", fmt="text")
def test_main_on_padded_code_files(loop, published, m, n_shift, command, fmt):
    entry = ENTRIES[loop]
    gens = entry.published_generators if published else entry.generators
    text = _code_text(m, len(gens) + n_shift, [",".join(map(str, g)) for g in gens])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.code")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, out, err = _run([command, "--code", path, "--format", fmt])
    _check_outcome(code, err)
    if code == 0 and command == "classify" and not published:
        assert f"loop: {loop}" in out or f'"loop":"{loop}"' in out or f"\n{loop}," in out


@settings(max_examples=40, deadline=None)
@given(lambdas, st.sampled_from(("classify", "render", "loop")))
def test_main_on_random_lambda_strings(text, command):
    code, _, err = _run([command, f"--lambda={text}"])
    _check_outcome(code, err)
