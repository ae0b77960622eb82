"""The CLI's primary output, pinned: one golden row per argument vector.

Each row holds the SHA-256 of stdout, the exit code and stderr of one
in-process ``cli.main`` run.  Code files are written to a scratch directory
under fixed relative names, so no path leaks into the table.  After a change
that is meant to alter output, rewrite the table with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in the change log which rows moved and why.  With ``--check`` the
script writes nothing: it replays every row, names each one that differs
and exits 1 if any does.  It needs no pytest, so it can replay the table
under any interpreter that runs the package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from loopforge.catalog import ENTRIES
from loopforge.cli import main
from loopforge.fileio import format_code

TABLE = Path(__file__).resolve().parent / "golden_cli.json"
FORMATS = ("text", "json", "csv")
LOOPS = sorted(ENTRIES, key=lambda loop: (len(loop), loop))
TIED = ("C4_4", "C4_13", "C4_15")  # two or more least-degree leaves at bounds 3 to 5

ERROR_FILES = {
    "rank1.code": "m=8 n=1\n1,2,3,4,5,6,7,8\n",
    "rank2.code": "m=8 n=2\n1,2,3,4\n1,2,5,6\n",
    "rank5.code": "m=20 n=5\n" + "".join(f"{4 * i + 1},{4 * i + 2},{4 * i + 3},{4 * i + 4}\n" for i in range(5)),
    "padded.code": "m=12000 n=3\n1,2,3,4\n1,2,5,6\n1,3,5,7\n",
    "odd.code": "m=8 n=3\n1,2,3,4\n1,2,5,6\n1,3,5,8,7,2\n",
    "latin1.code": b"m=8 n=3\n1,2,3,4\xe9\n",
    "header.code": "rank three\n1,2,3,4\n",
}
BAD_LAMBDAS = ("", "10101", "11x111", "full:101", "1" * 19, "full:" + "2" * 14, "0000000000")


def _write_files(directory: Path) -> None:
    for loop in LOOPS:
        (directory / f"{loop}.code").write_text(format_code(ENTRIES[loop].basis()), encoding="utf-8")
    for name, text in ERROR_FILES.items():
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (directory / name).write_bytes(data)


def commands() -> list[list[str]]:
    rng = random.Random(20260401)
    cmds: list[list[str]] = []
    for fmt in FORMATS:
        cmds += [["classify", "--loop", loop, "--format", fmt] for loop in LOOPS]
        cmds += [["classify", "--code", f"{loop}.code", "--format", fmt] for loop in LOOPS]
    cmds += [["classify", "--lambda", format(bits, "06b")] for bits in range(64)]
    cmds += [["classify", "--lambda", format(rng.getrandbits(10), "010b")] for _ in range(150)]
    cmds += [["classify", "--lambda", "full:" + format(rng.getrandbits(14), "014b")] for _ in range(50)]
    for fmt in FORMATS:
        cmds += [["orbits", "--rank", str(rank), "--format", fmt] for rank in (3, 4)]
        cmds += [["minimal", "--loop", loop, "--format", fmt] for loop in LOOPS]
        cmds += [["loop", "--loop", loop, "--format", fmt] for loop in LOOPS]
        cmds += [["enumerate", "--loop", f"C3_{i}", "--format", fmt] for i in range(1, 6)]
        cmds += [
            ["enumerate", "--loop", f"C4_{i}", "--max-class-size", "3", "--format", fmt]
            for i in range(1, 17)
        ]
    cmds += [
        ["minimal", "--loop", loop, "--max-class-size", str(bound), "--format", "json"]
        for loop in TIED
        for bound in (3, 4, 5)
    ]
    cmds += [["render", "--loop", loop, "--style", style] for loop in LOOPS for style in ("ascii", "svg")]
    cmds += [["verify-paper"], ["verify-paper", "--format", "json"]]
    for name in ERROR_FILES:
        cmds += [[command, "--code", name] for command in ("classify", "loop", "render")]
        cmds += [["loop", "--code", name, "--format", fmt] for fmt in ("json", "csv")]
    cmds += [["classify", "--lambda", text] for text in BAD_LAMBDAS]
    cmds += [["minimal", "--lambda", text] for text in BAD_LAMBDAS]
    cmds += [["minimal", "--loop", "C4_1", "--max-class-size", "0"], ["classify"], ["orbits", "--rank", "5"]]
    return cmds


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | str = main(list(argv))
        except Exception as exc:  # a traceback is output too: pin its type
            code = f"raised {type(exc).__name__}"
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def run_all() -> list[dict]:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        _write_files(Path(scratch))
        os.chdir(scratch)
        try:
            return [_run(argv) for argv in commands()]
        finally:
            os.chdir(cwd)


def test_cli_output_matches_the_golden_table():
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    assert [row["argv"] for row in table] == commands()
    mismatched = [(want, got) for want, got in zip(table, run_all()) if want != got]
    assert mismatched == []


# all 131,040 representations of C4_1 at the default bound; the table above
# pins rank-4 streams at bound 3 only
FULL_BOUND_DIGESTS = {
    "csv": "5e90859a18a4c275b451b48f717d38cd64ecc074ad1facd8f27a4e7f62594d3d",
    "json": "45bd2eae348e65816963b4e17fc2570501b44d466aa2413175d7221401c5deee",
    "text": "2bf65a120396ad7afa14b2b68320bbfa8990a44de75c1f0ed027475cbfdc2fd9",
}


def test_full_bound_csv_stream_keeps_its_digest():
    argv = ["enumerate", "--loop", "C4_1", "--format", "csv"]
    sha = FULL_BOUND_DIGESTS["csv"]
    assert _run(argv) == {"argv": argv, "exit": 0, "stdout_sha256": sha, "stderr": ""}


def pytest_generate_tests(metafunc):
    # parametrized through the hook, so the module imports without pytest
    if metafunc.function is test_full_bound_record_stream_keeps_its_digest:
        metafunc.parametrize("fmt", ["json", "text"])


def test_full_bound_record_stream_keeps_its_digest(fmt):
    # json and text lay out every leaf's generators and sizes
    argv = ["enumerate", "--loop", "C4_1", "--format", fmt]
    sha = FULL_BOUND_DIGESTS[fmt]
    assert _run(argv) == {"argv": argv, "exit": 0, "stdout_sha256": sha, "stderr": ""}


def moved_rows(table: list[dict], rows: list[dict]) -> list[str]:
    """One line per row of ``rows`` that differs from ``table``: its index,
    its arguments and the fields that moved."""
    moved = [
        f"row {i} ({' '.join(got['argv'])}): {', '.join(k for k in got if want.get(k) != got[k])}"
        for i, (want, got) in enumerate(zip(table, rows))
        if want != got
    ]
    if len(table) != len(rows):
        moved.append(f"the table holds {len(table)} rows, the commands {len(rows)}")
    return moved


def test_check_mode_names_each_moved_row():
    table = [{"argv": ["classify"], "exit": 1, "stdout_sha256": "a", "stderr": "e"}] * 3
    rows = [table[0], {**table[0], "exit": 2, "stderr": ""}, table[0], table[0]]
    assert moved_rows(table, table) == []
    assert moved_rows(table, rows) == ["row 1 (classify): exit, stderr", "the table holds 3 rows, the commands 4"]


def test_check_mode_runs_without_pytest_and_writes_nothing():
    # the replay an interpreter without pytest runs: every row matches here
    script = (
        "import runpy, sys; sys.modules['pytest'] = None; sys.path[:0] = ['src']\n"
        "sys.argv = ['test_golden_cli.py', '--check']\n"
        "runpy.run_path('tests/test_golden_cli.py', run_name='__main__')\n"
    )
    before = TABLE.read_bytes()
    root = TABLE.parent.parent
    done = subprocess.run([sys.executable, "-c", script], cwd=root, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"all {len(commands())} rows match golden_cli.json\n", "")
    assert TABLE.read_bytes() == before


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the golden table from this interpreter's output.")
    parser.add_argument("--check", action="store_true", help="compare instead: write nothing, exit 1 on a moved row")
    check = parser.parse_args().check
    rows = run_all()
    if check:
        moved = moved_rows(json.loads(TABLE.read_text(encoding="utf-8")), rows)
        sys.stdout.write("".join(f"{line}\n" for line in moved) or f"all {len(rows)} rows match {TABLE.name}\n")
        sys.exit(1 if moved else 0)
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(rows)} rows to {TABLE}\n")
