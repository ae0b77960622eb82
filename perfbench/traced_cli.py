"""Traced entry point for cold loopforge CLI commands.

    python3 perfbench/traced_cli.py --trace-out FILE --op ID -- <loopforge argv>
    python3 perfbench/traced_cli.py --trace-out FILE --op ID --script CMDS.json

Times ``import loopforge.cli``, installs the tracer, runs ``loopforge.cli.main``
on the argv (or on each argv of a JSON list, in order) and writes the trace
to FILE before exiting with main's exit code (the first nonzero one for a
script).
"""

from __future__ import annotations

import json
import pathlib
import sys
from time import perf_counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    out_path = argv[argv.index("--trace-out") + 1]
    op = argv[argv.index("--op") + 1]
    if "--script" in argv:
        with open(argv[argv.index("--script") + 1], encoding="utf-8") as fh:
            commands = json.load(fh)
    else:
        commands = [argv[argv.index("--") + 1 :]]
    tracer = Tracer(op)
    t0 = perf_counter()
    import loopforge.cli

    tracer.import_s = perf_counter() - t0
    tracer.install()
    code = 0
    try:
        for cmd in commands:
            rc = tracer.time_call(f"cli.main[{cmd[0]}]", loopforge.cli.main, cmd)
            code = code or rc
    finally:
        sys.stdout.flush()
        tracer.write(out_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
