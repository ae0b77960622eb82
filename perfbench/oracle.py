"""Expected results of every benchmark op, derived from construction and the catalog.

``check(op, rc, out, err)`` returns None for a correct op, else a one-line
reason.  An op fails on a timeout, a traceback, an exit code it does not
allow, a stderr that is not empty on success or not exactly one line on
error, or an output that disagrees with the expectation.  Outputs are parsed
and compared field by field, never by byte digest.
"""

from __future__ import annotations

import csv
import io
import json
import random

from loopforge.catalog import ENTRIES
from loopforge.charvec import CharVector, GLMatrix, char_vector_of, gl_transform
from loopforge.gf2 import CodeBasis

from inputs import NONASSOCIATIVE, ORBIT_SIZES, REPRESENTATIVES, loop_ids
from layers import CLAIMS

# Stream lengths of enumerate_reduced(representative(loop), max_class_size),
# recorded at the commit that introduced this benchmark.
STREAM_COUNTS = {
    7: {
        "C3_1": 32, "C3_2": 32, "C3_3": 32, "C3_4": 32,
        "C3_5": 32, "C4_1": 131040, "C4_2": 131040, "C4_3": 131040,
        "C4_4": 131040, "C4_5": 131040, "C4_6": 131072, "C4_7": 131072,
        "C4_8": 131072, "C4_9": 131072, "C4_10": 131072, "C4_11": 131072,
        "C4_12": 131072, "C4_13": 131072, "C4_14": 131072, "C4_15": 131072,
        "C4_16": 131072,
    },
    5: {
        "C4_1": 5041, "C4_2": 1868, "C4_3": 4784, "C4_4": 1868,
        "C4_5": 1858, "C4_6": 4800, "C4_7": 1860, "C4_8": 1512,
        "C4_9": 1512, "C4_10": 1512, "C4_11": 1512, "C4_12": 1860,
        "C4_13": 1872, "C4_14": 1872, "C4_15": 1872, "C4_16": 1860,
    },
}

SAMPLE_RECHECKS = 5


class Mismatch(Exception):
    """The program's output disagrees with the expected result."""


def representative_vector(loop: str) -> CharVector:
    rank, index = int(loop[1]), int(loop.split("_")[1])
    return CharVector.from_shorthand(rank, REPRESENTATIVES[rank][index - 1])


def vector_of(parts) -> CharVector:
    sigma, beta, alpha = parts
    return CharVector(len(sigma), sigma, beta, alpha)


def check(op: dict, rc: int | None, out: str, err: str) -> str | None:
    if rc is None:
        return "timeout"
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1][:200]
    if rc not in op["rcs"]:
        return f"exit {rc}, expected {op['rcs']}"
    if rc != 0:
        if err.count("\n") != 1 or not err.endswith("\n") or not err.startswith("error:"):
            return f"stderr is not one 'error:' line ({err.count(chr(10))} lines)"
        return None
    if err:
        return f"unexpected stderr on success: {err[:200]!r}"
    try:
        CHECKS[op["kind"]](op, out)
    except Mismatch as exc:
        return f"{op['kind']}: {exc}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{op['kind']}: unparsable output ({type(exc).__name__}: {exc})"
    return None


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def witness_ok(parts, rep_short: str, witness_rows: list[str]) -> bool:
    n = len(parts[0])
    rows = tuple(sum(int(c) << j for j, c in enumerate(row)) for row in witness_rows)
    rep = CharVector.from_shorthand(n, rep_short)
    return gl_transform(vector_of(parts), GLMatrix(n, rows)) == rep


def check_classify(op: dict, out: str) -> None:
    e = op["expect"]
    if op["format"] == "json":
        rec = json.loads(out)
    else:
        rec = dict(line.split(": ", 1) for line in out.splitlines())
        rec["witness"] = rec["witness"].split()
    loop = e["loop"]
    rank, index = int(loop[1]), int(loop.split("_")[1])
    expect(rec["loop"] == loop, f"loop {rec['loop']} != {loop}")
    expect(rec["lambda"] == e["lambda"], f"lambda {rec['lambda']} != {e['lambda']}")
    rep = REPRESENTATIVES[rank][index - 1]
    expect(rec["representative"] == rep, f"representative {rec['representative']} != {rep}")
    expect(witness_ok(e["parts"], rep, rec["witness"]), "witness does not map the vector to the representative")


def check_orbits(op: dict, out: str) -> None:
    rank = op["expect"]["rank"]
    if op["format"] == "json":
        rec = json.loads(out)
        rows = [(o["loop"], o["representative"], o["size"]) for o in rec["orbits"]]
        total = rec["total"]
    elif op["format"] == "csv":
        table = list(csv.reader(io.StringIO(out)))
        expect(table[0] == ["loop", "representative", "size"], "bad csv header")
        rows = [(r[0], r[1], int(r[2])) for r in table[1:]]
        total = sum(r[2] for r in rows)
    else:
        lines = out.splitlines()
        rows = [(a, b, int(c)) for a, b, c in (ln.split() for ln in lines[:-1])]
        total = int(lines[-1].split()[-1])
    want = [
        (loop, rep, size)
        for loop, rep, size in zip(loop_ids(rank), REPRESENTATIVES[rank], ORBIT_SIZES[rank])
    ]
    expect(len(rows) == len(want), f"{len(rows)} orbits, expected {len(want)}")
    expect(total == NONASSOCIATIVE[rank] == sum(r[2] for r in rows), f"orbit sizes sum to {total}")
    expect(rows == want, "orbit table differs from the classification")


def check_loop(op: dict, out: str) -> None:
    e = op["expect"]
    order = 2 ** (e["rank"] + 1)
    if op["format"] == "csv":
        table = list(csv.reader(io.StringIO(out)))
        expect(len(table) == order + 1, f"{len(table) - 1} rows, expected {order}")
        labels = table[0][1:]
        expect(len(set(labels)) == order, "header labels are not distinct")
        want = sorted(labels)
        for row in table[1:]:
            expect(sorted(row[1:]) == want, f"row {row[0]} is not a permutation of the elements")
        return
    if op["format"] == "json":
        rec = json.loads(out)
    else:
        raw = dict(line.split(": ", 1) for line in out.splitlines())
        rec = {
            "order": int(raw["order"]),
            "moufang": raw["moufang"] == "true",
            "associative": raw["associative"] == "true",
            "loop": raw["loop"],
        }
    expect(rec["order"] == order, f"order {rec['order']}, expected {order}")
    expect(rec["moufang"] is True, "not Moufang")
    expect(rec["associative"] is False, "associative")
    expect(rec["loop"] == e["loop"], f"loop {rec['loop']} != {e['loop']}")


def check_minimal(op: dict, out: str) -> None:
    entry = ENTRIES[op["expect"]["loop"]]
    if op["format"] == "json":
        rec = json.loads(out)
        types = [tuple(r["type"]) for r in rec["representations"]]
        degree, count, loop = rec["degree"], rec["count"], rec["loop"]
    else:
        lines = out.splitlines()
        loop = lines[0].split(": ")[1]
        degree = int(lines[1].split(": ")[1].split()[0])
        count = int(lines[2].split(": ")[1])
        types = [
            tuple(int(c) for c in ln.strip()[6:-1]) for ln in lines if ln.startswith("  type (")
        ]
    expect(loop == entry.loop, f"loop {loop} != {entry.loop}")
    expect(degree == entry.degree, f"degree {degree}, catalog says {entry.degree}")
    expect(count == 1 and types == [entry.type], f"{count} minima of types {types}")


def check_enumerate(op: dict, out: str) -> None:
    e = op["expect"]
    loop, bound = e["loop"], e["bound"]
    lines = out.splitlines()
    if op["format"] == "json":
        summary = json.loads(lines[-1])["summary"]
        count = summary["count"]
        expect(summary["loop"] == loop, f"summary loop {summary['loop']}")
        body = lines[:-1]
        pick = lambda ln: json.loads(ln)  # noqa: E731
    else:
        count = int(lines[-1].split()[1].split("=")[1])
        body = lines[:-1]

        def pick(ln):
            head, gens = ln.split(" generators: ")
            return {
                "loop": head.split()[0],
                "degree": int(head.split()[1].split("=")[1]),
                "generators": [[int(p) for p in g.split(",")] for g in gens.split("; ")],
            }

    want = STREAM_COUNTS[bound][loop]
    expect(count == want == len(body), f"stream of {len(body)} (summary {count}), expected {want}")
    rng = random.Random(op["sample_seed"])
    cv = representative_vector(loop)
    for ln in rng.sample(body, min(SAMPLE_RECHECKS, len(body))):
        rec = pick(ln)
        expect(rec["loop"] == loop, f"record loop {rec['loop']}")
        basis = CodeBasis.from_positions(rec["degree"], rec["generators"])
        expect(char_vector_of(basis) == cv, "sampled representation has another vector")


def check_render(op: dict, out: str) -> None:
    entry = ENTRIES[op["expect"]["loop"]]
    summary = f"m={entry.degree}  nonempty classes: {len(entry.type)}"
    expect(summary in out, f"summary {summary!r} missing")
    if op["format"] == "svg":
        expect(out.startswith("<svg") and out.endswith("</svg>\n"), "not an svg document")


def check_verify(op: dict, out: str) -> None:
    lines = [ln for ln in out.splitlines() if not ln.startswith(" ")]
    got = [tuple(ln.split(":")[0].split(" ", 1)) for ln in lines]
    expect(got == [("PASS", c) for c in CLAIMS], f"claims {got}")


CHECKS = {
    "classify": check_classify,
    "orbits": check_orbits,
    "loop": check_loop,
    "minimal": check_minimal,
    "enumerate": check_enumerate,
    "render": check_render,
    "verify-paper": check_verify,
}
