"""Text formats: code files, characteristic-vector strings, JSON/CSV records.

Code file format:
    line 1:            exactly m=<int> n=<int> (each field once, in either order)
    lines 2 .. n+1:    one generator each, either comma-separated distinct 1-based
                       positions (``1,2,3,4``) or a bitstring of length m
                       prefixed ``b:`` (``b:01101...``).
Each <int> and position is ASCII digits with an optional ``-`` (and spaces or tabs
around a position), not the wider ``int()`` syntax: no ``_``, ``+`` or other digits.

Characteristic vectors are accepted in shorthand (n + C(n,2) bits: 6 for
rank 3, 10 for rank 4, omitted coordinates fixed by convention) or in full
coordinate form prefixed ``full:`` (C(n,3) more bits: 7 and 14).
"""

from __future__ import annotations

import re
from math import comb
from typing import TYPE_CHECKING, Any, Callable

from .charvec import REPRESENTATIVES, CharVector, GLMatrix, LoopClassId
from .errors import ParseError, clipped, quoted
from .gf2 import CodeBasis, Codeword

if TYPE_CHECKING:
    from .search import MinimalReport, ReducedRepresentation


_INTEGER = re.compile(r"[ \t]*-?[0-9]+[ \t]*")


def _integer(text: str) -> int:
    """``text`` as an int: ASCII digits with an optional ``-`` and spaces or tabs around
    them, not ``int()``'s wider syntax (``_``, ``+``, other scripts' digits)."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {quoted(text)}")
    return int(text)


def parse_code_text(text: str) -> CodeBasis:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty code file")
    head = lines[0].split()
    try:
        # exactly the two fields m and n, each once
        fields = dict(part.split("=") for part in head) if len(head) == 2 else {}
        m, n = _integer(fields["m"]), _integer(fields["n"])
        if m < 0 or n < 0:
            raise ValueError
    except (ValueError, KeyError):
        raise ParseError(f"bad header {quoted(lines[0])}; expected 'm=<int> n=<int>'") from None
    if len(lines) - 1 != n:
        raise ParseError(f"expected {clipped(str(n))} generator lines, found {len(lines) - 1}")
    generators = []
    for ln in lines[1:]:
        if ln.startswith("b:"):
            bits = ln[2:]
            if len(bits) != m:
                raise ParseError(f"bitstring length {len(bits)} != m={clipped(str(m))}")
            try:
                generators.append(Codeword.from_bitstring(bits))
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        else:
            try:
                positions = [_integer(p) for p in ln.split(",")]
                generators.append(Codeword.from_positions(m, positions))
                if generators[-1].weight < len(positions):  # a position was merged
                    ordered = sorted(positions)
                    repeated = next(p for p, q in zip(ordered, ordered[1:]) if p == q)
                    raise ValueError(f"position {clipped(str(repeated))} repeated")
            except ValueError as exc:
                raise ParseError(f"bad generator line {quoted(ln)}: {exc}") from None
    return CodeBasis(m, tuple(generators))


def format_code(basis: CodeBasis) -> str:
    lines = [f"m={basis.length} n={basis.rank}"]
    lines.extend(",".join(str(p) for p in g.positions) for g in basis.generators)
    return "\n".join(lines) + "\n"


# text length -> rank, per form: n + C(n,2) sign and commutator bits, plus
# C(n,3) associator bits in full
_RANKS = {full: {n + comb(n, 2) + (comb(n, 3) if full else 0): n for n in REPRESENTATIVES} for full in (False, True)}


def parse_lambda(text: str) -> CharVector:
    """Parse shorthand or ``full:``-prefixed characteristic vector strings."""
    text = text.strip()
    full = text.startswith("full:")
    bits = text[len("full:") :] if full else text
    form = "full form" if full else "shorthand"
    ranks = _RANKS[full]
    try:
        inferred = ranks.get(len(bits))
        if inferred is None:
            lengths = " or ".join(map(str, ranks))
            raise ValueError(f"{form} must have {lengths} bits, got {len(bits)}")
        if full:
            return CharVector.from_bits(inferred, bits)
        return CharVector.from_shorthand(inferred, bits)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_lambda(cv: CharVector) -> str:
    """Shorthand when the conventional coordinates allow it, else full form."""
    if cv.is_normalized:
        return cv.shorthand()
    return "full:" + cv.bits()


# ---------------------------------------------------------------------------
# Structured records (shared by the CLI and the JSON schemas in docs/)


def representation_record(loop: LoopClassId | str, rep: ReducedRepresentation) -> dict[str, Any]:
    return {
        "loop": str(loop),
        "degree": rep.degree,
        "type": list(rep.type),
        "sizes": rep.as_dict(),
        "generators": [[p for r in blocks for p in r] for blocks in rep.generator_blocks()],
    }


def representation_encoder(loop: LoopClassId, form: str) -> Callable[[ReducedRepresentation], str]:
    """The line of a representation of the loop in an ``enumerate`` stream, written
    from the counts; in json it is ``dumps(representation_record(loop, rep))``."""
    if form == "csv":  # loop, degree and type: none needs quoting
        return lambda rep: f"{loop},{rep.degree},{''.join(map(str, rep.type))}\n"
    from .search import _class_names
    names, runs = _class_names(loop.rank), {}  # runs: block -> its positions, formatted once
    sizes = ",".join(f'"{names[k]}":{{{k}}}' for k in sorted(range(len(names)), key=names.__getitem__))

    def generators(rep: ReducedRepresentation) -> list[str]:
        return [",".join([runs.get(b) or runs.setdefault(b, ",".join(map(str, b))) for b in blocks if b])
                for blocks in rep.generator_blocks()]

    if form == "text":
        return lambda rep: (f"{loop} degree={rep.degree} type=({''.join(map(str, rep.type))}) "
                            f"generators: {'; '.join(generators(rep))}\n")
    return lambda rep: (  # keys and sizes in sort_keys order
        f'{{"degree":{rep.degree},"generators":[{",".join(f"[{g}]" for g in generators(rep))}],'
        f'"loop":"{loop}","sizes":{{{sizes.format(*rep.counts)}}},"type":[{",".join(map(str, rep.type))}]}}\n')


def minimal_report_record(report: MinimalReport) -> dict[str, Any]:
    return {
        "loop": str(report.loop),
        "degree": report.degree,
        "scope": report.scope,
        "count": len(report.representations),
        "representations": [
            representation_record(report.loop, rep) for rep in report.representations
        ],
    }


def classify_record(
    cv: CharVector, loop: LoopClassId, rep: CharVector, witness: GLMatrix
) -> dict[str, Any]:
    return {
        "loop": str(loop),
        "lambda": format_lambda(cv),
        "representative": format_lambda(rep),
        "witness": list(witness.row_bitstrings()),
    }


def dumps(record: Any) -> str:
    import json  # here, not at module level: a text or csv command never loads it
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def csv_text(rows: list[list[Any]]) -> str:
    import csv
    import io
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
