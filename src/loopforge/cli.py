"""Command-line front end.

Subcommands: classify, orbits, enumerate, minimal, loop, render, verify-paper.
Primary output goes to stdout (or ``--output``); diagnostics go to stderr.
Exit codes: 0 success, 1 usage/IO error, 2 domain error, 3 verification
failure.  Identical inputs produce byte-identical primary output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import fileio, render
from .catalog import ENTRIES
from .charvec import (
    REPRESENTATIVES,
    CharVector,
    LoopClassId,
    canonicalize,
    char_vector_of,
    loop_class,
    normalize_rank4,
    orbit_representatives,
    orbit_sizes,
    representative,
)
from .errors import DomainError, ParseError, clipped, quoted
from .gf2 import CodeBasis, class_partition
from .loops import build_loop, is_moufang, loop_table_csv
from .search import REDUCED_MAX, enumerate_reduced, minimal_representations
from .verify import claim_ids, run_claims

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        print(f"error: {clipped(message, 250)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="loopforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, run, target=True, formats=("json", "csv", "text"), bound=False) -> None:
        p.set_defaults(run=run)
        if target:
            p.add_argument("--loop", help="loop id such as C3_1 or C4_16")
            p.add_argument("--lambda", dest="lam", help="characteristic vector bits")
            p.add_argument("--code", help="path to a code file")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if bound:  # only the searches read it
            p.add_argument("--max-class-size", type=int, default=REDUCED_MAX)
        p.add_argument("--output", help="write primary output to this path")

    add_common(sub.add_parser("classify", help="name the loop of a vector or code"), cmd_classify)
    p_orbits = sub.add_parser("orbits", help="orbit table for one rank")
    p_orbits.add_argument("--rank", type=int, choices=tuple(REPRESENTATIVES), required=True)
    add_common(p_orbits, cmd_orbits, target=False)
    add_common(sub.add_parser("enumerate", help="stream every reduced representation"), cmd_enumerate, bound=True)
    add_common(sub.add_parser("minimal", help="minimal representations of a loop"), cmd_minimal, bound=True)
    add_common(sub.add_parser("loop", help="build the explicit loop of a code"), cmd_loop)
    p_render = sub.add_parser("render", help="class diagram of a representation")
    p_render.add_argument("--style", choices=("ascii", "svg"), default="ascii")
    add_common(p_render, cmd_render, formats=())
    p_verify = sub.add_parser("verify-paper", help="run the golden verification suite")
    p_verify.add_argument("--only", choices=claim_ids())
    add_common(p_verify, cmd_verify, target=False, formats=("json", "text"))
    return parser


def _require_one_target(args: argparse.Namespace) -> None:
    given = [name for name, v in (("--loop", args.loop), ("--lambda", args.lam), ("--code", args.code)) if v]
    if len(given) != 1:
        raise ParseError(f"exactly one of --loop/--lambda/--code is required (got {given or 'none'})")


def _resolve_vector(args: argparse.Namespace) -> CharVector:
    """Characteristic vector from exactly one of --loop/--lambda/--code."""
    _require_one_target(args)
    if args.loop:
        return representative(_parse_loop_id(args.loop))
    if args.lam:
        return fileio.parse_lambda(args.lam)
    basis = _load_code(args)
    orbit_representatives(basis.rank)  # before the meets, which grow as the rank cubed
    return char_vector_of(basis)


def _parse_loop_id(text: str) -> LoopClassId:
    try:
        return LoopClassId.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _load_code(args: argparse.Namespace) -> CodeBasis:
    try:
        return fileio.load_code(args.code)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {quoted(args.code)}: {getattr(exc, 'strerror', exc)}") from None


def _resolve_basis(args: argparse.Namespace) -> CodeBasis:
    """Explicit code from --code, or the reference basis of a loop id / vector."""
    _require_one_target(args)
    if args.code:
        return _load_code(args)
    if args.loop:
        class_id = _parse_loop_id(args.loop)
    else:
        class_id = loop_class(fileio.parse_lambda(args.lam))
    return ENTRIES[str(class_id)].basis()


def _normalized(cv: CharVector) -> CharVector:
    if cv.rank == 4 and not cv.is_normalized:
        cv, _ = normalize_rank4(cv)
    return cv


# -- subcommands -------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> str:
    cv = _resolve_vector(args)
    class_id, rep, witness = canonicalize(cv)
    record = fileio.classify_record(cv, class_id, rep, witness)
    if args.format == "json":
        return fileio.dumps(record)
    if args.format == "csv":
        return fileio.csv_text(
            [["loop", "lambda", "representative"], [record["loop"], record["lambda"], record["representative"]]]
        )
    lines = [
        f"loop: {record['loop']}",
        f"lambda: {record['lambda']}",
        f"representative: {record['representative']}",
        "witness: " + " ".join(record["witness"]),
    ]
    return "\n".join(lines) + "\n"


def cmd_orbits(args: argparse.Namespace) -> str:
    sizes = orbit_sizes(args.rank)
    rows = [
        [str(cid), representative(cid).shorthand(), size]
        for cid, size in sizes.items()
    ]
    total = sum(size for _, _, size in rows)
    if args.format == "json":
        return fileio.dumps(
            {
                "rank": args.rank,
                "total": total,
                "orbits": [
                    {"loop": loop, "representative": rep, "size": size}
                    for loop, rep, size in rows
                ],
            }
        )
    if args.format == "csv":
        return fileio.csv_text([["loop", "representative", "size"]] + rows)
    width = max(len(r[1]) for r in rows)
    lines = [f"{loop:<6} {rep:<{width}} {size:>6}" for loop, rep, size in rows]
    lines.append(f"total{'':<2} {'':<{width}} {total:>6}")
    return "\n".join(lines) + "\n"


def cmd_enumerate(args: argparse.Namespace):
    """Streamed: yields one chunk per representation, then a summary record."""
    cv = _normalized(_resolve_vector(args))
    class_id = loop_class(cv)

    def stream():
        count = 0
        min_degree: int | None = None
        for rep in enumerate_reduced(cv, max_class_size=args.max_class_size):
            count += 1
            if min_degree is None or rep.degree < min_degree:
                min_degree = rep.degree
            if args.format == "csv":  # loop, degree and type, none needs quoting: no record built
                yield f"{class_id},{rep.degree},{''.join(map(str, rep.type))}\n"
                continue
            record = fileio.representation_record(class_id, rep)
            if args.format == "json":
                yield fileio.dumps(record)
            else:
                gens = "; ".join(",".join(map(str, g)) for g in record["generators"])
                yield (
                    f"{record['loop']} degree={record['degree']} "
                    f"type=({''.join(map(str, record['type']))}) generators: {gens}\n"
                )
        summary = {"loop": str(class_id), "count": count, "min_degree": min_degree}
        if args.format == "json":
            yield fileio.dumps({"summary": summary})
        else:
            yield f"# count={count} min_degree={min_degree}\n"

    return stream()


def cmd_minimal(args: argparse.Namespace) -> str:
    cv = _normalized(_resolve_vector(args))
    report = minimal_representations(cv, max_class_size=args.max_class_size)
    record = fileio.minimal_report_record(report)
    if args.format == "json":
        return fileio.dumps(record)
    if args.format == "csv":
        rows = [["loop", "degree", "type"]]
        for rep in record["representations"]:
            rows.append([record["loop"], record["degree"], "".join(map(str, rep["type"]))])
        return fileio.csv_text(rows)
    lines = [
        f"loop: {record['loop']}",
        f"minimal degree: {record['degree']}  [{record['scope']}]",
        f"representations up to equivalence: {record['count']}",
    ]
    for rep in record["representations"]:
        lines.append(f"  type ({''.join(map(str, rep['type']))})")
        for gen in rep["generators"]:
            lines.append("    " + ",".join(map(str, gen)))
    return "\n".join(lines) + "\n"


def cmd_loop(args: argparse.Namespace) -> str:
    basis = _resolve_basis(args)
    loop = build_loop(basis)
    if args.format == "csv":
        return loop_table_csv(loop)
    cv = char_vector_of(basis)
    class_id = loop_class(cv) if cv.nonassociative else None
    record = {
        "order": loop.order,
        "moufang": is_moufang(loop),
        "associative": not cv.nonassociative,
        "center_size": len(loop.center()),
        "loop": str(class_id) if class_id else None,
    }
    if args.format == "json":
        return fileio.dumps(record)
    lines = [
        f"order: {record['order']}",
        f"moufang: {str(record['moufang']).lower()}",
        f"associative: {str(record['associative']).lower()}",
        f"center size: {record['center_size']}",
        f"loop: {record['loop'] or 'associative (not classified)'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_render(args: argparse.Namespace) -> str:
    basis = _resolve_basis(args)
    render.check_rank(basis.rank)  # before the 2^n - 1 blocks of the partition
    partition = class_partition(basis)
    if args.style == "svg":
        return render.render_svg(partition)
    return render.render_ascii(partition)


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    results = run_claims(only=args.only)
    code = EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY
    if args.format == "json":
        return fileio.dumps([asdict(res) for res in results]), code
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status} {res.claim}: {res.detail}")
        for miss in res.mismatches:
            lines.append(f"     mismatch: {miss}")
    return "\n".join(lines) + "\n", code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "max_class_size", REDUCED_MAX) < 1:
            raise ParseError("--max-class-size must be at least 1")
        result = args.run(args)  # verify-paper also returns its exit code
        text, code = result if isinstance(result, tuple) else (result, EXIT_OK)
        chunks = (text,) if isinstance(text, str) else text
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        else:
            for chunk in chunks:
                sys.stdout.write(chunk)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
