"""Command-line front end.

Subcommands: classify, orbits, enumerate, minimal, loop, render, verify-paper.
Primary output goes to stdout (or ``--output``); diagnostics go to stderr.
Exit codes: 0 success, 1 usage/IO error, 2 domain error, 3 verification
failure.  Identical inputs produce byte-identical primary output.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

# render is imported here because perfbench/tracer.py reads it after importing cli and verify
from . import render
from .errors import DomainError, ParseError, clipped, quoted

if TYPE_CHECKING:
    from .charvec import CharVector, LoopClassId
    from .gf2 import CodeBasis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    setup = None  # a subcommand's arguments, added when it is first parsed

    def parse_known_args(self, args=None, namespace=None):
        if self.setup:
            self.setup, setup = None, self.setup
            setup(self)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        print(f"error: {clipped(message, 250)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="loopforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str, run, first=None, target=True, formats=("json", "csv", "text"), bound=False):
        def setup(p: _Parser) -> None:  # imports only what this subcommand's options read
            if first:
                first(p)
            if target:
                p.add_argument("--loop", help="loop id such as C3_1 or C4_16")
                p.add_argument("--lambda", dest="lam", help="characteristic vector bits")
                p.add_argument("--code", help="path to a code file")
            if formats:
                p.add_argument("--format", choices=formats, default="text")
            if bound:  # only the searches read it
                from .search import REDUCED_MAX
                p.add_argument("--max-class-size", type=int, default=REDUCED_MAX)
            p.add_argument("--output", help="write primary output to this path")

        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.setup = setup

    def rank(p: _Parser) -> None:
        from .charvec import REPRESENTATIVES
        p.add_argument("--rank", type=int, choices=tuple(REPRESENTATIVES), required=True)

    def claim(p: _Parser) -> None:
        from .verify import CLAIMS
        p.add_argument("--only", choices=CLAIMS)

    def style(p: _Parser) -> None:
        p.add_argument("--style", choices=("ascii", "svg"), default="ascii")

    add("classify", "name the loop of a vector or code", cmd_classify)
    add("orbits", "orbit table for one rank", cmd_orbits, rank, target=False)
    add("enumerate", "stream every reduced representation", cmd_enumerate, bound=True)
    add("minimal", "minimal representations of a loop", cmd_minimal, bound=True)
    add("loop", "build the explicit loop of a code", cmd_loop)
    add("render", "class diagram of a representation", cmd_render, style, formats=())
    add("verify-paper", "run the golden verification suite", cmd_verify, claim, target=False, formats=("json", "text"))
    return parser


def _require_one_target(args: argparse.Namespace) -> None:
    given = [name for name, v in (("--loop", args.loop), ("--lambda", args.lam), ("--code", args.code)) if v]
    if len(given) != 1:
        raise ParseError(f"exactly one of --loop/--lambda/--code is required (got {given or 'none'})")


def _resolve_vector(args: argparse.Namespace, normalize: bool = False) -> CharVector:
    """Characteristic vector from exactly one of --loop/--lambda/--code; with
    ``normalize``, a rank-4 vector in the normal form the searches take."""
    from . import charvec, fileio
    _require_one_target(args)
    if args.loop:
        return charvec.representative(_parse_loop_id(args.loop))
    if args.lam:
        cv = fileio.parse_lambda(args.lam)
    else:
        basis = _load_code(args)
        charvec.orbit_representatives(basis.rank)  # before the meets, which grow as the rank cubed
        cv = charvec.char_vector_of(basis)
    if normalize and cv.rank == 4 and not cv.is_normalized:
        cv, _ = charvec.normalize_rank4(cv)
    return cv


def _parse_loop_id(text: str) -> LoopClassId:
    from . import charvec
    try:
        return charvec.LoopClassId.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _load_code(args: argparse.Namespace) -> CodeBasis:
    from . import fileio
    try:
        with open(args.code, "r", encoding="utf-8") as fh:
            return fileio.parse_code_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {quoted(args.code)}: {getattr(exc, 'strerror', exc)}") from None


def _resolve_basis(args: argparse.Namespace) -> CodeBasis:
    """Explicit code from --code, or the reference basis of a loop id / vector."""
    from . import catalog, charvec, fileio
    _require_one_target(args)
    if args.code:
        return _load_code(args)
    if args.loop:
        class_id = _parse_loop_id(args.loop)
    else:
        class_id = charvec.loop_class(fileio.parse_lambda(args.lam))
    return catalog.ENTRIES[str(class_id)].basis()


# -- subcommands: each imports what it runs ------------------------------------


def cmd_classify(args: argparse.Namespace) -> str:
    from . import charvec, fileio
    cv = _resolve_vector(args)
    class_id, rep, witness = charvec.canonicalize(cv)
    record = fileio.classify_record(cv, class_id, rep, witness)
    if args.format == "json":
        return fileio.dumps(record)
    if args.format == "csv":
        fields = ["loop", "lambda", "representative"]
        return fileio.csv_text([fields, [record[k] for k in fields]])
    lines = [
        f"loop: {record['loop']}",
        f"lambda: {record['lambda']}",
        f"representative: {record['representative']}",
        "witness: " + " ".join(record["witness"]),
    ]
    return "\n".join(lines) + "\n"


def cmd_orbits(args: argparse.Namespace) -> str:
    from . import charvec, fileio
    sizes = charvec.orbit_sizes(args.rank)
    rows = [[str(cid), charvec.representative(cid).shorthand(), size] for cid, size in sizes.items()]
    total = sum(sizes.values())
    if args.format == "json":
        orbits = [{"loop": loop, "representative": rep, "size": size} for loop, rep, size in rows]
        return fileio.dumps({"rank": args.rank, "total": total, "orbits": orbits})
    if args.format == "csv":
        return fileio.csv_text([["loop", "representative", "size"]] + rows)
    width = max(len(r[1]) for r in rows)
    lines = [f"{loop:<6} {rep:<{width}} {size:>6}" for loop, rep, size in rows]
    lines.append(f"total{'':<2} {'':<{width}} {total:>6}")
    return "\n".join(lines) + "\n"


def cmd_enumerate(args: argparse.Namespace):
    """Streamed: yields one chunk per representation, then a summary record."""
    from . import charvec, fileio, search
    cv = _resolve_vector(args, normalize=True)
    class_id = charvec.loop_class(cv)
    encode = fileio.representation_encoder(class_id, args.format)

    def stream():
        count, min_degree = 0, None
        for count, rep in enumerate(search.enumerate_reduced(cv, max_class_size=args.max_class_size), 1):
            min_degree = min(min_degree or rep.degree, rep.degree)  # a degree is at least 1
            yield encode(rep)
        summary = {"loop": str(class_id), "count": count, "min_degree": min_degree}
        if args.format == "json":
            yield fileio.dumps({"summary": summary})
        else:
            yield f"# count={count} min_degree={min_degree}\n"

    return stream()


def cmd_minimal(args: argparse.Namespace) -> str:
    from . import fileio, search
    cv = _resolve_vector(args, normalize=True)
    report = search.minimal_representations(cv, max_class_size=args.max_class_size)
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
    from . import charvec, fileio, loops
    basis = _resolve_basis(args)
    loop = loops.build_loop(basis)
    if args.format == "csv":
        return loops.loop_table_csv(loop)
    cv = charvec.char_vector_of(basis)
    class_id = charvec.loop_class(cv) if cv.nonassociative else None
    record = {
        "order": loop.order,
        "moufang": loops.is_moufang(loop),
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
    from . import gf2
    basis = _resolve_basis(args)
    render.check_rank(basis.rank)  # before the 2^n - 1 blocks of the partition
    partition = gf2.class_partition(basis)
    if args.style == "svg":
        return render.render_svg(partition)
    return render.render_ascii(partition)


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from . import fileio, verify
    results = verify.run_claims(only=args.only)
    code = EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY
    if args.format == "json":
        return fileio.dumps([{name: getattr(res, name) for name in res._fields} for res in results]), code
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
        if getattr(args, "max_class_size", 1) < 1:
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
