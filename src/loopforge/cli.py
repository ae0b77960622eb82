"""Command-line front end.

Subcommands: classify, orbits, enumerate, minimal, loop, render, verify-paper.
Primary output goes to stdout (or ``--output``); diagnostics go to stderr.
Exit codes: 0 success, 1 usage/IO error, 2 domain error, 3 verification
failure.  Identical inputs produce byte-identical primary output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

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
    orbit_sizes,
    representative,
)
from .errors import DomainError, ParseError, clipped, quoted
from .gf2 import CodeBasis, class_partition
from .loops import build_loop, is_moufang, loop_table_csv
from .search import enumerate_reduced, minimal_representations
from .verify import claim_ids, run_claims

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


@dataclass
class CommandConfig:
    command: str
    rank: int | None = None
    loop: str | None = None
    lam: str | None = None
    code: str | None = None
    format: str = "text"
    style: str = "ascii"
    max_class_size: int = 7
    only: str | None = None
    output: str | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        print(f"error: {clipped(message, 250)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="loopforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, target: bool = True) -> None:
        if target:
            p.add_argument("--rank", type=int, choices=tuple(REPRESENTATIVES))
            p.add_argument("--loop", help="loop id such as C3_1 or C4_16")
            p.add_argument("--lambda", dest="lam", help="characteristic vector bits")
            p.add_argument("--code", help="path to a code file")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--max-class-size", type=int, default=7)
        p.add_argument("--output", help="write primary output to this path")

    add_common(sub.add_parser("classify", help="name the loop of a vector or code"))
    p_orbits = sub.add_parser("orbits", help="orbit table for one rank")
    p_orbits.add_argument("--rank", type=int, choices=tuple(REPRESENTATIVES), required=True)
    add_common(p_orbits, target=False)
    add_common(sub.add_parser("enumerate", help="stream every reduced representation"))
    add_common(sub.add_parser("minimal", help="minimal representations of a loop"))
    add_common(sub.add_parser("loop", help="build the explicit loop of a code"))
    p_render = sub.add_parser("render", help="class diagram of a representation")
    p_render.add_argument("--style", choices=("ascii", "svg"), default="ascii")
    add_common(p_render)
    p_verify = sub.add_parser("verify-paper", help="run the golden verification suite")
    p_verify.add_argument("--only", choices=claim_ids())
    add_common(p_verify, target=False)
    return parser


def _config(args: argparse.Namespace) -> CommandConfig:
    cfg = CommandConfig(command=args.command)
    for field in (
        "rank", "loop", "lam", "code", "format", "style",
        "max_class_size", "only", "output",
    ):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    if cfg.max_class_size < 1:
        raise ParseError("--max-class-size must be at least 1")
    return cfg


def _resolve_vector(cfg: CommandConfig) -> CharVector:
    """Characteristic vector from exactly one of --loop/--lambda/--code."""
    given = [name for name, v in (("--loop", cfg.loop), ("--lambda", cfg.lam), ("--code", cfg.code)) if v]
    if len(given) != 1:
        raise ParseError(f"exactly one of --loop/--lambda/--code is required (got {given or 'none'})")
    if cfg.loop:
        class_id = _parse_loop_id(cfg.loop, cfg.rank)
        return representative(class_id)
    if cfg.lam:
        return fileio.parse_lambda(cfg.lam, cfg.rank)
    return char_vector_of(_load_code(cfg))


def _parse_loop_id(text: str, rank: int | None) -> LoopClassId:
    try:
        class_id = LoopClassId.parse(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if rank is not None and rank != class_id.rank:
        raise ParseError(f"--rank {rank} does not match loop id {quoted(text)}")
    return class_id


def _load_code(cfg: CommandConfig) -> CodeBasis:
    try:
        basis = fileio.load_code(cfg.code)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {quoted(cfg.code)}: {getattr(exc, 'strerror', exc)}") from None
    if cfg.rank is not None and basis.rank != cfg.rank:
        raise ParseError(f"--rank {cfg.rank} does not match code rank {basis.rank}")
    return basis


def _resolve_basis(cfg: CommandConfig) -> CodeBasis:
    """Explicit code from --code, or the reference basis of a loop id / vector."""
    given = [name for name, v in (("--loop", cfg.loop), ("--lambda", cfg.lam), ("--code", cfg.code)) if v]
    if len(given) != 1:
        raise ParseError(f"exactly one of --loop/--lambda/--code is required (got {given or 'none'})")
    if cfg.code:
        return _load_code(cfg)
    if cfg.loop:
        class_id = _parse_loop_id(cfg.loop, cfg.rank)
    else:
        class_id = loop_class(fileio.parse_lambda(cfg.lam, cfg.rank))
    return ENTRIES[str(class_id)].basis()


def _normalized(cv: CharVector) -> CharVector:
    if cv.rank == 4 and not cv.is_normalized:
        cv, _ = normalize_rank4(cv)
    return cv


# -- subcommands -------------------------------------------------------------


def cmd_classify(cfg: CommandConfig) -> str:
    cv = _resolve_vector(cfg)
    class_id, rep, witness = canonicalize(cv)
    record = fileio.classify_record(cv, class_id, rep, witness)
    if cfg.format == "json":
        return fileio.dumps(record)
    if cfg.format == "csv":
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


def cmd_orbits(cfg: CommandConfig) -> str:
    sizes = orbit_sizes(cfg.rank)
    rows = [
        [str(cid), representative(cid).shorthand(), size]
        for cid, size in sizes.items()
    ]
    total = sum(size for _, _, size in rows)
    if cfg.format == "json":
        return fileio.dumps(
            {
                "rank": cfg.rank,
                "total": total,
                "orbits": [
                    {"loop": loop, "representative": rep, "size": size}
                    for loop, rep, size in rows
                ],
            }
        )
    if cfg.format == "csv":
        return fileio.csv_text([["loop", "representative", "size"]] + rows)
    width = max(len(r[1]) for r in rows)
    lines = [f"{loop:<6} {rep:<{width}} {size:>6}" for loop, rep, size in rows]
    lines.append(f"total{'':<2} {'':<{width}} {total:>6}")
    return "\n".join(lines) + "\n"


def cmd_enumerate(cfg: CommandConfig):
    """Streamed: yields one chunk per representation, then a summary record."""
    cv = _normalized(_resolve_vector(cfg))
    class_id = loop_class(cv)

    def stream():
        count = 0
        min_degree: int | None = None
        for rep in enumerate_reduced(cv, max_class_size=cfg.max_class_size):
            count += 1
            if min_degree is None or rep.degree < min_degree:
                min_degree = rep.degree
            record = fileio.representation_record(class_id, rep)
            if cfg.format == "json":
                yield fileio.dumps(record)
            elif cfg.format == "csv":
                yield fileio.csv_text(
                    [[record["loop"], record["degree"], "".join(map(str, record["type"]))]]
                )
            else:
                gens = "; ".join(",".join(map(str, g)) for g in record["generators"])
                yield (
                    f"{record['loop']} degree={record['degree']} "
                    f"type=({''.join(map(str, record['type']))}) generators: {gens}\n"
                )
        summary = {"loop": str(class_id), "count": count, "min_degree": min_degree}
        if cfg.format == "json":
            yield fileio.dumps({"summary": summary})
        else:
            yield f"# count={count} min_degree={min_degree}\n"

    return stream()


def cmd_minimal(cfg: CommandConfig) -> str:
    cv = _normalized(_resolve_vector(cfg))
    report = minimal_representations(cv, max_class_size=cfg.max_class_size)
    record = fileio.minimal_report_record(report)
    if cfg.format == "json":
        return fileio.dumps(record)
    if cfg.format == "csv":
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


def cmd_loop(cfg: CommandConfig) -> str:
    basis = _resolve_basis(cfg)
    loop = build_loop(basis)
    if cfg.format == "csv":
        return loop_table_csv(loop)
    cv = char_vector_of(basis)
    class_id = loop_class(cv) if cv.nonassociative else None
    record = {
        "order": loop.order,
        "moufang": is_moufang(loop),
        "associative": loop.is_associative(),
        "center_size": len(loop.center()),
        "loop": str(class_id) if class_id else None,
    }
    if cfg.format == "json":
        return fileio.dumps(record)
    lines = [
        f"order: {record['order']}",
        f"moufang: {str(record['moufang']).lower()}",
        f"associative: {str(record['associative']).lower()}",
        f"center size: {record['center_size']}",
        f"loop: {record['loop'] or 'associative (not classified)'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_render(cfg: CommandConfig) -> str:
    basis = _resolve_basis(cfg)
    render.check_rank(basis.rank)  # before the 2^n - 1 blocks of the partition
    partition = class_partition(basis)
    if cfg.style == "svg":
        return render.render_svg(partition)
    return render.render_ascii(partition)


def cmd_verify(cfg: CommandConfig) -> tuple[str, int]:
    results = run_claims(only=cfg.only)
    code = EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY
    if cfg.format == "json":
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
        cfg = _config(args)
        code = EXIT_OK
        if cfg.command == "classify":
            text = cmd_classify(cfg)
        elif cfg.command == "orbits":
            text = cmd_orbits(cfg)
        elif cfg.command == "enumerate":
            text = cmd_enumerate(cfg)
        elif cfg.command == "minimal":
            text = cmd_minimal(cfg)
        elif cfg.command == "loop":
            text = cmd_loop(cfg)
        elif cfg.command == "render":
            text = cmd_render(cfg)
        else:
            text, code = cmd_verify(cfg)
        chunks = (text,) if isinstance(text, str) else text
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8") as fh:
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
