"""End-to-end CLI behavior: outputs, formats, exit codes, determinism."""

from __future__ import annotations

import json
import pathlib
import time

import jsonschema

from loopforge.cli import build_parser, main
from loopforge.errors import clipped
from loopforge.search import REDUCED_MAX

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(record, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    schema["$id"] = (SCHEMA_DIR / schema_name).as_uri()
    try:
        from referencing import Registry, Resource

        resources = [
            ((SCHEMA_DIR / path.name).as_uri(), Resource.from_contents(json.loads(path.read_text())))
            for path in SCHEMA_DIR.glob("*.json")
        ]
        validator = jsonschema.Draft202012Validator(schema, registry=Registry().with_resources(resources))
        validator.validate(record)
    except ImportError:
        resolver = jsonschema.validators.RefResolver(
            base_uri=SCHEMA_DIR.as_uri() + "/", referrer=schema
        )
        jsonschema.validate(record, schema, resolver=resolver)


def test_classify_lambda_rank3(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "111000")
    assert code == 0
    assert "loop: C3_5" in out
    assert "representative: 100000" in out


def test_classify_lambda_rank4_json(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "0001111100", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["loop"] == "C4_16"
    validate(record, "classify.schema.json")


def test_classify_code_file(capsys, tmp_path):
    path = tmp_path / "v5.code"
    path.write_text("m=17 n=3\n" + "\n".join([
        ",".join(str(p) for p in range(1, 13)),
        ",".join(str(p) for p in list(range(1, 9)) + [13, 14, 15, 16]),
        "1,2,3,4,5,9,10,11,13,14,15,17",
    ]) + "\n")
    code, out, _ = run(capsys, "classify", "--code", str(path))
    assert code == 0
    assert "loop: C3_5" in out


def test_classify_rank1_code_file_exits_2(capsys, tmp_path):
    path = tmp_path / "r1.code"
    path.write_text("m=8 n=1\n1,2,3,4,5,6,7,8\n")
    code, out, err = run(capsys, "classify", "--code", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: UnsupportedRank") and err.count("\n") == 1


def test_high_rank_code_file_is_rejected_without_its_meet_table(capsys, tmp_path):
    # 24 disjoint weight-4 generators: doubly even, and 2^24 generator meets
    path = tmp_path / "r24.code"
    rows = [",".join(str(4 * i + p) for p in (1, 2, 3, 4)) for i in range(24)]
    path.write_text("m=96 n=24\n" + "\n".join(rows) + "\n")
    for command in ("classify", "minimal", "enumerate"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--code", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == "error: UnsupportedRank: classified loops have rank 3 or 4, got 24\n"


def test_code_header_with_extra_or_repeated_fields_exits_1(capsys, tmp_path):
    path = tmp_path / "header.code"
    for header in ("m=8 n=3 k=2", "m=8 m=9 n=3"):
        path.write_text(f"{header}\n1,2,3,4\n1,2,5,6\n1,3,5,7\n")
        code, out, err = run(capsys, "classify", "--code", str(path))
        assert code == 1 and out == ""
        assert err == f"error: bad header '{header}'; expected 'm=<int> n=<int>'\n"


def test_classify_requires_one_target(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "classify", "--lambda", "111000", "--loop", "C3_5")
    assert code == 1


def test_classify_malformed_lambda_exits_1(capsys):
    code, _, err = run(capsys, "classify", "--lambda", "11100")
    assert code == 1 and "error" in err


def test_classify_associative_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--lambda", "full:1110000")
    assert code == 2 and "AssociativeLoop" in err


def test_orbits_rank3(capsys):
    code, out, _ = run(capsys, "orbits", "--rank", "3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    validate(record, "orbits.schema.json")
    assert len(record["orbits"]) == 5
    assert record["total"] == 64
    assert sum(o["size"] for o in record["orbits"]) == 64


def test_orbits_rank4_sizes_sum(capsys):
    code, out, _ = run(capsys, "orbits", "--rank", "4", "--format", "csv")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert len(rows) == 16
    assert sum(int(r[2]) for r in rows) == 15360


def test_enumerate_rank3_loop(capsys):
    code, out, _ = run(capsys, "enumerate", "--loop", "C3_1", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(ln) for ln in lines]
    summary = records[-1]["summary"]
    assert summary["count"] >= 1
    assert summary["min_degree"] == 7
    for record in records[:-1]:
        validate(record, "representation.schema.json")
    assert summary["count"] == len(records) - 1


def test_minimal_c4_14(capsys):
    code, out, _ = run(capsys, "minimal", "--loop", "C4_14")
    assert code == 0
    assert "minimal degree: 13" in out
    assert "(111111223)" in out


def test_minimal_json_schema(capsys):
    code, out, _ = run(capsys, "minimal", "--loop", "C3_3", "--format", "json")
    assert code == 0
    record = json.loads(out)
    validate(record, "minimal_report.schema.json")
    assert record["degree"] == 11


def test_minimal_csv_matches_summary_count(capsys):
    code, out, _ = run(capsys, "minimal", "--loop", "C3_2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "loop,degree,type"
    assert lines[1] == "C3_2,13,1111333"
    code, out, _ = run(capsys, "minimal", "--loop", "C3_2", "--format", "json")
    record = json.loads(out)
    assert len(lines) - 1 == record["count"]


def test_render_ascii_c4_3(capsys):
    code, out, _ = run(capsys, "render", "--loop", "C4_3", "--style", "ascii")
    assert code == 0
    assert "nonempty classes: 9" in out


def test_render_svg(capsys):
    import xml.etree.ElementTree as ET

    code, out, _ = run(capsys, "render", "--loop", "C3_1", "--style", "svg")
    assert code == 0
    ET.fromstring(out)


def test_loop_report_and_table(capsys):
    code, out, _ = run(capsys, "loop", "--loop", "C3_1")
    assert code == 0
    assert "order: 16" in out and "moufang: true" in out and "loop: C3_1" in out
    code, out, _ = run(capsys, "loop", "--loop", "C3_1", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 17  # header + 16 elements


def test_render_and_loop_accept_lambda_target(capsys):
    # a bare vector resolves to the classified loop's reference basis
    code, out, _ = run(capsys, "render", "--lambda", "0000110100", "--style", "ascii")
    assert code == 0
    assert "nonempty classes: 9" in out  # C4_3
    code, out, _ = run(capsys, "loop", "--lambda", "111111")
    assert code == 0
    assert "loop: C3_1" in out


def test_loop_from_code_file(capsys, tmp_path):
    path = tmp_path / "assoc.code"
    path.write_text("m=8 n=2\n1,2,3,4\n5,6,7,8\n")
    code, out, _ = run(capsys, "loop", "--code", str(path))
    assert code == 0
    assert "associative: true" in out


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "worked-example")
    assert code == 0
    assert out.startswith("PASS worked-example:")


def test_verify_unknown_claim_is_usage_error(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "nonsense")
    assert code == 1


def test_verify_negative_control(capsys, monkeypatch):
    # perturb one golden value; the suite must fail naming the claim
    import loopforge.catalog as catalog

    broken = catalog.RANK3[2].__class__(
        loop="C3_3",
        degree=12,  # wrong on purpose
        type=catalog.RANK3[2].type,
        generators=catalog.RANK3[2].generators,
        published_generators=catalog.RANK3[2].published_generators,
    )
    monkeypatch.setattr(catalog, "RANK3", catalog.RANK3[:2] + (broken,) + catalog.RANK3[3:])
    code, out, _ = run(capsys, "verify-paper", "--only", "rank3-minimal")
    assert code == 3
    assert "FAIL rank3-minimal" in out
    assert "C3_3" in out


def test_missing_code_file_exits_1(capsys):
    code, _, err = run(capsys, "classify", "--code", "/nonexistent/x.code")
    assert code == 1


def test_non_utf8_code_file_exits_1(capsys, tmp_path):
    path = tmp_path / "latin1.code"
    path.write_bytes(b"m=8 n=1\n1,2,3,4\xff\n")
    code, out, err = run(capsys, "classify", "--code", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "classify", "--lambda", "111000", "--format", "json", "--output", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["loop"] == "C3_5"


def test_byte_identical_reruns(capsys):
    first = run(capsys, "minimal", "--loop", "C3_4", "--format", "json")
    second = run(capsys, "minimal", "--loop", "C3_4", "--format", "json")
    assert first == second
    a = run(capsys, "render", "--loop", "C4_6", "--style", "svg")
    b = run(capsys, "render", "--loop", "C4_6", "--style", "svg")
    assert a == b


def test_enumerate_infeasible_target_empty_stream(capsys):
    # with classes capped at 1 the all-zero vector has no reduced family
    code, out, _ = run(
        capsys, "enumerate", "--loop", "C3_2", "--max-class-size", "1", "--format", "json"
    )
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 1
    assert records[0]["summary"] == {"loop": "C3_2", "count": 0, "min_degree": None}


def test_max_class_size_flag(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--loop", "C3_1", "--max-class-size", "1", "--format", "json"
    )
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert records[-1]["summary"]["count"] == 1
    code, _, err = run(capsys, "enumerate", "--loop", "C3_1", "--max-class-size", "0")
    assert code == 1
    assert build_parser().parse_args(["enumerate", "--loop", "C3_1"]).max_class_size == REDUCED_MAX


def test_flags_exist_only_where_they_are_read(capsys):
    # --max-class-size bounds the searches, render writes no table,
    # verify-paper has no csv form and only orbits lacks a target to read
    # the rank from: elsewhere these flags are usage errors
    for argv in (
        ["classify", "--loop", "C3_1", "--max-class-size", "3"],
        ["orbits", "--rank", "3", "--max-class-size", "0"],
        ["loop", "--loop", "C3_1", "--max-class-size", "3"],
        ["render", "--loop", "C3_1", "--max-class-size", "3"],
        ["verify-paper", "--max-class-size", "3"],
        ["render", "--loop", "C3_1", "--format", "json"],
        ["verify-paper", "--format", "csv"],
        ["classify", "--loop", "C3_1", "--rank", "3"],
        ["enumerate", "--loop", "C3_1", "--rank", "3"],
        ["minimal", "--loop", "C3_1", "--rank", "3"],
        ["loop", "--loop", "C3_1", "--rank", "3"],
        ["render", "--loop", "C3_1", "--rank", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def _one_short_error_line(code: int, out: str, err: str) -> None:
    assert code in (1, 2) and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 300, err[:300]


def test_huge_inputs_give_short_errors(capsys, tmp_path):
    padding = "1," * 500_000
    for name, text in (
        ("positions.code", f"m=8 n=1\n{padding}x\n"),
        ("bitstring.code", "m=1000000 n=1\nb:" + "2" * 1_000_000 + "\n"),
        ("header.code", "m=8 " + "n" * 1_000_000 + "\n1,2,3,4\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        _one_short_error_line(*run(capsys, "classify", "--code", str(path)))
    for option in ("--lambda", "--loop"):
        _one_short_error_line(*run(capsys, "classify", option, "C" + "1" * 200_000))
    _one_short_error_line(*run(capsys, "classify", "--code", str(tmp_path / ("x" * 100_000))))
    _one_short_error_line(*run(capsys, "classify", "--loop", "C4_" + "0" * 4000 + "17"))
    huge = "x" * 100_000
    for argv in (("--rank", huge), ("--format", huge), ("--" + huge,)):
        _one_short_error_line(*run(capsys, "classify", *argv))
    _one_short_error_line(*run(capsys, "minimal", "--loop", "C3_1", "--max-class-size", huge))
    _one_short_error_line(*run(capsys, huge))
    digits = "1" * 4000
    for command, name, text in (
        ("classify", "position.code", f"m=8 n=1\n{digits}\n"),
        ("render", "length.code", f"m={digits} n=3\n1,2,3,4\n1,2,5,6\n1,3,5,7\n"),
        ("classify", "count.code", f"m=8 n={digits}\n1,2,3,4\n"),
        ("classify", "width.code", f"m={digits} n=1\nb:1111\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        _one_short_error_line(*run(capsys, command, "--code", str(path)))


def test_usage_errors_are_clipped_only_when_long(capsys):
    # the longest usage message the parser makes for a short value: whole
    code, out, err = run(capsys, "verify-paper", "--only", "z" * 40)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith(")\n") and "characters)" not in err
    assert clipped("7" * 40) == "7" * 40
    assert clipped("7" * 41) == "7" * 40 + "... (41 characters)"
    assert clipped("x" * 250, 250) == "x" * 250


def test_render_rejects_the_rank_before_partitioning(capsys, tmp_path, monkeypatch):
    import loopforge.cli as cli

    def forbidden(basis):
        raise AssertionError("class_partition was called")

    monkeypatch.setattr(cli, "class_partition", forbidden)
    path = tmp_path / "rank16.code"  # 16 disjoint weight-4 blocks: doubly even, independent
    rows = [",".join(str(4 * i + p) for p in (1, 2, 3, 4)) for i in range(16)]
    path.write_text("m=64 n=16\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "render", "--code", str(path))
    assert code == 2 and out == ""
    assert err == "error: UnsupportedRank: diagrams exist for ranks 3 and 4\n"


def test_code_rank_is_checked_before_the_vector(capsys, tmp_path, monkeypatch):
    # the meets of at most three generators grow as the rank cubed, so an
    # unclassified rank is rejected before char_vector_of builds them
    import loopforge.cli as cli

    calls = []
    real = cli.char_vector_of
    monkeypatch.setattr(cli, "char_vector_of", lambda basis: calls.append(basis) or real(basis))
    path = tmp_path / "rank6.code"  # 6 disjoint weight-4 blocks: doubly even, independent
    rows = [",".join(str(4 * i + p) for p in (1, 2, 3, 4)) for i in range(6)]
    path.write_text("m=24 n=6\n" + "\n".join(rows) + "\n")
    for command in ("classify", "minimal", "enumerate"):
        code, out, err = run(capsys, command, "--code", str(path))
        assert (code, out) == (2, ""), command
        assert err == "error: UnsupportedRank: classified loops have rank 3 or 4, got 6\n", command
        assert calls == [], command
