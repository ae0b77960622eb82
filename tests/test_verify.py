"""The golden claim suite itself: all claims pass, tampering is caught."""

from __future__ import annotations

import random

import pytest

from conftest import moufang_by_definition
import loopforge.catalog as catalog
import loopforge.verify as verify
from loopforge.charvec import CharVector, GLMatrix, LoopClassId, loop_class, nonassociative_count
from loopforge.charvec import orbit_representatives, orbit_sizes, representative
from loopforge.loops import CodeLoop, FactorSet, build_factor_set, is_moufang
from loopforge.verify import (
    ClaimResult,
    CLAIMS,
    EXPECTED_MISPRINTS,
    claim_published_misprints,
    claim_reference_bases,
    claim_worked_example,
    run_claims,
)


def test_claim_ids_stable():
    assert tuple(CLAIMS) == (
        "rank3-orbits",
        "rank4-orbits",
        "rank3-minimal",
        "rank4-minimal",
        "reference-bases",
        "published-misprints",
        "worked-example",
        "loop-laws",
    )


def test_full_suite_passes():
    results = run_claims()
    assert [r.claim for r in results] == list(CLAIMS)
    for res in results:
        assert res.passed, f"{res.claim}: {res.mismatches}"


def test_worked_example_claim_detail():
    res = claim_worked_example()
    assert res.passed
    assert "degree 19" in res.detail


def test_reference_bases_reports_corrections():
    res = claim_reference_bases()
    assert res.passed
    assert "C4_7" in res.detail and "C4_8" in res.detail and "C4_10" in res.detail


def test_misprint_claim_tracks_catalog(monkeypatch):
    assert claim_published_misprints().passed
    # if a corrected entry's published variant were actually fine, the claim must fail
    entry = catalog.ENTRIES["C4_7"]
    healed = catalog.ReferenceEntry(
        loop=entry.loop,
        degree=entry.degree,
        type=entry.type,
        generators=entry.generators,
        published_generators=entry.generators,  # pretend upstream matches
    )
    patched = tuple(healed if e.loop == "C4_7" else e for e in catalog.RANK4)
    monkeypatch.setattr(catalog, "RANK4", patched)
    assert not claim_published_misprints().passed


def test_misprint_claim_checks_each_diagnosis(monkeypatch):
    # a C4_8 listing that is doubly even but lands in another loop is still
    # defective, just not in the documented way: the claim must fail
    entry = catalog.ENTRIES["C4_8"]
    moved = catalog.ReferenceEntry(
        loop=entry.loop,
        degree=entry.degree,
        type=entry.type,
        generators=entry.generators,
        published_generators=catalog.ENTRIES["C4_7"].generators,
    )
    patched = tuple(moved if e.loop == "C4_8" else e for e in catalog.RANK4)
    monkeypatch.setattr(catalog, "RANK4", patched)
    res = claim_published_misprints()
    assert not res.passed
    assert res.mismatches == (
        "C4_8: published basis classifies into C4_7 at length 17, not as documented",
    )


def test_tampered_degree_fails_rank4_minimal(monkeypatch):
    entry = catalog.RANK4[0]
    broken = catalog.ReferenceEntry(
        loop=entry.loop,
        degree=entry.degree + 2,
        type=entry.type,
        generators=entry.generators,
        published_generators=entry.published_generators,
    )
    monkeypatch.setattr(catalog, "RANK4", (broken,) + catalog.RANK4[1:])
    results = run_claims(only="rank4-minimal")
    assert not results[0].passed
    assert any("C4_1" in m for m in results[0].mismatches)


def test_orbit_claims_read_the_orbit_table(monkeypatch):
    # the claims check the table's coverage from its orbit sizes and
    # classify no vector one by one
    calls = []

    def counted(cv):
        calls.append(cv)
        return loop_class(cv)

    monkeypatch.setattr(verify, "loop_class", counted)
    results = run_claims(only="rank3-orbits") + run_claims(only="rank4-orbits")
    assert [(r.passed, r.mismatches) for r in results] == [(True, ())] * 2
    assert results[1].detail.startswith("15360 vectors in 16 orbits (1:")
    assert len(calls) == 0


def test_orbit_claim_reports_a_missing_orbit(monkeypatch):
    sizes = orbit_sizes(3)
    missing = sizes[LoopClassId(3, 2)]
    kept = {cid: size for cid, size in sizes.items() if cid.index != 2}
    monkeypatch.setattr(verify, "orbit_sizes", lambda rank: kept)
    (res,) = run_claims(only="rank3-orbits")
    assert not res.passed
    assert res.mismatches == (
        f"enumerated {nonassociative_count(3) - missing} vectors, expected {nonassociative_count(3)}",
        "found 4 orbits, expected 5",
    )
    assert " 2:0 " in res.detail


@pytest.mark.parametrize("part", [0, 1, 2], ids=["class", "representative", "witness"])
def test_orbit_claim_reports_each_wrong_part_of_a_canonical_form(monkeypatch, part):
    # one of the three parts canonicalize returns for C3_3 is wrong: the claim
    # must report it, not only a form with all three wrong
    short = orbit_representatives(3)[2]
    target, real = CharVector.from_shorthand(3, short), verify.canonicalize
    wrong = (LoopClassId(3, 1), representative(LoopClassId(3, 1)), GLMatrix(3, (2, 1, 4)))[part]

    def tampered(cv):
        form = list(real(cv))
        if cv == target:
            form[part] = wrong
        return tuple(form)

    monkeypatch.setattr(verify, "canonicalize", tampered)
    (res,) = run_claims(only="rank3-orbits")
    assert not res.passed
    assert res.mismatches == (f"representative {short} does not canonicalize to itself",)


def test_loop_laws_claim_reports_factor_set_axiom_violations(monkeypatch):
    # one sign of C3_1's factor set flipped: phi(2, 5) no longer equals the
    # twist times phi(5, 2), which the claim reads off the loop's rows
    target = catalog.ENTRIES["C3_1"]
    build = verify.build_loop

    def tampered(basis):
        if basis != target.basis():
            return build(basis)
        fs = build_factor_set(basis)
        signs = [list(row) for row in fs.signs]
        signs[2][5] = -signs[2][5]
        return CodeLoop(FactorSet(fs.basis, fs.codewords, tuple(map(tuple, signs))))

    monkeypatch.setattr(verify, "build_loop", tampered)
    (res,) = run_claims(only="loop-laws")
    assert not res.passed
    assert res.mismatches == (
        "C3_1: Moufang identity fails",
        "C3_1: commutator sign wrong at (2,5)",
        "C3_1: associator sign wrong at (1,2,5)",
    )


@pytest.mark.parametrize(
    "loop, cells, expected",
    [
        (
            "C3_1",
            [(3, 3)],
            [
                "C3_1: Moufang identity fails",
                "C3_1: square sign wrong at element 3",
                "C3_1: associator sign wrong at (1,2,3)",
            ],
        ),
        (
            "C3_1",
            [(2, 5)],
            [
                "C3_1: Moufang identity fails",
                "C3_1: commutator sign wrong at (2,5)",
                "C3_1: associator sign wrong at (1,2,5)",
            ],
        ),
        (
            "C4_14",
            [(0, 0)],
            [
                "C4_14: Moufang identity fails",
                "C4_14: square sign wrong at element 0",
                "C4_14: associator sign wrong at (0,0,1)",
            ],
        ),
        (
            "C4_14",
            [(7, 9), (9, 7)],
            ["C4_14: Moufang identity fails", "C4_14: associator sign wrong at (1,7,9)"],
        ),
    ],
)
def test_loop_laws_report_the_first_counterexample_of_each_law(monkeypatch, loop, cells, expected):
    # flipping the sign bit of a table cell breaks the laws; each law reports
    # its first counterexample in a, b, c order, the laws in a fixed order
    build = verify.build_loop

    def tampered(basis):
        built = build(basis)
        rows = [list(row) for row in built.table]
        for a, b in cells:
            rows[a][b] ^= built.half
        built.table = tuple(map(tuple, rows))
        return built

    monkeypatch.setattr(verify, "build_loop", tampered)
    assert verify.check_loop_laws(catalog.ENTRIES[loop]) == expected


def _first_associator_by_definition(loop):
    """The associator law cell by cell, the reference for ``check_loop_laws``."""
    t, ids, half = loop.table, loop.elements(), loop.half
    v = [loop.factor_set.codewords[a % half] for a in ids]
    return next(
        (f"associator sign wrong at ({a},{b},{c})" for a in ids for b in ids for c in ids
         if (t[t[a][b]][c] != t[a][t[b][c]]) != (v[a] & v[b] & v[c]).bit_count() & 1),
        None,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("loop", ["C3_1", "C3_5", "C4_1", "C4_14"])
def test_row_laws_agree_with_the_cell_laws_on_tampered_tables(monkeypatch, loop, seed):
    # the row checks compare whole maps; a wrong cell must make its row fail, so
    # they find what the cell-by-cell definitions find: one or two sign bits
    # flipped, or one cell moved to another codeword
    rng = random.Random(seed)
    build = verify.build_loop
    built = build(catalog.ENTRIES[loop].basis())
    order, half = built.order, built.half
    cells = [(rng.randrange(order), rng.randrange(order)) for _ in range(4)]
    tamperings = [
        [(cells[0], half)],
        [(cells[1], half), (cells[2], half)],
        [(cells[3], rng.randrange(1, half))],
    ]
    for changes in tamperings:
        rows = [list(row) for row in built.table]
        for (a, b), flip in changes:
            rows[a][b] ^= flip
        tampered = build(catalog.ENTRIES[loop].basis())
        tampered.table = tuple(map(tuple, rows))
        monkeypatch.setattr(verify, "build_loop", lambda basis: tampered)
        found = verify.check_loop_laws(catalog.ENTRIES[loop])
        moufang = f"{loop}: Moufang identity fails" not in found
        assert is_moufang(tampered) == moufang == moufang_by_definition(tampered), changes
        associator = [m.removeprefix(f"{loop}: ") for m in found if "associator" in m]
        assert associator == [_first_associator_by_definition(tampered)], changes


class _CountedTable(tuple):
    reads = 0

    def __getitem__(self, index):
        _CountedTable.reads += 1
        return tuple.__getitem__(self, index)


def test_loop_laws_scan_no_cell_of_a_valid_table(monkeypatch):
    # on a valid table every pair's rows agree, so the laws read O(order^2)
    # cells; a row map or sign row that is off sends pairs to the cell scan,
    # which reads 4 cells per c, order^3 in all
    build = verify.build_loop

    def counted(basis):
        loop = build(basis)
        loop.table = _CountedTable(loop.table)
        return loop

    monkeypatch.setattr(verify, "build_loop", counted)
    for entry in catalog.RANK3 + catalog.RANK4:
        _CountedTable.reads = 0
        assert verify.check_loop_laws(entry) == []
        order = len(build(entry.basis()).table)
        assert _CountedTable.reads < 6 * order**2, entry.loop


def test_reference_basis_degree_is_its_support():
    # a basis that leaves a position uncovered has the degree of its support
    e = catalog.ENTRIES["C3_1"]
    entry = catalog.ReferenceEntry(e.loop, 8, e.type, e.generators, e.published_generators)
    assert verify._check_reference_basis(entry) == ["C3_1: degree 7, table says 8"]


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim 'no-such-claim'; known: rank3-orbits"):
        run_claims(only="no-such-claim")
    # a huge name is clipped, not echoed whole
    with pytest.raises(ValueError) as exc:
        run_claims(only="x" * 100_000)
    assert "(100000 characters)" in str(exc.value) and len(str(exc.value)) < 300


def test_run_claims_preserves_declaration_order(monkeypatch):
    claims = {name: (lambda n=name: ClaimResult(n, True, "ok")) for name in ("b", "a", "c")}
    monkeypatch.setattr(verify, "CLAIMS", claims)
    assert [r.claim for r in verify.run_claims()] == ["b", "a", "c"]
    assert [r.claim for r in verify.run_claims(only="a")] == ["a"]


def test_expected_misprints_constant():
    assert EXPECTED_MISPRINTS == ("C4_7", "C4_8", "C4_10")
    assert all(catalog.ENTRIES[name].corrected for name in EXPECTED_MISPRINTS)
    others = [e for e in catalog.RANK3 + catalog.RANK4 if e.loop not in EXPECTED_MISPRINTS]
    assert all(not e.corrected for e in others)
