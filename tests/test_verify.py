"""The golden claim suite itself: all claims pass, tampering is caught."""

from __future__ import annotations

import pytest

import loopforge.catalog as catalog
import loopforge.verify as verify
from loopforge.charvec import LoopClassId, loop_class, nonassociative_count, orbit_sizes
from loopforge.loops import FactorSet
from loopforge.verify import (
    ClaimResult,
    EXPECTED_MISPRINTS,
    claim_ids,
    claim_published_misprints,
    claim_reference_bases,
    claim_worked_example,
    run_claims,
)


def test_claim_ids_stable():
    assert claim_ids() == (
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
    assert [r.claim for r in results] == list(claim_ids())
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


def test_loop_laws_claim_reports_factor_set_axiom_violations(monkeypatch):
    monkeypatch.setattr(FactorSet, "axiom_violations", lambda self: ["cocycle axiom fails at (1,2,3)"])
    (res,) = run_claims(only="loop-laws")
    assert not res.passed
    first = (catalog.RANK3 + catalog.RANK4)[0].loop
    assert res.mismatches[0] == f"{first}: factor set failed: 1 axiom violations, first: cocycle axiom fails at (1,2,3)"
    assert len(res.mismatches) == len(catalog.RANK3) + len(catalog.RANK4)


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


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claims(only="no-such-claim")


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
