"""The golden claim suite itself: all claims pass, tampering is caught."""

from __future__ import annotations

import pytest

import loopforge.catalog as catalog
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


def test_unknown_claim_rejected():
    with pytest.raises(ValueError):
        run_claims(only="no-such-claim")


def test_run_claims_preserves_declaration_order(monkeypatch):
    import loopforge.verify as verify

    claims = {name: (lambda n=name: ClaimResult(n, True, "ok")) for name in ("b", "a", "c")}
    monkeypatch.setattr(verify, "CLAIMS", claims)
    assert [r.claim for r in verify.run_claims()] == ["b", "a", "c"]
    assert [r.claim for r in verify.run_claims(only="a")] == ["a"]


def test_expected_misprints_constant():
    assert EXPECTED_MISPRINTS == ("C4_7", "C4_8", "C4_10")
    assert all(catalog.ENTRIES[name].corrected for name in EXPECTED_MISPRINTS)
    others = [e for e in catalog.RANK3 + catalog.RANK4 if e.loop not in EXPECTED_MISPRINTS]
    assert all(not e.corrected for e in others)
