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


def test_parallel_dispatch_preserves_order(monkeypatch):
    import loopforge.verify as verify

    def slow() -> ClaimResult:
        import time

        time.sleep(0.05)
        return ClaimResult("slow", True, "ok")

    def fast() -> ClaimResult:
        return ClaimResult("fast", True, "ok")

    monkeypatch.setattr(verify, "CLAIMS", {"slow": slow, "fast": fast})
    serial = verify.run_claims(jobs=1)
    assert [r.claim for r in serial] == ["slow", "fast"]
    parallel = verify.run_claims(jobs=2)  # forked workers inherit the patch
    assert [(r.claim, r.passed) for r in parallel] == [("slow", True), ("fast", True)]


def test_worker_count_clamped_to_claims_and_cpus(monkeypatch):
    import loopforge.verify as verify

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    claims = {name: (lambda n=name: ClaimResult(n, True, "ok")) for name in "abc"}
    monkeypatch.setattr(verify, "CLAIMS", claims)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    results = verify.run_claims(jobs=10**6)
    assert [r.claim for r in results] == ["a", "b", "c"]
    assert requested == [2]
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 64)
    verify.run_claims(jobs=10**6)
    assert requested == [2, 3]
    monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
    verify.run_claims(jobs=10**6)
    assert requested == [2, 3]  # one worker: no pool at all


def test_expected_misprints_constant():
    assert EXPECTED_MISPRINTS == ("C4_7", "C4_8", "C4_10")
    assert all(catalog.ENTRIES[name].corrected for name in EXPECTED_MISPRINTS)
    others = [e for e in catalog.RANK3 + catalog.RANK4 if e.loop not in EXPECTED_MISPRINTS]
    assert all(not e.corrected for e in others)
