"""Internal consistency of the bundled reference tables."""

from __future__ import annotations

from loopforge.catalog import ENTRIES, RANK3, RANK4
from loopforge.charvec import LoopClassId
from loopforge.gf2 import class_partition, type_vector


def test_entry_count_and_ids():
    assert len(RANK3) == 5 and len(RANK4) == 16
    for entry in RANK3 + RANK4:
        cid = LoopClassId.parse(entry.loop)
        assert str(cid) == entry.loop


def test_types_are_sorted_and_sum_to_degree():
    for entry in RANK3 + RANK4:
        assert tuple(sorted(entry.type)) == entry.type
        assert sum(entry.type) == entry.degree


def test_reference_bases_have_claimed_degree_and_type():
    for entry in RANK3 + RANK4:
        basis = entry.basis()
        assert basis.length == entry.degree
        assert basis.support.weight == basis.length
        assert type_vector(class_partition(basis).sizes.values()) == entry.type


def test_corrected_entries_marked():
    assert sorted(e.loop for e in RANK4 if e.corrected) == ["C4_10", "C4_7", "C4_8"]
    assert not any(e.corrected for e in RANK3)
    assert ENTRIES["C4_10"].published_generators != ENTRIES["C4_10"].generators
