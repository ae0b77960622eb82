"""Acceptance criteria: one test (or parametrized family) per criterion.

Expected values are pinned literally here, independent of the package's own
reference tables.  Criteria 5 and 7 run against the basis listings exactly
as published, except for three listings that are misprinted upstream
(documented in ``catalog``): C4_7, C4_8 and C4_10.  For those the checks run
on the corrected basis, and the listing as published must show exactly its
documented defect, pinned below, so the misprints stay asserted and the
whole suite passes.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

import loopforge.catalog as catalog
from conftest import (
    enumerate_nonassociative,
    random_covering_basis,
    random_doubly_even_basis,
    random_gl,
    transform_basis,
    walked_counts,
)
from loopforge.charvec import (
    CharVector,
    LoopClassId,
    canonicalize,
    char_vector_of,
    gl_transform,
    representative,
)
from loopforge.gf2 import class_partition, codes_equivalent, is_doubly_even
from loopforge.verify import check_loop_laws, minimal_report_for

RANK3_REPRESENTATIVE_BITS = ("111111", "000000", "000111", "110000", "100000")
RANK3_DEGREES = (7, 13, 11, 17, 17)
RANK3_TYPES = ("1111111", "1111333", "1111115", "1111337", "1113335")
RANK4_DEGREES = (8, 14, 12, 18, 18, 11, 17, 17, 19, 19, 17, 17, 17, 13, 17, 17)
RANK4_TYPES = (
    "11111111", "11111111222", "111111114", "11111111226", "111111112224",
    "11111114", "11113334", "11111122223", "11111222233", "111223333",
    "111122333", "1111112234", "111111236", "111111223", "111111227",
    "111112235",
)
# The upstream misprints, as published.  The C4_7 and C4_10 listings are
# doubly even but fall into another loop, named with its representative's
# shorthand, at another length.  The C4_8 listing is not doubly even: one pair
# of generators meets in an odd number of positions.
MISCLASSIFIED_LISTINGS = {
    "C4_7": ("C4_2", "0000000000", 16),
    "C4_10": ("C4_8", "0000001000", 18),
}
ODD_MEET_LISTINGS = {"C4_8": ((3, 4), (1, 2, 9, 13, 14))}
DOCUMENTED_DEFECTS = MISCLASSIFIED_LISTINGS.keys() | ODD_MEET_LISTINGS.keys()


def _type_string(type_vector) -> str:
    return "".join(str(t) for t in type_vector)


def test_criterion_1_rank3_classification():
    start = time.perf_counter()
    members: dict[int, list[CharVector]] = {}
    for cv in enumerate_nonassociative(3):
        cid, _, _ = canonicalize(cv)
        members.setdefault(cid.index, []).append(cv)
    elapsed = time.perf_counter() - start
    assert sum(len(v) for v in members.values()) == 64
    assert len(members) == 5
    reps = {CharVector.from_shorthand(3, s): i for i, s in enumerate(RANK3_REPRESENTATIVE_BITS, 1)}
    for index, orbit in members.items():
        inside = [cv for cv in orbit if cv in reps]
        assert len(inside) == 1
        assert reps[inside[0]] == index
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: 64 vectors -> 5 orbits, one representative each ({elapsed:.2f}s)")


def test_criterion_2_rank4_classification():
    start = time.perf_counter()
    members: dict[int, list[CharVector]] = {}
    for cv in enumerate_nonassociative(4):
        cid, _, _ = canonicalize(cv)
        members.setdefault(cid.index, []).append(cv)
    elapsed = time.perf_counter() - start
    assert sum(len(v) for v in members.values()) == 15360
    assert len(members) == 16
    reps = {
        representative(LoopClassId(4, i)): i for i in range(1, 17)
    }  # full 14-coordinate embedding
    for index, orbit in members.items():
        inside = [cv for cv in orbit if cv in reps]
        assert len(inside) == 1
        assert reps[inside[0]] == index
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: 15360 vectors -> 16 orbits, one representative each ({elapsed:.2f}s)")


def test_criterion_3_rank3_minimal_degrees_and_types():
    got_degrees = []
    got_types = []
    for index in range(1, 6):
        start = time.perf_counter()
        report = minimal_report_for(f"C3_{index}")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"C3_{index} took {elapsed:.2f}s"
        got_degrees.append(report.degree)
        got_types.append(_type_string(report.types[0]))
    assert tuple(got_degrees) == RANK3_DEGREES
    assert tuple(got_types) == RANK3_TYPES
    print(f"PASS criterion 3: rank-3 minimal degrees {got_degrees} and types {got_types}")


def test_criterion_4_rank4_minimal_degrees_and_types():
    got_degrees = []
    got_types = []
    worst = 0.0
    for index in range(1, 17):
        start = time.perf_counter()
        report = minimal_report_for(f"C4_{index}")
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 10.0, f"C4_{index} took {elapsed:.2f}s"
        got_degrees.append(report.degree)
        got_types.append(_type_string(report.types[0]))
    assert tuple(got_degrees) == RANK4_DEGREES
    assert tuple(got_types) == RANK4_TYPES
    print(
        f"PASS criterion 4: rank-4 minimal degrees {got_degrees} match the published table "
        f"(slowest loop {worst:.2f}s)"
    )


def _criterion5_failure(entry, basis) -> str | None:
    """The first criterion-5 check that ``basis`` fails as a basis of
    ``entry``'s loop, or None when it passes them all."""
    if not is_doubly_even(basis):
        return "not doubly even"
    cid, _, _ = canonicalize(char_vector_of(basis))
    if str(cid) != entry.loop:
        return f"classifies into {cid}, claimed {entry.loop}"
    if basis.length != entry.degree or not basis.covers:
        return f"degree {basis.length}, claimed {entry.degree}"
    report = minimal_report_for(entry.loop)
    if not any(codes_equivalent(basis, rep.basis) for rep in report.representations):
        return "not equivalent to any computed minimal representation"
    return None


def _assert_documented_defect(entry):
    """The listing as published shows exactly its pinned defect."""
    basis = entry.published_basis()
    gens = [set(g) for g in entry.published_generators]
    odd_meets = [
        ((i + 1, j + 1), tuple(sorted(gens[i] & gens[j])))
        for i, j in combinations(range(len(gens)), 2)
        if len(gens[i] & gens[j]) % 2
    ]
    if entry.loop in ODD_MEET_LISTINGS:
        assert all(len(g) % 4 == 0 for g in gens)
        assert odd_meets == [ODD_MEET_LISTINGS[entry.loop]]
        assert not is_doubly_even(basis)
        return
    loop, shorthand, length = MISCLASSIFIED_LISTINGS[entry.loop]
    assert odd_meets == [] and is_doubly_even(basis)
    cv = char_vector_of(basis)
    cid, _, witness = canonicalize(cv)
    assert str(cid) == loop, f"classifies into {cid}, documented {loop}"
    # the class comes from the program: confirm it through the oracle of 8a
    assert gl_transform(cv, witness) == CharVector.from_shorthand(4, shorthand)
    assert (basis.length, basis.covers) == (length, True)


@pytest.mark.parametrize("entry", catalog.RANK3 + catalog.RANK4, ids=lambda e: e.loop)
def test_criterion_5_published_basis(entry):
    """Each basis as published: doubly even, right loop, right degree,
    equivalent to a computed minimal representation.  A documented misprint
    is checked through its corrected basis, and its published listing must
    show exactly the documented defect."""
    documented = entry.loop in DOCUMENTED_DEFECTS
    basis = entry.basis() if documented else entry.published_basis()
    failure = _criterion5_failure(entry, basis)
    assert failure is None, failure
    if documented:
        _assert_documented_defect(entry)


@pytest.mark.parametrize("loop", [e.loop for e in catalog.RANK3 + catalog.RANK4])
def test_criterion_5_minimal_set_unique(loop):
    report = minimal_report_for(loop)
    assert len(report.representations) == 1


def test_criterion_5_summary():
    # the published listings that fail are exactly the documented misprints,
    # each at its documented check
    failures = {}
    for entry in catalog.RANK3 + catalog.RANK4:
        failure = _criterion5_failure(entry, entry.published_basis())
        if failure is not None:
            failures[entry.loop] = failure
    expected = {
        loop: f"classifies into {into}, claimed {loop}"
        for loop, (into, _, _) in MISCLASSIFIED_LISTINGS.items()
    }
    expected.update((loop, "not doubly even") for loop in ODD_MEET_LISTINGS)
    assert failures == expected, f"unexpected defects {failures}"
    total = len(catalog.RANK3) + len(catalog.RANK4)
    print(
        f"PASS criterion 5: {total - len(failures)}/{total} published bases verified as printed; "
        f"documented misprints {', '.join(failures)} confirmed, "
        "their corrected bases verified"
    )


def test_criterion_6_worked_example_byte_exact():
    from loopforge.fileio import format_code
    from loopforge.search import assemble_representation, solve_system

    # the published u = (t1234, t123, t124, t134, t234, t12, t13, t14, t23,
    # t24, t34, t1, t2, t3, t4) = (0, 1, 0, 2, 0, 2, 6, 2, 6, 0, 4, 8, 8, 16, 4)
    # placed by coefficient mask: entry m is the meet of the generators in m
    u = (0, 8, 8, 2, 16, 6, 6, 1, 4, 2, 0, 0, 4, 2, 0, 0)
    expected_solution = (1, 0, 2, 0, 1, 3, 0, 5, 0, 2, 1, 1, 3, 0)
    sizes = solve_system(u)
    solution = (
        sizes[(1, 2, 3)], sizes[(1, 2, 4)], sizes[(1, 3, 4)], sizes[(2, 3, 4)],
        sizes[(1, 2)], sizes[(1, 3)], sizes[(1, 4)], sizes[(2, 3)], sizes[(2, 4)],
        sizes[(3, 4)], sizes[(1,)], sizes[(2,)], sizes[(3,)], sizes[(4,)],
    )
    assert solution == expected_solution
    basis = assemble_representation(sizes)
    expected_text = (
        "m=19 n=4\n"
        "1,2,3,4,5,6,7,8\n"
        "1,4,9,10,11,12,13,14\n"
        "1,2,3,5,6,7,9,10,11,12,13,15,16,17,18,19\n"
        "2,3,15,16\n"
    )
    assert format_code(basis) == expected_text
    print("PASS criterion 6: worked example solution and generators byte-exact")


def test_criterion_7_loop_laws_for_published_bases():
    start = time.perf_counter()
    violations: list[str] = []
    refused: dict[str, list[str]] = {}
    for entry in catalog.RANK3 + catalog.RANK4:
        published = catalog.ReferenceEntry(
            loop=entry.loop,
            degree=entry.published_basis().length,
            type=entry.type,
            generators=entry.published_generators,
            published_generators=entry.published_generators,
        )
        if entry.loop in ODD_MEET_LISTINGS:
            # this listing defines no code loop; check the corrected basis
            refused[entry.loop] = check_loop_laws(published)
            violations.extend(check_loop_laws(entry))
        else:
            violations.extend(check_loop_laws(published))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    assert refused == {
        "C4_8": ["C4_8: factor set failed: factor sets require a doubly even code"]
    }, refused
    if violations:
        print(f"FAIL criterion 7: {len(violations)} violation(s): {violations} ({elapsed:.2f}s)")
    else:
        print(
            "PASS criterion 7: loop laws hold for every loop a published basis defines "
            f"and for the corrected C4_8 basis; the C4_8 listing is refused ({elapsed:.2f}s)"
        )
    assert violations == [], violations


def test_criterion_8a_polarization_oracle(rng):
    checked = 0
    while checked < 1000:
        rank = rng.choice((3, 4, 5))
        basis = random_doubly_even_basis(rng, rank, rng.randrange(3 + 2 * rank, 25))
        cv = char_vector_of(basis)
        for _ in range(5):
            g = random_gl(rng, rank)
            assert gl_transform(cv, g) == char_vector_of(transform_basis(basis, g))
            checked += 1
    print(f"PASS criterion 8a: polarization matched weight recomputation {checked} times")


def test_criterion_8b_rank3_dfs_equals_brute_force():
    import numpy as np

    # oracle: every cardinality tuple in {0..7}^7, kept iff it satisfies the
    # congruences the characteristic vector forces (independent of the DFS)
    grids = np.indices((8,) * 7, dtype=np.int16).reshape(7, -1)
    x123, x12, x13, x1, x23, x2, x3 = grids
    for index, short in enumerate(RANK3_REPRESENTATIVE_BITS, start=1):
        cv = CharVector.from_shorthand(3, short)
        l1, l2, l3 = cv.sigma
        l12, l13, l23 = cv.beta
        ok = (x123 % 2) == 1
        ok &= ((x123 + x12) % 4) == 2 * l12
        ok &= ((x123 + x13) % 4) == 2 * l13
        ok &= ((x123 + x23) % 4) == 2 * l23
        ok &= ((x123 + x12 + x13 + x1) % 8) == 4 * l1
        ok &= ((x123 + x12 + x23 + x2) % 8) == 4 * l2
        ok &= ((x123 + x13 + x23 + x3) % 8) == 4 * l3
        oracle = {tuple(int(v) for v in col) for col in grids[:, ok].T}
        dfs = set(walked_counts(cv, 7))
        assert dfs == oracle, f"C3_{index}: DFS disagrees with 8^7 enumeration"
    print("PASS criterion 8b: rank-3 DFS equals the full 8^7 enumeration for all 5 loops")


def test_criterion_8c_partition_basis_independence(rng):
    for _ in range(500):
        rank = rng.choice((2, 3, 4))
        basis = random_covering_basis(rng, rank, rng.randrange(5 + rank, 16))
        g = random_gl(rng, rank)
        moved = transform_basis(basis, g)
        assert class_partition(basis).as_sets() == class_partition(moved).as_sets()
    print("PASS criterion 8c: position partition invariant under 500 random basis changes")
