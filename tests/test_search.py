"""Congruence solving, assembly, reduced enumeration and minimal search."""

from __future__ import annotations

import hashlib
import inspect
import sys
import tracemalloc
from functools import lru_cache
from itertools import islice, product
from math import comb
from typing import Iterator

import pytest

import loopforge.search as search
from conftest import (
    char_vector_of_meets,
    meets_of_counts,
    random_doubly_even_basis,
    reference_walk,
    spanning_leaves,
    walked_counts,
)
from loopforge.catalog import (
    ENTRIES,
    WORKED_EXAMPLE_GENERATORS,
    WORKED_EXAMPLE_U,
    WORKED_EXAMPLE_V,
)
from loopforge.charvec import (
    CharVector,
    LoopClassId,
    canonicalize,
    char_vector_of,
    representative,
)
from loopforge.errors import (
    AssociativeLoop,
    DegenerateBasis,
    InfeasibleProfile,
    NotDoublyEven,
    NotReduced,
    UnsupportedRank,
)
from loopforge.gf2 import (
    canonical_code_signature,
    class_order,
    class_partition,
    gf2_rank,
    meet_weights,
    sigma_mask,
    type_vector,
)
from loopforge.search import (
    REDUCED_MAX,
    MinimalReport,
    ReducedRepresentation,
    _walk_class_sizes,
    assemble_representation,
    enumerate_reduced,
    minimal_representations,
    solve_system,
)

ALL_LOOPS = [LoopClassId(3, i) for i in range(1, 6)] + [LoopClassId(4, i) for i in range(1, 17)]


@lru_cache(maxsize=8)
def _incidence(n: int) -> tuple[tuple[int, ...], ...]:
    """For each coefficient mask m, the class_order positions of the index sets
    sigma containing the generators picked by m."""
    order = class_order(n)
    picked = [{i for i in range(1, n + 1) if m >> (i - 1) & 1} for m in range(1 << n)]
    return tuple(tuple(p for p, tau in enumerate(order) if s <= set(tau)) for s in picked)


def profile_from_sizes(sizes: ReducedRepresentation) -> tuple[int, ...]:
    """Oracle for ``solve_system``: meet weights by coefficient mask, t_sigma =
    sum of x_tau over tau containing sigma (entry 0: the degree)."""
    return tuple(sum(sizes.counts[p] for p in cells) for cells in _incidence(sizes.rank))


def worked_profile() -> list[int]:
    # the published u lists the subsets of I_4 larger first, then lexicographically
    published = sorted(class_order(4), key=lambda sigma: (-len(sigma), sigma))
    weights = [0] * 16
    for sigma, t in zip(published, WORKED_EXAMPLE_U):
        weights[sigma_mask(sigma)] = t
    return weights


# rank-3 weights by mask: (t, t_1, t_2, t_12, t_3, t_13, t_23, t_123), entry 0 unread


def test_solve_rank3_all_singletons():
    sizes = solve_system([0, 4, 4, 2, 4, 2, 2, 1])
    assert sizes.counts == (1,) * 7
    assert sizes.degree == 7


def test_solve_rank3_infeasible():
    with pytest.raises(InfeasibleProfile):
        solve_system([0, 4, 4, 2, 4, 2, 2, 3])


def test_solve_rank3_not_reduced():
    with pytest.raises(NotReduced):
        solve_system([0, 16, 16, 10, 16, 10, 10, 1])


def test_solve_rank3_mid_example():
    # degree comes out at 11: this is the vector data of the third loop
    sizes = solve_system([0, 8, 8, 6, 8, 6, 6, 5])
    assert sizes[(1, 2)] == sizes[(1, 3)] == sizes[(2, 3)] == 1
    assert sizes[(1,)] == sizes[(2,)] == sizes[(3,)] == 1
    assert sizes.degree == 11


def test_solve_rank4_worked_example():
    sizes = solve_system(worked_profile())
    solution = (
        sizes[(1, 2, 3)], sizes[(1, 2, 4)], sizes[(1, 3, 4)], sizes[(2, 3, 4)],
        sizes[(1, 2)], sizes[(1, 3)], sizes[(1, 4)], sizes[(2, 3)], sizes[(2, 4)],
        sizes[(3, 4)], sizes[(1,)], sizes[(2,)], sizes[(3,)], sizes[(4,)],
    )
    assert solution == WORKED_EXAMPLE_V


def test_solve_rank4_zero_profile_degenerate_downstream():
    sizes = solve_system([0] * 16)
    assert sizes.degree == 0
    with pytest.raises(DegenerateBasis):
        assemble_representation(sizes)


def test_solve_reads_the_rank_from_the_length():
    # entry 0 is not read; the length must be 2^n for a classified n
    assert solve_system([99, 4, 4, 2, 4, 2, 2, 1]) == solve_system([0, 4, 4, 2, 4, 2, 2, 1])
    for length in (0, 1, 3, 7, 9, 15):
        with pytest.raises(ValueError, match=f"got {length}$"):
            solve_system([0] * length)
    for n in (1, 2, 5):
        with pytest.raises(UnsupportedRank, match=f"got {n}$"):
            solve_system([0] * (1 << n))
    with pytest.raises(InfeasibleProfile, match=r"^x_123 = -2 < 0$"):
        solve_system([0, 0, 0, 0, 0, 0, 0, -2])
    with pytest.raises(NotReduced, match=r"^x_4 = 9 > 8$"):
        solve_system([0] * 8 + [9] + [0] * 7, max_size=8)


def test_solution_reconstructs_weights(rng):
    for _ in range(20):
        rank = rng.choice((3, 4))
        basis = random_doubly_even_basis(rng, rank, rng.randrange(3 + 2 * rank, 20))
        weights = meet_weights(basis.masks)
        try:
            sizes = solve_system(weights)
        except NotReduced:
            continue  # random codes may have large classes; not our concern here
        assert profile_from_sizes(sizes) == weights


def test_assemble_worked_example_byte_exact():
    sizes = solve_system(worked_profile())
    basis = assemble_representation(sizes)
    assert tuple(g.positions for g in basis.generators) == WORKED_EXAMPLE_GENERATORS


def test_assemble_all_singletons_is_seven_point_basis():
    sizes = ReducedRepresentation((1,) * 7, 7)
    basis = assemble_representation(sizes)
    assert tuple(g.positions for g in basis.generators) == (
        (1, 2, 3, 4),
        (1, 2, 5, 6),
        (1, 3, 5, 7),
    )


def test_assemble_partition_round_trip(rng):
    for _ in range(30):
        rank = rng.choice((3, 4))
        counts = tuple(rng.randrange(0, 5) for _ in range((1 << rank) - 1))
        sizes = ReducedRepresentation(counts, sum(counts))
        try:
            basis = assemble_representation(sizes)
        except DegenerateBasis:
            continue
        part = class_partition(basis)
        assert tuple(part.sizes[sigma] for sigma in part.sizes) == counts


def test_assemble_rejects_malformed_counts():
    # hand-built counts are checked where they are laid out
    with pytest.raises(ValueError, match="^one count per nonempty subset required$"):
        assemble_representation(ReducedRepresentation((1,) * 6, 6))
    with pytest.raises(ValueError, match="^counts must be nonnegative$"):
        assemble_representation(ReducedRepresentation((2, 1, 1, 1, 1, 1, -1), 6))
    with pytest.raises(ValueError, match="^degree 8 is not the sum of the counts, 7$"):
        assemble_representation(ReducedRepresentation((1,) * 7, 8))
    assert assemble_representation(ReducedRepresentation((1,) * 7, 7)).length == 7


def test_enumerate_reduced_rank3_matches_vector():
    cv = representative(LoopClassId(3, 1))
    reps = list(enumerate_reduced(cv))
    assert reps, "the reduced family is never empty"
    for rep in reps:
        assert char_vector_of(rep.basis) == cv
        assert max(rep.counts) <= 7
        assert 7 <= rep.degree <= 49


def test_enumerate_reduced_rank3_walk_is_32_leaves():
    for index in range(1, 6):
        cv = representative(LoopClassId(3, index))
        assert sum(1 for _ in walked_counts(cv, 7)) == 32


def test_walk_limit_keeps_exactly_the_leaves_within_it():
    # class bounds 1 and 2 give 5- and 6-bit digits, the least room for the
    # offset that keeps the walk's residue read from borrowing; every limit
    # from 0 past the heaviest leaf, ties with a leaf's degree included
    for loop, size in (("C4_14", 3), ("C4_1", 1), ("C4_1", 2), ("C4_2", 2)):
        cv = representative(LoopClassId.parse(loop))
        full = [counts for counts, _, _ in reference_walk(cv, size)]
        assert full
        for bound in range(max(map(sum, full)) + 2):
            assert list(walked_counts(cv, size, [bound])) == [
                c for c in full if sum(c) <= bound
            ]


def test_walk_limit_lowered_mid_stream_cuts_later_branches():
    cv = representative(LoopClassId(3, 2))
    limit = [10**6]
    seen = []
    for counts in walked_counts(cv, 7, limit):
        seen.append(counts)
        limit[0] = min(limit[0], sum(counts))
    full = list(walked_counts(cv, 7))
    least = min(sum(c) for c in full)
    assert len(seen) < len(full)
    assert [c for c in full if sum(c) == least] == [c for c in seen if sum(c) == least]


def test_enumerate_reduced_is_lazy():
    # the stream starts without materializing the 16^15-scale bound-15 walk,
    # or a bound-63 tail of 2^26 leaves that the memo could not hold
    for bound in (15, 63):
        rep = next(enumerate_reduced(representative(LoopClassId(4, 1)), max_class_size=bound))
        assert char_vector_of(rep.basis) == representative(LoopClassId(4, 1))


@pytest.mark.parametrize("bound, leaves", [(63, 200_000), (15, 50_000)])
def test_large_bound_stream_keeps_its_memory_small(bound, leaves):
    # the tail memo of the unlimited stream holds at most 4,096 rows: at bound 63
    # no tail fits and each is walked in place, at bound 15 one tail of 4,096
    # leaves does; the leaves stream through unkept
    stream = enumerate_reduced(representative(LoopClassId(4, 1)), bound)
    tracemalloc.start()
    try:
        read = sum(1 for _ in islice(stream, leaves))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == leaves
    assert peak < 2_000_000


def test_enumerate_requires_normalized():
    # a vector the walk cannot take raises at the call, before any leaf is read
    skewed = CharVector(4, (0,) * 4, (0,) * 6, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="normalize the vector first"):
        enumerate_reduced(skewed)
    with pytest.raises(AssociativeLoop):
        enumerate_reduced(CharVector(4, (0,) * 4, (0,) * 6, (0,) * 4))
    with pytest.raises(UnsupportedRank):
        enumerate_reduced(CharVector(5, (0,) * 5, (0,) * 10, (1,) + (0,) * 9))


def test_minimal_c4_1_degree_8():
    report = minimal_representations(representative(LoopClassId(4, 1)))
    assert report.degree == 8
    assert len(report.representations) == 1
    assert report.types[0] == (1,) * 8


def test_minimal_c4_14():
    report = minimal_representations(representative(LoopClassId(4, 14)))
    assert report.degree == 13
    assert report.types[0] == (1, 1, 1, 1, 1, 1, 2, 2, 3)


def test_minimal_rank3_known_values():
    degrees = []
    for index in range(1, 6):
        report = minimal_representations(representative(LoopClassId(3, index)))
        degrees.append(report.degree)
        assert len(report.representations) == 1
        entry = ENTRIES[f"C3_{index}"]
        assert report.types[0] == entry.type
    assert degrees == [7, 13, 11, 17, 17]


def test_remark_exclusions_hold_in_rank3_outputs():
    # no generator contains another, no pairwise meet is empty
    for index in range(1, 6):
        cv = representative(LoopClassId(3, index))
        for rep in enumerate_reduced(cv):
            masks = rep.basis.masks
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    assert masks[i] & masks[j], "empty pairwise intersection"
                    # independence rules out equality, so union != v_j means no containment
                    assert masks[i] | masks[j] != masks[j], "generator contained in another"


@pytest.mark.parametrize(
    "loop, bound", [(LoopClassId(3, 1), 3), (LoopClassId(3, 2), 3), (LoopClassId(4, 1), 1)], ids=str
)
def test_walk_yields_exactly_the_counts_of_the_vector(loop, bound):
    # every count tuple within the bound whose meet weights carry the vector,
    # at small bounds where these walks are not empty
    cv = representative(loop)
    wanted = []
    for counts in product(range(bound + 1), repeat=(1 << loop.rank) - 1):
        try:
            if char_vector_of_meets(meets_of_counts(loop.rank, counts)) == cv:
                wanted.append(counts)
        except NotDoublyEven:
            pass
    assert list(walked_counts(cv, bound)) == wanted


def test_zero_patterns_decide_degeneracy():
    # a leaf is kept exactly when its basis assembles; only which counts are
    # zero matters, so the 0/1 patterns (scaled by 8) are all the cases of the
    # span table that the stream and the minimal search read
    degenerate = 0
    for rank in (3, 4):
        masks = [sigma_mask(sigma) for sigma in class_order(rank)]
        spans = search._Spanning(rank)
        for counts in product((0, 8), repeat=(1 << rank) - 1):
            if not any(counts):
                continue
            kept = spans[sum(1 << m for m, x in zip(masks, counts) if x)]
            try:
                assemble_representation(ReducedRepresentation(counts, sum(counts)))
            except DegenerateBasis:
                degenerate += 1
                assert not kept
            else:
                assert kept
    assert degenerate == 1570


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=str)
def test_kept_leaves_agree_with_their_assembled_code(loop):
    cv = representative(loop)
    bound = 7 if loop.rank == 3 else 4
    reps = {rep.counts: rep for rep in enumerate_reduced(cv, bound)}
    for counts in walked_counts(cv, bound):
        try:
            basis = assemble_representation(ReducedRepresentation(counts, sum(counts)))
        except DegenerateBasis:
            assert counts not in reps
            continue
        rep = reps.pop(counts)
        assert rep.degree == rep.basis.length == basis.length
        assert rep.type == type_vector(class_partition(rep.basis).sizes.values())
        assert char_vector_of(rep.basis) == cv
    assert reps == {}


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=str)
def test_walk_equals_the_reference_walk(loop):
    # whole walks with no limit: the raw walk leaf by leaf, and the stream with
    # its replayed tails; bound 7 is the default, where a rank-4 stream walks
    # 128 tails of 32 leaves alone and replays each 32 times
    cv = representative(loop)
    if loop.rank == 3:
        bounds = (1, 2, 3, 4, 5, 7, 9, 15)
    else:
        bounds = (3, 5, 7) if str(loop) in ("C4_1", "C4_4", "C4_13") else (3,)
    for bound in bounds:
        reference = list(reference_walk(cv, bound))
        assert list(_walk_class_sizes(cv, bound)) == reference
        stream = [(rep.counts, rep.degree) for rep in enumerate_reduced(cv, bound)]
        assert stream == list(spanning_leaves(cv.rank, reference))


def _leaves_walked(leaves: Iterator) -> tuple[dict[tuple[int, int], int], int]:
    """(leaves the walk reaches itself, items read from ``leaves``): a line tracer
    counts the runs of the loop's line that builds a walked leaf, keyed by the cells
    ``(start, stop)`` that the walk spans: at rank 4 the raw walk over every cell is
    (0, 15), the stream's head walk (0, 8) and each tail it walks, alone or in place,
    (8, 15); a replayed leaf comes from the tail memo and never runs it."""
    return _line_runs("counts = tuple(values)", leaves, lambda local: (local["start"], local["stop"]))


def _line_runs(line: str, leaves: Iterator, key=None) -> tuple:
    """(runs of the walk loop's ``line``, items read from ``leaves``); given ``key``,
    the runs are counted per ``key(the frame's locals)``."""
    lines, first = inspect.getsourcelines(search._walk_cells)
    target = first + next(i for i, text in enumerate(lines) if text.strip() == line)
    code, runs = search._walk_cells.__code__, {}

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            walk = key(frame.f_locals) if key else None
            runs[walk] = runs.get(walk, 0) + 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        read = sum(1 for _ in leaves)
    finally:
        sys.settrace(previous)
    return (runs if key else runs.get(None, 0)), read


def test_the_walk_replays_recorded_tails():
    # the stream walks its heads, then each tail once, alone, and replays it below
    # every head with its key: at bound 4 it walks 84 heads and 84 of 180 tail
    # leaves and keeps all but 2 degenerate ones; at the default bound 4,096 heads
    # and 128 tails of 32 leaves of 131,072, and keeps all but 32
    cv = representative(LoopClassId(4, 1))
    assert _leaves_walked(enumerate_reduced(cv, 4)) == ({(0, 8): 84, (8, 15): 84}, 178)
    assert sum(1 for _ in _walk_class_sizes(cv, 4)) == 180
    assert _leaves_walked(enumerate_reduced(cv, REDUCED_MAX)) == ({(0, 8): 4096, (8, 15): 4096}, 131040)
    assert sum(1 for _ in _walk_class_sizes(cv, REDUCED_MAX)) == 131072


def test_minimal_search_cuts_what_the_open_generators_cannot_fit():
    # a branch is cut once the positions its open generators still need, each
    # (4 lambda_i - t_i) mod 8, exceed the room left under the incumbent: the 21
    # default-bound searches take 38,654 steps of the walk loop, 105,075 when only
    # the partial degree is compared, 38,992 when the generators whose singleton
    # is the next cell are left to that cell's own check
    def searches():
        for loop in ALL_LOOPS:
            yield minimal_representations(representative(loop))

    steps, read = _line_runs("value = values[pos]", searches())
    assert read == 21 and steps == 38_654


def test_a_passed_limit_walks_every_leaf():
    # a limit the consumer may lower turns the memo off, even one never lowered:
    # branch and bound walks every leaf it yields, and records nothing; only
    # the stream, which takes no limit, records tails
    cv = representative(LoopClassId(4, 1))
    assert _leaves_walked(_walk_class_sizes(cv, REDUCED_MAX, [REDUCED_MAX * 15])) == ({(0, 15): 131072}, 131072)
    assert _leaves_walked(enumerate_reduced(cv, REDUCED_MAX)) == ({(0, 8): 4096, (8, 15): 4096}, 131040)


def test_a_full_memo_walks_new_tails_in_place():
    # at bound 8 a rank-4 tail has up to 1,080 rows, so the memo takes 3 tails;
    # once it is full each new tail is walked in place, its leaves span-tested
    # only below a head whose own labels do not span
    cv = representative(LoopClassId(4, 1))
    stream = enumerate_reduced(cv, 8)
    prefix = [(rep.counts, rep.degree) for rep in islice(stream, 20_000)]
    state = stream.gi_frame.f_locals
    assert state["tails"] == len(state["memo"]) == 3
    assert prefix == list(islice(spanning_leaves(4, reference_walk(cv, 8)), 20_000))
    # leaves walked beyond the recorded rows were walked in place
    walked, read = _leaves_walked(islice(enumerate_reduced(cv, 8), 20_000))
    assert read == 20_000 and walked[8, 15] > sum(map(len, state["memo"].values()))


def _read(walk, cv: CharVector, bound: int, lower) -> list:
    """The first 20,000 leaves a consumer reads from ``walk`` when, after its
    i-th leaf, it sets the limit to ``lower(i, degree, limit)``."""
    limit, seen = [bound * ((1 << cv.rank) - 1)], []
    for leaf in islice(walk(cv, bound, limit), 20_000):
        seen.append(leaf)
        limit[0] = lower(len(seen), leaf[1], limit[0])
    return seen


# (leaf index, limit): lowering the limit there cuts the tail below one head but
# not the same tail below a later, lighter head (found by scanning the reference
# walk, when the walk recorded tails under a live limit); a passed limit walks
# every leaf, so these stay as equality cases for the lowered limit
CUT_WHILE_RECORDED = {"C4_3": (193, 57), "C4_7": (225, 65), "C4_9": (1377, 65), "C4_16": (225, 65)}


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=str)
def test_walk_under_a_lowered_limit_equals_the_reference_walk(loop):
    cv = representative(loop)
    cases = [(bound, lambda i, degree, limit: degree) for bound in (3, 7, 15, 63)]  # branch and bound
    # to its degree at the 5,000th leaf, midway through a tail: each later leaf meets the new limit
    cases.append((REDUCED_MAX, lambda i, degree, limit: degree if i == 5000 else limit))
    if str(loop) in CUT_WHILE_RECORDED:
        at, cut = CUT_WHILE_RECORDED[str(loop)]
        cases.append((REDUCED_MAX, lambda i, degree, limit: cut if i == at else limit))
    for bound, lower in cases:
        assert _read(_walk_class_sizes, cv, bound, lower) == _read(reference_walk, cv, bound, lower)


def _leaf_by_transform(cv: CharVector, counts: tuple[int, ...]) -> str:
    """Reference for one walk leaf: skipped unless its nonzero counts span,
    then kept iff the superset sums of its counts carry the vector."""
    n = cv.rank
    if gf2_rank([sigma_mask(s) for s, c in zip(class_order(n), counts) if c]) != n:
        return "skipped"
    return "kept" if char_vector_of_meets(meets_of_counts(n, counts)) == cv else "rejected"


def test_large_bound_stream_is_checked_leaf_by_leaf():
    # degrees up to 105 at bound 15: a digit narrower than the walk's width
    # would carry into its neighbour; ``walked_counts`` checks every leaf's
    # degree and vector by the transform
    cv = representative(LoopClassId(3, 1))
    leaves = list(walked_counts(cv, 15))
    assert len(leaves) == 4096
    kept = {rep.counts for rep in enumerate_reduced(cv, 15)}
    for counts in leaves:
        assert (counts in kept) == (_leaf_by_transform(cv, counts) == "kept")


def _stream_digest(loop: LoopClassId, bound: int) -> tuple[int, str]:
    """Leaf count and SHA-256 prefix over (counts, degree, type) of the stream."""
    digest, count = hashlib.sha256(), 0
    for rep in enumerate_reduced(representative(loop), bound):
        digest.update(repr((rep.counts, rep.degree, rep.type)).encode())
        count += 1
    return count, digest.hexdigest()[:16]


EMPTY = (0, "e3b0c44298fc1c14")
STREAM_DIGESTS = {  # at bounds 3 and 5
    "C3_1": ((2, "ee00fb3fb80a0968"), (17, "672d9af5fecbaf40")),
    "C3_2": ((2, "fdc7b0d5519da7d6"), (4, "65f27a1a2beff3c9")),
    "C3_3": (EMPTY, (16, "3ad64b9aa81edae6")),
    "C3_4": (EMPTY, (4, "2be1471c381fe131")),
    "C3_5": (EMPTY, (2, "0421f8397eba60ed")),
    "C4_1": ((62, "fcf7308f0b659836"), (5041, "0942c4fba30fa34b")),
    "C4_2": ((14, "31fd5b2ed092e0ff"), (1868, "2734f12b87d4feee")),
    "C4_3": (EMPTY, (4784, "b40d438edf97b85d")),
    "C4_4": ((16, "3bdf583c963f4964"), (1868, "f3a7631e7c7466ed")),
    "C4_5": (EMPTY, (1858, "4904bbecfdc8b027")),
    "C4_6": (EMPTY, (4800, "3acb29ade19a2f2b")),
    "C4_7": (EMPTY, (1860, "a1b55a524d7c7694")),
    "C4_8": ((4, "90e53e2c1ba70669"), (1512, "efc9651124765241")),
    "C4_9": ((4, "b0fe3b45a8fc4cbe"), (1512, "3046e63ca99128ef")),
    "C4_10": ((4, "1aed628c208318ca"), (1512, "502d0e99739ae6d6")),
    "C4_11": ((4, "db83e4bd17603443"), (1512, "f919dcbe4a4545d9")),
    "C4_12": (EMPTY, (1860, "0684c85b3a647053")),
    "C4_13": ((16, "46edf5c6112c99af"), (1872, "2cfb3e1952fac6b7")),
    "C4_14": ((16, "fe1f60e70d17e5d1"), (1872, "722c6bc19c703b4b")),
    "C4_15": ((16, "3a63e0db61bacaaa"), (1872, "349247a29e9ec779")),
    "C4_16": (EMPTY, (1860, "dc97127b236b0ca5")),
}


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=str)
def test_small_bound_streams_keep_their_digests(loop):
    assert (_stream_digest(loop, 3), _stream_digest(loop, 5)) == STREAM_DIGESTS[str(loop)]


@pytest.mark.parametrize(
    "loop, digest",
    [("C4_1", (131040, "482e36ba5e80d5a6")), ("C4_9", (131072, "b3cdac3eff6ba8bd"))],
)
def test_default_bound_streams_keep_their_digests(loop, digest):
    # C4_9 keeps all 2^17 leaves of the walk, C4_1 prunes 32 degenerate ones
    assert _stream_digest(LoopClassId.parse(loop), REDUCED_MAX) == digest


DEFAULT_BOUND_DIGESTS = {  # leaf count and SHA-256 prefix over (counts, degree)
    "C4_1": (131040, "678dc0aa02cd76e8"),
    "C4_2": (131040, "54a74c7243b93847"),
    "C4_3": (131040, "87cde472ace268be"),
    "C4_4": (131040, "e5588e04b77fe8d1"),
    "C4_5": (131040, "001587b3ab5e9e87"),
    "C4_6": (131072, "243c1fe4aa459931"),
    "C4_7": (131072, "8976a4e87ccb3855"),
    "C4_8": (131072, "675329130bd12585"),
    "C4_9": (131072, "6f28113fcc02f1d2"),
    "C4_10": (131072, "164cf00b28048818"),
    "C4_11": (131072, "dd529fa7e2aed28e"),
    "C4_12": (131072, "4163465989b6dc41"),
    "C4_13": (131072, "f5eb2bf1e6c74e69"),
    "C4_14": (131072, "b16e601033ab7fe5"),
    "C4_15": (131072, "e8327f080903e79e"),
    "C4_16": (131072, "a84ec711774e44ed"),
}


@pytest.mark.parametrize("loop", ALL_LOOPS[5:], ids=str)
def test_default_bound_stream_of_every_rank4_loop_keeps_its_digest(loop):
    digest, count = hashlib.sha256(), 0
    for rep in enumerate_reduced(representative(loop)):
        digest.update(repr((rep.counts, rep.degree)).encode())
        count += 1
    assert (count, digest.hexdigest()[:16]) == DEFAULT_BOUND_DIGESTS[str(loop)]


def _count_assemblies(monkeypatch) -> list[ReducedRepresentation]:
    calls: list[ReducedRepresentation] = []

    def counted(rep: ReducedRepresentation):
        calls.append(rep)
        return assemble_representation(rep)

    monkeypatch.setattr(search, "assemble_representation", counted)
    return calls


def test_stream_assembles_no_basis_unless_read(monkeypatch):
    calls = _count_assemblies(monkeypatch)
    reps = list(enumerate_reduced(representative(LoopClassId(4, 1)), max_class_size=5))
    assert len(reps) == 5041 and calls == []
    assert reps[0].basis is reps[0].basis
    assert calls == [reps[0]]
    # a leaf is a value of (counts, degree), with a slot of its own for the basis
    leaf = ReducedRepresentation(reps[0].counts, reps[0].degree)
    assert leaf == reps[0] and hash(leaf) == hash(reps[0]) and leaf != reps[1]
    assert leaf != ReducedRepresentation(leaf.counts, leaf.degree + 1)
    assert leaf.basis is leaf.basis and leaf.basis == reps[0].basis
    assert calls == [reps[0]] * 2


def test_stream_builds_no_type_unless_read(monkeypatch):
    # a leaf holds its counts and degree; its type and basis are derived
    # only when read, and read the same values as built directly
    calls = {"type_vector": 0}

    def counted(name, build):
        def wrapper(*args):
            calls[name] += 1
            return build(*args)

        return wrapper

    monkeypatch.setattr(search, "type_vector", counted("type_vector", type_vector))
    sample, count = [], 0
    for rep in enumerate_reduced(representative(LoopClassId(4, 1))):
        count += 1
        if count % 4099 == 1:
            sample.append(rep)
    assert count == 131040 and calls == {"type_vector": 0}
    for rep in sample:
        built = ReducedRepresentation(rep.counts, sum(rep.counts))
        assert rep.degree == sum(rep.counts) and rep.rank == 4
        assert rep == built
        assert rep.type == type_vector(rep.counts)
        assert rep.basis == assemble_representation(built)


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=str)
def test_minimal_assembles_only_least_degree_leaves(monkeypatch, loop):
    calls = _count_assemblies(monkeypatch)
    report = minimal_representations(representative(loop))
    assert len(calls) >= len(report.representations)
    assert {sizes.degree for sizes in calls} == {report.degree}


def test_solve_round_trip_on_enumerated_representations():
    # solving the weight system of an emitted basis recovers its class sizes
    cv3 = representative(LoopClassId(3, 4))
    sample3 = list(enumerate_reduced(cv3))[::7]
    cv4 = representative(LoopClassId(4, 14))
    sample4 = [rep for rep in enumerate_reduced(cv4, max_class_size=3)][::11]
    for rep in sample3 + sample4:
        assert solve_system(meet_weights(rep.basis.masks)) == rep


def test_type_determines_loop_among_minimal():
    from loopforge.verify import minimal_report_for

    for indices, rank in (((1, 2, 3, 4, 5), 3), (tuple(range(1, 17)), 4)):
        seen: dict[tuple[int, ...], int] = {}
        for index in indices:
            report = minimal_report_for(f"C{rank}_{index}")
            for typ in report.types:
                assert typ not in seen, f"type {typ} shared by {seen[typ]} and {index}"
                seen[typ] = index


def test_max_class_size_override():
    cv = representative(LoopClassId(3, 1))
    tiny = list(enumerate_reduced(cv, max_class_size=1))
    assert len(tiny) == 1 and tiny[0].degree == 7
    report = minimal_representations(cv, max_class_size=1)
    assert report.degree == 7
    assert report.scope == "reduced(max_class_size=1)"
    bigger = list(enumerate_reduced(cv, max_class_size=9))
    assert len(bigger) > 32  # a looser bound really enlarges the family
    with pytest.raises(ValueError, match="max_class_size must be at least 1"):
        list(enumerate_reduced(cv, max_class_size=0))
    with pytest.raises(ValueError, match="max_class_size must be at least 1"):
        minimal_representations(cv, max_class_size=0)


@pytest.mark.parametrize("bound", [7.0, 7.5, "7", None], ids=repr)
def test_a_bound_that_is_not_an_int_is_refused_at_the_call(bound):
    # a float bound used to reach the walk's table build and end in AttributeError
    # ('float' object has no attribute 'bit_length'), a str or None in TypeError
    cv = representative(LoopClassId(4, 1))
    message = f"^max_class_size must be an int, got {type(bound).__name__}$"
    for run_search in (enumerate_reduced, minimal_representations):
        with pytest.raises(ValueError, match=message):
            run_search(cv, bound)


def _minimal_by_sorting(cv: CharVector, max_class_size: int) -> MinimalReport:
    """Exhaustive oracle: materialize the reference walk, which cuts on the
    degree alone, sort by (degree, counts), keep the least nondegenerate
    degree, deduplicate by code equivalence."""
    loop_id, _, _ = canonicalize(cv)
    leaves = sorted((degree, counts) for counts, degree, _ in reference_walk(cv, max_class_size))
    best: list[ReducedRepresentation] = []
    best_degree = None
    for degree, counts in leaves:
        if best_degree is not None and degree > best_degree:
            break
        rep = ReducedRepresentation(counts, degree)
        try:
            basis = rep.basis
        except DegenerateBasis:
            continue
        best_degree = degree
        assert rep.type == type_vector(class_partition(basis).sizes.values())
        best.append(rep)
    if best_degree is None:
        raise InfeasibleProfile("no nondegenerate reduced representation exists")
    unique: dict[tuple[int, ...], ReducedRepresentation] = {}
    for rep in best:
        unique.setdefault(canonical_code_signature(rep.basis), rep)
    ordered = sorted(
        unique.values(),
        key=lambda r: (r.type, tuple(g.positions for g in r.basis.generators)),
    )
    return MinimalReport(loop_id, best_degree, tuple(ordered), max_class_size)


def _report_or_error(search, cv: CharVector, bound: int):
    try:
        return search(cv, bound)
    except InfeasibleProfile as exc:
        return type(exc)


@pytest.mark.parametrize("loop", ALL_LOOPS, ids=str)
def test_branch_and_bound_matches_sorting_oracle(loop):
    # rank 4 at bound 3 is a small walk in which six loops have no valid
    # leaf; bound 4 is the least at which all sixteen have one; C4_4, C4_13
    # and C4_15 tie two or more least-degree leaves at bounds 3 to 5.  Bounds
    # 1 and 2 (rank 3 up to 9) give the narrowest digits, 4 to 7 bits
    cv = representative(loop)
    for bound in range(1, 10) if loop.rank == 3 else (1, 2, 3, 4, 5):
        assert _report_or_error(minimal_representations, cv, bound) == _report_or_error(
            _minimal_by_sorting, cv, bound
        )


def test_lone_minima_compute_no_code_signature(monkeypatch):
    # at the default bound every loop has exactly one least-degree leaf, which
    # is its own equivalence class
    calls = []
    monkeypatch.setattr(search, "canonical_code_signature", lambda basis: calls.append(basis))
    for loop in ALL_LOOPS:
        assert len(minimal_representations(representative(loop)).representations) == 1
    assert calls == []


MINIMAL_AT_63 = {  # degree and the counts of the one least-degree class
    "C3_1": (7, (1, 1, 1, 1, 1, 1, 1)),
    "C3_2": (13, (1, 3, 3, 1, 3, 1, 1)),
    "C3_3": (11, (5, 1, 1, 1, 1, 1, 1)),
    "C3_4": (17, (1, 7, 3, 1, 3, 1, 1)),
    "C3_5": (17, (1, 3, 3, 5, 3, 1, 1)),
    "C4_1": (8, (1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
    "C4_2": (14, (1, 0, 1, 1, 2, 2, 1, 0, 1, 2, 1, 0, 1, 0, 1)),
    "C4_3": (12, (1, 4, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)),
    "C4_4": (18, (1, 2, 1, 1, 2, 0, 1, 0, 1, 0, 1, 0, 1, 6, 1)),
    "C4_5": (18, (1, 0, 1, 1, 2, 0, 1, 2, 1, 0, 1, 2, 1, 4, 1)),
    "C4_6": (11, (0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 4)),
    "C4_7": (17, (0, 1, 0, 0, 3, 3, 0, 1, 0, 3, 0, 1, 0, 1, 4)),
    "C4_8": (17, (2, 1, 0, 0, 1, 1, 0, 3, 0, 1, 2, 1, 2, 1, 2)),
    "C4_9": (19, (0, 1, 0, 2, 3, 1, 0, 1, 2, 1, 2, 3, 0, 1, 2)),
    "C4_10": (19, (0, 1, 0, 0, 1, 1, 2, 3, 0, 3, 0, 3, 0, 3, 2)),
    "C4_11": (17, (0, 3, 0, 0, 1, 1, 2, 1, 0, 1, 0, 3, 0, 3, 2)),
    "C4_12": (17, (2, 1, 0, 0, 1, 1, 0, 3, 2, 1, 0, 1, 0, 1, 4)),
    "C4_13": (17, (0, 1, 0, 0, 1, 1, 2, 3, 0, 1, 0, 1, 0, 1, 6)),
    "C4_14": (13, (2, 1, 0, 0, 1, 1, 0, 3, 2, 1, 0, 1, 0, 1, 0)),
    "C4_15": (17, (2, 1, 0, 0, 1, 1, 0, 7, 2, 1, 0, 1, 0, 1, 0)),
    "C4_16": (17, (0, 1, 0, 0, 1, 1, 2, 3, 0, 5, 0, 1, 0, 1, 2)),
}


def test_minimal_at_bound_63_keeps_its_reports():
    # the first tail is recorded under a loose limit and dropped once the
    # first leaf tightens it; the search is otherwise the plain walk
    for loop in ALL_LOOPS:
        report = minimal_representations(representative(loop), 63)
        degree, counts = MINIMAL_AT_63[str(loop)]
        assert (report.loop, report.degree, report.max_class_size) == (loop, degree, 63)
        assert [rep.counts for rep in report.representations] == [counts]


def test_minimal_degree_unchanged_by_larger_bound():
    # raising every class bound from 7 to 15 finds no smaller representation,
    # so the reduced family loses nothing
    for loop in ALL_LOOPS:
        cv = representative(loop)
        assert minimal_representations(cv, 15).degree == minimal_representations(cv).degree
