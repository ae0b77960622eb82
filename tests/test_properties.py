"""Cross-layer properties on generated doubly even codes of rank 2-4.

Each code is drawn as a count of positions per nonzero generator-membership
label, then given a random GL(n,2) change of generators, a position
permutation and uncovered padding.  The loop and its classification must not
see any of the three.  Draws are derandomized, so tier-1 stays reproducible.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopforge.charvec import char_vector_of, gl_group, gl_transform, loop_class, normalize_rank4
from loopforge.cli import main
from loopforge.fileio import format_code
from loopforge.gf2 import (
    CodeBasis,
    Codeword,
    canonical_code_signature,
    class_partition,
    label_counts,
    meet_weights,
    sigma_mask,
)
from loopforge.loops import build_factor_set, build_loop, is_moufang
from loopforge.search import REDUCED_MAX, ReducedRepresentation, _walk_class_sizes
from loopforge.search import minimal_representations, solve_system

from conftest import axiom_violations_by_definition, center_by_definition, transform_basis

DERANDOMIZED = settings(derandomize=True, deadline=None)
GL = {n: gl_group(n) for n in (1, 2, 3, 4)}


def _doubly_even_basis(rank: int, counts: tuple[int, ...]) -> CodeBasis:
    """Positions laid out label by label (labels 1 .. 2^rank - 1, counts[label - 1]
    positions each), after the counts are raised until every pairwise meet is even
    and every generator weight divisible by 4.  Raising a pair label's count moves
    no other pair's meet, and raising a singleton's moves only that generator's
    weight.  Every singleton count must be nonzero: a position of its own for each
    generator makes the generators independent."""
    counts = list(counts)
    for i in range(rank):
        for j in range(i + 1, rank):
            pair = 1 << i | 1 << j
            counts[pair - 1] += sum(c for t, c in enumerate(counts, 1) if t & pair == pair) % 2
    for i in range(rank):
        weight = sum(c for t, c in enumerate(counts, 1) if t >> i & 1)
        counts[(1 << i) - 1] += -weight % 4
    masks = [0] * rank
    start = 0
    for label, count in enumerate(counts, 1):
        block = (1 << count) - 1 << start
        start += count
        for i in range(rank):
            if label >> i & 1:
                masks[i] |= block
    return CodeBasis(start, tuple(Codeword(start, m) for m in masks))


@st.composite
def changed_codes(draw, ranks=(4, 3, 2)):
    """(basis, g, changed): ``changed`` is ``basis`` with generators changed by
    g, its positions permuted, and padded with uncovered positions."""
    rank = draw(st.sampled_from(ranks))  # draws lean to the first
    labels = range(1, 1 << rank)
    counts = draw(st.tuples(*(st.integers(1 if t & (t - 1) == 0 else 0, 5) for t in labels)))
    basis = _doubly_even_basis(rank, counts)
    g = draw(st.sampled_from(GL[rank]))
    length = basis.length + draw(st.integers(0, 12))
    perm = draw(st.permutations(range(length)))
    moved = [sum(1 << perm[p] for p in range(length) if m >> p & 1) for m in basis.masks]
    moved = CodeBasis(length, tuple(Codeword(length, m) for m in moved))
    return basis, g, transform_basis(moved, g)


@settings(DERANDOMIZED, max_examples=100)
@given(changed_codes())
def test_char_vector_follows_the_change_of_generators(case):
    basis, g, changed = case
    cv = char_vector_of(basis)
    assert char_vector_of(changed) == gl_transform(cv, g)
    if basis.rank >= 3 and cv.nonassociative:
        assert loop_class(char_vector_of(changed)) == loop_class(cv)


@settings(DERANDOMIZED, max_examples=20)
@given(changed_codes())
def test_code_signature_ignores_generators_positions_and_padding(case):
    basis, _, changed = case
    assert canonical_code_signature(changed) == canonical_code_signature(basis)


@settings(DERANDOMIZED, max_examples=50)
@given(changed_codes())
def test_factor_set_axioms_and_moufang_hold(case):
    _, _, changed = case
    assert axiom_violations_by_definition(build_factor_set(changed)) == []
    assert is_moufang(build_loop(changed))


@settings(DERANDOMIZED, max_examples=50)
@given(changed_codes(ranks=(4, 3, 2, 1)))
def test_center_matches_its_definition(case):
    _, _, changed = case
    loop = build_loop(changed)
    assert loop.center() == center_by_definition(loop)


@settings(DERANDOMIZED, max_examples=100)
@given(changed_codes())
def test_loop_is_associative_iff_its_vector_has_no_associator(case):
    _, _, changed = case
    assert build_loop(changed).is_associative() == (not char_vector_of(changed).nonassociative)


@settings(DERANDOMIZED, max_examples=50)
@given(changed_codes())
def test_class_blocks_partition_the_support_by_label(case):
    basis, g, _ = case
    code = transform_basis(basis, g)  # covering, its labels no longer in layout order
    partition, counts = class_partition(code), label_counts(code)
    union = 0
    for sigma, block in partition.blocks:
        assert union & block.bits == 0
        union |= block.bits
        assert partition.block(sigma).weight == counts[sigma_mask(sigma) - 1]
    assert union == code.support.bits


@st.composite
def loop_leaves(draw):
    """(cv, rep): the normalized vector of a generated nonassociative rank-3 or
    rank-4 code, and the code's own class sizes in its normalized basis as a
    reduced representation."""
    basis, g, _ = draw(changed_codes())
    code = transform_basis(basis, g)
    cv = char_vector_of(code)
    assume(code.rank >= 3 and cv.nonassociative)
    if code.rank == 4:
        cv, h = normalize_rank4(cv)
        code = transform_basis(code, h)
    counts = solve_system(meet_weights(code.masks), max_size=code.length).counts
    assume(max(counts) <= REDUCED_MAX)
    return cv, ReducedRepresentation(counts, sum(counts))


@settings(DERANDOMIZED, max_examples=15)
@given(loop_leaves())
def test_walk_leaves_assemble_and_bound_the_minimum(case):
    cv, rep = case
    assert (rep.counts, rep.degree) in ((c, d) for c, d, _ in _walk_class_sizes(cv, max(rep.counts)))
    assert solve_system(meet_weights(rep.basis.masks)).counts == rep.counts
    assert minimal_representations(cv).degree <= rep.degree


@settings(DERANDOMIZED, max_examples=20)
@given(changed_codes())
def test_loop_names_the_class_that_classify_names(case):
    _, _, changed = case
    assume(changed.rank >= 3 and char_vector_of(changed).nonassociative)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "code.txt"), Path(tmp, "out.json")
        path.write_text(format_code(changed))
        names = []
        for command in ("loop", "classify"):
            assert main([command, "--code", str(path), "--format", "json", "--output", str(out)]) == 0
            names.append(json.loads(out.read_text())["loop"])
    assert names[0] == names[1]
