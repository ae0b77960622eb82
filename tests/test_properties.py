"""Cross-layer properties on generated doubly even codes of rank 2-4.

Each code is drawn as a count of positions per nonzero generator-membership
label, then given a random GL(n,2) change of generators, a position
permutation and uncovered padding.  The loop and its classification must not
see any of the three.  Draws are derandomized, so tier-1 stays reproducible.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from loopforge.charvec import char_vector_of, gl_group, gl_transform, loop_class
from loopforge.gf2 import CodeBasis, Codeword, canonical_code_signature
from loopforge.loops import build_factor_set, build_loop, is_moufang

from conftest import transform_basis

DERANDOMIZED = settings(derandomize=True, deadline=None)
GL = {n: gl_group(n) for n in (2, 3, 4)}


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
def changed_codes(draw):
    """(basis, g, changed): ``changed`` is ``basis`` with generators changed by
    g, its positions permuted, and padded with uncovered positions."""
    rank = draw(st.sampled_from((4, 3, 2)))  # draws lean to the first: rank 4
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
    assert build_factor_set(changed).axiom_violations() == []
    assert is_moufang(build_loop(changed))


@settings(DERANDOMIZED, max_examples=100)
@given(changed_codes())
def test_loop_is_associative_iff_its_vector_has_no_associator(case):
    _, _, changed = case
    assert build_loop(changed).is_associative() == (not char_vector_of(changed).nonassociative)
