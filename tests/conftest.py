"""Shared helpers: random code generators and tiny GF(2) utilities."""

from __future__ import annotations

import random

import pytest

from loopforge.charvec import CharVector, GLMatrix
from loopforge.gf2 import CodeBasis, Codeword, class_order, gf2_rank, sigma_mask, superset_sums
from loopforge.search import _digit_width, _walk_class_sizes


def random_doubly_even_basis(rng: random.Random, rank: int, length: int) -> CodeBasis:
    """Rejection-sample a doubly even basis: weights divisible by 4 and even
    pairwise meets force the whole span doubly even.

    Needs headroom (length >= ~3 + 2*rank) or sampling cannot succeed.
    """
    for _ in range(200):
        gens: list[int] = []
        for _ in range(4000):
            if len(gens) == rank:
                break
            bits = rng.getrandbits(length)
            if bits == 0 or bits.bit_count() % 4:
                continue
            if any((bits & g).bit_count() % 2 for g in gens):
                continue
            if gf2_rank(tuple(gens) + (bits,)) != len(gens) + 1:
                continue
            gens.append(bits)
        if len(gens) == rank:
            return CodeBasis(length, tuple(Codeword(length, b) for b in gens))
    raise RuntimeError(f"no doubly even basis of rank {rank} found at length {length}")


def random_covering_basis(rng: random.Random, rank: int, length: int) -> CodeBasis:
    """Random independent generators whose union is all of I_m."""
    full = (1 << length) - 1
    while True:
        gens = []
        for _ in range(200):
            if len(gens) == rank:
                break
            bits = rng.getrandbits(length)
            if bits == 0:
                continue
            if gf2_rank(tuple(gens) + (bits,)) != len(gens) + 1:
                continue
            gens.append(bits)
        if len(gens) == rank:
            union = 0
            for g in gens:
                union |= g
            if union == full:
                return CodeBasis(length, tuple(Codeword(length, b) for b in gens))


def random_gl(rng: random.Random, n: int) -> GLMatrix:
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if gf2_rank(rows) == n:
            return GLMatrix(n, rows)


def transform_basis(basis: CodeBasis, g: GLMatrix) -> CodeBasis:
    """New generators w_i = xor of the v_j selected by row i of g."""
    masks = basis.masks
    new = []
    for row in g.rows:
        bits = 0
        for j in range(basis.rank):
            if row >> j & 1:
                bits ^= masks[j]
        new.append(Codeword(basis.length, bits))
    return CodeBasis(basis.length, tuple(new))


def meets_of_counts(rank: int, counts: tuple[int, ...]) -> list[int]:
    """Meet weights t_m by coefficient mask of class sizes in class_order
    (entry 0: the degree); missing cells count 0, extra ones are ignored."""
    sizes = [0] * (1 << rank)
    for sigma, count in zip(class_order(rank), counts):
        sizes[sigma_mask(sigma)] = count
    return superset_sums(sizes)


def pack_counts(rank: int, bound: int, counts: tuple[int, ...]) -> int:
    """What the walk packs for ``counts``: digit m is t_m, digit 0 the degree,
    each digit reduced mod its width so that none borrows or carries.  A tuple
    of another length has no such digits: -1 matches no vector, so the
    search's transform decides it."""
    if len(counts) != (1 << rank) - 1:
        return -1
    width = _digit_width(bound, len(counts))
    return sum(t % (1 << width) << width * m for m, t in enumerate(meets_of_counts(rank, counts)))


def walked_counts(cv: CharVector, bound: int, limit: list[int] | None = None):
    """The counts of the real walk (bound at import, so a test's seam does not
    reach it), each checked against its packed meet weights: digit m is the
    superset sum t_m of the counts."""
    width = _digit_width(bound, (1 << cv.rank) - 1)
    for counts, packed in _walk_class_sizes(cv, bound, limit):
        meets = meets_of_counts(cv.rank, counts)
        assert [packed >> width * m & (1 << width) - 1 for m in range(len(meets))] == meets
        assert packed >> width * len(meets) == 0
        yield counts


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DE)
