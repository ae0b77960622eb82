"""Shared helpers: random code generators and tiny GF(2) utilities."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from loopforge.charvec import CharVector, GLMatrix, coordinates_by_mask
from loopforge.errors import NotDoublyEven, UnsupportedRank
from loopforge.gf2 import CodeBasis, Codeword, class_order, gf2_rank, sigma_mask, superset_sums
from loopforge.search import _walk_class_sizes


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


def char_vector_of_meets(meets) -> CharVector:
    """The characteristic vector from the full meet-weight table, indexed by
    coefficient mask as ``gf2.meet_weights`` gives it, by the rule itself:
    lambda_i = (t_i/4) mod 2, lambda_ij = (t_ij/2) mod 2 and lambda_ijk = t_ijk
    mod 2, and a set bit of t_s below bit 3 - |s| means the code is not doubly even."""
    n = len(meets).bit_length() - 1
    parts = [[meets[sum(1 << i for i in s)] for s in combinations(range(n), size)] for size in (1, 2, 3)]
    if any(t % 4 for t in parts[0]) or any(t % 2 for t in parts[1]):
        raise NotDoublyEven("characteristic vectors require a doubly even code")
    if n < 2:
        raise UnsupportedRank(f"characteristic vectors need rank at least 2, got {n}")
    return CharVector(n, *(tuple(t >> low & 1 for t in part) for part, low in zip(parts, (2, 1, 0))))


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


def reference_walk(cv: CharVector, max_size: int, limit: list[int] | None = None):
    """The packed depth-first walk one leaf at a time, the reference for
    ``search._walk_class_sizes``, which replays each tail subtree it has
    recorded: the same ``(counts, degree, labels)`` in the same order under
    the same ``limit``, with no memo.  Digit m of the packed int holds t_m,
    digit 0 the degree; labels has bit m set iff the cell of mask m is nonempty."""
    masks = [sigma_mask(sigma) for sigma in class_order(cv.rank)]
    last = len(masks) - 1
    if limit is None:
        limit = [max_size * len(masks)]
    width = (max_size * len(masks)).bit_length() + 1
    digit = (1 << width) - 1
    spread = [sum(1 << width * m for m in range(s + 1) if m & s == m) for s in masks]
    shift = [width * m for m in masks]
    lam = coordinates_by_mask(cv)
    target = [lam[m] * 8 >> m.bit_count() for m in masks]
    modulus = [16 >> m.bit_count() for m in masks]
    values = [target[0] % modulus[0]] + [0] * last
    acc = [0] * len(masks)
    pos = 0
    while pos >= 0:
        value = values[pos]
        if pos == last:
            head, partial = tuple(values[:last]), acc[last] & digit
            while value <= max_size and value <= limit[0] - partial:
                counts = head + (value,)
                yield counts, partial + value, sum(1 << m for m, c in zip(masks, counts) if c)
                value += modulus[last]
        elif value <= max_size and value <= limit[0] - (acc[pos] & digit):
            acc[pos + 1] = packed = acc[pos] + value * spread[pos]
            pos += 1
            values[pos] = (target[pos] - (packed >> shift[pos])) % modulus[pos]
            continue
        pos -= 1
        values[pos] += modulus[pos]


def walked_counts(cv: CharVector, bound: int, limit: list[int] | None = None):
    """The counts of the real walk (bound at import, so a test's seam does not
    reach it), each checked: the degree the walk yields is the sum of the
    counts, its labels are the masks of the nonempty cells, and the superset
    sums of the counts carry the vector ``cv``.  The library keeps no such
    check; every test that walks reads it here."""
    masks = [sigma_mask(sigma) for sigma in class_order(cv.rank)]
    for counts, degree, labels in _walk_class_sizes(cv, bound, limit):
        assert degree == sum(counts)
        assert labels == sum(1 << m for m, c in zip(masks, counts) if c)
        assert char_vector_of_meets(meets_of_counts(cv.rank, counts)) == cv
        yield counts


def center_by_definition(loop) -> tuple[int, ...]:
    """The center as defined, the reference for ``CodeLoop.center``: the x that
    commute with every y and lie in the left, middle and right nuclei.  The
    library keeps the commutant only, which is the center of a code loop."""
    t, ids = loop.table, loop.elements()
    return tuple(
        x
        for x in ids
        if all(t[x][y] == t[y][x] for y in ids)
        and all(
            t[t[x][y]][z] == t[x][t[y][z]]  # left nucleus
            and t[t[y][x]][z] == t[y][t[x][z]]  # middle nucleus
            and t[t[y][z]][x] == t[y][t[z][x]]  # right nucleus
            for y in ids
            for z in ids
        )
    )


def moufang_by_definition(loop) -> bool:
    """The Moufang identity ((x y) x) z = x (y (x z)) cell by cell, the reference
    for ``is_moufang``, which compares whole rows."""
    t, ids = loop.table, loop.elements()
    return all(t[t[t[x][y]][x]][z] == t[x][t[y][t[x][z]]] for x in ids for y in ids for z in ids)


def axiom_violations_by_definition(fs) -> list[str]:
    """The four factor-set axioms checked one cell at a time, the reference for
    ``FactorSet.axiom_violations``, which compares a whole row of the cocycle
    axiom per (v, w) and scans cells only in a row that fails."""
    cw = fs.codewords
    phi = fs.signs
    size = len(cw)
    bad: list[str] = []
    for v in range(size):
        if phi[v][v] != (-1 if (cw[v].bit_count() // 4) % 2 else 1):
            bad.append(f"square sign wrong at v={v}")
        if phi[0][v] != 1 or phi[v][0] != 1:
            bad.append(f"identity row/column wrong at v={v}")
        for w in range(size):
            twist = -1 if ((cw[v] & cw[w]).bit_count() // 2) % 2 else 1
            if phi[v][w] != twist * phi[w][v]:
                bad.append(f"symmetry twist wrong at ({v},{w})")
            for u in range(size):
                sign = -1 if (cw[v] & cw[w] & cw[u]).bit_count() % 2 else 1
                if phi[v ^ w][u] != phi[v][w ^ u] * phi[v][w] * phi[w][u] * sign:
                    bad.append(f"cocycle axiom fails at ({v},{w},{u})")
    return bad


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0DE)
