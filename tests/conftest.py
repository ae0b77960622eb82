"""Shared helpers: random code generators and tiny GF(2) utilities."""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import combinations, compress, product
from math import comb
from operator import and_, xor

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


def shorthand_alpha(n: int) -> tuple[int, ...]:
    """The alpha part the shorthand omits: lambda_123 = 1, every other zero."""
    return (1,) + (0,) * (comb(n, 3) - 1)


def enumerate_nonassociative(n: int):
    """Every rank-n characteristic vector with a nonzero alpha part, sigma
    then beta then alpha, each ascending as a bitstring."""
    for sigma, beta, alpha in product(*(product((0, 1), repeat=comb(n, size)) for size in (1, 2, 3))):
        if any(alpha):
            yield CharVector(n, sigma, beta, alpha)


@lru_cache(maxsize=None)
def _sigma_table(cv: CharVector) -> tuple[int, ...]:
    """Entry x: the xor of the coordinates lambda_s over the nonempty s within x, |s| <= 3."""
    masks = [sum(1 << i for i in s) for size in (1, 2, 3) for s in combinations(range(cv.rank), size)]
    terms = [s for s, bit in zip(masks, cv.bits()) if bit == "1"]
    return tuple(sum(s & x == s for s in terms) % 2 for x in range(1 << cv.rank))


def eval_sigma(cv: CharVector, x: int) -> int:
    """Square form sigma(x) = |u_x|/4 mod 2, by inclusion-exclusion over the coordinates."""
    return _sigma_table(cv)[x]


def eval_beta(cv: CharVector, x: int, y: int) -> int:
    """Commutator form: beta(x, y) = sigma(x+y) + sigma(x) + sigma(y)."""
    return eval_sigma(cv, x ^ y) ^ eval_sigma(cv, x) ^ eval_sigma(cv, y)


def eval_alpha(cv: CharVector, x: int, y: int, z: int) -> int:
    """Associator form: alpha(x, y, z) = beta(x+y, z) + beta(x, z) + beta(y, z)."""
    return eval_beta(cv, x ^ y, z) ^ eval_beta(cv, x, z) ^ eval_beta(cv, y, z)


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


def span(basis: CodeBasis) -> tuple[Codeword, ...]:
    """All 2^n codewords of the span by definition, indexed by coefficient mask
    (bit i-1 = v_i): entry x is the xor of the generators that x picks.  The
    library reads the weights it needs off the meets (``gf2.is_doubly_even``)."""
    picks = [[x >> i & 1 for i in range(basis.rank)] for x in range(1 << basis.rank)]
    return tuple(Codeword(basis.length, reduce(xor, compress(basis.masks, pick), 0)) for pick in picks)


def blocks_as_sets(partition) -> frozenset[frozenset[int]]:
    """The unlabeled partition of I_m, which no basis change moves: the
    positions of each nonempty block."""
    return frozenset(frozenset(block.positions) for _, block in partition.nonempty())


def meet_weight(masks) -> int:
    """|v_1 & ... & v_k| of the given codeword masks, by definition."""
    return reduce(and_, masks).bit_count()


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


def row_action(g: GLMatrix, x: int) -> int:
    """x @ g by the definition: the xor of the rows of g that x selects."""
    out = 0
    for i, row in enumerate(g.rows):
        if x >> i & 1:
            out ^= row
    return out


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
    ``search._walk_class_sizes``: the same raw ``(counts, degree, labels)`` in the
    same order under the same ``limit``, degenerate leaves included.  Digit m of
    the packed int holds t_m, digit 0 the degree; labels has bit m set iff the
    cell of mask m is nonempty."""
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


def spanning_leaves(rank: int, leaves):
    """The ``(counts, degree)`` of the raw ``leaves`` whose labels span
    GF(2)^rank, each leaf tested on its own (one rank per label set).  Over
    ``reference_walk`` this is the reference for ``search.enumerate_reduced``,
    which replays each tail it walked alone, builds its leaves in the walk and
    tests no row below a head that spans."""
    spans: dict[int, bool] = {}
    for counts, degree, labels in leaves:
        if labels not in spans:
            spans[labels] = gf2_rank([m for m in range(labels.bit_length()) if labels >> m & 1]) == rank
        if spans[labels]:
            yield counts, degree


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


def associative_by_definition(loop) -> bool:
    """(x y) z = x (y z) cell by cell, over all order^3 triples.  ``loop`` reads
    associativity off the characteristic vector (alpha = 0) instead."""
    t, ids = loop.table, loop.elements()
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in ids for y in ids for z in ids)


def moufang_by_definition(loop) -> bool:
    """The Moufang identity ((x y) x) z = x (y (x z)) cell by cell, the reference
    for ``is_moufang``, which compares whole rows."""
    t, ids = loop.table, loop.elements()
    return all(t[t[t[x][y]][x]][z] == t[x][t[y][t[x][z]]] for x in ids for y in ids for z in ids)


def axiom_violations_by_definition(fs) -> list[str]:
    """The four factor-set axioms checked one cell at a time, the reference for
    ``verify.check_loop_laws``, which reads them as the square, commutator and
    associator sign laws of the loop table built from ``fs``."""
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
