"""Seeded inputs for the benchmark workloads.

Every valid input is built from a catalog entry's corrected ``basis()`` (never
``published_basis()``): a random GL(n,2) change of generators, a random
position permutation and, for some code files, unused padding positions.
Characteristic vectors are read off the transformed basis by this module's
own meet-weight arithmetic, so the expected loop of every input is known by
construction.  Choosing the loop with probability proportional to its orbit
size and the change of generators uniformly from GL(n,2) draws the vector
uniformly from all nonassociative vectors of that rank.
"""

from __future__ import annotations

import random
from itertools import combinations

from loopforge.catalog import ENTRIES

# Paper data: orbit representatives (shorthand) and orbit sizes, in class order.
REPRESENTATIVES = {
    3: ("111111", "000000", "000111", "110000", "100000"),
    4: (
        "1110110100", "0000000000", "0000110100", "0010100000",
        "0000010100", "1111110100", "0001000000", "0000001000",
        "0100001000", "0001111000", "0001001000", "0000001100",
        "0110111100", "0001001100", "1001001100", "0001111100",
    ),
}
ORBIT_SIZES = {
    3: (1, 7, 7, 21, 28),
    4: (15, 105, 105, 315, 420, 120, 840, 840, 2520, 1680, 1680, 2520, 840, 420, 420, 2520),
}
NONASSOCIATIVE = {3: 64, 4: 15360}
# Ambient padding added to padded code files: large enough that the
# per-position loops in gf2/loops/render are clearly visible, small enough
# that a padded command still finishes in about a second.
PAD_RANGE = (10000, 12000)


def loop_ids(rank: int) -> list[str]:
    return [f"C{rank}_{i}" for i in range(1, len(ORBIT_SIZES[rank]) + 1)]


def gf2_rank(rows) -> int:
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(pivots)


def random_gl(rng: random.Random, n: int) -> tuple[int, ...]:
    """Uniform invertible n x n matrix over GF(2), as row masks."""
    while True:
        rows = tuple(rng.randrange(1, 1 << n) for _ in range(n))
        if gf2_rank(rows) == n:
            return rows


def char_bits(masks) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(sigma, beta, alpha) of a doubly even basis given as int masks."""
    n = len(masks)
    sigma = tuple((m.bit_count() // 4) % 2 for m in masks)
    beta = tuple(
        ((masks[i] & masks[j]).bit_count() // 2) % 2 for i, j in combinations(range(n), 2)
    )
    alpha = tuple(
        (masks[i] & masks[j] & masks[k]).bit_count() % 2
        for i, j, k in combinations(range(n), 3)
    )
    return sigma, beta, alpha


def is_normalized(alpha: tuple[int, ...]) -> bool:
    return alpha == (1,) or alpha == (1, 0, 0, 0)


def lambda_text(parts, shorthand: bool) -> str:
    """Shorthand when asked for and allowed, else the ``full:`` form."""
    sigma, beta, alpha = parts
    if shorthand and is_normalized(alpha):
        return "".join(map(str, sigma + beta))
    return "full:" + "".join(map(str, sigma + beta + alpha))


def choose_loop(rng: random.Random, rank: int) -> str:
    return rng.choices(loop_ids(rank), weights=ORBIT_SIZES[rank])[0]


def transformed_masks(rng: random.Random, loop: str) -> tuple[int, list[int]]:
    """Catalog basis of ``loop`` under a random change of generators."""
    basis = ENTRIES[loop].basis()
    masks = basis.masks
    rows = random_gl(rng, basis.rank)
    new = []
    for row in rows:
        acc = 0
        for j, m in enumerate(masks):
            if row >> j & 1:
                acc ^= m
        new.append(acc)
    return basis.length, new


def vector_input(rng: random.Random, rank: int, loop: str | None = None) -> dict:
    """A characteristic vector of ``loop`` (drawn by orbit size if None)."""
    loop = loop or choose_loop(rng, rank)
    _, masks = transformed_masks(rng, loop)
    parts = char_bits(masks)
    text = lambda_text(parts, shorthand=rng.random() < 0.5)
    return {"loop": loop, "parts": parts, "text": text}


def code_input(rng: random.Random, loop: str, pad: int = 0) -> dict:
    """Code file text for ``loop``: changed generators, permuted and padded positions."""
    m, masks = transformed_masks(rng, loop)
    length = m + pad
    image = rng.sample(range(length), m)
    moved = []
    for mask in masks:
        out = 0
        for p in range(m):
            if mask >> p & 1:
                out |= 1 << image[p]
        moved.append(out)
    return {
        "loop": loop,
        "length": length,
        "degree": m,
        "parts": char_bits(moved),
        "text": code_text(length, moved, bitstrings=rng.random() < 0.3),
    }


def code_text(length: int, masks, bitstrings: bool = False) -> str:
    lines = [f"m={length} n={len(masks)}"]
    for mask in masks:
        if bitstrings:
            lines.append("b:" + "".join("1" if mask >> p & 1 else "0" for p in range(length)))
        else:
            lines.append(",".join(str(p + 1) for p in range(length) if mask >> p & 1))
    return "\n".join(lines) + "\n"


def pad_size(rng: random.Random) -> int:
    return rng.randrange(*PAD_RANGE)


# -- malformed and out-of-domain inputs -------------------------------------
# Code-file errors return (files, allowed exit codes); the others return the
# value of a CLI option.  A rank-1 code is a domain error, so exit 1 or 2.


def bad_rank1_code(rng: random.Random):
    length = rng.randrange(8, 40)
    mask = 0
    for p in rng.sample(range(length), 4 * rng.randrange(1, 3)):
        mask |= 1 << p
    return {"code": code_text(length, [mask])}, (1, 2)


def bad_not_doubly_even(rng: random.Random):
    rank = rng.choice((3, 4))
    m, masks = transformed_masks(rng, choose_loop(rng, rank))
    i = rng.randrange(rank)
    masks[i] ^= 1 << rng.randrange(m)
    return {"code": code_text(m, masks)}, (2,)


def bad_header(rng: random.Random):
    head = rng.choice(("m=x n=3", "n=3", "m=8 n=3 extra", "m=8,n=3"))
    return {"code": head + "\n1,2,3,4\n1,2,5,6\n1,3,5,7\n"}, (1,)


def bad_associative(rng: random.Random):
    rank = rng.choice((3, 4))
    nbits = {3: 6, 4: 10}[rank]
    bits = "".join(rng.choice("01") for _ in range(nbits))
    return "full:" + bits + "0" * {3: 1, 4: 4}[rank]


def bad_loop_id(rng: random.Random) -> str:
    return rng.choice(("C4_17", "C3_6", "C4_0", "C3_0", "C4_99"))
