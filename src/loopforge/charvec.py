"""Characteristic vectors and their GL(n,2) orbit classification.

A characteristic vector packs, for a fixed ordered generating set, the signs
of all squares (sigma part), commutators (beta part) and associators (alpha
part).  For a doubly even code basis these are read off the meet weights:
lambda_i = (t_i/4) mod 2, lambda_ij = (t_ij/2) mod 2, lambda_ijk = t_ijk mod 2.

The three parts extend to arbitrary GF(2) coefficient vectors by
polarization, derived from |u+v| = |u| + |v| - 2|u & v|:

    sigma(x+y)   = sigma(x) + sigma(y) + beta(x, y)
    beta(x+y, z) = beta(x, z) + beta(y, z) + alpha(x, y, z)
    alpha        is trilinear and alternating.

Changing the generating set by an invertible matrix pulls the three forms
back along the row action, which is how the natural GL(n,2) action on
characteristic vectors is computed here.  Orbits are enumerated exhaustively
from a fixed list of class representatives; nonassociative loops of rank 3
and 4 fall into exactly 5 and 16 orbits respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator

from .errors import AssociativeLoop, NotDoublyEven, NotInvertible, UnexpectedRadical, UnsupportedRank
from .gf2 import CodeBasis, gf2_rank, is_doubly_even

# Orbit representatives of the classified ranks, in the published class
# order, as shorthand bitstrings (lambda_1..n, then lambda_ij in lexicographic
# order; the alpha part is fixed to (1, 0, ..., 0)).  This is the only per-rank
# table: lengths, the alpha convention and the orbit counts follow from n.
REPRESENTATIVES = {
    3: ("111111", "000000", "000111", "110000", "100000"),
    4: (
        "1110110100", "0000000000", "0000110100", "0010100000",
        "0000010100", "1111110100", "0001000000", "0000001000",
        "0100001000", "0001111000", "0001001000", "0000001100",
        "0110111100", "0001001100", "1001001100", "0001111100",
    ),
}


def orbit_representatives(n: int) -> tuple[str, ...]:
    """Shorthand orbit representatives of rank n; only classified ranks have them."""
    try:
        return REPRESENTATIVES[n]
    except KeyError:
        ranks = " or ".join(map(str, REPRESENTATIVES))
        raise UnsupportedRank(f"classified loops have rank {ranks}, got {n}") from None


def shorthand_alpha(n: int) -> tuple[int, ...]:
    """The alpha part the shorthand omits: lambda_123 = 1, every other zero."""
    return (1,) + (0,) * (comb(n, 3) - 1)


def nonassociative_count(n: int) -> int:
    """Number of rank-n characteristic vectors with a nonzero alpha part."""
    return 2 ** (n + comb(n, 2)) * (2 ** comb(n, 3) - 1)


def pair_index(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class LoopClassId:
    """Identifier of a classified nonassociative loop, e.g. C3_5 or C4_16."""

    rank: int
    index: int

    def __post_init__(self) -> None:
        limit = len(orbit_representatives(self.rank))
        if not 1 <= self.index <= limit:
            raise ValueError(f"index {self.index} outside 1..{limit} for rank {self.rank}")

    def __str__(self) -> str:
        return f"C{self.rank}_{self.index}"

    @classmethod
    def parse(cls, text: str) -> "LoopClassId":
        try:
            head, idx = text.strip().split("_")
            if head[0] not in "Cc":
                raise ValueError
            return cls(int(head[1:]), int(idx))
        except (ValueError, IndexError):
            raise ValueError(f"bad loop id {text!r}; expected e.g. C3_1 or C4_16") from None


@dataclass(frozen=True)
class CharVector:
    """Square, commutator and associator signs of an ordered generating set.

    Coordinates are bits in lexicographic order: sigma = (lambda_1..lambda_n),
    beta = (lambda_12, lambda_13, ..., lambda_(n-1)n), alpha = (lambda_123, ...).
    """

    rank: int
    sigma: tuple[int, ...]
    beta: tuple[int, ...]
    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.rank
        if n < 2:
            raise ValueError("rank must be at least 2")
        if len(self.sigma) != n or len(self.beta) != comb(n, 2):
            raise ValueError("wrong coordinate count")
        if len(self.alpha) != comb(n, 3):
            raise ValueError("wrong associator coordinate count")
        for part in (self.sigma, self.beta, self.alpha):
            if any(b not in (0, 1) for b in part):
                raise ValueError("coordinates must be bits")

    @property
    def nonassociative(self) -> bool:
        return any(self.alpha)

    @property
    def is_normalized(self) -> bool:
        """True when the rank is classified and alpha is ``shorthand_alpha``."""
        return self.rank in REPRESENTATIVES and self.alpha == shorthand_alpha(self.rank)

    def bits(self) -> str:
        return "".join(str(b) for b in self.sigma + self.beta + self.alpha)

    def shorthand(self) -> str:
        """Compact bitstring with the conventional alpha coordinates omitted."""
        if not self.is_normalized:
            raise ValueError("only normalized rank-3/4 vectors have a shorthand form")
        return "".join(str(b) for b in self.sigma + self.beta)

    @classmethod
    def from_shorthand(cls, rank: int, text: str) -> "CharVector":
        orbit_representatives(rank)  # shorthand exists for the classified ranks only
        want = rank + comb(rank, 2)
        if len(text) != want or set(text) - {"0", "1"}:
            raise ValueError(f"rank-{rank} shorthand needs {want} bits, got {text!r}")
        bits = tuple(int(c) for c in text)
        return cls(rank, bits[:rank], bits[rank:], shorthand_alpha(rank))

    @classmethod
    def from_bits(cls, rank: int, text: str) -> "CharVector":
        n = rank
        counts = (n, comb(n, 2), comb(n, 3))
        if len(text) != sum(counts) or set(text) - {"0", "1"}:
            raise ValueError(f"rank-{rank} full form needs {sum(counts)} bits, got {text!r}")
        bits = tuple(int(c) for c in text)
        return cls(rank, bits[: counts[0]], bits[counts[0] : counts[0] + counts[1]], bits[counts[0] + counts[1] :])


def char_vector_of(basis: CodeBasis) -> CharVector:
    """Characteristic vector of a doubly even code basis, from meet weights."""
    if not is_doubly_even(basis):
        raise NotDoublyEven("characteristic vectors require a doubly even code")
    n = basis.rank
    if n < 2:
        raise UnsupportedRank(f"characteristic vectors need rank at least 2, got {n}")
    masks = basis.masks

    def meet(*idx: int) -> int:
        bits = masks[idx[0]]
        for i in idx[1:]:
            bits &= masks[i]
        return bits.bit_count()

    sigma = [(meet(i) // 4) % 2 for i in range(n)]
    beta = [(meet(i, j) // 2) % 2 for i, j in combinations(range(n), 2)]
    alpha = [meet(i, j, k) % 2 for i, j, k in combinations(range(n), 3)]
    return CharVector(n, tuple(sigma), tuple(beta), tuple(alpha))


# ---------------------------------------------------------------------------
# Polarized evaluation at arbitrary coefficient vectors (int masks, bit i-1 = e_i)


def _mask_bits(x: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if x >> i & 1)


def _check_mask(x: int, n: int) -> None:
    if not 0 <= x < (1 << n):
        raise ValueError(f"coefficient mask {x} outside rank-{n} space")


@lru_cache(maxsize=256)
def _coordinate_maps(cv: CharVector):
    n = cv.rank
    bmap = dict(zip(combinations(range(n), 2), cv.beta))
    amap = dict(zip(combinations(range(n), 3), cv.alpha))
    return bmap, amap


def eval_alpha(cv: CharVector, x: int, y: int, z: int) -> int:
    """Trilinear alternating extension of the associator coordinates."""
    n = cv.rank
    for m in (x, y, z):
        _check_mask(m, n)
    _, amap = _coordinate_maps(cv)
    total = 0
    for i in _mask_bits(x, n):
        for j in _mask_bits(y, n):
            for k in _mask_bits(z, n):
                if i != j and j != k and i != k:
                    total ^= amap[tuple(sorted((i, j, k)))]
    return total


def eval_beta(cv: CharVector, x: int, y: int) -> int:
    """Commutator form; polarizes with alpha as its defect."""
    n = cv.rank
    _check_mask(x, n)
    _check_mask(y, n)
    bmap, amap = _coordinate_maps(cv)
    xs = _mask_bits(x, n)
    ys = _mask_bits(y, n)
    total = 0
    for i in xs:
        for j in ys:
            if i != j:
                total ^= bmap[tuple(sorted((i, j)))]
    for i, j in combinations(xs, 2):
        for k in ys:
            if k != i and k != j:
                total ^= amap[tuple(sorted((i, j, k)))]
    for i in xs:
        for j, k in combinations(ys, 2):
            if i != j and i != k:
                total ^= amap[tuple(sorted((i, j, k)))]
    return total


def eval_sigma(cv: CharVector, x: int) -> int:
    """Square form; polarizes with beta as its defect."""
    n = cv.rank
    _check_mask(x, n)
    bmap, amap = _coordinate_maps(cv)
    xs = _mask_bits(x, n)
    total = 0
    for i, s in enumerate(cv.sigma):
        if x >> i & 1:
            total ^= s
    for i, j in combinations(xs, 2):
        total ^= bmap[(i, j)]
    for i, j, k in combinations(xs, 3):
        total ^= amap[(i, j, k)]
    return total


# ---------------------------------------------------------------------------
# GL(n, 2)


@dataclass(frozen=True)
class GLMatrix:
    """Invertible matrix over GF(2); row i holds the coefficients of the i-th
    new basis vector, stored as an int mask."""

    rank: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.rank
        if len(self.rows) != n or any(not 0 <= r < (1 << n) for r in self.rows):
            raise ValueError("need n row masks of width n")
        if gf2_rank(self.rows) != n:
            raise NotInvertible(f"singular matrix {self.rows}")

    @classmethod
    def identity(cls, n: int) -> "GLMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    def apply(self, x: int) -> int:
        """Row-vector action x -> x @ M (xor of the rows selected by x)."""
        out = 0
        for i in range(self.rank):
            if x >> i & 1:
                out ^= self.rows[i]
        return out

    def __mul__(self, other: "GLMatrix") -> "GLMatrix":
        """Composition with row-vector convention: x @ (M * N) = (x @ M) @ N."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return GLMatrix(self.rank, tuple(other.apply(r) for r in self.rows))

    def inverse(self) -> "GLMatrix":
        n = self.rank
        aug = [self.rows[i] | (1 << (n + i)) for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if aug[r] >> col & 1)
            aug[col], aug[piv] = aug[piv], aug[col]
            for r in range(n):
                if r != col and aug[r] >> col & 1:
                    aug[r] ^= aug[col]
        mask = (1 << n) - 1
        return GLMatrix(n, tuple((row >> n) & mask for row in aug))

    def row_bitstrings(self) -> tuple[str, ...]:
        return tuple("".join(str(r >> j & 1) for j in range(self.rank)) for r in self.rows)


@lru_cache(maxsize=None)
def gl_group(n: int) -> tuple[GLMatrix, ...]:
    """All invertible n x n matrices over GF(2), in a fixed deterministic order."""
    if n > 4:
        raise UnsupportedRank("GL(n,2) enumeration is capped at n = 4")
    mats = []
    for bits in range(1 << (n * n)):
        rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
        if gf2_rank(rows) == n:
            mats.append(GLMatrix(n, rows))
    return tuple(mats)


def gl_transform(cv: CharVector, g: GLMatrix) -> CharVector:
    """Characteristic vector of the same loop w.r.t. the generating set g rows."""
    if g.rank != cv.rank:
        raise ValueError(f"rank mismatch: vector {cv.rank}, matrix {g.rank}")
    n = cv.rank
    rows = g.rows
    sigma = tuple(eval_sigma(cv, r) for r in rows)
    beta = tuple(eval_beta(cv, rows[i], rows[j]) for i, j in combinations(range(n), 2))
    alpha = tuple(
        eval_alpha(cv, rows[i], rows[j], rows[k]) for i, j, k in combinations(range(n), 3)
    )
    return CharVector(n, sigma, beta, alpha)


# ---------------------------------------------------------------------------
# Orbit enumeration and canonicalization


def enumerate_nonassociative(n: int) -> Iterator[CharVector]:
    """All characteristic vectors of nonassociative loops of a classified rank."""
    orbit_representatives(n)  # rejects unclassified ranks
    for sigma in product((0, 1), repeat=n):
        for beta in product((0, 1), repeat=comb(n, 2)):
            for alpha in product((0, 1), repeat=comb(n, 3)):
                if any(alpha):
                    yield CharVector(n, sigma, beta, alpha)


@lru_cache(maxsize=8)
def _form_tables(cv: CharVector):
    """Dense tables of the three polarized forms over all coefficient masks."""
    n = cv.rank
    size = 1 << n
    S = [eval_sigma(cv, x) for x in range(size)]
    B = [[eval_beta(cv, x, y) for y in range(size)] for x in range(size)]
    A = [[[eval_alpha(cv, x, y, z) for z in range(size)] for y in range(size)] for x in range(size)]
    return S, B, A


def representative(class_id: LoopClassId) -> CharVector:
    short = orbit_representatives(class_id.rank)[class_id.index - 1]
    return CharVector.from_shorthand(class_id.rank, short)


@lru_cache(maxsize=None)
def _orbit_table(n: int) -> dict[CharVector, tuple[int, GLMatrix]]:
    """Map every nonassociative vector to (class index, matrix sending the
    class representative to it).  Built by walking each representative's
    orbit over the whole of GL(n,2); first writer wins, so the witness choice
    is deterministic."""
    reps = orbit_representatives(n)
    group = gl_group(n)
    pair_idx = tuple((i, j) for i, j in combinations(range(n), 2))
    triple_idx = tuple((i, j, k) for i, j, k in combinations(range(n), 3))
    table: dict[CharVector, tuple[int, GLMatrix]] = {}
    for index, short in enumerate(reps, start=1):
        rep = CharVector.from_shorthand(n, short)
        S, B, A = _form_tables(rep)
        # identity first, so a representative's own witness is the identity
        for g in (GLMatrix.identity(n),) + group:
            rows = g.rows
            sigma = tuple(S[r] for r in rows)
            beta = tuple(B[rows[i]][rows[j]] for i, j in pair_idx)
            alpha = tuple(A[rows[i]][rows[j]][rows[k]] for i, j, k in triple_idx)
            cv = CharVector(n, sigma, beta, alpha)
            if cv not in table:
                table[cv] = (index, g)
    if len(table) != nonassociative_count(n):
        raise RuntimeError(f"rank-{n} orbits cover {len(table)} vectors, not all")
    return table


def orbit_sizes(n: int) -> dict[LoopClassId, int]:
    """Orbit cardinalities of the classified loops of rank n."""
    sizes: dict[LoopClassId, int] = {}
    for _, (index, _) in _orbit_table(n).items():
        cid = LoopClassId(n, index)
        sizes[cid] = sizes.get(cid, 0) + 1
    return dict(sorted(sizes.items(), key=lambda kv: kv[0].index))


def canonicalize(cv: CharVector) -> tuple[LoopClassId, CharVector, GLMatrix]:
    """Classify a nonassociative vector of a classified rank.

    Returns the class id, its fixed orbit representative, and a witness w
    with gl_transform(cv, w) equal to the representative.
    """
    orbit_representatives(cv.rank)  # rejects unclassified ranks
    if not cv.nonassociative:
        raise AssociativeLoop("associative vector: every associator sign is trivial")
    index, g = _orbit_table(cv.rank)[cv]
    witness = g.inverse()
    class_id = LoopClassId(cv.rank, index)
    rep = representative(class_id)
    if gl_transform(cv, witness) != rep:
        raise RuntimeError(f"witness of {class_id} does not reach its representative")
    return class_id, rep, witness


# ---------------------------------------------------------------------------
# Associator radical and rank-4 normalization


def alpha_radical(cv: CharVector) -> frozenset[int]:
    """{x : alpha(x, y, z) = 0 for all y, z}, as a set of coefficient masks."""
    n = cv.rank
    size = 1 << n
    _, _, A = _form_tables(cv)
    rad = [
        x
        for x in range(size)
        if all(A[x][y][z] == 0 for y in range(size) for z in range(size))
    ]
    return frozenset(rad)


def normalize_rank4(cv: CharVector) -> tuple[CharVector, GLMatrix]:
    """Change basis so the associator-radical generator comes last.

    The result carries alpha = (1,0,0,0), ready for the 10-coordinate
    shorthand; the returned matrix witnesses the change.
    """
    if cv.rank != 4:
        raise UnsupportedRank(f"normalization applies to rank 4, got {cv.rank}")
    if not cv.nonassociative:
        raise AssociativeLoop("associative vector has a full radical")
    rad = sorted(alpha_radical(cv) - {0})
    if len(rad) != 1:
        raise UnexpectedRadical(
            f"radical dimension is {gf2_rank(tuple(rad)) if rad else 0}, expected 1"
        )
    d = rad[0]
    rows: list[int] = []
    for cand in range(1, 16):
        if len(rows) == 3:
            break
        if gf2_rank(tuple(rows) + (cand, d)) == len(rows) + 2:
            rows.append(cand)
    g = GLMatrix(4, tuple(rows) + (d,))
    out = gl_transform(cv, g)
    if not out.is_normalized:
        raise RuntimeError(f"basis change {g.rows} leaves alpha = {out.alpha}")
    return out, g
