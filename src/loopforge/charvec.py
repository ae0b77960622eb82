"""Characteristic vectors and their GL(n,2) orbit classification.

A characteristic vector holds one sign lambda_s per coefficient set s of a
fixed ordered generating set, 1 <= |s| <= 3: squares (sigma part), commutators
(beta part) and associators (alpha part).  ``coordinate_masks`` is the one
layout (singletons, pairs, triples, each lexicographic; packed, coordinate k
is bit k).  For a doubly even code basis lambda_s is bit 3 - |s| of the meet
weight t_s: lambda_i = (t_i/4) mod 2, lambda_ij = (t_ij/2) mod 2, lambda_ijk = t_ijk mod 2.

The three parts extend to arbitrary GF(2) coefficient vectors x.  The square
form sigma(x) = |u_x|/4 mod 2 of the span's codeword u_x is cubic: by
inclusion-exclusion it is the xor of the lambda_s over the nonempty s within x,
|s| <= 3.  One table of it per vector gives the other two forms as its
differences (from |u+v| = |u| + |v| - 2|u & v|):

    beta(x, y)     = sigma(x+y) + sigma(x) + sigma(y)
    alpha(x, y, z) = beta(x+y, z) + beta(x, z) + beta(y, z), trilinear.

Changing the generating set by an invertible matrix pulls the three forms
back along the row action, which is how the natural GL(n,2) action on
characteristic vectors is computed here.  It is GF(2)-linear, so orbits are
walked on packed vectors from fixed class representatives (nonassociative
loops of rank 3 and 4 fall into 5 and 16 orbits) into one class byte per
packed vector.  A witness is built row by row from the vector's coordinates,
so it is exact by construction; the tests, not the library, check it.  Each
is kept in 2 bytes per packed vector once found.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import AssociativeLoop, NotDoublyEven, NotInvertible
from .errors import UnsupportedRank, quoted
from .gf2 import CodeBasis, gf2_rank, is_doubly_even, _Value, _xor_span

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


def nonassociative_count(n: int) -> int:
    """Number of rank-n characteristic vectors with a nonzero alpha part."""
    return 2 ** (n + comb(n, 2)) * (2 ** comb(n, 3) - 1)


@lru_cache(maxsize=16)
def coordinate_masks(n: int) -> tuple[int, ...]:
    """Coefficient mask s of each coordinate lambda_s, in ``bits()`` order: the
    singletons, then the pairs, then the triples, each in lexicographic order."""
    return tuple(sum(1 << i for i in s) for size in (1, 2, 3) for s in combinations(range(n), size))


class LoopClassId(_Value):
    """Identifier of a classified nonassociative loop, e.g. C3_5 or C4_16."""

    __slots__ = ("rank", "index")

    def __init__(self, rank: int, index: int) -> None:
        limit = len(orbit_representatives(rank))
        if not 1 <= index <= limit:
            raise ValueError(f"index {index} outside 1..{limit} for rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "index", index)

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
            raise ValueError(f"bad loop id {quoted(text)}; expected e.g. C3_1 or C4_16") from None


class CharVector(_Value):
    """Square, commutator and associator signs of an ordered generating set.

    Coordinates are bits in lexicographic order: sigma = (lambda_1..lambda_n),
    beta = (lambda_12, lambda_13, ..., lambda_(n-1)n), alpha = (lambda_123, ...).
    They are held as one int, ``packed``, coordinate k of ``bits()`` at bit k.
    """

    __slots__ = ("rank", "packed")

    def __init__(self, rank: int, sigma: tuple[int, ...], beta: tuple[int, ...], alpha: tuple[int, ...]) -> None:
        if rank < 2:
            raise ValueError("rank must be at least 2")
        if len(sigma) != rank or len(beta) != comb(rank, 2):
            raise ValueError("wrong coordinate count")
        if len(alpha) != comb(rank, 3):
            raise ValueError("wrong associator coordinate count")
        coordinates = (*sigma, *beta, *alpha)
        if any(b not in (0, 1) for b in coordinates):
            raise ValueError("coordinates must be bits")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "packed", sum(1 << k for k, b in enumerate(coordinates) if b))

    sigma = property(lambda self: tuple(map(int, self.bits()[: self.rank])))
    beta = property(lambda self: tuple(map(int, self.bits()[self.rank : self.rank + comb(self.rank, 2)])))
    alpha = property(lambda self: tuple(map(int, self.bits()[self.rank + comb(self.rank, 2) :])))

    @property
    def nonassociative(self) -> bool:
        return self.packed >> self.rank + comb(self.rank, 2) != 0

    @property
    def is_normalized(self) -> bool:
        """True when the rank is classified and alpha is (1, 0, ..., 0): lambda_123 alone."""
        return self.rank in REPRESENTATIVES and self.packed >> self.rank + comb(self.rank, 2) == 1

    def bits(self) -> str:
        return format(self.packed, f"0{len(coordinate_masks(self.rank))}b")[::-1]

    def shorthand(self) -> str:
        """Compact bitstring with the conventional alpha coordinates omitted."""
        if not self.is_normalized:
            raise ValueError("only normalized rank-3/4 vectors have a shorthand form")
        return self.bits()[: self.rank + comb(self.rank, 2)]

    @classmethod
    def from_shorthand(cls, rank: int, text: str) -> "CharVector":
        orbit_representatives(rank)  # shorthand exists for the classified ranks only
        want = rank + comb(rank, 2)
        if len(text) != want or set(text) - {"0", "1"}:
            raise ValueError(f"rank-{rank} shorthand needs {want} bits, got {quoted(text)}")
        return _vector(rank, int(text[::-1], 2) | 1 << want)  # alpha: lambda_123 = 1

    @classmethod
    def from_bits(cls, rank: int, text: str) -> "CharVector":
        want = len(coordinate_masks(rank))
        if len(text) != want or set(text) - {"0", "1"}:
            raise ValueError(f"rank-{rank} full form needs {want} bits, got {quoted(text)}")
        if rank < 2:
            raise ValueError("rank must be at least 2")
        return _vector(rank, int(text[::-1], 2))


def _vector(n: int, packed: int) -> CharVector:
    """The rank-n vector whose coordinate k is bit k of ``packed``, unchecked."""
    cv = object.__new__(CharVector)
    object.__setattr__(cv, "rank", n)
    object.__setattr__(cv, "packed", packed)
    return cv


def char_vector_of(basis: CodeBasis) -> CharVector:
    """Characteristic vector of a doubly even code basis, from meets of at most 3 generators:
    lambda_s is bit 3 - |s| of t_s, and ``is_doubly_even`` has checked the bits below it clear."""
    if not is_doubly_even(basis):
        raise NotDoublyEven("characteristic vectors require a doubly even code")
    if basis.rank < 2:
        raise UnsupportedRank(f"characteristic vectors need rank at least 2, got {basis.rank}")
    meets = {0: -1}  # the empty meet: every position
    for i, mask in enumerate(basis.masks):
        meets.update([(x | 1 << i, bits & mask) for x, bits in meets.items() if x.bit_count() < 3])
    packed = 0
    for k, s in enumerate(coordinate_masks(basis.rank)):
        packed |= (meets[s].bit_count() >> 3 - s.bit_count() & 1) << k
    return _vector(basis.rank, packed)


# ---------------------------------------------------------------------------
# The forms at arbitrary coefficient vectors (int masks, bit i-1 = e_i)

MAX_FORM_RANK = 10  # the square table of a vector has 2^rank entries


def coordinates_by_mask(cv: CharVector) -> list[int]:
    """Entry s is the coordinate lambda_s for 1 <= |s| <= 3, else 0."""
    lam = dict(zip(coordinate_masks(cv.rank), map(int, cv.bits())))
    return [lam.get(s, 0) for s in range(1 << cv.rank)]


@lru_cache(maxsize=1024)
def _squares(cv: CharVector) -> tuple[int, ...]:
    """S[x] = sigma(x) for every mask x: the xor of the coordinates lambda_s
    over the nonempty s within x, |s| <= 3."""
    n = cv.rank
    if n > MAX_FORM_RANK:
        raise UnsupportedRank(f"forms are evaluated up to rank {MAX_FORM_RANK}, got {n}")
    return tuple(_subset_xor(coordinates_by_mask(cv), n))


def _subset_xor(T: list[int], n: int) -> list[int]:
    """Entry x becomes the xor of the entries at the masks within x, one pass
    per bit; over GF(2) the transform is its own inverse."""
    for b in (1 << i for i in range(n)):  # add in the value at x without b
        T = [t ^ T[x ^ b] if x & b else t for x, t in enumerate(T)]
    return T


def _beta(S: tuple[int, ...], x: int, y: int) -> int:
    return S[x ^ y] ^ S[x] ^ S[y]


def _alpha(S: tuple[int, ...], x: int, y: int, z: int) -> int:
    return S[x ^ y ^ z] ^ S[x ^ y] ^ S[x ^ z] ^ S[y ^ z] ^ S[x] ^ S[y] ^ S[z]


# ---------------------------------------------------------------------------
# GL(n, 2)


class GLMatrix(_Value):
    """Invertible matrix over GF(2); row i holds the coefficients of the i-th
    new basis vector, stored as an int mask."""

    __slots__ = ("rank", "rows")

    def __init__(self, rank: int, rows: tuple[int, ...]) -> None:
        if len(rows) != rank or any(not 0 <= r < (1 << rank) for r in rows):
            raise ValueError("need n row masks of width n")
        if gf2_rank(rows) != rank:
            raise NotInvertible(f"singular matrix {rows}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, n: int) -> "GLMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    def __mul__(self, other: "GLMatrix") -> "GLMatrix":
        """Composition with row-vector convention: x @ (M * N) = (x @ M) @ N."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        span = _xor_span(other.rows)  # entry x is x @ N
        return _invertible(self.rank, tuple(span[r] for r in self.rows))

    def inverse(self) -> "GLMatrix":
        span = _xor_span(self.rows)  # entry x is x @ M, so row i of the inverse is the x sent to e_i
        return _invertible(self.rank, tuple(span.index(1 << i) for i in range(self.rank)))

    def row_bitstrings(self) -> tuple[str, ...]:
        return tuple("".join(str(r >> j & 1) for j in range(self.rank)) for r in self.rows)


_set_rank, _set_rows = GLMatrix.rank.__set__, GLMatrix.rows.__set__  # slot descriptors, past __setattr__


def _invertible(n: int, rows: tuple[int, ...]) -> GLMatrix:
    """``GLMatrix(n, rows)`` for rows independent by construction: no re-ranking."""
    g = object.__new__(GLMatrix)
    _set_rank(g, n)
    _set_rows(g, rows)
    return g


def gl_group(n: int) -> tuple[GLMatrix, ...]:
    """All invertible n x n matrices over GF(2), ordered by their last row,
    then the row before it, and so on (each ascending as an int mask)."""
    if not 0 < n <= 4:
        raise UnsupportedRank(f"GL(n,2) enumeration covers n = 1..4, got {n}")
    found = [((), 1)]  # rows i+1..n-1, and their span as a bitmask (bit x: x is in it)
    for _ in range(n - 1):  # put row i before them, outside their span (which holds 0)
        found = [((r,) + rows, _spanned_with(spanned, r)) for rows, spanned in found
                 for r in range(1 << n) if not spanned >> r & 1]
    return tuple(_invertible(n, (r,) + rows) for rows, spanned in found for r in range(1 << n) if not spanned >> r & 1)


def gl_transform(cv: CharVector, g: GLMatrix) -> CharVector:
    """Characteristic vector of the same loop w.r.t. the generating set g rows:
    its square form is x -> sigma(x @ g), and ``_subset_xor`` of that table
    holds its coordinates."""
    if g.rank != cv.rank:
        raise ValueError(f"rank mismatch: vector {cv.rank}, matrix {g.rank}")
    S = _squares(cv)
    lam = _subset_xor([S[y] for y in _xor_span(g.rows)], cv.rank)
    return _vector(cv.rank, sum(lam[s] << k for k, s in enumerate(coordinate_masks(cv.rank))))


# ---------------------------------------------------------------------------
# Orbit enumeration and canonicalization


def _packed_action(g: GLMatrix) -> list[int]:
    """``gl_transform(., g)`` on every packed vector, built from the images
    of the unit vectors because the action is GF(2)-linear."""
    return _xor_span([gl_transform(_vector(g.rank, 1 << k), g).packed for k in range(len(coordinate_masks(g.rank)))])


@lru_cache(maxsize=None)
def representative(class_id: LoopClassId) -> CharVector:
    short = orbit_representatives(class_id.rank)[class_id.index - 1]
    return CharVector.from_shorthand(class_id.rank, short)


@lru_cache(maxsize=None)
def _orbit_table(n: int) -> bytearray:
    """Byte v is the class index of the vector packed as v, 0 for an
    associative one.  Each representative's orbit is walked breadth-first
    under two generators of GL(n,2), applied through their action tables,
    which are dropped after the walk.  Unclassified ranks build nothing."""
    reps = orbit_representatives(n)
    unit = tuple(1 << i for i in range(n))
    transvection = GLMatrix(n, (unit[0] | unit[1],) + unit[1:])
    shift = GLMatrix(n, unit[1:] + unit[:1])
    generators = (_packed_action(transvection), _packed_action(shift))
    table = bytearray(1 << len(coordinate_masks(n)))
    for index, short in enumerate(reps, start=1):
        orbit = [CharVector.from_shorthand(n, short).packed]
        table[orbit[0]] = index
        for v in orbit:  # appended to while walked: a breadth-first queue
            for action in generators:
                w = action[v]
                if not table[w]:
                    table[w] = index
                    orbit.append(w)
    return table


@lru_cache(maxsize=None)
def _class_ids(n: int) -> tuple[LoopClassId | None, ...]:
    """Entry i is the class id of orbit-table byte i (None at 0, associative)."""
    return (None, *(LoopClassId(n, i) for i in range(1, len(orbit_representatives(n)) + 1)))


@lru_cache(maxsize=None)
def _witness_table(n: int) -> array:
    """Entry v is the witness ``canonicalize`` returns for the vector packed
    as v, row i at bits n*i, or 0 until it is first asked for (an invertible
    matrix has no zero row).  2 bytes per packed vector, filled lazily."""
    return array("H", bytes(2 << len(coordinate_masks(n))))


def orbit_sizes(n: int) -> dict[LoopClassId, int]:
    """Orbit cardinalities of the classified loops of rank n."""
    table = _orbit_table(n)
    return {class_id: table.count(class_id.index) for class_id in _class_ids(n)[1:]}


@lru_cache(maxsize=None)
def _rep_tables(rep: CharVector) -> tuple[list[int], list[int], tuple]:
    """What ``_first_matrix`` reads for rep.  The nonzero masks r of its space as bitmask sets: by
    sigma(r), and as odd[y] = {r : beta(r, y) = 1}, which give alpha(r, y, z) = beta(r, y ^ z) +
    beta(r, y) + beta(r, z).  Then per row i, the bit of ``packed`` that holds lambda_i, and
    (j, bit) of each lambda_ij and (j, l, bit) of each lambda_ijl over later rows j < l."""
    n, size = rep.rank, 1 << rep.rank
    S = _squares(rep)
    by_sigma, odd = [0, 0], [0] * size
    for r in range(1, size):
        by_sigma[S[r]] |= 1 << r
        for y in range(size):
            odd[y] |= _beta(S, r, y) << r
    at = coordinate_masks(n).index
    plan = tuple((at(1 << i), tuple((j, at(1 << i | 1 << j)) for j in range(i + 1, n)),
                  tuple((j, l, at(1 << i | 1 << j | 1 << l)) for j, l in combinations(range(i + 1, n), 2)))
                 for i in range(n))
    return by_sigma, odd, plan


def _first_matrix(rep: CharVector, cv: CharVector) -> GLMatrix:
    """The first g in ``gl_group`` order with gl_transform(rep, g) == cv: rows
    chosen last to first, each the least mask outside the span of the later
    rows whose sigma, and beta and alpha with those rows, match cv's.  cv lies
    in the orbit of rep (``canonicalize`` asks for no other), so g exists."""
    n, packed = cv.rank, cv.packed
    by_sigma, odd, plan = _rep_tables(rep)
    rows = [0] * n

    def place(i: int, spanned: int) -> bool:
        if i < 0:
            return True
        c, pairs, triples = plan[i]
        fits = by_sigma[packed >> c & 1] & ~spanned  # masks 1 .. 2^n - 1 only, so complements below stay inside
        for j, k in pairs:
            fits &= odd[rows[j]] if packed >> k & 1 else ~odd[rows[j]]
        for j, l, k in triples:
            a = odd[rows[j] ^ rows[l]] ^ odd[rows[j]] ^ odd[rows[l]]
            fits &= a if packed >> k & 1 else ~a
        while fits:  # ascending over the set bits
            low = fits & -fits
            fits ^= low
            rows[i] = r = low.bit_length() - 1
            if place(i - 1, _spanned_with(spanned, r)):
                return True
        return False

    place(n - 1, 1)  # bit x of ``spanned``: x is in the span of the later rows
    return _invertible(n, tuple(rows))


@lru_cache(maxsize=None)
def _spanned_with(spanned: int, r: int) -> int:
    """The span bitmask ``spanned`` grown by the row r (bit x ^ r for each bit x)."""
    return spanned | sum(1 << (x ^ r) for x in range(spanned.bit_length()) if spanned >> x & 1)


def loop_class(cv: CharVector) -> LoopClassId:
    """Class of a nonassociative vector of a classified rank (no witness):
    one byte of the orbit table."""
    index = _orbit_table(cv.rank)[cv.packed]
    if not index:
        raise AssociativeLoop("associative vector: every associator sign is trivial")
    return _class_ids(cv.rank)[index]


def canonicalize(cv: CharVector) -> tuple[LoopClassId, CharVector, GLMatrix]:
    """Classify a nonassociative vector of a classified rank.

    Returns the class id, its fixed orbit representative, and a witness w
    with gl_transform(cv, w) equal to the representative (the inverse of the
    first matrix of (identity,) + gl_group(n) sending the representative to cv).
    The witness is searched for once per vector and process, then read back
    from its 2-byte entry of the witness table.
    """
    class_id = loop_class(cv)
    rep = representative(class_id)
    n, witnesses = cv.rank, _witness_table(cv.rank)
    word = witnesses[cv.packed]
    if not word:
        g = GLMatrix.identity(n) if cv == rep else _first_matrix(rep, cv)
        word = witnesses[cv.packed] = sum(r << n * i for i, r in enumerate(g.inverse().rows))
    return class_id, rep, _invertible(n, tuple(word >> n * i & ~(-1 << n) for i in range(n)))


# ---------------------------------------------------------------------------
# Associator radical and rank-4 normalization


def alpha_radical(cv: CharVector) -> frozenset[int]:
    """{x : alpha(x, y, z) = 0 for all y, z}, as a set of coefficient masks;
    alpha is trilinear, so unit vectors y and z suffice."""
    S = _squares(cv)
    units = tuple(combinations([1 << i for i in range(cv.rank)], 2))
    return frozenset(x for x in range(len(S)) if not any(_alpha(S, x, y, z) for y, z in units))


def normalize_rank4(cv: CharVector) -> tuple[CharVector, GLMatrix]:
    """Change basis so the associator-radical generator comes last.

    The result carries alpha = (1,0,0,0), ready for the 10-coordinate
    shorthand; the returned matrix witnesses the change.
    """
    if cv.rank != 4:
        raise UnsupportedRank(f"normalization applies to rank 4, got {cv.rank}")
    if not cv.nonassociative:
        raise AssociativeLoop("associative vector has a full radical")
    # a nonzero alternating trilinear form on GF(2)^4 has a 1-dimensional radical
    (d,) = alpha_radical(cv) - {0}
    rows: list[int] = []
    for _ in range(3):  # each the least mask outside the span of d and the rows so far
        spanned = _xor_span(rows + [d])
        rows.append(min(set(range(16)).difference(spanned)))
    g = _invertible(4, tuple(rows) + (d,))
    return gl_transform(cv, g), g
