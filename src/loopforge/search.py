"""Exhaustive enumeration of reduced code representations of a loop.

A representation is fixed by its class sizes x_sigma, and its meet weights
are their superset sums t_m = sum of x_tau over tau containing m (the subset
zeta transform, ``gf2.superset_sums``).  A normalized characteristic vector
pins t_i mod 8, t_ij mod 4 and t_ijk mod 2, so once the strict supersets of
sigma are sized, x_sigma is fixed mod 2^(4-|sigma|) and the reduced family
(all classes of size at most 7, by default) is a finite tree:

  rank 3:  x_123 odd, each x_ij fixed mod 4, each x_i fixed mod 8   (32 leaves)
  rank 4:  x_1234 free, x_ijk fixed mod 2, x_ij mod 4, x_i mod 8    (2^17 leaves)

The walk is one lazy depth-first loop over a run of cells in the fixed labeling order
(``gf2.class_order``), values ascending, that yields each leaf raw; its leaves are
lexicographic in the counts.  One packed int per depth holds each t_m in its own digit
(digit 0: the degree) and sets the next cell and the degree bound, so every leaf carries
the vector unchecked.  The cells holding generator 1 (the head) come first; a later
(tail) cell m reads them only through t_m mod its modulus, so heads with equal residues
(one key) share a tail.  The stream walks the heads and, once per key, the tail alone
from the key, replaying its rows (4,096 at most) below every head with that key and
building each kept leaf there.  A leaf is kept iff its labels (its nonempty cells) span
GF(2)^n, so its generators are nonzero and independent; below a head that spans, no row
is tested.  A kept leaf is a ``ReducedRepresentation``, as a ``solve_system`` result is:
its counts and degree, with its type and code (cached) derived on read.
Minimal representations come from branch and bound over the same walk: a branch is cut
once its partial degree plus the most any open generator i still needs, (4 lambda_i - t_i)
mod 8 positions as t_i is fixed mod 8, exceeds the least degree found so far; every leaf
meets the congruences, so none within the limit is lost.  Tied least-degree leaves are
deduplicated by code equivalence (a lone one is its own class).  ``solve_system`` is the
Moebius inverse of the transform.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress
from math import prod
from typing import Iterator, Sequence

from .charvec import CharVector, LoopClassId, coordinates_by_mask
from .charvec import loop_class, orbit_representatives
from .errors import AssociativeLoop, DegenerateBasis, InfeasibleProfile, NotReduced
from .gf2 import (
    CodeBasis,
    Codeword,
    Sigma,
    _Value,
    canonical_code_signature,
    class_order,
    gf2_rank,
    sigma_mask,
    superset_sums,
    type_vector,
)

REDUCED_MAX = 7


class ReducedRepresentation(_Value):
    """A code fixed by its class sizes x_sigma (``counts``, in class_order) and
    its degree, their sum; type derived on read, basis cached."""

    __slots__ = ("counts", "degree", "_basis")  # equal and hashed by (counts, degree)
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__  # mutable: the basis is cached on read

    def __init__(self, counts: tuple[int, ...], degree: int) -> None:
        self.counts, self.degree, self._basis = counts, degree, None  # _basis: CodeBasis | None

    @property
    def rank(self) -> int:
        return len(self.counts).bit_length()  # 2^n - 1 counts

    def __getitem__(self, sigma: Sigma) -> int:
        return self.counts[class_order(self.rank).index(tuple(sigma))]

    @property
    def type(self) -> tuple[int, ...]:
        return type_vector(self.counts)

    @property
    def basis(self) -> CodeBasis:
        """The code laid out from the counts, assembled when first read."""
        if self._basis is None:
            self._basis = assemble_representation(self)
        return self._basis

    def generator_blocks(self) -> list[list[range]]:
        """Per generator i, the 1-based position ranges of the classes holding
        i, each class one consecutive block in the labeling order."""
        cells = zip(class_order(self.rank), self.counts, accumulate(self.counts, initial=1))
        blocks = [(sigma, range(start, start + count)) for sigma, count, start in cells]
        return [[block for sigma, block in blocks if i in sigma] for i in range(1, self.rank + 1)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_class_names(self.rank), self.counts))


@lru_cache(maxsize=None)
def _class_names(rank: int) -> tuple[str, ...]:
    """The labels of ``class_order``, each index set written as its digits."""
    return tuple("".join(map(str, sigma)) for sigma in class_order(rank))


def solve_system(weights: Sequence[int], max_size: int = REDUCED_MAX) -> ReducedRepresentation:
    """Class cardinalities from meet weights by coefficient mask (as
    ``gf2.meet_weights`` gives them, entry 0 unread), by Moebius inversion:
    x_sigma = sum over supersets tau of (-1)^|tau - sigma| t_tau.

    Raises InfeasibleProfile for a negative cardinality and NotReduced for
    one above ``max_size``.
    """
    n = len(weights).bit_length() - 1
    if n < 1 or len(weights) != 1 << n:
        raise ValueError(f"need 2^n meet weights with n >= 1, got {len(weights)}")
    orbit_representatives(n)  # rejects unclassified ranks
    sizes = superset_sums(weights, -1)  # entry 0 reaches no nonzero mask
    counts = tuple(sizes[sigma_mask(sigma)] for sigma in class_order(n))
    for name, x in zip(_class_names(n), counts):
        if x < 0:
            raise InfeasibleProfile(f"x_{name} = {x} < 0")
        if x > max_size:
            raise NotReduced(f"x_{name} = {x} > {max_size}")
    return ReducedRepresentation(counts, sum(counts))


def assemble_representation(rep: ReducedRepresentation) -> CodeBasis:
    """Take the generators as unions of their blocks, ``rep.generator_blocks()``.

    Blocks follow the fixed labeling order, so equal counts always rebuild the
    identical basis.  Malformed counts raise ValueError; empty or dependent
    generators raise DegenerateBasis.
    """
    counts, length = rep.counts, rep.degree
    if len(counts) != (1 << rep.rank) - 1:
        raise ValueError("one count per nonempty subset required")
    if min(counts, default=0) < 0:
        raise ValueError("counts must be nonnegative")
    if sum(counts) != length:
        raise ValueError(f"degree {length} is not the sum of the counts, {sum(counts)}")
    if length == 0:
        raise DegenerateBasis("empty representation")
    gen_bits = [sum((1 << len(b)) - 1 << b.start - 1 for b in r) for r in rep.generator_blocks()]
    return CodeBasis(length, tuple(Codeword(length, b) for b in gen_bits))


def _require_normalized(cv: CharVector, max_class_size: int) -> None:
    orbit_representatives(cv.rank)  # rejects unclassified ranks
    if not cv.nonassociative:
        raise AssociativeLoop("representation search needs a nonassociative vector")
    if not cv.is_normalized:
        raise ValueError("normalize the vector first (alpha must be 1 / 1000)")
    if not isinstance(max_class_size, int):
        raise ValueError(f"max_class_size must be an int, got {type(max_class_size).__name__}")
    if max_class_size < 1:
        raise ValueError("max_class_size must be at least 1")


class _Spanning(dict):
    """Whether a label set (bit m: cell m is nonempty) spans GF(2)^rank, so the
    generators are nonzero and independent: one rank test per set, on first lookup."""

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def __missing__(self, labels: int) -> bool:
        spans = self[labels] = gf2_rank([m for m in range(labels.bit_length()) if labels >> m & 1]) == self.rank
        return spans


def _cells(cv: CharVector, max_size: int) -> tuple:
    """The walk's tables, one entry per cell in ``class_order``.  Every strict superset of
    a cell comes earlier, so the cell's value is read off its own digit of the int packed
    above it (digit m holds t_m, digit 0 the degree); bit m of labels: cell m is nonempty."""
    masks = [sigma_mask(sigma) for sigma in class_order(cv.rank)]
    width = (max_size * len(masks)).bit_length() + 1  # per t_m: none exceeds the degree
    spread = [sum(1 << width * m for m in range(s + 1) if m & s == m) for s in masks]
    # t_sigma = lambda_sigma * 2^(3-|sigma|) mod 2^(4-|sigma|); lambda is 0 at |sigma| = 4
    lam = coordinates_by_mask(cv)
    target = [lam[m] * 8 >> m.bit_count() for m in masks]
    modulus = [16 >> m.bit_count() for m in masks]
    # digit m of top - packed: 2^(width-1) + target - t_m, no borrow; generator i: low 3 bits (4 lambda_i - t_i) mod 8
    top = sum((1 << width - 1) + r << width * m for r, m in zip(target, masks)) + (1 << width - 1)
    shift, bits = [width * m for m in masks], [1 << m for m in masks]
    return spread, shift, target, modulus, bits, *_cut_tables(cv.rank, width), (1 << width) - 1, max_size, top


@lru_cache(maxsize=None)
def _cut_tables(rank: int, width: int) -> tuple:
    """Per cell p, ``ones`` is 1 in the digit of each generator held past p (as its singleton is): the walk
    reads those 3-bit fields (7 ones), adds 7 - room to each (by room < 7) and tests their carries (8 ones)."""
    masks = [sigma_mask(sigma) for sigma in class_order(rank)]
    ones = [sum(1 << width * m for m in masks[p + 1:] if m & m - 1 == 0) for p in range(len(masks))]
    return [7 * s for s in ones], [[(7 - room) * s for room in range(7)] for s in ones], [8 * s for s in ones]


def _walk_class_sizes(cv: CharVector, max_size: int, limit: list[int] | None = None) -> Iterator[tuple]:
    """Count tuples compatible with the congruences, lazily, in DFS order, degenerate ones
    too: ``(counts, degree, labels)`` per leaf of ``_walk_cells`` over every cell.  The
    consumer may lower ``limit[0]``: branches above it are cut."""
    cells = _cells(cv, max_size)
    digit, walk = cells[8], _walk_cells(cells, limit or [max_size * ((1 << cv.rank) - 1)], 0, len(cells[0]), 0)
    return ((counts, packed & digit, labels) for counts, packed, labels in walk)


def _walk_cells(cells: tuple, limit: list[int], start: int, stop: int, packed: int) -> Iterator:
    """The walk's loop over cells ``start .. stop-1``, entered with the packed int ``packed`` of
    the cells before them.  It yields each leaf raw, degenerate ones too, as ``(counts, packed,
    labels)`` of its own cells; the last cell's value is added to digit 0 (the degree, the entry
    int's included) only: ``stop`` ends every cell or the head, and no tail cell reads the digit
    of the head's last cell, generator 1's singleton."""
    spread, shift, target, modulus, bits, need, over, carry = (table[start:stop] for table in cells[:8])
    digit, max_size, top = cells[8:]
    pos, last = 0, stop - start - 1
    values, acc = [0] * (last + 1), [packed] * (last + 1)  # acc[p] = packed + sum of values[q] * spread[q] over q < p
    values[0] = (target[0] - (packed >> shift[0])) % modulus[0]
    bound = limit[0]  # re-read after each leaf
    while True:  # hot steps first, end test on backtrack
        value = values[pos]
        if value > max_size or value > bound - (acc[pos] & digit):  # cut, and the rest of the cell
            pos -= 1
            if pos < 0:
                return
            values[pos] += modulus[pos]
            continue
        if pos == last:
            counts = tuple(values)
            yield counts, acc[last] + value, sum(compress(bits, counts))
            bound = limit[0]
            values[last] += modulus[last]
            continue
        acc[pos + 1] = packed = acc[pos] + value * spread[pos]
        if (room := bound - (packed & digit)) < 7 and (top - packed & need[pos]) + over[pos][room] & carry[pos]:
            values[pos] += modulus[pos]  # the generators still open need more than the room left
            continue
        pos += 1
        values[pos] = (target[pos] - (packed >> shift[pos])) % modulus[pos]


def _stream(cells: tuple) -> Iterator[ReducedRepresentation]:
    """The kept leaves of the whole walk, in its order: the heads walked raw, and below each
    the rows of its key's tail, walked alone from the key (degrees relative to the head) by the
    key's first head and replayed by the rest; once 4,096 rows are kept, a new key's tail is
    walked in place.  Rows are span-tested only below a head whose own labels do not span."""
    spread, shift, _, modulus, *_, digit, max_size, _ = cells
    size = len(spread)
    split, limit, spans, memo = size + 1 >> 1, [max_size * size], _Spanning(size.bit_length()), {}
    key_mask = sum(modulus[p] - 1 << shift[p] for p in range(split, size))
    tails = 4096 // prod(max_size // modulus[p] + 1 for p in range(split, size))  # 128 of 32 at rank 4, bound 7
    for head, packed, labels in _walk_cells(cells, limit, 0, split, 0):
        whole, base = spans[labels], packed & digit  # whole: the head's labels span
        if (rows := memo.get(key := packed & key_mask)) is None:
            if len(memo) == tails:  # the memo is full: walk this tail in place
                for tail, leaf, tail_labels in _walk_cells(cells, limit, split, size, packed):
                    if whole or spans[labels | tail_labels]:
                        yield ReducedRepresentation(head + tail, leaf & digit)
                continue
            rows = memo[key] = [(c, p & digit, ls) for c, p, ls in _walk_cells(cells, limit, split, size, key)]
        if whole:
            for tail, degree, _ in rows:
                yield ReducedRepresentation(head + tail, base + degree)
        else:
            for tail, degree, tail_labels in rows:
                if spans[labels | tail_labels]:
                    yield ReducedRepresentation(head + tail, base + degree)


def enumerate_reduced(cv: CharVector, max_class_size: int = REDUCED_MAX) -> Iterator[ReducedRepresentation]:
    """Every reduced representation with the given characteristic vector, in the walk's order,
    from ``_stream``; degenerate ones (empty or dependent generators) are pruned silently.  A
    vector or bound the walk cannot take raises here, at the call, not at the first leaf."""
    _require_normalized(cv, max_class_size)
    return _stream(_cells(cv, max_class_size))


class MinimalReport(_Value):
    """Least-degree members of the reduced family, up to code equivalence.

    Minimality is certified within the reduced family only (class sizes at
    most ``max_class_size``); ``scope`` records that bound.
    """

    __slots__ = ("loop", "degree", "representations", "max_class_size")

    def __init__(self, loop: LoopClassId, degree: int, representations: tuple[ReducedRepresentation, ...],
                 max_class_size: int) -> None:
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "representations", representations)
        object.__setattr__(self, "max_class_size", max_class_size)

    @property
    def types(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.type for r in self.representations)

    @property
    def scope(self) -> str:
        return f"reduced(max_class_size={self.max_class_size})"


def minimal_representations(
    cv: CharVector, max_class_size: int = REDUCED_MAX
) -> MinimalReport:
    """Search the reduced family for the least degree and deduplicate."""
    _require_normalized(cv, max_class_size)
    loop_id = loop_class(cv)
    # depth-first branch and bound: the incumbent is the least degree of a
    # nondegenerate leaf so far; branches strictly above it are cut, so ties
    # survive and arrive in lexicographic counts order
    limit = [max_class_size * ((1 << cv.rank) - 1)]
    best: list[ReducedRepresentation] = []
    spans = _Spanning(cv.rank)
    for counts, degree, labels in _walk_class_sizes(cv, max_class_size, limit):
        if spans[labels]:
            if best and degree < best[0].degree:
                best = []
            limit[0] = degree
            best.append(ReducedRepresentation(counts, degree))
    if not best:
        raise InfeasibleProfile("no nondegenerate reduced representation exists")
    if len(best) > 1:  # ties deduplicate by code equivalence; a lone minimum is its own class
        unique: dict[tuple[int, ...], ReducedRepresentation] = {}
        for rep in best:
            unique.setdefault(canonical_code_signature(rep.basis), rep)
        best = list(unique.values())
    ordered = sorted(best, key=lambda r: (r.type, tuple(g.positions for g in r.basis.generators)))
    return MinimalReport(loop_id, best[0].degree, tuple(ordered), max_class_size)
