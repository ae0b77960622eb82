"""Exhaustive enumeration of reduced code representations of a loop.

A representation is fixed by its class sizes x_sigma, and its meet weights
are their superset sums t_m = sum of x_tau over tau containing m (the subset
zeta transform, ``gf2.superset_sums``).  A normalized characteristic vector
pins t_i mod 8, t_ij mod 4 and t_ijk mod 2, so once the strict supersets of
sigma are sized, x_sigma is fixed mod 2^(4-|sigma|) and the reduced family
(all classes of size at most 7, by default) is a finite tree:

  rank 3:  x_123 odd, each x_ij fixed mod 4, each x_i fixed mod 8   (32 leaves)
  rank 4:  x_1234 free, x_ijk fixed mod 2, x_ij mod 4, x_i mod 8    (2^17 leaves)

The walk is a lazy depth-first generator over the cells in the fixed labeling
order (``gf2.class_order``) with ascending values, so the stream is
lexicographic in the counts; one packed int per depth holds each t_m in its own
digit (digit 0: the degree) and sets the next cell and the degree bound, so every
leaf it yields (counts, degree, nonempty labels) carries the vector unchecked.  The
cells holding generator 1 (the head) come first; a later (tail) cell m reads them
only through t_m mod its modulus, so heads with equal residues share a tail: while
the limit cannot cut it, its first walk is recorded (4,096 rows in all) and replayed.
A kept leaf (its labels span GF(2)^n, so its generators are nonzero and independent)
holds its counts and degree; its sizes, type and code (cached) are derived on read.
Minimal representations come from branch and bound over the same walk: any
branch whose partial degree exceeds the least degree found so far is cut, and
tied least-degree leaves are deduplicated by code equivalence (a lone one is
its own class).  ``solve_system`` is the Moebius inverse of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    canonical_code_signature,
    class_order,
    gf2_rank,
    sigma_mask,
    superset_sums,
    type_vector,
)

REDUCED_MAX = 7


@dataclass(frozen=True)
class ClassSizes:
    """Cardinalities x_sigma of the position classes, in class_order."""

    rank: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != (1 << self.rank) - 1:
            raise ValueError("one count per nonempty subset required")
        if min(self.counts, default=0) < 0:
            raise ValueError("counts must be nonnegative")

    def __getitem__(self, sigma: Sigma) -> int:
        return self.counts[class_order(self.rank).index(tuple(sigma))]

    @property
    def degree(self) -> int:
        return sum(self.counts)

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


def solve_system(weights: Sequence[int], max_size: int = REDUCED_MAX) -> ClassSizes:
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
    return ClassSizes(n, counts)


def assemble_representation(sizes: ClassSizes) -> CodeBasis:
    """Take the generators as unions of their blocks, ``sizes.generator_blocks()``.

    Blocks follow the fixed labeling order, so equal sizes always rebuild the
    identical basis.  Empty or dependent generators raise DegenerateBasis.
    """
    length = sizes.degree
    if length == 0:
        raise DegenerateBasis("empty representation")
    gen_bits = [sum((1 << len(b)) - 1 << b.start - 1 for b in r) for r in sizes.generator_blocks()]
    return CodeBasis(length, tuple(Codeword(length, b) for b in gen_bits))


@dataclass(unsafe_hash=True, slots=True)  # a plain __init__; equal and hashed by (counts, degree)
class ReducedRepresentation:
    """One solved member of the reduced family of a loop: its class sizes in
    class_order and degree; sizes and type derived on read, basis cached."""

    counts: tuple[int, ...]
    degree: int
    _basis: CodeBasis | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def sizes(self) -> ClassSizes:
        return ClassSizes(len(self.counts).bit_length(), self.counts)  # 2^n - 1 counts

    @property
    def type(self) -> tuple[int, ...]:
        return type_vector(self.counts)

    @property
    def basis(self) -> CodeBasis:
        """The code laid out from ``sizes``, assembled when first read."""
        if self._basis is None:
            self._basis = assemble_representation(self.sizes)
        return self._basis


def _require_normalized(cv: CharVector, max_class_size: int) -> None:
    orbit_representatives(cv.rank)  # rejects unclassified ranks
    if not cv.nonassociative:
        raise AssociativeLoop("representation search needs a nonassociative vector")
    if not cv.is_normalized:
        raise ValueError("normalize the vector first (alpha must be 1 / 1000)")
    if max_class_size < 1:
        raise ValueError("max_class_size must be at least 1")


def _walk_class_sizes(
    cv: CharVector, max_size: int, limit: list[int] | None = None
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Count tuples compatible with the congruences, lazily, in DFS order.

    Yields ``(counts, degree, labels)``, bit m of labels set iff cell m is nonempty.
    Every strict superset of a cell comes earlier in ``class_order``, so the cell's
    value is read off its own digit of the int packed above it (digit m holds t_m,
    digit 0 the degree).  The consumer may lower ``limit[0]``: branches above it are cut.
    """
    masks = [sigma_mask(sigma) for sigma in class_order(cv.rank)]
    last = len(masks) - 1
    if limit is None:
        limit = [max_size * len(masks)]
    width = (max_size * len(masks)).bit_length() + 1  # per t_m: none exceeds the degree
    digit = (1 << width) - 1
    spread = [sum(1 << width * m for m in range(s + 1) if m & s == m) for s in masks]
    shift = [width * m for m in masks]
    # t_sigma = lambda_sigma * 2^(3-|sigma|) mod 2^(4-|sigma|); lambda is 0 at |sigma| = 4
    lam = coordinates_by_mask(cv)
    target = [lam[m] * 8 >> m.bit_count() for m in masks]
    modulus = [16 >> m.bit_count() for m in masks]
    bits, split = [1 << m for m in masks], len(masks) + 1 >> 1  # split: the first tail cell
    tail_bits, tail_max = sum(bits[split:]), max_size * (len(masks) - split)
    tail_size = prod(max_size // modulus[p] + 1 for p in range(split, len(masks)))  # most leaves
    key_mask = sum(modulus[p] - 1 << shift[p] for p in range(split, len(masks)))
    memo, room, rows = {}, 4096, None  # room: rows left, all 128 tails of 32 at rank 4, bound 7
    values = [target[0] % modulus[0]] + [0] * last
    acc = [0] * len(masks)  # acc[p] = sum of values[q] * spread[q] over q < p
    pos, bound = 0, limit[0]  # bound is limit[0], re-read after each yield
    while True:  # hot steps first, end test on backtrack: short jumps (no EXTENDED_ARG)
        value = values[pos]
        if value > max_size or value > bound - (acc[pos] & digit):  # cut, and the rest of the cell
            pos -= 1
            if pos < 0:
                return
            values[pos] += modulus[pos]
            continue
        if pos == last:
            counts = tuple(values)
            leaf = counts, (acc[last] & digit) + value, sum(compress(bits, counts))
            if rows is not None:
                rows += (leaf,)
            yield leaf
            bound = limit[0]
            values[last] += modulus[last]
            continue
        acc[pos + 1] = packed = acc[pos] + value * spread[pos]
        pos += 1
        values[pos] = (target[pos] - (packed >> shift[pos])) % modulus[pos]
        if pos != split:
            continue
        if rows is not None and bound - base >= tail_max:  # the tail recorded last, uncut
            memo[key], room = [(c[split:], d - base, ls & tail_bits) for c, d, ls in rows], room - len(rows)
        rows, base = None, packed & digit
        if bound - base < tail_max:  # the limit may cut this tail: walk it
            continue
        if (key := packed & key_mask) not in memo:  # walk the tail and record its leaves
            rows = [] if room >= tail_size else None
            continue
        labels = sum(compress(bits, head := tuple(values[:split])))
        for tail, degree, tail_labels in memo[key]:
            if base + degree <= bound:
                yield head + tail, base + degree, labels | tail_labels
                bound = limit[0]
        values[split] = max_size + 1  # the tail is replayed: its cell is cut next


def _representations(
    cv: CharVector, max_size: int, limit: list[int] | None = None
) -> Iterator[ReducedRepresentation]:
    """The leaves of the walk whose labels span GF(2)^n, under ``limit``."""
    spanning: dict[int, bool] = {}  # per label set
    for counts, degree, labels in _walk_class_sizes(cv, max_size, limit):
        if (spans := spanning.get(labels)) is None:
            spans = spanning[labels] = gf2_rank([m for m in range(labels.bit_length()) if labels >> m & 1]) == cv.rank
        if spans:
            yield ReducedRepresentation(counts, degree)


def enumerate_reduced(
    cv: CharVector, max_class_size: int = REDUCED_MAX
) -> Iterator[ReducedRepresentation]:
    """Every reduced representation with the given characteristic vector.

    Leaves stream straight from the walk; degenerate ones (empty or
    dependent generators) are pruned silently.  A vector the walk cannot
    take raises here, at the call, not at the first leaf.
    """
    _require_normalized(cv, max_class_size)
    return _representations(cv, max_class_size)


@dataclass(frozen=True)
class MinimalReport:
    """Least-degree members of the reduced family, up to code equivalence.

    Minimality is certified within the reduced family only (class sizes at
    most ``max_class_size``); ``scope`` records that bound.
    """

    loop: LoopClassId
    degree: int
    representations: tuple[ReducedRepresentation, ...]
    max_class_size: int

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
    for rep in _representations(cv, max_class_size, limit):
        if best and rep.degree < best[0].degree:
            best = []
        limit[0] = rep.degree
        best.append(rep)
    if not best:
        raise InfeasibleProfile("no nondegenerate reduced representation exists")
    if len(best) > 1:  # ties deduplicate by code equivalence; a lone minimum is its own class
        unique: dict[tuple[int, ...], ReducedRepresentation] = {}
        for rep in best:
            unique.setdefault(canonical_code_signature(rep.basis), rep)
        best = list(unique.values())
    ordered = sorted(best, key=lambda r: (r.type, tuple(g.positions for g in r.basis.generators)))
    return MinimalReport(loop_id, best[0].degree, tuple(ordered), max_class_size)
