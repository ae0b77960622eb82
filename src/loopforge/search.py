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
digit (digit 0: the degree) and sets the next cell and the degree bound, so
every leaf it yields (its counts and degree) carries the vector unchecked.  A
leaf is kept iff the labels of its nonempty classes span GF(2)^n (its
generators are then nonzero and independent).  A kept leaf holds its counts
and degree: its ``ClassSizes`` and type are derived on each read, and its code
(consecutive position blocks per cell) is assembled on first read and cached.
Minimal representations come from branch and bound over the same walk: any
branch whose partial degree exceeds the least degree found so far is cut, and
tied least-degree leaves are deduplicated by code equivalence (a lone one is
its own class).  ``solve_system`` is the Moebius inverse of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from typing import Iterator, Sequence

from .charvec import CharVector, LoopClassId, coordinates_by_mask
from .charvec import loop_class, orbit_representatives
from .errors import (
    AssociativeLoop,
    InfeasibleProfile,
    DegenerateBasis,
    NotReduced,
)
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


@dataclass(frozen=True)
class ReducedRepresentation:
    """One solved member of the reduced family of a loop: its class sizes in
    class_order and degree; sizes and type derived on read, basis cached."""

    counts: tuple[int, ...]
    degree: int

    @property
    def sizes(self) -> ClassSizes:
        return ClassSizes(len(self.counts).bit_length(), self.counts)  # 2^n - 1 counts

    @property
    def type(self) -> tuple[int, ...]:
        return type_vector(self.counts)

    @cached_property
    def basis(self) -> CodeBasis:
        """The code laid out from ``sizes``, assembled when first read."""
        return assemble_representation(self.sizes)


def _require_normalized(cv: CharVector) -> None:
    orbit_representatives(cv.rank)  # rejects unclassified ranks
    if not cv.nonassociative:
        raise AssociativeLoop("representation search needs a nonassociative vector")
    if not cv.is_normalized:
        raise ValueError("normalize the vector first (alpha must be 1 / 1000)")


def _walk_class_sizes(
    cv: CharVector, max_size: int, limit: list[int] | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Count tuples compatible with the congruences, lazily, in DFS order.

    Yields ``(counts, degree)``.  Every strict superset of a cell comes earlier
    in ``class_order``, so the cell's value is read off its own digit of the
    int packed above it (digit m holds t_m, digit 0 the degree).
    Values ascend within each cell, so the stream is lexicographic in the
    counts.  ``limit`` is a one-element cell the consumer may lower while
    iterating: any branch whose partial degree already exceeds ``limit[0]``
    is cut, so only leaves of degree at most the current limit are yielded.
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
    values = [target[0] % modulus[0]] + [0] * last
    acc = [0] * len(masks)  # acc[p] = sum of values[q] * spread[q] over q < p
    pos = 0
    while pos >= 0:
        value = values[pos]
        if pos == last:
            head, partial = tuple(values[:last]), acc[last] & digit
            while value <= max_size and value <= limit[0] - partial:  # re-read per yield
                yield head + (value,), partial + value
                value += modulus[last]
        elif value <= max_size and value <= limit[0] - (acc[pos] & digit):
            acc[pos + 1] = packed = acc[pos] + value * spread[pos]
            pos += 1
            values[pos] = (target[pos] - (packed >> shift[pos])) % modulus[pos]
            continue
        # ascending values: the rest of this cell is cut too (values[-1] once the walk ends)
        pos -= 1
        values[pos] += modulus[pos]


def _representations(
    cv: CharVector, max_size: int, limit: list[int] | None = None
) -> Iterator[ReducedRepresentation]:
    """The nondegenerate leaves of the walk: a leaf is kept iff the labels of
    its nonempty classes span GF(2)^n; ``limit`` is passed to the walk."""
    masks = [sigma_mask(sigma) for sigma in class_order(cv.rank)]
    spanning = lru_cache(maxsize=None)(lambda labels: gf2_rank(labels) == cv.rank)  # per zero pattern
    for counts, degree in _walk_class_sizes(cv, max_size, limit):
        if spanning(tuple(compress(masks, counts))):
            yield ReducedRepresentation(counts, degree)


def enumerate_reduced(
    cv: CharVector, max_class_size: int = REDUCED_MAX
) -> Iterator[ReducedRepresentation]:
    """Every reduced representation with the given characteristic vector.

    Leaves stream straight from the walk; degenerate ones (empty or
    dependent generators) are pruned silently.
    """
    _require_normalized(cv)
    if max_class_size < 1:
        raise ValueError("max_class_size must be at least 1")
    yield from _representations(cv, max_class_size)


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
    _require_normalized(cv)
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
