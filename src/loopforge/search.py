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
lexicographic in the counts.  A leaf is decided from its counts alone: it is
kept iff the labels of its nonempty classes span GF(2)^n (its generators are
then nonzero and independent); its degree and type are their sum and sorted
values, and its meet weights are checked against the vector by one packed dot
product (one int digit per t_m) and one mask compare.  Its code (consecutive
position blocks per cell) is assembled only when read.  Minimal
representations come from branch and bound over the same walk: any branch
whose partial degree exceeds the least degree found so far is cut, and the
least-degree leaves are assembled and deduplicated by code equivalence.
``solve_system`` is the Moebius inverse of the transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from operator import mul
from typing import Iterator, Sequence

from .charvec import CharVector, LoopClassId, char_vector_of_meets, coordinates_by_mask
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
        return {
            "".join(str(i) for i in sigma): c
            for sigma, c in zip(class_order(self.rank), self.counts)
        }


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
    for sigma, x in zip(class_order(n), counts):
        if x < 0:
            raise InfeasibleProfile(f"x_{''.join(map(str, sigma))} = {x} < 0")
        if x > max_size:
            raise NotReduced(f"x_{''.join(map(str, sigma))} = {x} > {max_size}")
    return ClassSizes(n, counts)


def assemble_representation(sizes: ClassSizes) -> CodeBasis:
    """Take the generators as unions of their blocks, ``sizes.generator_blocks()``.

    Blocks follow the fixed labeling order, so equal sizes always rebuild the
    identical basis.  Empty or dependent generators raise DegenerateBasis.
    """
    length = sizes.degree
    if length == 0:
        raise DegenerateBasis("empty representation")
    blocks = sizes.generator_blocks()
    gen_bits = [sum((1 << len(b)) - 1 << b.start - 1 for b in ranges) for ranges in blocks]
    return CodeBasis(length, tuple(Codeword(length, b) for b in gen_bits))


@dataclass(frozen=True)
class ReducedRepresentation:
    """One solved member of the reduced family of a loop."""

    sizes: ClassSizes
    degree: int
    type: tuple[int, ...]

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
) -> Iterator[tuple[int, ...]]:
    """Count tuples compatible with the congruences, lazily, in DFS order.

    Values ascend within each cell, so the stream is lexicographic in the
    counts.  ``limit`` is a one-element cell the consumer may lower while
    iterating: any branch whose partial degree already exceeds ``limit[0]``
    is cut, so only leaves of degree at most the current limit are yielded.
    """
    masks = [sigma_mask(sigma) for sigma in class_order(cv.rank)]
    # t_sigma = lambda_sigma * 2^(3-|sigma|) mod 2^(4-|sigma|); lambda is 0 at |sigma| = 4
    lam = coordinates_by_mask(cv)
    target = [lam[m] * 8 >> m.bit_count() for m in masks]
    modulus = [16 >> m.bit_count() for m in masks]
    # positions of earlier cells whose sigma strictly contains this one
    supersets = [
        [q for q in range(p) if masks[q] & masks[p] == masks[p]] for p in range(len(masks))
    ]
    end = len(masks)
    if limit is None:
        limit = [max_size * end]
    values = [0] * end
    partial = [0] * end  # partial[p] = sum(values[:p])

    def first(pos: int) -> int:
        return (target[pos] - sum(map(values.__getitem__, supersets[pos]))) % modulus[pos]

    pos = 0
    values[0] = first(0)
    while pos >= 0:
        if values[pos] > min(max_size, limit[0] - partial[pos]):
            # ascending values: the rest of this cell is cut too
            pos -= 1
            if pos >= 0:
                values[pos] += modulus[pos]
        elif pos == end - 1:
            yield tuple(values)
            values[pos] += modulus[pos]
        else:
            partial[pos + 1] = partial[pos] + values[pos]
            pos += 1
            values[pos] = first(pos)


def _representations(
    cv: CharVector, max_size: int, limit: list[int] | None = None
) -> Iterator[ReducedRepresentation]:
    """The nondegenerate leaves of the walk, each decided, typed and checked
    from its counts; ``limit`` is passed through to the walk."""
    n = cv.rank
    masks = [sigma_mask(sigma) for sigma in class_order(n)]
    position = sorted(range(len(masks)), key=masks.__getitem__)  # [m - 1]: the cell of label m
    spanning = lru_cache(maxsize=None)(lambda labels: gf2_rank(labels) == n)  # per zero pattern
    # digit m of sum(counts[p] * spread[p]) is t_m while the counts are nonnegative and the
    # degree fits in a digit; ``low`` keeps t_i mod 8, t_ij mod 4 and t_ijk mod 2
    width = (max_size * len(masks)).bit_length() + 1
    spread = [sum(1 << width * m for m in masks if m & s == m) for s in masks]
    low = sum((16 >> m.bit_count()) - 1 << width * m for m in masks)
    want = sum(bit * 8 >> m.bit_count() << width * m for m, bit in enumerate(coordinates_by_mask(cv)))
    for counts in _walk_class_sizes(cv, max_size, limit):
        if not spanning(tuple(compress(masks, counts))):
            continue
        degree = sum(counts)
        exact = len(counts) == len(masks) and min(counts) >= 0 and not degree >> width
        if not exact or sum(map(mul, counts, spread)) & low != want:  # the transform decides
            sizes = [0] + [counts[p] for p in position]
            if char_vector_of_meets(superset_sums(sizes)) != cv:
                raise RuntimeError(f"leaf {counts} assembles a code of another vector")
        yield ReducedRepresentation(ClassSizes(n, counts), degree, type_vector(counts))


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
    unique: dict[tuple[int, ...], ReducedRepresentation] = {}
    for rep in best:
        signature = canonical_code_signature(rep.basis)
        unique.setdefault(signature, rep)
    ordered = sorted(
        unique.values(),
        key=lambda r: (r.type, tuple(g.positions for g in r.basis.generators)),
    )
    return MinimalReport(loop_id, best[0].degree, tuple(ordered), max_class_size)
