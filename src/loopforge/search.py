"""Exhaustive enumeration of reduced code representations of a loop.

Fixing a normalized characteristic vector pins every meet weight of a
candidate basis modulo a power of two: t_i mod 8, t_ij mod 4, t_ijk mod 2.
Writing the weights in terms of position-class cardinalities x_sigma turns
those congruences into residue constraints on the x's, so the whole reduced
family (all classes of size at most 7, by default) is a finite tree:

  rank 3:  x_123 odd, each x_ij fixed mod 4, each x_i fixed mod 8   (32 leaves)
  rank 4:  x_1234 free, x_ijk fixed mod 2, x_ij mod 4, x_i mod 8    (2^17 leaves)

The walk is a lazy depth-first generator that visits cells in the fixed
labeling order (``gf2.class_order``) with ascending values, so the stream is
deterministic and lexicographic in the counts.  Assembling a leaf lays out
consecutive integer blocks per cell and takes unions; leaves whose
generators come out empty or dependent are skipped.  Minimal
representations come from a branch-and-bound pass over the same walk: the
least degree of a valid leaf so far bounds the rest, and any branch whose
partial degree already exceeds it is cut (class sizes are nonnegative, so
a partial degree only grows).  The least-degree valid leaves are then
deduplicated by code equivalence.

The converse map, from the meet weights of a basis back to its class
sizes, is one Moebius inversion over the subset lattice (``solve_system``),
the same for both ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .charvec import CharVector, LoopClassId, char_vector_of, loop_class, orbit_representatives
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
    WeightProfile,
    canonical_code_signature,
    class_order,
    class_partition,
    type_vector,
)

REDUCED_MAX = 7


@dataclass(frozen=True)
class ResidueSpec:
    """Residues every representation of a loop must satisfy."""

    rank: int
    singles_mod8: tuple[int, ...]
    pairs_mod4: tuple[int, ...]
    triples_mod2: tuple[int, ...]


def congruence_targets(cv: CharVector) -> ResidueSpec:
    """t_i mod 8, t_ij mod 4 and t_ijk mod 2 forced by a characteristic vector."""
    return ResidueSpec(
        cv.rank,
        tuple(4 * b for b in cv.sigma),
        tuple(2 * b for b in cv.beta),
        tuple(cv.alpha),
    )


@dataclass(frozen=True)
class ClassSizes:
    """Cardinalities x_sigma of the position classes, in class_order."""

    rank: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != (1 << self.rank) - 1:
            raise ValueError("one count per nonempty subset required")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    def __getitem__(self, sigma: Sigma) -> int:
        return self.counts[class_order(self.rank).index(tuple(sigma))]

    @property
    def degree(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict[str, int]:
        return {
            "".join(str(i) for i in sigma): c
            for sigma, c in zip(class_order(self.rank), self.counts)
        }


def solve_system(profile: WeightProfile, max_size: int = REDUCED_MAX) -> ClassSizes:
    """Class cardinalities of a weight profile, by Moebius inversion:
    x_sigma = sum over supersets tau of (-1)^|tau - sigma| t_tau.

    Raises InfeasibleProfile for a negative cardinality and NotReduced for
    one above ``max_size``.
    """
    n = profile.rank
    counts = []
    for sigma in class_order(n):
        rest = [i for i in range(1, n + 1) if i not in sigma]
        x = 0
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                x += (-1) ** r * profile.t(*(sigma + extra))
        if x < 0:
            raise InfeasibleProfile(f"x_{''.join(map(str, sigma))} = {x} < 0")
        if x > max_size:
            raise NotReduced(f"x_{''.join(map(str, sigma))} = {x} > {max_size}")
        counts.append(x)
    return ClassSizes(n, tuple(counts))


def assemble_representation(sizes: ClassSizes) -> CodeBasis:
    """Lay out consecutive position blocks per class and take generator unions.

    Blocks follow the fixed labeling order, so equal sizes always rebuild the
    identical basis.  Empty or dependent generators raise DegenerateBasis.
    """
    n = sizes.rank
    length = sizes.degree
    if length == 0:
        raise DegenerateBasis("empty representation")
    gen_bits = [0] * n
    position = 0
    for sigma, count in zip(class_order(n), sizes.counts):
        block = ((1 << count) - 1) << position
        position += count
        for i in sigma:
            gen_bits[i - 1] |= block
    return CodeBasis(length, tuple(Codeword(length, b) for b in gen_bits))


@dataclass(frozen=True)
class ReducedRepresentation:
    """One solved member of the reduced family of a loop."""

    sizes: ClassSizes
    basis: CodeBasis
    degree: int
    type: tuple[int, ...]


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
    n = cv.rank
    spec = congruence_targets(cv)
    order = class_order(n)
    pair_pos = {p: i for i, p in enumerate(combinations(range(1, n + 1), 2))}
    triple_pos = {t: i for i, t in enumerate(combinations(range(1, n + 1), 3))}
    target = []
    modulus = []
    for sigma in order:
        k = len(sigma)
        if k == 1:
            target.append(spec.singles_mod8[sigma[0] - 1])
            modulus.append(8)
        elif k == 2:
            target.append(spec.pairs_mod4[pair_pos[sigma]])
            modulus.append(4)
        elif k == 3:
            target.append(spec.triples_mod2[triple_pos[sigma]])
            modulus.append(2)
        else:
            target.append(0)
            modulus.append(1)
    # positions of earlier cells whose sigma strictly contains this one
    supersets = [
        [q for q in range(p) if set(order[p]) < set(order[q])] for p in range(len(order))
    ]
    end = len(order)
    if limit is None:
        limit = [max_size * end]
    values = [0] * end
    partial = [0] * end  # partial[p] = sum(values[:p])

    def first(pos: int) -> int:
        return (target[pos] - sum(values[q] for q in supersets[pos])) % modulus[pos]

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
    for counts in _walk_class_sizes(cv, max_class_size):
        sizes = ClassSizes(cv.rank, counts)
        try:
            basis = assemble_representation(sizes)
        except DegenerateBasis:
            continue
        if char_vector_of(basis) != cv:
            raise RuntimeError(f"leaf {counts} assembles a code of another vector")
        yield ReducedRepresentation(sizes, basis, sizes.degree, type_vector(class_partition(basis)))


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
    best_degree: int | None = None
    for counts in _walk_class_sizes(cv, max_class_size, limit):
        sizes = ClassSizes(cv.rank, counts)
        try:
            basis = assemble_representation(sizes)
        except DegenerateBasis:
            continue
        degree = sizes.degree
        if best_degree is None or degree < best_degree:
            best, best_degree = [], degree
            limit[0] = degree
        best.append(
            ReducedRepresentation(sizes, basis, degree, type_vector(class_partition(basis)))
        )
    if best_degree is None:
        raise InfeasibleProfile("no nondegenerate reduced representation exists")
    unique: dict[tuple[int, ...], ReducedRepresentation] = {}
    for rep in best:
        signature = canonical_code_signature(rep.basis)
        unique.setdefault(signature, rep)
    ordered = sorted(
        unique.values(),
        key=lambda r: (r.type, tuple(g.positions for g in r.basis.generators)),
    )
    return MinimalReport(loop_id, best_degree, tuple(ordered), max_class_size)
