"""Binary codes as subsets of an index set, using int bitsets.

A codeword over GF(2) of length m is identified with the set of 1-based
positions it occupies; vector addition is symmetric difference.  All values
here are immutable.

The position-equivalence machinery (``class_partition``) splits the index
set I_m into blocks of positions that lie in exactly the same generators.
The partition itself does not depend on the choice of basis, only the
subset labels attached to the blocks do; a change of basis acts on labels
linearly, which is what ``codes_equivalent`` exploits.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, compress, count, repeat
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import DegenerateBasis, NotCovering, UnsupportedRank, clipped, quoted

Sigma = tuple[int, ...]
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class _Value:
    """Fields: the ``__slots__`` without a leading underscore, set once by ``object.__setattr__``;
    equal and hashed as their tuple within one class, shown as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__  # called with the name alone

    def __setstate__(self, state: tuple) -> None:  # copy and pickle: (None, the slots by name)
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(self._fields, self._key(self)))})"


class Codeword(_Value):
    """A subset of I_m = {1, ..., m}, stored as an int bitset (bit p-1 = position p)."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int) -> None:
        if length < 0:
            raise ValueError(f"negative length {length}")
        if bits < 0 or bits.bit_length() > length:
            raise ValueError(f"bits out of range for length {length}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_positions(cls, length: int, positions: Iterable[int]) -> "Codeword":
        bits = 0
        for p in positions:
            if not 1 <= p <= length:
                raise ValueError(f"position {clipped(str(p))} outside 1..{clipped(str(length))}")
            bits |= 1 << (p - 1)
        return cls(length, bits)

    @classmethod
    def from_bitstring(cls, text: str) -> "Codeword":
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {quoted(text)}")
        return cls(len(text), int(text[::-1] or "0", 2))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def positions(self) -> tuple[int, ...]:
        # digits of bin() lowest first, as 0/1 bytes: compress() picks the set ones
        return tuple(compress(count(1), bin(self.bits)[:1:-1].encode().translate(_BIT_BYTES)))

    def bitstring(self) -> str:
        return bin(self.bits | 1 << self.length)[:2:-1]

    def _check_length(self, other: "Codeword") -> None:
        if self.length != other.length:
            raise ValueError(f"length mismatch {self.length} != {other.length}")

    def __xor__(self, other: "Codeword") -> "Codeword":
        self._check_length(other)
        return Codeword(self.length, self.bits ^ other.bits)

    __add__ = __xor__  # vector sum = symmetric difference

    def __and__(self, other: "Codeword") -> "Codeword":
        self._check_length(other)
        return Codeword(self.length, self.bits & other.bits)

    def __or__(self, other: "Codeword") -> "Codeword":
        self._check_length(other)
        return Codeword(self.length, self.bits | other.bits)

    def __repr__(self) -> str:
        return f"Codeword({self.length}, {self.positions})"


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank of int-bitset rows over GF(2)."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        cur = row
        while cur:
            low = cur & -cur
            if low in pivots:
                cur ^= pivots[low]
            else:
                pivots[low] = cur
                rank += 1
                break
    return rank


class CodeBasis(_Value):
    """Ordered list of linearly independent generators of a code in GF(2)^m.

    Independence is checked eagerly: a zero generator or a dependent family
    is rejected with ``DegenerateBasis``.
    """

    __slots__ = ("length", "generators")

    def __init__(self, length: int, generators: tuple[Codeword, ...]) -> None:
        if not generators:
            raise DegenerateBasis("a basis needs at least one generator")
        for g in generators:
            if g.length != length:
                raise ValueError(f"generator length {g.length} != ambient length {length}")
            if g.bits == 0:
                raise DegenerateBasis("zero generator")
        if gf2_rank([g.bits for g in generators]) != len(generators):
            raise DegenerateBasis("generators are linearly dependent over GF(2)")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def from_positions(cls, length: int, generators: Iterable[Iterable[int]]) -> "CodeBasis":
        return cls(length, tuple(Codeword.from_positions(length, g) for g in generators))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def masks(self) -> tuple[int, ...]:
        return tuple(g.bits for g in self.generators)

    @property
    def support(self) -> Codeword:
        bits = 0
        for g in self.generators:
            bits |= g.bits
        return Codeword(self.length, bits)

    def __repr__(self) -> str:
        gens = ", ".join(str(g.positions) for g in self.generators)
        return f"CodeBasis(m={self.length}, [{gens}])"


def _xor_span(vectors: Sequence[int]) -> list[int]:
    """Entry x is the xor of the vectors[j] with bit j set in x."""
    out = [0]
    for v in vectors:
        out += [x ^ v for x in out]
    return out


def is_doubly_even(basis: CodeBasis) -> bool:
    """True iff every codeword of the span has weight divisible by 4: iff every t_i = 0 mod 4
    (x = e_i) and every t_ij is even (x = e_i + e_j), since by inclusion-exclusion, where a meet
    of k generators counts (-2)^(k-1) times, |v_x| = sum of t_i - 2 * sum of t_ij mod 4 over x."""
    masks = basis.masks
    pairs = combinations(masks, 2)
    return all(m.bit_count() % 4 == 0 for m in masks) and all((a & b).bit_count() % 2 == 0 for a, b in pairs)


@lru_cache(maxsize=None)
def class_order(rank: int) -> tuple[Sigma, ...]:
    """Fixed enumeration order of the nonempty subsets of I_n used for labeling.

    Subsets sort by least element, then larger subsets first, then
    lexicographically.  This reproduces the orders the worked assembly
    examples pin down (rank 3: 123, 12, 13, 1, 23, 2, 3; rank 4: 1234, 123,
    124, 134, 12, 13, 14, 1, 234, 23, 24, 2, 34, 3, 4).
    """
    indices = range(1, rank + 1)
    subsets = (s for k in indices for s in combinations(indices, k))
    return tuple(sorted(subsets, key=lambda s: (s[0], -len(s), s)))


def sigma_mask(sigma: Sigma) -> int:
    mask = 0
    for i in sigma:
        mask |= 1 << (i - 1)
    return mask


def _lowest_unset(bits: int, limit: int) -> tuple[int, ...]:
    """The first ``limit`` 1-based positions missing from a bitset."""
    free = ~bits
    found = []
    for _ in range(limit):
        low = free & -free
        found.append(low.bit_length())
        free ^= low
    return tuple(found)


class ClassPartition(_Value):
    """Blocks of positions indistinguishable by generator membership.

    ``blocks`` holds one entry per nonempty subset sigma of I_n, in
    ``class_order(rank)`` order; empty blocks are kept so cardinalities can
    be read off uniformly.
    """

    __slots__ = ("length", "rank", "blocks")

    def __init__(self, length: int, rank: int, blocks: tuple[tuple[Sigma, Codeword], ...]) -> None:
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "blocks", blocks)

    def block(self, sigma: Sigma) -> Codeword:
        return dict(self.blocks)[tuple(sigma)]

    @property
    def sizes(self) -> dict[Sigma, int]:
        return {s: b.weight for s, b in self.blocks}

    def nonempty(self) -> tuple[tuple[Sigma, Codeword], ...]:
        return tuple((s, b) for s, b in self.blocks if b.bits)


def class_partition(basis: CodeBasis) -> ClassPartition:
    """Split I_m into the blocks v^sigma = (meet of v_i, i in sigma) minus the rest.

    The blocks by label mask come from one doubling pass over the support:
    generator mask splits every block x into x & ~mask and x & mask.  A basis
    that does not cover I_m is rejected rather than shrinking the length.
    """
    support = basis.support.bits
    missing = basis.length - support.bit_count()
    if missing:
        shown = _lowest_unset(support, min(missing, 10))
        more = f" and {clipped(str(missing - len(shown)))} more" if missing > len(shown) else ""
        raise NotCovering(f"positions not covered by any generator: {shown}{more}")
    by_label = [support]
    for mask in basis.masks:
        by_label = [x & ~mask for x in by_label] + [x & mask for x in by_label]
    blocks = tuple(
        (sigma, Codeword(basis.length, by_label[sigma_mask(sigma)])) for sigma in class_order(basis.rank)
    )
    return ClassPartition(basis.length, basis.rank, blocks)


def type_vector(sizes: Iterable[int]) -> tuple[int, ...]:
    """Nondecreasing nonzero block sizes, e.g. of ``partition.sizes.values()``."""
    return tuple(sorted(filter(None, sizes)))


# ---------------------------------------------------------------------------
# Meet weights and class sizes by coefficient mask


def superset_sums(values: Sequence[int], sign: int = 1) -> list[int]:
    """Entry m becomes the sum of sign^|tau - m| * values[tau] over the masks
    tau containing m: the subset zeta transform for sign 1 (class sizes to
    meet weights) and its Moebius inverse for sign -1."""
    out = list(values)
    for b in (1 << i for i in range(len(out).bit_length() - 1)):
        out = [v if x & b else v + sign * out[x | b] for x, v in enumerate(out)]
    return out


def meet_weights(masks: Sequence[int]) -> tuple[int, ...]:
    """Entry m is the weight of the meet of the generators picked by the bits
    of m; entry 0 counts the positions in any generator."""
    support = 0
    for mask in masks:
        support |= mask
    meets = [support]
    for mask in masks:
        meets += [x & mask for x in meets]
    return tuple(x.bit_count() for x in meets)


# ---------------------------------------------------------------------------
# Code equivalence under position permutation


def label_counts(basis: CodeBasis) -> tuple[int, ...]:
    """Number of positions carrying each nonzero generator-membership label.

    Entry tau-1 counts positions p with label mask tau, where bit i-1 of tau
    says p is in generator i: the Moebius inverse of the meet weights.
    Uncovered positions (label 0) are ignored, so padding never affects
    equivalence.
    """
    return tuple(superset_sums(meet_weights(basis.masks), -1)[1:])


class _LabelActions(tuple):
    """Label actions in ``gl_group`` order; ``by_head`` files them by their first two entries."""


@lru_cache(maxsize=None)
def _gl_label_perms(n: int) -> _LabelActions:
    """The GL(n,2) actions on nonzero label masks: entry chi - 1 of the k-th
    is the xor of the rows of ``gl_group(n)[k]`` picked by the bits of chi.

    A basis change with rows r_i sends label chi to the mask whose bit i is
    the parity of r_i & chi: the transposed action.  Transposition permutes
    GL(n,2), so the set of actions, all ``canonical_code_signature`` reads,
    is the same.
    """
    from .charvec import gl_group  # local import to avoid a module cycle

    group, run, odd = gl_group(n), 1 << (n - 1), 1 << n  # row 0 varies fastest: runs of 2^(n-1) share rows[1:]
    xor_odd = [bytes(x ^ odd ^ r if x & odd else x for x in range(256)) for r in range(1 << n)]  # unflag, xor r
    perms, by_row1 = [], defaultdict(lambda: [[] for _ in range(1 << n)])  # by_row1[rows[1:2]][rows[0]]
    for k in range(0, len(group), run):  # entry x - 1: suffix span entry x >> 1, xor row 0 if x is odd
        template = bytes(s | odd * b for s in _xor_span(group[k].rows[1:]) for b in (0, 1))[1:]  # odd ones flagged
        by_row0 = by_row1[group[k].rows[1:2]]
        for g in group[k : k + run]:
            perms.append(perm := template.translate(xor_odd[g.rows[0]]))
            by_row0[g.rows[0]].append(perm)
    actions = _LabelActions(perms)  # the head of an action: its first two entries, rows 0 and 1
    actions.by_head = {bytes((r, *row1)): p for row1, by_row0 in by_row1.items() for r, p in enumerate(by_row0) if p}
    return actions


def canonical_code_signature(basis: CodeBasis) -> tuple[int, ...]:
    """Lexicographically least label-count vector over all basis relabelings.

    Two codes of equal rank are equivalent under a position bijection iff
    their signatures agree: the unlabeled partition is basis-independent, a
    basis change permutes the labels linearly, and matching labeled block
    sizes yields a block-by-block position matching.  Ranking the distinct
    counts keeps order and fits a byte, so the byte minimum maps back exactly.
    Only actions whose head (the images of labels 1 and 2, so their first two
    bytes) ranks least are translated: the order is lexicographic, so any other
    is greater than the minimum, which is therefore the minimum over all.
    """
    n = basis.rank
    if n > 4:
        raise UnsupportedRank("code equivalence is implemented for rank <= 4")
    values = sorted(set(counts := label_counts(basis)))
    table = bytes([0, *map(values.index, counts)]).ljust(256, b"\0")  # label chi -> rank
    by_head = _gl_label_perms(n).by_head
    least = min(head.translate(table) for head in by_head)
    actions = chain.from_iterable(perms for head, perms in by_head.items() if head.translate(table) == least)
    return tuple(values[i] for i in min(map(bytes.translate, actions, repeat(table))))


def codes_equivalent(a: CodeBasis, b: CodeBasis) -> bool:
    """True iff some position bijection maps the span of a onto the span of b.

    Ambient lengths may differ when the extra positions are unused.
    """
    if a.rank != b.rank:
        return False
    return canonical_code_signature(a) == canonical_code_signature(b)
