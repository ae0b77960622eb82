"""Explicit loops on {+1,-1} x V built from a sign-valued factor set.

The factor set phi on the span of a doubly even code must satisfy

    phi(v, v)   = (-1)^(|v|/4)
    phi(v, w)   = (-1)^(|v & w|/2) * phi(w, v)
    phi(0, v)   = phi(v, 0) = 1
    phi(v+w, u) = phi(v, w+u) * phi(v, w) * phi(w, u) * (-1)^|v & w & u|

Such a phi is fixed by the characteristic vector of the basis, lambda_i =
t_i/4, lambda_ij = t_ij/2 and lambda_ijk = t_ijk (mod 2), where t_s is the
meet weight of the generators in s.  On coefficient masks x, y the table is
phi(x, y) = (-1)^theta(x, y) with the closed-form cocycle (Griess, *Code
loops*, J. Algebra 100, 1986)

    theta(x, y) = sum_i lambda_i x_i y_i + sum_{i<j} lambda_ij x_j y_i
                  + sum_{i<j<k} lambda_ijk (x_i y_j y_k + x_j y_i y_k + x_k y_i y_j)

theta is linear in x, so for each y it is the parity of x & rows[y].  Any
other valid phi differs from this one by a coboundary and gives an isomorphic
loop.  The build checks no axiom: on the loop table they are the square,
commutator and associator sign laws, which the ``loop-laws`` claim of
``verify-paper`` checks exhaustively (``verify.check_loop_laws``).

``CodeLoop`` numbers (e, v) as id = sign bit * |V| | mask of v, the sign bit set
for e = -1, so a ^ b multiplies the signs and adds the codewords: the product of
ids a and b is a ^ b, its sign bit flipped where phi(v, w) = -1.  Identity is 0.
The laws are read on whole rows, row a being the map z -> a z: the Moufang
identity compares composed maps, and the center is the commutant.
"""

from __future__ import annotations

from .errors import NotDoublyEven, UnsupportedRank
from .fileio import csv_text
from .gf2 import Codeword, CodeBasis, _Value, _xor_span, is_doubly_even, meet_weights


class FactorSet(_Value):
    """Sign table over the span of a basis, keyed by coefficient masks."""

    __slots__ = ("basis", "codewords", "signs")

    def __init__(self, basis: CodeBasis, codewords: tuple[int, ...], signs: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "codewords", codewords)
        object.__setattr__(self, "signs", signs)

    @property
    def size(self) -> int:
        return len(self.codewords)


def build_factor_set(basis: CodeBasis) -> FactorSet:
    """The closed-form factor set on the span of a doubly even basis of rank <= 4."""
    n = basis.rank
    if n > 4:
        raise UnsupportedRank("factor sets are built for rank <= 4 (span size <= 16)")
    if not is_doubly_even(basis):
        raise NotDoublyEven("factor sets require a doubly even code")
    size = 1 << n
    lam = [
        w >> (3 - s.bit_count()) & 1 if 0 < s.bit_count() <= 3 else 0
        for s, w in enumerate(meet_weights(basis.masks))
    ]
    # the bilinear terms: column i holds lambda_i at bit i and lambda_ij at bits j > i
    rows = _xor_span([sum(lam[1 << i | 1 << j] << j for j in range(i, n)) for i in range(n)])
    # the cubic terms: bit a of rows[y] flips for each a of a triple s whose
    # other two lie in y, so all of s when s lies in y, else its one bit outside y
    for s in range(size):
        if s.bit_count() == 3 and lam[s]:
            for y in range(size):
                outside = s & ~y
                if outside & (outside - 1) == 0:
                    rows[y] ^= outside or s
    signs = tuple(
        tuple(-1 if (x & row).bit_count() & 1 else 1 for row in rows) for x in range(size)
    )
    return FactorSet(basis, tuple(_xor_span(basis.masks)), signs)


class CodeLoop:
    """Loop on {+1,-1} x V with product (e,v)(d,w) = (e d phi(v,w), v+w), on the ids above."""

    def __init__(self, factor_set: FactorSet):
        self.factor_set = factor_set
        self.basis = factor_set.basis
        half = factor_set.size
        self.half = half
        self.order = 2 * half
        phi = factor_set.signs
        self.table: tuple[tuple[int, ...], ...] = tuple(
            tuple(a ^ b ^ (half if phi[a % half][b % half] < 0 else 0) for b in range(self.order))
            for a in range(self.order)
        )
        # the identity appears once per row: codeword of a, one of its two signs
        self.inverses: tuple[int, ...] = tuple(row.index(0) for row in self.table)

    # -- element bookkeeping ------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

    @property
    def negative_identity(self) -> int:
        return self.half

    def element_id(self, sign: int, word: Codeword | int) -> int:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if isinstance(word, Codeword):
            bits = word.bits
            mask = self.factor_set.codewords.index(bits)
        else:
            mask = word
            if not 0 <= mask < self.half:
                raise ValueError("coefficient mask out of range")
        return (0 if sign == 1 else self.half) + mask

    def sign_of(self, a: int) -> int:
        return 1 if a < self.half else -1

    def codeword_of(self, a: int) -> Codeword:
        return Codeword(self.basis.length, self.factor_set.codewords[a % self.half])

    def elements(self) -> range:
        return range(self.order)

    # -- algebra ------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def square(self, a: int) -> int:
        return self.table[a][a]

    def commutator(self, a: int, b: int) -> int:
        t = self.table
        return t[t[t[self.inverses[a]][self.inverses[b]]][a]][b]

    def associator(self, a: int, b: int, c: int) -> int:
        t = self.table
        return t[t[t[a][b]][c]][self.inverses[t[a][t[b][c]]]]

    def center(self) -> tuple[int, ...]:
        """The commutant, the x whose row equals their column, is the center of a code
        loop: if x commutes with every y, each |x & y| is 0 mod 4, so |x & (y ^ z)| =
        |x & y| + |x & z| - 2 |x & y & z| makes every |x & y & z| even: x lies in the nucleus."""
        return tuple(x for x, column in enumerate(zip(*self.table)) if self.table[x] == column)


def build_loop(basis: CodeBasis) -> CodeLoop:
    """Loop of order 2^(n+1) on the span of a doubly even rank <= 4 basis."""
    return CodeLoop(build_factor_set(basis))


def _left_maps(table: tuple[tuple[int, ...], ...]) -> list[bytes]:
    """Row a as a 256-byte ``bytes.translate`` table for z -> a z, the identity past
    the ids (which must fit a byte): ``L[b].translate(L[a])`` is z -> a (b z)."""
    pad = bytes(range(len(table), 256))
    return [bytes(row) + pad for row in table]


def is_moufang(loop: CodeLoop) -> bool:
    """((x y) x) z = x (y (x z)) as the row identity L_((x y) x) = L_x L_y L_x; order <= 64."""
    if loop.order > 64:
        raise UnsupportedRank("exhaustive identity check is capped at order 64")
    t, left = loop.table, _left_maps(loop.table)
    return all(
        left[t[t[x][y]][x]] == lx.translate(left[y]).translate(lx)
        for x, lx in enumerate(left) for y in range(loop.order)
    )


def loop_table_csv(loop: CodeLoop) -> str:
    """Multiplication table as CSV; headers name elements +positions/-positions."""

    def label(a: int) -> str:
        sign = "+" if loop.sign_of(a) == 1 else "-"
        return sign + ",".join(str(p) for p in loop.codeword_of(a).positions)

    labels = [label(a) for a in loop.elements()]
    rows = [[labels[a]] + [labels[b] for b in row] for a, row in enumerate(loop.table)]
    return csv_text([[""] + labels] + rows)
