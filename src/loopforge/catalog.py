"""Reference data for the classified nonassociative loops of rank 3 and 4.

Degrees, types and bases reproduce the published classification tables.
Three of the published rank-4 basis listings (loops 7, 8 and 10) are
misprints: they contradict the congruences their own characteristic vectors
force (the loop 7 and 10 listings classify into C4_2 and C4_8, the loop 8
listing is not even doubly even).  For those, ``generators`` carries a corrected
basis verified minimal by exhaustive search, and ``published_generators``
preserves the defective original so the discrepancy stays visible; the
verification suite checks both.
"""

from __future__ import annotations

from .gf2 import CodeBasis, _Value


def _r(a: int, b: int) -> tuple[int, ...]:
    return tuple(range(a, b + 1))


class ReferenceEntry(_Value):
    __slots__ = ("loop", "degree", "type", "generators", "published_generators")

    def __init__(self, loop: str, degree: int, type: tuple[int, ...], generators: tuple[tuple[int, ...], ...],
                 published_generators: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "published_generators", published_generators)

    @property
    def corrected(self) -> bool:
        return self.generators != self.published_generators

    def basis(self) -> CodeBasis:
        return CodeBasis.from_positions(self.degree, self.generators)

    def published_basis(self) -> CodeBasis:
        length = max(max(g) for g in self.published_generators)
        return CodeBasis.from_positions(length, self.published_generators)


def _entry(loop, degree, typ, generators, published=None):
    return ReferenceEntry(
        loop, degree, typ, tuple(map(tuple, generators)),
        tuple(map(tuple, published if published is not None else generators)),
    )


RANK3 = (
    _entry("C3_1", 7, (1, 1, 1, 1, 1, 1, 1),
           [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)]),
    _entry("C3_2", 13, (1, 1, 1, 1, 3, 3, 3),
           [_r(1, 8), (1, 2, 3, 4, 9, 10, 11, 12), (1, 5, 6, 7, 9, 10, 11, 13)]),
    _entry("C3_3", 11, (1, 1, 1, 1, 1, 1, 5),
           [_r(1, 8), (1, 2, 3, 4, 5, 6, 9, 10), (1, 2, 3, 4, 5, 7, 9, 11)]),
    _entry("C3_4", 17, (1, 1, 1, 1, 3, 3, 7),
           [(1, 2, 3, 4), (1, 2) + _r(5, 14), (1, 3, 5, 6, 7, 8, 9, 10, 11, 15, 16, 17)]),
    _entry("C3_5", 17, (1, 1, 1, 3, 3, 3, 5),
           [_r(1, 12), _r(1, 8) + (13, 14, 15, 16), (1, 2, 3, 4, 5, 9, 10, 11, 13, 14, 15, 17)]),
)

RANK4 = (
    _entry("C4_1", 8, (1,) * 8,
           [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7), _r(1, 8)]),
    _entry("C4_2", 14, (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2),
           [_r(1, 8), _r(1, 4) + _r(9, 12), (1, 5, 6, 7, 9, 10, 11, 13),
            (1, 2, 5, 8, 9, 12, 13, 14)]),
    _entry("C4_3", 12, (1, 1, 1, 1, 1, 1, 1, 1, 4),
           [_r(1, 8), _r(1, 6) + (9, 10), (1, 2, 3, 4, 5, 7, 9, 11), (1,) + _r(6, 12)]),
    _entry("C4_4", 18, (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 6),
           [_r(1, 8), _r(1, 6) + (9, 10), (1, 2, 3, 7, 9) + _r(11, 17),
            (1, 4, 7, 8, 9, 10, 11, 18)]),
    _entry("C4_5", 18, (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 4),
           [_r(1, 8), (1, 2, 3, 4, 9, 10, 11, 12), (1, 5, 9) + _r(13, 17),
            (1, 2, 5, 6, 9, 10, 13, 18)]),
    _entry("C4_6", 11, (1, 1, 1, 1, 1, 1, 1, 4),
           [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7), (8, 9, 10, 11)]),
    _entry("C4_7", 17, (1, 1, 1, 1, 3, 3, 3, 4),
           [_r(1, 8), (1, 2, 3, 4, 9, 10, 11, 12), (1, 5, 6, 7, 9, 10, 11, 13),
            (14, 15, 16, 17)],
           published=[_r(1, 8), (1, 2, 3, 4, 9, 10, 11, 12), (1, 2, 3, 5, 9, 13, 14, 15),
                      _r(1, 16)]),
    _entry("C4_8", 17, (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3),
           [_r(1, 8), (1, 2, 3, 4) + _r(9, 12), (1, 2, 3, 5, 9, 13, 14, 15),
            (1, 2, 10, 11, 13, 14, 16, 17)],
           published=[_r(1, 8), (1, 2, 3, 4) + _r(9, 12), (1, 2, 3, 5, 9, 13, 14, 15),
                      (1, 2, 9, 10, 13, 14, 16, 17)]),
    _entry("C4_9", 19, (1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3),
           [_r(1, 8), (1, 2, 3, 4) + _r(9, 16), (1, 5, 6, 7, 9, 10, 11, 17),
            (5, 6, 9, 10, 12, 13, 18, 19)]),
    _entry("C4_10", 19, (1, 1, 1, 2, 2, 3, 3, 3, 3),
           [_r(1, 8), (1, 2) + _r(9, 14), (1, 3, 9, 10, 11, 15, 16, 17), (4, 5, 18, 19)],
           published=[_r(1, 8), (1, 2) + _r(9, 14), (1, 3, 9, 10, 11, 15, 16, 17),
                      _r(1, 6) + _r(9, 18)]),
    _entry("C4_11", 17, (1, 1, 1, 1, 2, 2, 3, 3, 3),
           [_r(1, 8), (1, 2, 3, 4) + _r(9, 12), (1, 2, 3, 5, 9, 13, 14, 15), (6, 7, 16, 17)]),
    _entry("C4_12", 17, (1, 1, 1, 1, 1, 1, 2, 2, 3, 4),
           [_r(1, 8), (1, 2, 3, 4) + _r(9, 12), (1, 2, 3, 5, 9, 10, 11, 13),
            (1, 2, 9, 10, 14, 15, 16, 17)]),
    _entry("C4_13", 17, (1, 1, 1, 1, 1, 1, 2, 3, 6),
           [_r(1, 8), (1, 2, 9, 10), (1, 3, 9, 11), (4, 5) + _r(12, 17)]),
    _entry("C4_14", 13, (1, 1, 1, 1, 1, 1, 2, 2, 3),
           [_r(1, 8), (1, 2, 3, 4) + _r(9, 12), (1, 2, 3, 5, 9, 10, 11, 13), (1, 2, 9, 10)]),
    _entry("C4_15", 17, (1, 1, 1, 1, 1, 1, 2, 2, 7),
           [_r(1, 12), (1, 2, 3, 4) + _r(13, 16), (1, 2, 3, 5, 13, 14, 15, 17),
            (1, 2, 13, 14)]),
    _entry("C4_16", 17, (1, 1, 1, 1, 1, 2, 2, 3, 5),
           [_r(1, 8), (1, 2) + _r(9, 14), (1, 3) + _r(9, 13) + (15,), (4, 5, 16, 17)]),
)

ENTRIES = {e.loop: e for e in RANK3 + RANK4}


# Worked rank-4 assembly example: weight vector u in the order
# (t, t123, t124, t134, t234, t12, t13, t14, t23, t24, t34, t1, t2, t3, t4)
# and its class-size solution v in the order
# (x123, x124, x134, x234, x12, x13, x14, x23, x24, x34, x1, x2, x3, x4).
WORKED_EXAMPLE_U = (0, 1, 0, 2, 0, 2, 6, 2, 6, 0, 4, 8, 8, 16, 4)
WORKED_EXAMPLE_V = (1, 0, 2, 0, 1, 3, 0, 5, 0, 2, 1, 1, 3, 0)
WORKED_EXAMPLE_GENERATORS = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (1, 4, 9, 10, 11, 12, 13, 14),
    (1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19),
    (2, 3, 15, 16),
)
