"""Value semantics of the library's record classes: equality and hashing on
the field tuple, no equality across classes, the repr, read-only fields and
the constructor checks."""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from loopforge import catalog
from loopforge.charvec import CharVector, GLMatrix, LoopClassId, representative
from loopforge.errors import DegenerateBasis, NotInvertible, UnsupportedRank
from loopforge.gf2 import ClassPartition, CodeBasis, Codeword, class_partition
from loopforge.loops import FactorSet, build_factor_set
from loopforge.search import MinimalReport, ReducedRepresentation, minimal_representations
from loopforge.verify import ClaimResult


def _basis(loop: str = "C3_1") -> CodeBasis:
    return catalog.ENTRIES[loop].basis()


def _entry(loop: str) -> catalog.ReferenceEntry:
    e = catalog.ENTRIES[loop]
    return catalog.ReferenceEntry(e.loop, e.degree, e.type, e.generators, e.published_generators)


# class -> (its fields, a fresh instance on each call, a fresh unequal one)
CASES = {
    Codeword: (("length", "bits"), lambda: Codeword(7, 0b1011), lambda: Codeword(7, 0b1010)),
    CodeBasis: (("length", "generators"), _basis, lambda: _basis("C3_2")),
    ClassPartition: (
        ("length", "rank", "blocks"),
        lambda: class_partition(_basis()),
        lambda: class_partition(_basis("C3_2")),
    ),
    LoopClassId: (("rank", "index"), lambda: LoopClassId(4, 3), lambda: LoopClassId(4, 4)),
    CharVector: (
        ("rank", "packed"),
        lambda: CharVector.from_shorthand(3, "110000"),
        lambda: CharVector.from_shorthand(3, "100000"),
    ),
    GLMatrix: (("rank", "rows"), lambda: GLMatrix(3, (3, 2, 4)), lambda: GLMatrix(3, (1, 2, 4))),
    catalog.ReferenceEntry: (
        ("loop", "degree", "type", "generators", "published_generators"),
        lambda: _entry("C4_7"),
        lambda: _entry("C4_6"),
    ),
    FactorSet: (
        ("basis", "codewords", "signs"),
        lambda: build_factor_set(_basis()),
        lambda: build_factor_set(_basis("C3_5")),
    ),
    ReducedRepresentation: (
        ("counts", "degree"),
        lambda: ReducedRepresentation((1,) * 7, 7),
        lambda: ReducedRepresentation((1,) * 6 + (5,), 11),
    ),
    MinimalReport: (
        ("loop", "degree", "representations", "max_class_size"),
        lambda: minimal_representations(representative(LoopClassId(3, 1))),
        lambda: minimal_representations(representative(LoopClassId(3, 1)), max_class_size=6),
    ),
    ClaimResult: (
        ("claim", "passed", "detail", "mismatches"),
        lambda: ClaimResult("c", False, "d", ("x",)),
        lambda: ClaimResult("c", False, "d"),
    ),
}
NAMES = [cls.__name__ for cls in CASES]
CLASSES = dict(zip(NAMES, CASES))


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in CASES[type(obj)][0])


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_are_equal_and_hash_alike(name):
    cls = CLASSES[name]
    fields, make, make_other = CASES[cls]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_values(a))  # the field tuple's hash: set order unchanged
    assert a != other and hash(other) == hash(_values(other))
    if cls is not CharVector:  # its constructor takes the coordinates
        assert cls(**dict(zip(fields, _values(a)))) == a
        assert cls(*_values(a)) == a


@pytest.mark.parametrize("name", NAMES)
def test_another_class_with_the_same_fields_is_unequal(name):
    cls = CLASSES[name]
    fields, make, _ = CASES[cls]
    a = make()
    twin = object.__new__(type("Twin", (cls,), {}))
    for field, value in zip(fields, _values(a)):
        object.__setattr__(twin, field, value)
    assert a.__eq__(twin) is NotImplemented and twin.__eq__(a) is NotImplemented
    assert a != twin and twin != a
    assert a.__eq__(_values(a)) is NotImplemented and a != _values(a)


def test_reprs_are_pinned():
    assert repr(Codeword(7, 0b1011)) == "Codeword(7, (1, 2, 4))"
    assert repr(_basis()) == "CodeBasis(m=7, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])"
    assert repr(LoopClassId(4, 3)) == "LoopClassId(rank=4, index=3)"
    assert repr(CharVector.from_shorthand(3, "110000")) == "CharVector(rank=3, packed=67)"
    assert repr(GLMatrix(3, (3, 2, 4))) == "GLMatrix(rank=3, rows=(3, 2, 4))"
    assert repr(ClaimResult("x", True, "d")) == "ClaimResult(claim='x', passed=True, detail='d', mismatches=())"
    rep = ReducedRepresentation((1,) * 7, 7)
    rep.basis  # the cached code is not shown
    assert repr(rep) == "ReducedRepresentation(counts=(1, 1, 1, 1, 1, 1, 1), degree=7)"
    assert repr(minimal_representations(representative(LoopClassId(3, 1)))) == (
        "MinimalReport(loop=LoopClassId(rank=3, index=1), degree=7, representations="
        "(ReducedRepresentation(counts=(1, 1, 1, 1, 1, 1, 1), degree=7),), max_class_size=7)"
    )
    assert repr(catalog.ENTRIES["C3_1"]) == (
        "ReferenceEntry(loop='C3_1', degree=7, type=(1, 1, 1, 1, 1, 1, 1), "
        "generators=((1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)), "
        "published_generators=((1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)))"
    )


@pytest.mark.parametrize("name", [n for n in NAMES if n not in ("Codeword", "CodeBasis")])
def test_repr_names_each_field(name):
    cls = CLASSES[name]
    fields, make, _ = CASES[cls]
    a = make()
    shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, _values(a)))
    assert repr(a) == f"{name}({shown})"


@pytest.mark.parametrize("name", [n for n in NAMES if n != "ReducedRepresentation"])
def test_fields_are_read_only(name):
    cls = CLASSES[name]
    fields, make, _ = CASES[cls]
    a = make()
    for field, value in zip(fields, _values(a)):
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert _values(a) == _values(make())


def test_matrices_built_past_the_constructor_are_plain_values():
    # gl_group, products, inverses and witnesses fill their GLMatrix through the slot
    # descriptors without re-ranking; each is the value the constructor builds, as read-only
    from loopforge.charvec import _invertible, canonicalize, gl_group, normalize_rank4

    cv = CharVector.from_shorthand(4, "0001001100")
    g, h = GLMatrix(4, (3, 2, 4, 9)), GLMatrix(4, (1, 2, 4, 8))
    built = [_invertible(1, (1,)), *gl_group(3), g * h, g.inverse(), canonicalize(cv)[2], normalize_rank4(cv)[1]]
    for matrix in built:
        checked = GLMatrix(matrix.rank, matrix.rows)
        assert type(matrix) is GLMatrix and not hasattr(matrix, "__dict__")
        assert matrix == checked and hash(matrix) == hash(checked) and repr(matrix) == repr(checked)
        for field, value in (("rank", matrix.rank), ("rows", matrix.rows)):
            with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{field}'"):
                setattr(matrix, field, value)
            with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{field}'"):
                delattr(matrix, field)
        assert (matrix.rank, matrix.rows) == (checked.rank, checked.rows)


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal_values(name):
    cls = CLASSES[name]
    a = CASES[cls][1]()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)


def test_reduced_representation_is_mutable_and_caches_its_basis():
    rep, same = ReducedRepresentation((1,) * 7, 7), ReducedRepresentation((1,) * 7, 7)
    assert rep._basis is None
    basis = rep.basis
    assert rep._basis is basis and rep.basis is basis and basis == _basis()
    assert rep == same and hash(rep) == hash(same)  # the cache is not compared
    rep.degree = 8
    assert rep.degree == 8 and rep != same


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Codeword(-1, 0), ValueError, "negative length -1"),
        (lambda: Codeword(2, 4), ValueError, "bits out of range for length 2"),
        (lambda: Codeword(2, -1), ValueError, "bits out of range for length 2"),
        (lambda: CodeBasis(4, ()), DegenerateBasis, "a basis needs at least one generator"),
        (lambda: CodeBasis(4, (Codeword(3, 1),)), ValueError, "generator length 3 != ambient length 4"),
        (lambda: CodeBasis(4, (Codeword(4, 1), Codeword(4, 0))), DegenerateBasis, "zero generator"),
        (
            lambda: CodeBasis(4, (Codeword(4, 3), Codeword(4, 5), Codeword(4, 6))),
            DegenerateBasis,
            "generators are linearly dependent over GF(2)",
        ),
        (lambda: LoopClassId(3, 6), ValueError, "index 6 outside 1..5 for rank 3"),
        (lambda: LoopClassId(4, 0), ValueError, "index 0 outside 1..16 for rank 4"),
        (lambda: LoopClassId(5, 1), UnsupportedRank, "classified loops have rank 3 or 4, got 5"),
        (lambda: CharVector(1, (1,), (), ()), ValueError, "rank must be at least 2"),
        (lambda: CharVector(3, (1, 1), (0, 0, 0), (1,)), ValueError, "wrong coordinate count"),
        (lambda: CharVector(3, (1, 1, 1), (0, 0), (1,)), ValueError, "wrong coordinate count"),
        (lambda: CharVector(3, (1, 1, 1), (0, 0, 0), ()), ValueError, "wrong associator coordinate count"),
        (lambda: CharVector(3, (1, 1, 2), (0, 0, 0), (1,)), ValueError, "coordinates must be bits"),
        (lambda: GLMatrix(3, (1, 2)), ValueError, "need n row masks of width n"),
        (lambda: GLMatrix(2, (1, 4)), ValueError, "need n row masks of width n"),
        (lambda: GLMatrix(2, (1, 1)), NotInvertible, "singular matrix (1, 1)"),
    ],
)
def test_constructor_errors_keep_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
