"""Factor sets, explicit loops, the Moufang identity and the sign laws."""

from __future__ import annotations

import csv
import hashlib
import io
from itertools import product
from typing import Iterator

import pytest

from conftest import (
    associative_by_definition,
    axiom_violations_by_definition,
    center_by_definition,
    first_associator_by_definition,
    first_commutator_by_definition,
    first_square_by_definition,
    moufang_by_definition,
    random_doubly_even_basis,
)
import loopforge.verify as verify
from loopforge.catalog import ENTRIES
from loopforge.charvec import char_vector_of, loop_class
from loopforge.errors import NotDoublyEven, UnsupportedRank
from loopforge.gf2 import CodeBasis, Codeword
from loopforge.loops import (
    CodeLoop,
    FactorSet,
    _law_range,
    build_factor_set,
    build_loop,
    is_moufang,
    loop_table_csv,
)

V1_R3 = CodeBasis.from_positions(7, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])
V5_R3 = ENTRIES["C3_5"].basis()


def same_loop_class(a: CodeBasis, b: CodeBasis) -> bool:
    """Isomorphic code loops, read as equal orbit classes of the two vectors."""
    return loop_class(char_vector_of(a)) == loop_class(char_vector_of(b))


# SHA-256 prefixes of loop_table_csv(build_loop(basis)) for the bases of
# test_loop_tables_are_pinned, recorded from an independent construction that
# extended the table one generator at a time
LOOP_TABLE_DIGESTS = {
    "C3_1": "e5ce5a9a3069662a",
    "C3_2": "6109b15a30e01e6f",
    "C3_3": "e5667813cc4a3986",
    "C3_4": "26bd17b01a12f472",
    "C3_5": "d9c04330ec85f9cc",
    "C4_1": "4cdd6838af0f2d24",
    "C4_2": "ccd85ee46e7f3876",
    "C4_3": "ff03fbfd67cc8e73",
    "C4_4": "52899b53da9f9abd",
    "C4_5": "c45c69c124a3e024",
    "C4_6": "42678bf52e2ce165",
    "C4_7": "8b688fa3dbf4ae96",
    "C4_8": "f5b994fb2c73e911",
    "C4_9": "0eb9468a82231920",
    "C4_10": "e2d7885c456d6efc",
    "C4_11": "1148a18db797d4a4",
    "C4_12": "3d8d02427480dbec",
    "C4_13": "252b52e05e1a677a",
    "C4_14": "216abf7825dd711b",
    "C4_15": "e7aa1890c1c5fb98",
    "C4_16": "dc79261f34026f9f",
    "rank 1": "b5b2d2ceca340add",
    "rank 2": "d9e967090fc5066a",
    "padded": "f3d258a377ce8228",
}


def iter_factor_sets(basis: CodeBasis) -> Iterator[FactorSet]:
    """The factor set twisted by every coboundary: phi(v, w) c(v) c(w) c(v ^ w)
    for each sign function c on the span with c(0) = 1.

    2^(2^n - 1) twists; c and c times a character of the span give the same
    table, so 2^(2^n - n - 1) of them are distinct.  Practical for rank <= 3.
    """
    fs = build_factor_set(basis)
    span_masks = range(fs.size)
    for values in product((1, -1), repeat=fs.size - 1):
        c = (1,) + values
        signs = tuple(
            tuple(fs.signs[v][w] * c[v] * c[w] * c[v ^ w] for w in span_masks) for v in span_masks
        )
        yield FactorSet(basis, fs.codewords, signs)


def test_factor_set_identity_row():
    fs = build_factor_set(V1_R3)
    for v in range(fs.size):
        assert fs.signs[0][v] == 1
        assert fs.signs[v][0] == 1


def test_factor_set_square_signs():
    fs = build_factor_set(V1_R3)
    for v, word in enumerate(fs.codewords):
        expected = -1 if (word.bit_count() // 4) % 2 else 1
        assert fs.signs[v][v] == expected
    # every generator of V1 has weight 4, so every nonzero square is -1
    assert all(fs.signs[v][v] == -1 for v in (1, 2, 4))


def test_factor_set_axioms_exhaustive_v1():
    assert axiom_violations_by_definition(build_factor_set(V1_R3)) == []


def test_factor_set_axioms_random_codes(rng):
    for _ in range(10):
        rank = rng.choice((2, 3, 4))
        basis = random_doubly_even_basis(rng, rank, rng.randrange(3 + 2 * rank, 22))
        assert axiom_violations_by_definition(build_factor_set(basis)) == []


def _tampered(fs: FactorSet, cells=(), identity_row=False) -> FactorSet:
    signs = [list(row) for row in fs.signs]
    for v, w in cells:
        signs[v][w] = -signs[v][w]
    if identity_row:
        signs[0] = [-s for s in signs[0]]
    return FactorSet(fs.basis, fs.codewords, tuple(map(tuple, signs)))


@pytest.mark.parametrize("name", ("C3_1", "C3_5", "C4_1", "C4_14"))
def test_axiom_violations_match_the_cell_by_cell_check(monkeypatch, name):
    # the loop-laws claim checks the axioms as sign laws of the loop table; it
    # must fail exactly where the cell scan finds a violation: on the valid
    # table, a wrong identity row, every single sign flip, every flip of a pair
    # phi(v, w), phi(w, v) (which keeps the square and twist axioms), and
    # codewords that are no longer the span in mask order.  Only +1/-1 tables: build_factor_set
    # writes no other entry, and CodeLoop reads any entry that is not negative
    # as +1, so an entry of 0 is a +1 to the claim but a violation to the scan.
    # Every one of these loop tables is sign symmetric, so the laws run over V;
    # each message must still name the first counterexample over all elements
    entry = ENTRIES[name]
    fs = build_factor_set(entry.basis())
    size = fs.size
    tables = [fs, _tampered(fs, identity_row=True)]
    tables += [_tampered(fs, [(v, w)]) for v in range(size) for w in range(size)]
    tables += [_tampered(fs, [(v, w), (w, v)]) for v in range(size) for w in range(v)]
    shuffled = list(fs.codewords)
    shuffled[3], shuffled[5] = shuffled[5], shuffled[3]
    tables.append(FactorSet(fs.basis, tuple(shuffled), fs.signs))
    verdicts = []
    for table in tables:
        monkeypatch.setattr(verify, "build_loop", lambda basis, table=table: CodeLoop(table))
        found = verify.check_loop_laws(entry)
        verdicts.append(bool(found))
        loop = CodeLoop(table)
        moufang = moufang_by_definition(loop)
        assert is_moufang(loop) == moufang
        first = [
            None if moufang else "Moufang identity fails",
            first_square_by_definition(loop),
            first_commutator_by_definition(loop),
            first_associator_by_definition(loop),
        ]
        assert found == [f"{name}: {message}" for message in first if message]
    assert verdicts == [bool(axiom_violations_by_definition(table)) for table in tables]
    assert verdicts == [False] + [True] * (len(tables) - 1)


def test_factor_set_rank_cap():
    basis = CodeBasis.from_positions(
        40, [range(8 * i + 1, 8 * i + 9) for i in range(5)]
    )
    with pytest.raises(UnsupportedRank):
        build_factor_set(basis)


def test_loop_tables_are_pinned():
    bases = {name: entry.basis() for name, entry in ENTRIES.items()}
    bases["rank 1"] = CodeBasis.from_positions(4, [(1, 2, 3, 4)])
    bases["rank 2"] = CodeBasis.from_positions(6, [(1, 2, 3, 4), (1, 2, 5, 6)])
    bases["padded"] = CodeBasis.from_positions(
        100_000, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 99_999)]
    )
    digests = {
        name: hashlib.sha256(loop_table_csv(build_loop(basis)).encode()).hexdigest()[:16]
        for name, basis in bases.items()
    }
    assert digests == LOOP_TABLE_DIGESTS
    # the build does not check the axioms; this is where they are checked
    for name, basis in bases.items():
        assert axiom_violations_by_definition(build_factor_set(basis)) == [], name


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_factor_set_rejects_codes_that_are_not_doubly_even(rank):
    # weight-4 blocks and a weight-6 word; at rank >= 2 the word plus the
    # first block has weight 2
    gens = [range(4 * i + 1, 4 * i + 5) for i in range(rank - 1)] + [range(1, 7)]
    basis = CodeBasis.from_positions(max(6, 4 * rank - 4), gens)
    with pytest.raises(NotDoublyEven, match="factor sets require a doubly even code"):
        build_factor_set(basis)


@pytest.mark.parametrize(
    "word, message",
    [
        (Codeword(7, 0b11), "codeword is not in the code"),
        (Codeword(99, 0b1111), "codeword of length 99, the code's is 7"),
        (2.0, r"coefficient mask must be an int in range\(8\)"),
        (8, r"coefficient mask must be an int in range\(8\)"),
        (-1, r"coefficient mask must be an int in range\(8\)"),
    ],
)
def test_element_id_rejects_what_names_no_element(word, message):
    # a codeword outside the span or of another length, and a mask that is not
    # an int in range, each name no element of C3_1's loop
    loop = build_loop(ENTRIES["C3_1"].basis())
    with pytest.raises(ValueError, match=f"^{message}$"):
        loop.element_id(1, word)


def test_loop_identity_and_negation():
    loop = build_loop(V1_R3)
    e = loop.identity
    for x in loop.elements():
        assert loop.mul(e, x) == x
        assert loop.mul(x, e) == x
    for v in range(loop.half):
        for w in range(loop.half):
            plus = loop.mul(loop.element_id(1, v), loop.element_id(1, w))
            minus = loop.mul(loop.element_id(-1, v), loop.element_id(1, w))
            flipped = loop.mul(loop.element_id(1, v), loop.element_id(-1, w))
            assert minus == flipped
            assert loop.sign_of(minus) == -loop.sign_of(plus)
            assert loop.codeword_of(minus) == loop.codeword_of(plus)


def test_v1_loop_order_and_nonassociativity():
    loop = build_loop(V1_R3)
    assert loop.order == 16
    assert not associative_by_definition(loop)
    assert is_moufang(loop)


def test_associative_loop_is_moufang():
    # disjoint weight-4 blocks give an (abelian) group table
    basis = CodeBasis.from_positions(8, [(1, 2, 3, 4), (5, 6, 7, 8)])
    loop = build_loop(basis)
    assert associative_by_definition(loop)
    assert is_moufang(loop)


def test_moufang_for_all_reference_bases():
    for entry in ENTRIES.values():
        assert is_moufang(build_loop(entry.basis())), entry.loop


def test_moufang_matches_its_definition():
    # the 21 reference loops and the 16 coboundary twists of V1's factor set;
    # tampered tables are compared in test_verify
    loops = [build_loop(entry.basis()) for entry in ENTRIES.values()]
    loops += [CodeLoop(fs) for fs in {fs.signs: fs for fs in iter_factor_sets(V1_R3)}.values()]
    assert len(loops) == 37
    for loop in loops:
        assert is_moufang(loop) and moufang_by_definition(loop)


def test_law_maps_are_built_once_per_table(monkeypatch):
    # the loop-laws claim and is_moufang share one set of row maps per loop;
    # a table set after a check is read afresh, not through the old maps
    ranges = []
    monkeypatch.setattr("loopforge.loops._law_range", lambda loop, left: ranges.append(loop) or _law_range(loop, left))
    assert verify.check_loop_laws(ENTRIES["C3_1"]) == []
    assert len(ranges) == 1
    loop = build_loop(ENTRIES["C3_1"].basis())
    assert is_moufang(loop) and is_moufang(loop) and len(ranges) == 2
    rows = [list(row) for row in loop.table]
    rows[0][0] ^= loop.half
    loop.table = tuple(map(tuple, rows))
    assert not is_moufang(loop) and not moufang_by_definition(loop)
    assert len(ranges) == 3


def test_moufang_check_is_capped_at_order_64():
    # six disjoint blocks of 4 span order 128; phi(v, w) = (-1)^(blocks v and w
    # share) is a valid factor set there, which build_factor_set refuses at rank 6
    basis = CodeBasis.from_positions(24, [tuple(range(4 * i + 1, 4 * i + 5)) for i in range(6)])
    masks = range(64)
    words = tuple(sum(0b1111 << 4 * i for i in range(6) if x >> i & 1) for x in masks)
    signs = tuple(tuple(-1 if (x & y).bit_count() & 1 else 1 for y in masks) for x in masks)
    loop = CodeLoop(FactorSet(basis, words, signs))
    assert loop.order == 128
    with pytest.raises(UnsupportedRank, match="exhaustive identity check is capped at order 64"):
        is_moufang(loop)


def test_square_commutator_associator_signs_v5():
    loop = build_loop(V5_R3)
    v1 = loop.element_id(1, 0b001)
    v2 = loop.element_id(1, 0b010)
    v3 = loop.element_id(1, 0b100)
    # |v1| = 12 so v1 squares to the negative identity
    assert loop.square(v1) == loop.negative_identity
    # |v1 & v2| = 8 so the commutator is trivial
    assert loop.commutator(v1, v2) == loop.identity
    # |v1 & v2 & v3| = 5 so the associator is the negative identity
    assert loop.associator(v1, v2, v3) == loop.negative_identity


def test_generator_associator_negative_for_rank3_entries():
    for name in ("C3_1", "C3_2", "C3_3", "C3_4", "C3_5"):
        loop = build_loop(ENTRIES[name].basis())
        ids = [loop.element_id(1, 1 << i) for i in range(3)]
        assert loop.associator(*ids) == loop.negative_identity


def test_sign_laws_exhaustive_small():
    for name in ("C3_1", "C4_14"):
        loop = build_loop(ENTRIES[name].basis())
        words = loop.factor_set.codewords
        half = loop.half
        for a in loop.elements():
            va = words[a % half]
            expected = half * ((va.bit_count() // 4) & 1)
            assert loop.square(a) == expected
            for b in loop.elements():
                vb = words[b % half]
                expected = half * (((va & vb).bit_count() // 2) & 1)
                assert loop.commutator(a, b) == expected
                # commutator triviality is the same as table symmetry
                assert (loop.mul(a, b) != loop.mul(b, a)) == bool(expected)
        for a in loop.elements():
            va = words[a % half]
            for b in loop.elements():
                vab = va & words[b % half]
                for c in loop.elements():
                    expected = half * ((vab & words[c % half]).bit_count() & 1)
                    assert loop.associator(a, b, c) == expected


def test_quotient_by_center_is_elementary_abelian():
    for name in ("C3_2", "C4_16"):
        loop = build_loop(ENTRIES[name].basis())
        for x in loop.elements():
            assert loop.square(x) in (loop.identity, loop.negative_identity)


def test_center_sizes():
    # rank 3: center is exactly {+1, -1}; rank 4: the radical generator joins
    # the center exactly when it commutes with every generator.
    for name in ("C3_1", "C3_5"):
        loop = build_loop(ENTRIES[name].basis())
        assert loop.center() == (loop.identity, loop.negative_identity)
    for index in range(1, 17):
        name = f"C4_{index}"
        entry = ENTRIES[name]
        loop = build_loop(entry.basis())
        cv = char_vector_of(entry.basis())
        # the radical generator e4 is central iff it commutes with a, b, c
        central_d = cv.beta[2] == cv.beta[4] == cv.beta[5] == 0
        assert len(loop.center()) == (4 if central_d else 2), name


def test_center_matches_its_definition():
    # the 21 reference loops and the 16 coboundary twists of V1's factor set
    loops = [build_loop(entry.basis()) for entry in ENTRIES.values()]
    twists = {fs.signs: fs for fs in iter_factor_sets(V1_R3)}
    assert len(loops) == 21 and len(twists) == 16
    loops += [CodeLoop(fs) for fs in twists.values()]
    for loop in loops:
        assert loop.center() == center_by_definition(loop)


def test_all_coboundary_twists_give_valid_isomorphic_loops():
    tables = {fs.signs: fs for fs in iter_factor_sets(V1_R3)}
    assert len(tables) == 16
    reference = char_vector_of(V1_R3)
    for fs in tables.values():
        assert axiom_violations_by_definition(fs) == []
        loop = CodeLoop(fs)
        assert is_moufang(loop)
        # characteristic data of the standard generators is choice-independent
        for i in range(3):
            g = loop.element_id(1, 1 << i)
            assert loop.square(g) == loop.half * reference.sigma[i]
        assert loop.associator(
            loop.element_id(1, 1), loop.element_id(1, 2), loop.element_id(1, 4)
        ) == loop.half * reference.alpha[0]


def test_loops_isomorphic_examples(rng):
    # a code with vector 111000 represents the same loop as the reference basis
    assert same_loop_class(V5_R3, ENTRIES["C3_5"].basis())
    assert not same_loop_class(ENTRIES["C3_1"].basis(), ENTRIES["C3_2"].basis())
    perm = list(range(1, 8))
    rng.shuffle(perm)
    permuted = CodeBasis(
        7,
        tuple(
            Codeword.from_positions(7, [perm[p - 1] for p in g.positions])
            for g in V1_R3.generators
        ),
    )
    assert same_loop_class(V1_R3, permuted)


def _explicit_isomorphism_exists(l1: CodeLoop, l2: CodeLoop) -> bool:
    """Desk-scale oracle: search generator images directly (order 16 only).

    A homomorphism is pinned by the images of the three generators: the image
    of the central -1 must be the associator of the images, and every element
    extends along its coefficient mask.  Bijectivity and multiplicativity are
    then checked outright.
    """
    assert l1.order == l2.order == 16
    gens = [l1.element_id(1, 1 << i) for i in range(3)]
    neg = l1.negative_identity
    for a in l2.elements():
        for b in l2.elements():
            for c in l2.elements():
                image_neg = l2.associator(a, b, c)
                if image_neg != l2.negative_identity:
                    continue  # -1 must map to the nontrivial central element
                images = {l1.identity: l2.identity, gens[0]: a, gens[1]: b, gens[2]: c}
                # extend along coefficient masks: v_{i1} * (v_{i2} * ...)
                candidates = {0: l2.identity, 1: a, 2: b, 4: c}
                ok = True
                for mask in (3, 5, 6, 7):
                    low = mask & -mask
                    candidates[mask] = l2.mul(candidates[low], candidates[mask ^ low])
                mapping = [0] * 16
                for mask in range(8):
                    src = l1.element_id(1, mask)
                    # build the source the same way to keep signs aligned
                    built = l1.identity
                    for i in (2, 1, 0):
                        if mask >> i & 1:
                            built = l1.mul(gens[i], built)
                    img = candidates[mask]
                    mapping[built] = img
                    mapping[l1.mul(neg, built)] = l2.mul(l2.negative_identity, img)
                if len(set(mapping)) != 16:
                    continue
                if all(
                    mapping[l1.mul(x, y)] == l2.mul(mapping[x], mapping[y])
                    for x in l1.elements()
                    for y in l1.elements()
                ):
                    return True
    return False


def test_orbit_equality_matches_explicit_isomorphism():
    # the classification-level verdict agrees with a direct search for an
    # isomorphism between the explicit order-16 loops
    alt = CodeBasis.from_positions(
        17,
        [
            range(1, 13),
            tuple(range(1, 9)) + (13, 14, 15, 16),
            (1, 2, 3, 4, 5, 9, 10, 11, 13, 14, 15, 17),
        ],
    )
    pairs = [
        (ENTRIES["C3_5"].basis(), alt, True),
        (ENTRIES["C3_1"].basis(), ENTRIES["C3_2"].basis(), False),
        (ENTRIES["C3_3"].basis(), ENTRIES["C3_3"].basis(), True),
    ]
    for basis_a, basis_b, expected in pairs:
        assert same_loop_class(basis_a, basis_b) == expected
        explicit = _explicit_isomorphism_exists(build_loop(basis_a), build_loop(basis_b))
        assert explicit == expected


def test_table_csv_shape():
    loop = build_loop(V1_R3)
    text = loop_table_csv(loop)
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == loop.order + 1
    assert all(len(r) == loop.order + 1 for r in rows)
    assert rows[0][1] == "+"  # identity column header: positive empty word
    assert rows[0][1 + loop.half] == "-"
    body = {cell for row in rows[1:] for cell in row[1:]}
    assert body == set(rows[0][1:])  # the table is closed over the headers


def test_loop_table_csv_ignores_padding():
    gens = ENTRIES["C4_1"].generators
    small = loop_table_csv(build_loop(CodeBasis.from_positions(8, gens)))
    padded = loop_table_csv(build_loop(CodeBasis.from_positions(200_000, gens)))
    assert padded == small
    assert small.count("\n") == 33
