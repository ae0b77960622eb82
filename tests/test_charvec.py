"""Characteristic vectors: extraction, polarization, GL action, orbits."""

from __future__ import annotations

import hashlib
import re
from itertools import combinations
from math import comb

import pytest

from conftest import (
    char_vector_of_meets,
    enumerate_nonassociative,
    eval_alpha,
    eval_beta,
    eval_sigma,
    random_covering_basis,
    random_doubly_even_basis,
    random_gl,
    row_action,
    shorthand_alpha,
    span,
    transform_basis,
)
from loopforge.catalog import ENTRIES
from loopforge.charvec import (
    MAX_FORM_RANK,
    CharVector,
    GLMatrix,
    LoopClassId,
    REPRESENTATIVES,
    alpha_radical,
    canonicalize,
    _squares,
    char_vector_of,
    gl_group,
    gl_transform,
    loop_class,
    nonassociative_count,
    normalize_rank4,
    orbit_representatives,
    representative,
)
from loopforge.errors import (
    AssociativeLoop,
    NotDoublyEven,
    NotInvertible,
    UnsupportedRank,
)
from loopforge.fileio import parse_lambda
from loopforge.gf2 import CodeBasis, gf2_rank, is_doubly_even, meet_weights

V1_R3 = CodeBasis.from_positions(7, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])
V5_R3 = CodeBasis.from_positions(
    17,
    [
        range(1, 13),
        tuple(range(1, 9)) + (13, 14, 15, 16),
        (1, 2, 3, 4, 5, 9, 10, 11, 13, 14, 15, 17),
    ],
)


def test_char_vector_of_v5():
    assert char_vector_of(V5_R3).shorthand() == "111000"


def test_char_vector_of_v1():
    assert char_vector_of(V1_R3).shorthand() == "111111"


def test_char_vector_disjoint_blocks_rank2():
    basis = CodeBasis.from_positions(16, [range(1, 9), range(9, 17)])
    cv = char_vector_of(basis)
    assert cv.sigma == (0, 0) and cv.beta == (0,) and cv.alpha == ()
    assert not cv.nonassociative


def test_char_vector_requires_doubly_even():
    with pytest.raises(NotDoublyEven):
        char_vector_of(CodeBasis.from_positions(4, [(1, 2)]))


def test_doubly_even_check_from_meets_matches_the_span(rng):
    # t_i = 0 mod 4 and t_ij even for all i, j iff every span weight is 0 mod 4
    cases = [random_doubly_even_basis(rng, rng.choice((2, 3, 4)), 16) for _ in range(20)]
    cases += [random_covering_basis(rng, rng.choice((2, 3, 4, 5)), rng.randrange(6, 14)) for _ in range(200)]
    cases += [CodeBasis.from_positions(4, [(1, 2)]), CodeBasis.from_positions(4, [(1, 2, 3, 4)])]
    verdicts = set()
    for basis in cases:
        try:
            char_vector_of(basis)
            verdict = True
        except NotDoublyEven:
            verdict = False
        except UnsupportedRank:  # rank 1, after the doubly even check passed
            verdict = basis.rank == 1
        assert verdict == is_doubly_even(basis) == all(w.weight % 4 == 0 for w in span(basis))
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_vector_of_a_code_reads_only_small_meets(rng):
    # the full meet table is the reference; char_vector_of builds only the
    # meets of at most three generators, so it also runs at rank 24
    cases = [random_doubly_even_basis(rng, n, 24) for n in (2, 3, 4, 5, 6) for _ in range(6)]
    cases += [random_covering_basis(rng, rng.choice((1, 2, 3, 4, 5)), rng.randrange(6, 14)) for _ in range(60)]
    for basis in cases:
        try:
            expected = char_vector_of_meets(meet_weights(basis.masks))
        except (NotDoublyEven, UnsupportedRank) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                char_vector_of(basis)
        else:
            assert char_vector_of(basis) == expected
    wide = CodeBasis.from_positions(96, [range(4 * i + 1, 4 * i + 5) for i in range(24)])
    assert char_vector_of(wide) == CharVector(24, (1,) * 24, (0,) * comb(24, 2), (0,) * comb(24, 3))


def test_eval_basis_cases():
    cv = char_vector_of(V1_R3)
    for i in range(3):
        assert eval_sigma(cv, 1 << i) == cv.sigma[i]
    assert eval_beta(cv, 1, 2) == cv.beta[0]
    assert eval_alpha(cv, 1, 2, 4) == cv.alpha[0]


def test_eval_sigma_pair_sum_matches_weight_oracle():
    cv = char_vector_of(V1_R3)
    # direct computation: |v1 + v2| of the concrete code
    v12 = V1_R3.generators[0] ^ V1_R3.generators[1]
    assert eval_sigma(cv, 0b011) == (v12.weight // 4) % 2 == 1


def test_eval_alpha_alternating():
    cv = char_vector_of(V1_R3)
    for x in range(8):
        for y in range(8):
            assert eval_alpha(cv, x, x, y) == 0
            assert eval_alpha(cv, x, y, x) == 0
            assert eval_alpha(cv, y, x, x) == 0


def test_polarization_identities_exhaustive():
    for short in ("111111", "000111", "0001111100", "1110110100"):
        n = 3 if len(short) == 6 else 4
        cv = CharVector.from_shorthand(n, short)
        size = 1 << n
        for x in range(size):
            for y in range(size):
                assert eval_sigma(cv, x ^ y) == (
                    eval_sigma(cv, x) ^ eval_sigma(cv, y) ^ eval_beta(cv, x, y)
                )
                for z in range(size):
                    assert eval_beta(cv, x ^ y, z) == (
                        eval_beta(cv, x, z) ^ eval_beta(cv, y, z) ^ eval_alpha(cv, x, y, z)
                    )


def test_forms_are_the_weights_of_the_span(rng):
    # sigma, beta and alpha read directly off the codewords u_x of the span,
    # independent of how the forms are derived from one another
    bases = [entry.basis() for entry in ENTRIES.values()]
    for rank in (2, 3, 4, 5):
        bases += [random_doubly_even_basis(rng, rank, rng.randrange(3 + 2 * rank, 25)) for _ in range(3)]
    for basis in bases:
        cv = char_vector_of(basis)
        u = [w.bits for w in span(basis)]
        for x, ux in enumerate(u):
            assert eval_sigma(cv, x) == _squares(cv)[x] == ux.bit_count() // 4 % 2
            for y, uy in enumerate(u):
                assert eval_beta(cv, x, y) == (ux & uy).bit_count() // 2 % 2
                for z, uz in enumerate(u):
                    assert eval_alpha(cv, x, y, z) == (ux & uy & uz).bit_count() % 2


def test_forms_refuse_ranks_above_the_table_cap():
    n = MAX_FORM_RANK
    assert n >= 5
    cv = CharVector(n, (1,) * n, (0,) * comb(n, 2), (0,) * comb(n, 3))
    assert _squares(cv)[(1 << n) - 1] == n % 2
    # at rank 40 a table of 2^40 entries could not be built: refusing is quick
    for n in (MAX_FORM_RANK + 1, 40):
        cv = CharVector(n, (0,) * n, (0,) * comb(n, 2), (1,) + (0,) * (comb(n, 3) - 1))
        for call in (
            lambda: _squares(cv),
            lambda: gl_transform(cv, GLMatrix.identity(n)),
            lambda: alpha_radical(cv),
        ):
            with pytest.raises(UnsupportedRank, match=f"got {n}$"):
                call()


def test_alpha_trilinear_exhaustive():
    for short in ("000111", "0110111100"):
        n = 3 if len(short) == 6 else 4
        cv = CharVector.from_shorthand(n, short)
        size = 1 << n
        table = [
            [[eval_alpha(cv, x, y, z) for z in range(size)] for y in range(size)]
            for x in range(size)
        ]
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    for w in range(size):
                        assert table[x ^ y][z][w] == table[x][z][w] ^ table[y][z][w]
        # slot symmetry: alternating over GF(2) implies fully symmetric
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    assert table[x][y][z] == table[y][x][z] == table[y][z][x]


def test_gl_transform_identity_and_swap():
    cv = CharVector.from_shorthand(3, "100000")
    assert gl_transform(cv, GLMatrix.identity(3)) == cv
    swap = GLMatrix(3, (0b010, 0b001, 0b100))
    assert gl_transform(cv, swap).shorthand() == "010000"


def test_gl_transform_matches_weight_oracle(rng):
    for _ in range(60):
        rank = rng.choice((3, 4, 5))
        basis = random_doubly_even_basis(rng, rank, rng.randrange(3 + 2 * rank, 25))
        g = random_gl(rng, rank)
        assert gl_transform(char_vector_of(basis), g) == char_vector_of(
            transform_basis(basis, g)
        )


def test_singular_matrix_rejected():
    with pytest.raises(NotInvertible):
        GLMatrix(3, (0b011, 0b010, 0b001 ^ 0b010 ^ 0b011))


def test_glmatrix_inverse_and_product(rng):
    # the library reads both off a span table; the reference is the row-by-row action
    for n in (1, 2, 3, 4):
        identity = GLMatrix.identity(n)
        for g in gl_group(n):
            assert (g * g.inverse()).rows == (g.inverse() * g).rows == identity.rows
            h = random_gl(rng, n)
            assert (g * h).rows == tuple(row_action(h, r) for r in g.rows)


def test_gl_transform_is_a_right_action(rng):
    # applying g then h equals applying h * g in one step
    for short in ("000111", "0110111100"):
        n = 3 if len(short) == 6 else 4
        cv = CharVector.from_shorthand(n, short)
        for _ in range(20):
            g = random_gl(rng, n)
            h = random_gl(rng, n)
            assert gl_transform(gl_transform(cv, g), h) == gl_transform(cv, h * g)


def test_gl_group_sizes():
    assert len(gl_group(3)) == 168
    assert len(gl_group(4)) == 20160
    for n in (0, -1, 5):
        with pytest.raises(UnsupportedRank, match=f"covers n = 1..4, got {n}$"):
            gl_group(n)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_nonassociative(3)) == 64
    assert sum(1 for _ in enumerate_nonassociative(4)) == 15360


def test_enumerate_nonassociative_keeps_its_order():
    # sigma, then beta, then alpha, each ascending as a bitstring (the order
    # of nested products over the three parts), rank 3 then rank 4
    digest = hashlib.sha256()
    for n in (3, 4):
        for cv in enumerate_nonassociative(n):
            digest.update((cv.bits() + "\n").encode())
    assert digest.hexdigest() == "59612e444bfef1e2ef17b784d8984f7ebf95c07b9ce046ef0ba9d50e6fcd482c"


def test_rank3_orbit_partition():
    seen: dict[int, int] = {}
    for cv in enumerate_nonassociative(3):
        cid, _, _ = canonicalize(cv)
        seen[cid.index] = seen.get(cid.index, 0) + 1
    assert len(seen) == 5
    assert sum(seen.values()) == 64


def test_canonicalize_examples():
    cid, rep, _ = canonicalize(CharVector.from_shorthand(3, "111000"))
    assert str(cid) == "C3_5" and rep.shorthand() == "100000"
    cid, rep, _ = canonicalize(CharVector.from_shorthand(3, "111110"))
    assert str(cid) == "C3_4" and rep.shorthand() == "110000"


def test_representatives_are_fixed_points():
    for rank, table in REPRESENTATIVES.items():
        for index, short in enumerate(table, start=1):
            cv = CharVector.from_shorthand(rank, short)
            cid, rep, witness = canonicalize(cv)
            assert cid == LoopClassId(rank, index)
            assert rep == cv
            assert witness.rows == GLMatrix.identity(rank).rows


def test_canonicalize_constant_on_orbits(rng):
    for short in ("111111", "000000", "0001111100", "0110111100"):
        n = 3 if len(short) == 6 else 4
        cv = CharVector.from_shorthand(n, short)
        for _ in range(15):
            g = random_gl(rng, n)
            moved = gl_transform(cv, g)
            assert canonicalize(moved)[0] == canonicalize(cv)[0]
            # witness sends the moved vector back to the representative
            cid, rep, witness = canonicalize(moved)
            assert gl_transform(moved, witness) == rep


def test_canonicalize_rejects_associative():
    with pytest.raises(AssociativeLoop):
        canonicalize(CharVector(3, (1, 1, 1), (0, 0, 0), (0,)))
    with pytest.raises(UnsupportedRank):
        canonicalize(CharVector(5, (0,) * 5, (0,) * 10, (1,) + (0,) * 9))


def test_loop_class_id_validation():
    assert str(LoopClassId.parse("C4_16")) == "C4_16"
    with pytest.raises(ValueError):
        LoopClassId(3, 6)
    with pytest.raises(ValueError):
        LoopClassId.parse("D3_1")
    with pytest.raises(UnsupportedRank):
        LoopClassId(5, 1)


def test_alpha_radical_rank3():
    cv = CharVector.from_shorthand(3, "111111")
    assert alpha_radical(cv) == frozenset({0})


def test_radical_of_representatives_is_last_generator():
    for short in REPRESENTATIVES[4]:
        cv = CharVector.from_shorthand(4, short)
        assert alpha_radical(cv) == frozenset({0, 0b1000})
        normalized, witness = normalize_rank4(cv)
        assert normalized == cv
        assert witness.rows == GLMatrix.identity(4).rows


def test_normalize_recovers_orbit(rng):
    for _ in range(20):
        short = rng.choice(REPRESENTATIVES[4])
        cv = CharVector.from_shorthand(4, short)
        moved = gl_transform(cv, random_gl(rng, 4))
        normalized, witness = normalize_rank4(moved)
        assert normalized.is_normalized
        assert gl_transform(moved, witness) == normalized
        assert canonicalize(normalized)[0] == canonicalize(cv)[0]


def test_normalize_rank4_normalizes_every_rank4_vector():
    # the library does not re-check its result: the radical generator comes
    # last, so alpha vanishes on every triple that holds it.  The rows are the
    # greedy choice written out here: each candidate 1..15 in turn, kept while
    # it raises the rank, so every normalized vector (and each minimal search
    # or stream started from one) is the same whichever way the span is tested
    for cv in enumerate_nonassociative(4):
        normalized, witness = normalize_rank4(cv)
        assert normalized.is_normalized
        assert gl_transform(cv, witness) == normalized
        assert loop_class(normalized) == loop_class(cv)
        assert witness == GLMatrix(4, witness.rows)  # the constructor re-ranks the rows
        (d,) = alpha_radical(cv) - {0}
        greedy: list[int] = []
        for cand in range(1, 16):
            if len(greedy) < 3 and gf2_rank(tuple(greedy) + (cand, d)) == len(greedy) + 2:
                greedy.append(cand)
        assert witness.rows == tuple(greedy) + (d,)


def test_normalize_requires_nonassociative():
    with pytest.raises(AssociativeLoop):
        normalize_rank4(CharVector(4, (0,) * 4, (0,) * 6, (0,) * 4))


def test_shorthand_round_trip():
    for short in REPRESENTATIVES[3]:
        assert CharVector.from_shorthand(3, short).shorthand() == short
    for short in REPRESENTATIVES[4]:
        assert CharVector.from_shorthand(4, short).shorthand() == short
    cv = CharVector(4, (0,) * 4, (0,) * 6, (0, 1, 0, 0))
    assert not cv.is_normalized
    with pytest.raises(ValueError):
        cv.shorthand()
    assert CharVector.from_bits(4, cv.bits()) == cv


def test_every_packed_word_is_one_vector():
    # coordinate k of ``bits()`` is bit k of ``packed``; the tuple constructor,
    # ``from_bits`` and the flags read the same word
    for n in (2, 3, 4):
        length = n + comb(n, 2) + comb(n, 3)
        for word in range(1 << length):
            text = format(word, f"0{length}b")[::-1]
            cv = CharVector.from_bits(n, text)
            assert cv.packed == word and cv.bits() == text
            assert cv.sigma + cv.beta + cv.alpha == tuple(map(int, text))
            assert len(cv.sigma) == n and len(cv.beta) == comb(n, 2)
            same = CharVector(n, cv.sigma, cv.beta, cv.alpha)
            assert same == cv and hash(same) == hash(cv)
            assert cv.nonassociative == any(cv.alpha)
            assert cv.is_normalized == (n in REPRESENTATIVES and cv.alpha == shorthand_alpha(n))
    for args, message in (
        ((1, (1,), (), ()), "rank must be at least 2"),
        ((3, (1, 1), (0, 0, 0), (1,)), "wrong coordinate count"),
        ((3, (1, 1, 1), (0, 0), (1,)), "wrong coordinate count"),
        ((3, (1, 1, 1), (0, 0, 0), ()), "wrong associator coordinate count"),
        ((3, (1, 2, 1), (0, 0, 0), (1,)), "coordinates must be bits"),
        ((3, (1, 1, 1), (0, 0, 0), ("1",)), "coordinates must be bits"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CharVector(*args)
    for call, message in (
        (lambda: CharVector.from_bits(3, "0101"), "rank-3 full form needs 7 bits, got '0101'"),
        (lambda: CharVector.from_bits(3, "01012x1"), "rank-3 full form needs 7 bits, got '01012x1'"),
        (lambda: CharVector.from_bits(1, "1"), "rank must be at least 2"),
        (lambda: CharVector.from_shorthand(4, "0" * 9 + "_"), "rank-4 shorthand needs 10 bits, got '000000000_'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_classification_reads_no_coordinate_list(monkeypatch, rng):
    # the class, representative and witness come off the packed word: after a
    # warm pass, nothing on the path from text to witness lists coordinates
    import loopforge.charvec as charvec

    classes = [LoopClassId(n, i) for n, reps in REPRESENTATIVES.items() for i in range(1, len(reps) + 1)]
    vectors = [gl_transform(representative(cid), g) for cid in classes for g in rng.sample(gl_group(cid.rank), 12)]
    vectors += [normalize_rank4(cv)[0] for cv in vectors if cv.rank == 4]
    texts = [f"full:{cv.bits()}" for cv in vectors] + [cv.shorthand() for cv in vectors if cv.is_normalized]
    expected = [canonicalize(parse_lambda(text)) for text in texts]
    assert {cid for cid, _, _ in expected} == set(classes)
    charvec._squares.cache_clear()  # no form table of an input is left to reuse
    charvec._witness_table.cache_clear()  # so the refused pass searches each witness again

    def refuse(cv):
        raise AssertionError(f"coordinate list of {cv.bits()} read")

    monkeypatch.setattr(charvec, "coordinates_by_mask", refuse)
    for text, (cid, rep, witness) in zip(texts, expected):
        got_cid, got_rep, got_witness = canonicalize(parse_lambda(text))
        assert (got_cid, got_rep, got_witness.rows) == (cid, rep, witness.rows)


# -- rank conventions derived from n ------------------------------------------

UNCLASSIFIED = (
    CharVector(2, (0, 0), (0,), ()),
    CharVector(5, (0,) * 5, (0,) * 10, (1,) + (0,) * 9),
)


def test_shorthand_and_full_lengths_follow_from_rank():
    for n, short_len, full_len, alpha in ((3, 6, 7, (1,)), (4, 10, 14, (1, 0, 0, 0))):
        cv = CharVector.from_shorthand(n, "0" * short_len)
        assert cv.alpha == shorthand_alpha(n) == alpha
        assert len(cv.shorthand()) == short_len and len(cv.bits()) == full_len
        assert parse_lambda("0" * short_len) == cv
        assert parse_lambda("full:" + cv.bits()) == cv
        with pytest.raises(ValueError):
            CharVector.from_shorthand(n, "0" * (short_len + 1))


def test_nonassociative_count_matches_enumeration():
    assert nonassociative_count(3) == sum(1 for _ in enumerate_nonassociative(3)) == 64
    assert nonassociative_count(4) == sum(1 for _ in enumerate_nonassociative(4)) == 15360


def test_class_id_limits_are_the_orbit_counts():
    assert [len(orbit_representatives(n)) for n in (3, 4)] == [5, 16]
    for n, limit in ((3, 5), (4, 16)):
        assert LoopClassId(n, limit).index == limit
        with pytest.raises(ValueError):
            LoopClassId(n, limit + 1)
        with pytest.raises(ValueError):
            LoopClassId(n, 0)


def test_unclassified_ranks_are_rejected_everywhere():
    from loopforge.search import minimal_representations

    for cv in UNCLASSIFIED:
        n = cv.rank
        with pytest.raises(UnsupportedRank, match=f"got {n}$"):
            orbit_representatives(n)
        with pytest.raises(UnsupportedRank):
            CharVector.from_shorthand(n, "0" * (n + n * (n - 1) // 2))
        with pytest.raises(UnsupportedRank):
            LoopClassId(n, 1)
        with pytest.raises(UnsupportedRank):
            canonicalize(cv)
        with pytest.raises(UnsupportedRank):
            minimal_representations(cv)
        assert not cv.is_normalized


# -- the orbit table and its witnesses against a full-group sweep -------------


def old_gl_group(n: int) -> list[tuple[int, ...]]:
    """Rows of GL(n,2) in the library's documented order, as it once built
    them: every n*n bit pattern ascending, row i read from bits n*i.."""
    found = []
    for bits in range(1 << (n * n)):
        rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
        if gf2_rank(rows) == n:
            found.append(rows)
    return found


@pytest.fixture(scope="module")
def first_writer() -> dict[CharVector, tuple[int, tuple[int, ...]]]:
    """Every nonassociative rank-3 and rank-4 vector mapped to its class index
    and the rows of the first matrix of (identity,) + GL(n,2) that sends the
    class representative to it: each representative's orbit swept over the
    whole group, from dense tables of its forms, first writer wins."""
    table: dict[CharVector, tuple[int, tuple[int, ...]]] = {}
    for n, reps in REPRESENTATIVES.items():
        size = 1 << n
        pairs = tuple(combinations(range(n), 2))
        triples = tuple(combinations(range(n), 3))
        group = [GLMatrix.identity(n).rows] + old_gl_group(n)
        for index, short in enumerate(reps, start=1):
            rep = CharVector.from_shorthand(n, short)
            S = [eval_sigma(rep, x) for x in range(size)]
            B = [[eval_beta(rep, x, y) for y in range(size)] for x in range(size)]
            A = [[[eval_alpha(rep, x, y, z) for z in range(size)] for y in range(size)] for x in range(size)]
            for rows in group:
                cv = CharVector(
                    n,
                    tuple(S[r] for r in rows),
                    tuple(B[rows[i]][rows[j]] for i, j in pairs),
                    tuple(A[rows[i]][rows[j]][rows[k]] for i, j, k in triples),
                )
                table.setdefault(cv, (index, rows))
    assert len(table) == 64 + 15360
    return table


def test_canonicalize_matches_the_full_group_sweep(first_writer, monkeypatch):
    # the first pass searches every witness and stores it, the second reads
    # every one back from the witness table, with the search refused
    import loopforge.charvec as charvec

    charvec._orbit_table.cache_clear()
    charvec._witness_table.cache_clear()
    for sweep in ("search", "read back"):
        for cv, (index, rows) in first_writer.items():
            cid, rep, witness = canonicalize(cv)
            assert cid == LoopClassId(cv.rank, index)
            assert rep == CharVector.from_shorthand(cv.rank, REPRESENTATIVES[cv.rank][index - 1])
            assert witness.rows == GLMatrix(cv.rank, rows).inverse().rows, sweep
            assert witness == GLMatrix(cv.rank, witness.rows)  # built without re-ranking
            assert gl_transform(cv, witness) == rep  # the library does not re-check it
        monkeypatch.setattr(charvec, "_first_matrix", lambda rep, cv: pytest.fail("witness searched again"))
    for n in (3, 4):  # one witness per nonassociative vector, none elsewhere
        assert [bool(w) for w in charvec._witness_table(n)] == [bool(c) for c in charvec._orbit_table(n)]


def test_classification_tables_are_packed():
    # one byte of class index and two bytes of witness per packed vector
    import loopforge.charvec as charvec

    for n, length in ((3, 7), (4, 14)):
        classes, witnesses = charvec._orbit_table(n), charvec._witness_table(n)
        assert type(classes) is bytearray and len(classes) == 1 << length
        assert witnesses.typecode == "H" and witnesses.itemsize == 2 and len(witnesses) == 1 << length
        assert classes.count(0) == (1 << length) - nonassociative_count(n)


def test_orbits_and_loop_build_no_witness_table(capsys):
    import loopforge.charvec as charvec
    from loopforge.cli import main

    charvec._witness_table.cache_clear()
    for argv in (["orbits", "--rank", "3"], ["orbits", "--rank", "4"], ["loop", "--loop", "C4_16"],
                 ["loop", "--lambda", "000111", "--format", "json"]):
        assert main(argv) == 0, argv
        assert charvec._witness_table.cache_info().currsize == 0, argv
    assert main(["classify", "--loop", "C4_16"]) == 0
    assert charvec._witness_table.cache_info().currsize == 1
    capsys.readouterr()


def test_orbit_sizes_rejects_unclassified_ranks_first(monkeypatch):
    # no generator action is built for a rank without representatives: at
    # rank 5 one would hold 2^25 entries
    import loopforge.charvec as charvec

    monkeypatch.setattr(charvec, "_packed_action", lambda g: pytest.fail("action table built"))
    for n in (0, 1, 2, 5, 6):
        with pytest.raises(UnsupportedRank, match=f"got {n}$"):
            charvec.orbit_sizes(n)
    assert charvec.orbit_sizes(3) == {LoopClassId(3, i): size for i, size in enumerate((1, 7, 7, 21, 28), 1)}


def test_loop_class_is_the_class_of_canonicalize(first_writer):
    for cv, (index, _) in first_writer.items():
        assert loop_class(cv) == LoopClassId(cv.rank, index)
    with pytest.raises(AssociativeLoop):
        loop_class(CharVector(3, (1, 1, 1), (0, 0, 0), (0,)))
    for cv in UNCLASSIFIED:
        with pytest.raises(UnsupportedRank):
            loop_class(cv)


def test_alpha_radical_matches_a_scan(rng):
    for n in (3, 4):
        size = 1 << n
        for _ in range(12):
            bits = "".join(rng.choice("01") for _ in range(n + comb(n, 2) + comb(n, 3)))
            cv = CharVector.from_bits(n, bits)
            scan = {
                x
                for x in range(size)
                if all(eval_alpha(cv, x, y, z) == 0 for y in range(size) for z in range(size))
            }
            assert alpha_radical(cv) == scan


def test_gl_group_keeps_its_order():
    for n in (1, 2, 3, 4):
        group = gl_group(n)
        assert [g.rows for g in group] == old_gl_group(n)
        # built without re-ranking, each still equals and hashes as the validated matrix
        for g in group:
            checked = GLMatrix(n, g.rows)
            assert g == checked and hash(g) == hash(checked)
