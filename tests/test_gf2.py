"""Codeword arithmetic, spans, partitions, profiles and code equivalence."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from conftest import (
    blocks_as_sets,
    meet_weight,
    random_covering_basis,
    random_doubly_even_basis,
    random_gl,
    span,
    transform_basis,
)
from loopforge.errors import DegenerateBasis, NotCovering
from loopforge.gf2 import (
    CodeBasis,
    Codeword,
    canonical_code_signature,
    class_order,
    class_partition,
    codes_equivalent,
    gf2_rank,
    is_doubly_even,
    label_counts,
    meet_weights,
    sigma_mask,
    superset_sums,
    type_vector,
    _xor_span,
)

V1_R3 = CodeBasis.from_positions(7, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])
V2_R3 = CodeBasis.from_positions(
    13, [range(1, 9), (1, 2, 3, 4, 9, 10, 11, 12), (1, 5, 6, 7, 9, 10, 11, 13)]
)
V5_R3 = CodeBasis.from_positions(
    17,
    [
        range(1, 13),
        tuple(range(1, 9)) + (13, 14, 15, 16),
        (1, 2, 3, 4, 5, 9, 10, 11, 13, 14, 15, 17),
    ],
)
V3_R4 = CodeBasis.from_positions(
    12,
    [range(1, 9), (1, 2, 3, 4, 5, 6, 9, 10), (1, 2, 3, 4, 5, 7, 9, 11), (1,) + tuple(range(6, 13))],
)
V14_R4 = CodeBasis.from_positions(
    13,
    [range(1, 9), (1, 2, 3, 4, 9, 10, 11, 12), (1, 2, 3, 5, 9, 10, 11, 13), (1, 2, 9, 10)],
)


def brute_force_equivalent(a: CodeBasis, b: CodeBasis) -> bool:
    """Oracle: search all position bijections directly (tiny lengths only).

    Exponential; exists to back ``codes_equivalent``.
    """
    if a.rank != b.rank:
        return False
    sup_a = a.support.positions
    sup_b = b.support.positions
    if len(sup_a) != len(sup_b):
        return False
    span_a = frozenset(w.bits for w in span(a))
    for image in permutations(sup_b):
        mapping = dict(zip(sup_a, image))
        moved = set()
        for w in span_a:
            bits = 0
            for p in Codeword(a.length, w).positions:
                bits |= 1 << (mapping[p] - 1)
            moved.add(bits)
        if moved == {w.bits for w in span(b)}:
            return True
    return False


def test_weight_examples():
    assert Codeword.from_positions(7, (1, 2, 3, 4)).weight == 4
    assert Codeword(5, 0).weight == 0
    assert Codeword.from_positions(17, range(1, 13)).weight == 12


def test_meet_weight_examples():
    a = Codeword.from_positions(7, (1, 2, 3, 4))
    b = Codeword.from_positions(7, (1, 2, 5, 6))
    assert meet_weights([a.bits, b.bits])[3] == (a.bits & b.bits).bit_count() == 2
    assert meet_weights([a.bits, a.bits])[3] == a.weight
    assert meet_weights(V5_R3.masks)[7] == meet_weight(V5_R3.masks) == 5


def test_span_v5_contains_pair_sum():
    words = {w.positions for w in span(V5_R3)}
    assert len(words) == 8
    assert tuple(range(9, 17)) in words  # v1 + v2


def test_span_single_generator():
    basis = CodeBasis.from_positions(5, [(1, 2, 3, 4)])
    assert [w.positions for w in span(basis)] == [(), (1, 2, 3, 4)]


def test_span_matches_subset_xor_oracle():
    # independent oracle: xor over explicit generator subsets
    oracle = set()
    for r in range(4):
        for subset in combinations(range(3), r):
            bits = 0
            for i in subset:
                bits ^= V1_R3.masks[i]
            oracle.add(bits)
    assert {w.bits for w in span(V1_R3)} == oracle
    assert [w.bits for w in span(V1_R3)] == _xor_span(V1_R3.masks)  # the library's span, by mask
    assert sorted(w.weight for w in span(V1_R3)) == [0, 4, 4, 4, 4, 4, 4, 4]


def test_is_doubly_even():
    assert is_doubly_even(V5_R3)
    assert not is_doubly_even(CodeBasis.from_positions(4, [(1, 2)]))
    both = CodeBasis.from_positions(6, [(1, 2, 3, 4), (3, 4, 5, 6)])
    assert sorted(w.weight for w in span(both)) == [0, 4, 4, 4]
    assert is_doubly_even(both)


def test_class_partition_v1_singletons():
    part = class_partition(V1_R3)
    assert type_vector(part.sizes.values()) == (1,) * 7
    assert len(part.nonempty()) == 7


def test_duplicate_generators_rejected():
    # indistinguishable generators are linearly dependent, hence rejected
    with pytest.raises(DegenerateBasis):
        CodeBasis.from_positions(4, [(1, 2, 3, 4), (1, 2, 3, 4)])


def test_single_generator_single_class():
    basis = CodeBasis.from_positions(6, [range(1, 7)])
    part = class_partition(basis)
    assert part.sizes == {(1,): 6}


def test_class_partition_v3_rank4():
    part = class_partition(V3_R4)
    assert type_vector(part.sizes.values()) == (1, 1, 1, 1, 1, 1, 1, 1, 4)


def test_class_partition_requires_covering():
    basis = CodeBasis.from_positions(5, [(1, 2, 3, 4)])
    with pytest.raises(NotCovering):
        class_partition(basis)


def test_class_order_reproduces_the_published_orders():
    # the orders the worked assembly examples pin down, as printed
    assert class_order(3) == ((1, 2, 3), (1, 2), (1, 3), (1,), (2, 3), (2,), (3,))
    assert class_order(4) == (
        (1, 2, 3, 4),
        (1, 2, 3), (1, 2, 4), (1, 3, 4),
        (1, 2), (1, 3), (1, 4), (1,),
        (2, 3, 4), (2, 3), (2, 4), (2,),
        (3, 4), (3,), (4,),
    )
    assert class_order(1) == ((1,),)
    assert class_order(2) == ((1, 2), (1,), (2,))
    for n in range(1, 7):
        assert sorted(class_order(n)) == sorted(
            s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)
        )


def test_not_covering_message_is_capped():
    basis = CodeBasis.from_positions(12, [(1, 2, 3, 4)])
    with pytest.raises(NotCovering, match=r"generator: \(5, 6, 7, 8, 9, 10, 11, 12\)$"):
        class_partition(basis)
    padded = CodeBasis.from_positions(10**6, [(1, 2, 3, 4), (3, 4, 5, 6)])
    with pytest.raises(NotCovering) as info:
        class_partition(padded)
    assert str(info.value).endswith("(7, 8, 9, 10, 11, 12, 13, 14, 15, 16) and 999984 more")


def test_padding_does_not_cost_ambient_length():
    # m = 10^12 would need 125 GB as a dense bitset; every operation here must
    # look at the used positions only
    gens = [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)]
    small = CodeBasis.from_positions(7, gens)
    huge = CodeBasis.from_positions(10**12, gens)
    assert huge.support.weight != huge.length and small.support.weight == small.length
    assert [g.positions for g in huge.generators] == [g.positions for g in small.generators]
    assert label_counts(huge) == label_counts(small) == (1,) * 7
    assert canonical_code_signature(huge) == canonical_code_signature(small)
    assert Codeword(10**12, 1 << 10**6).positions == (10**6 + 1,)
    with pytest.raises(ValueError):
        Codeword(10**6, 1 << 10**6)
    with pytest.raises(ValueError):
        Codeword(8, 1 << 8)
    with pytest.raises(ValueError):
        Codeword(8, -1)


def test_positions_and_bitstring_agree_with_a_scan(rng):
    for length in list(range(0, 21)) + [64, 65, 1000]:
        for _ in range(10):
            bits = rng.getrandbits(length) if length else 0
            word = Codeword(length, bits)
            scan = [p + 1 for p in range(length) if bits >> p & 1]
            assert word.positions == tuple(scan)
            assert word.bitstring() == "".join(
                "1" if p + 1 in scan else "0" for p in range(length)
            )
            assert Codeword.from_bitstring(word.bitstring()) == word
            assert Codeword.from_positions(length, scan) == word


def test_label_counts_match_a_position_scan(rng):
    # reference: read every position's generator-membership label in turn
    for _ in range(30):
        basis = random_covering_basis(rng, rng.choice((1, 2, 3, 4)), rng.randrange(6, 21))
        basis = CodeBasis(basis.length + 3, tuple(Codeword(basis.length + 3, g.bits) for g in basis.generators))
        counts = [0] * (1 << basis.rank)
        for p in range(basis.length):
            counts[sum(1 << i for i, m in enumerate(basis.masks) if m >> p & 1)] += 1
        assert label_counts(basis) == tuple(counts[1:])


def test_type_vector_examples():
    assert type_vector(class_partition(V2_R3).sizes.values()) == (1, 1, 1, 1, 3, 3, 3)
    assert type_vector(class_partition(V1_R3).sizes.values()) == (1,) * 7
    assert type_vector(class_partition(V14_R4).sizes.values()) == (1, 1, 1, 1, 1, 1, 2, 2, 3)


def test_lemma_blocks_partition_index_set(rng):
    for _ in range(25):
        basis = random_covering_basis(rng, rng.choice((2, 3, 4)), rng.randrange(6, 15))
        part = class_partition(basis)
        seen = 0
        for _, block in part.blocks:
            assert seen & block.bits == 0  # pairwise disjoint
            seen |= block.bits
        assert seen == (1 << basis.length) - 1  # union is everything
        labels = {}
        for p in range(1, basis.length + 1):
            labels.setdefault(
                tuple(i + 1 for i, m in enumerate(basis.masks) if m >> (p - 1) & 1), []
            ).append(p)
        assert {frozenset(v) for v in labels.values()} == blocks_as_sets(part)


def test_partition_is_basis_independent(rng):
    for _ in range(25):
        basis = random_covering_basis(rng, rng.choice((2, 3, 4)), rng.randrange(6, 15))
        g = random_gl(rng, basis.rank)
        assert blocks_as_sets(class_partition(basis)) == blocks_as_sets(class_partition(transform_basis(basis, g)))


def test_inclusion_exclusion_identity(rng):
    for _ in range(25):
        basis = random_covering_basis(rng, rng.choice((3, 4)), rng.randrange(6, 20))
        part = class_partition(basis)
        n = basis.rank
        for i in range(1, n + 1):
            total = sum(c for sigma, c in part.sizes.items() if i in sigma)
            assert total == basis.generators[i - 1].weight
        for i, j in combinations(range(1, n + 1), 2):
            total = sum(c for sigma, c in part.sizes.items() if i in sigma and j in sigma)
            assert total == (basis.generators[i - 1] & basis.generators[j - 1]).weight


def test_weight_xor_identity(rng):
    for _ in range(100):
        m = rng.randrange(1, 30)
        u = Codeword(m, rng.getrandbits(m))
        v = Codeword(m, rng.getrandbits(m))
        assert (u ^ v).weight == u.weight + v.weight - 2 * (u.bits & v.bits).bit_count()


def test_profile_lengths():
    # unions by inclusion-exclusion over the meet weights, entry m the meet of
    # the generators in m (not |v_i + v_j|, the symmetric difference)
    w = meet_weights(V2_R3.masks)
    assert (w[1], w[2], w[4]) == (8, 8, 8)
    v1, v2, v3 = V2_R3.generators
    assert w[1] + w[2] - w[3] == (v1 | v2).weight == 12
    assert w[1] + w[2] + w[4] - (w[3] + w[5] + w[6]) + w[7] == (v1 | v2 | v3).weight == 13
    assert w[0] == 13  # entry 0 is the union of all generators


def test_profile_t_reads_index_sets():
    for basis in (V2_R3, V14_R4):
        n = basis.rank
        w = meet_weights(basis.masks)
        assert len(w) == 1 << n
        assert w[sigma_mask((2, 1))] == w[sigma_mask((1, 2))] == meet_weight(basis.masks[:2])
        assert w[sigma_mask((1, 1))] == w[sigma_mask((1,))] == basis.generators[0].weight
        assert w[sigma_mask(range(1, n + 1))] == w[-1] == meet_weight(basis.masks)


def test_superset_sums_invert_each_other(rng):
    for n in range(1, 6):
        for _ in range(20):
            values = [rng.randrange(-9, 10) for _ in range(1 << n)]
            assert superset_sums(superset_sums(values), -1) == values
            assert superset_sums(superset_sums(values, -1)) == values


def test_meet_weights_are_zeta_of_label_counts(rng):
    for _ in range(30):
        basis = random_covering_basis(rng, rng.choice((2, 3, 4, 5)), rng.randrange(6, 20))
        weights = meet_weights(basis.masks)
        assert superset_sums((0,) + label_counts(basis)) == list(weights)
        for x in range(1, 1 << basis.rank):
            assert weights[x] == meet_weight([m for i, m in enumerate(basis.masks) if x >> i & 1])


def test_pair_length_identical_vectors():
    # t_1 = t_2 = t_12 collapses the union onto either generator
    a = Codeword.from_positions(16, range(1, 9))
    b = Codeword.from_positions(16, range(5, 17))
    w = meet_weights([a.bits, a.bits, b.bits])
    assert w[1:4] == (8, 8, 8) and (w[4], w[5], w[6]) == (12, 4, 4)
    assert w[1] + w[2] - w[3] == w[1] == meet_weights([a.bits, a.bits])[0] == 8


def test_large_length_codewords():
    # multi-word lengths are free with int bitsets; check m = 1024
    v = Codeword.from_positions(1024, (1, 512, 1024))
    w = Codeword.from_positions(1024, (512, 1000))
    assert v.weight == 3
    assert (v ^ w).positions == (1, 1000, 1024)
    assert (v & w).weight == 1


def test_codes_equivalent_under_permutation(rng):
    for _ in range(10):
        basis = random_doubly_even_basis(rng, 3, 10)
        perm = list(range(1, 11))
        rng.shuffle(perm)
        permuted = CodeBasis(
            10,
            tuple(
                Codeword.from_positions(10, [perm[p - 1] for p in g.positions])
                for g in basis.generators
            ),
        )
        assert codes_equivalent(basis, permuted)


def test_codes_equivalent_distinguishes_loops():
    assert not codes_equivalent(V1_R3, V2_R3)


def test_codes_equivalent_ignores_padding():
    small = CodeBasis.from_positions(7, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])
    padded = CodeBasis.from_positions(9, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7)])
    assert codes_equivalent(small, padded)


def test_codes_equivalent_backed_by_brute_force(rng):
    for _ in range(40):
        m = rng.randrange(6, 9)
        a = random_doubly_even_basis(rng, 2, m)
        b = random_doubly_even_basis(rng, 2, m)
        assert codes_equivalent(a, b) == brute_force_equivalent(a, b)


def test_codes_equivalent_brute_force_rank3(rng):
    for _ in range(10):
        a = random_doubly_even_basis(rng, 3, 7)
        b = random_doubly_even_basis(rng, 3, 7)
        assert codes_equivalent(a, b) == brute_force_equivalent(a, b)


def test_brute_force_confirms_permuted_copies(rng):
    # positive cases: a permuted copy must be found equivalent by both tests
    for _ in range(6):
        a = random_doubly_even_basis(rng, 3, 7)
        perm = list(range(1, 8))
        rng.shuffle(perm)
        b = CodeBasis(
            7,
            tuple(
                Codeword.from_positions(7, [perm[p - 1] for p in g.positions])
                for g in a.generators
            ),
        )
        assert brute_force_equivalent(a, b)
        assert codes_equivalent(a, b)


def test_equal_degree_reduced_pair_is_decided():
    # two same-degree members of one loop's reduced family get a definite verdict
    from loopforge.charvec import CharVector
    from loopforge.search import enumerate_reduced

    by_degree: dict[int, list] = {}
    for rep in enumerate_reduced(CharVector.from_shorthand(3, "000000")):
        by_degree.setdefault(rep.degree, []).append(rep)
    pair = next(reps for reps in by_degree.values() if len(reps) >= 2)
    verdict = codes_equivalent(pair[0].basis, pair[1].basis)
    assert isinstance(verdict, bool)
    if verdict:
        assert pair[0].type == pair[1].type
    assert (canonical_code_signature(pair[0].basis) == canonical_code_signature(pair[1].basis)) == verdict


def test_equivalence_relation_properties(rng):
    bases = [random_doubly_even_basis(rng, 3, rng.randrange(7, 11)) for _ in range(6)]
    for a in bases:
        assert codes_equivalent(a, a)
    for a in bases:
        for b in bases:
            assert codes_equivalent(a, b) == codes_equivalent(b, a)
    for a in bases:
        for b in bases:
            for c in bases:
                if codes_equivalent(a, b) and codes_equivalent(b, c):
                    assert codes_equivalent(a, c)


def test_label_perms_keep_their_values():
    # entry chi of element k is the xor of the rows of gl_group(n)[k] picked by chi;
    # as a set they are the basis-change actions, which send label chi to the mask
    # with bit i = parity(r_i & chi) (the transposed action)
    from loopforge.charvec import gl_group
    from loopforge.gf2 import _gl_label_perms

    for n in (1, 2, 3, 4):  # n = 1: row 0 alone, over an empty suffix
        group = gl_group(n)
        spans = tuple(
            tuple(_xor_rows(g.rows, tau) for tau in range(1, 1 << n)) for g in group
        )
        parities = tuple(
            tuple(
                sum((((g.rows[i] & tau).bit_count() & 1) << i) for i in range(n))
                for tau in range(1, 1 << n)
            )
            for g in group
        )
        perms = tuple(map(tuple, _gl_label_perms(n)))
        assert perms == spans
        assert sorted(perms) == sorted(parities)


def test_label_actions_are_filed_by_their_head():
    # canonical_code_signature translates only the actions filed under the heads (the
    # images of labels 1 and 2) of least rank, so each action is filed once, under its own
    from loopforge.gf2 import _gl_label_perms

    for n in (1, 2, 3, 4):
        actions = _gl_label_perms(n)
        filed = [(head, perm) for head, perms in actions.by_head.items() for perm in perms]
        assert len(set(actions)) == len(actions)
        assert sorted(perm for _, perm in filed) == sorted(actions)
        assert all(perm[:2] == head for head, perm in filed)
        assert len(actions.by_head) == ((1 << n) - 1) * max((1 << n) - 2, 1)  # ordered pairs of distinct labels


def _xor_rows(rows, tau):
    out = 0
    for i, row in enumerate(rows):
        if tau >> i & 1:
            out ^= row
    return out


def _signature_by_tuples(basis):
    # the signature as one tuple per label action, before ranking the counts into bytes
    from loopforge.gf2 import _gl_label_perms

    counts = label_counts(basis)
    return min(tuple(counts[t - 1] for t in perm) for perm in _gl_label_perms(basis.rank))


def _basis_of_label_counts(n, counts):
    """A code with exactly counts[tau - 1] positions carrying label tau."""
    labels = [tau for tau, count in enumerate(counts, 1) for _ in range(count)]
    gens = [[p for p, tau in enumerate(labels, 1) if tau >> i & 1] for i in range(n)]
    return CodeBasis.from_positions(len(labels), gens)


def _random_label_counts(rng, n):
    # zero counts, counts of 256 and more (past one byte), all-distinct counts and ties
    # in turn, then the tie-heavy worst cases: every count equal, and counts in {1, 2},
    # {0, 1} and {3, 5}, where many actions share the least pair of head ranks
    size = (1 << n) - 1
    draws = (
        lambda: [rng.choice((0, 0, 1, 2, 3)) for _ in range(size)],
        lambda: [rng.choice((0, 256, 257, 700, rng.randrange(1, 2000))) for _ in range(size)],
        lambda: rng.sample(range(1, 3000), size),
        lambda: [rng.choice((4, 8)) for _ in range(size)],
        lambda: [rng.randrange(1, 400)] * size,
        lambda: [rng.choice((1, 2)) for _ in range(size)],
        lambda: [rng.choice((0, 1)) for _ in range(size)],
        lambda: [rng.choice((3, 5)) for _ in range(size)],
    )
    for draw in draws:
        counts = draw()
        while gf2_rank([tau for tau, c in enumerate(counts, 1) if c]) < n:
            counts = draw()
        yield tuple(counts)


def test_signature_matches_the_tuple_minimum(rng):
    from loopforge.catalog import ENTRIES

    bases = [b for e in ENTRIES.values() for b in (e.basis(), e.published_basis())]
    for n in (1, 2, 3, 4):
        bases += [random_covering_basis(rng, n, rng.randrange(n + 1, 4 * n + 4)) for _ in range(6)]
        for _ in range(3):
            for counts in _random_label_counts(rng, n):
                basis = _basis_of_label_counts(n, counts)
                assert label_counts(basis) == counts
                bases.append(basis)
    assert len(bases) == 42 + 4 * (6 + 3 * 8)
    for basis in bases:
        assert canonical_code_signature(basis) == _signature_by_tuples(basis), basis
