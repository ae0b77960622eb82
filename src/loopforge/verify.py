"""Golden verification suite: every classification and table the package
reproduces, checked mechanically against the reference data in ``catalog``.

Each claim returns a ``ClaimResult``; a claim fails when any expected value
disagrees with what the library computes from scratch.  The three documented
misprints in the published rank-4 basis table are themselves covered by a
claim (``published-misprints``) that fails if the as-published data stops
exhibiting exactly the analyzed defects or if any other entry acquires one.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations

from . import catalog
from .charvec import (
    CharVector,
    LoopClassId,
    canonicalize,
    char_vector_of,
    loop_class,
    nonassociative_count,
    orbit_representatives,
    orbit_sizes,
    representative,
)
from .errors import LoopforgeError, quoted
from .gf2 import _Value, class_order, codes_equivalent, is_doubly_even, meet_weights, sigma_mask
from .loops import _left_maps, build_loop, is_moufang
from .search import MinimalReport, assemble_representation, minimal_representations, solve_system

# What each misprinted listing shows as published, in the words of
# ``_published_defect``.
MISPRINT_DIAGNOSES = {
    "C4_7": "classifies into C4_2 at length 16",
    "C4_8": "generators 3 and 4 meet in 5 positions",
    "C4_10": "classifies into C4_8 at length 18",
}
EXPECTED_MISPRINTS = tuple(MISPRINT_DIAGNOSES)


class ClaimResult(_Value):
    __slots__ = ("claim", "passed", "detail", "mismatches")

    def __init__(self, claim: str, passed: bool, detail: str, mismatches: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "mismatches", mismatches)


def _result(claim: str, detail: str, mismatches: list[str]) -> ClaimResult:
    """A claim passes iff it found no mismatch."""
    return ClaimResult(claim, not mismatches, detail, tuple(mismatches))


@lru_cache(maxsize=None)
def minimal_report_for(loop: str) -> MinimalReport:
    class_id = LoopClassId.parse(loop)
    return minimal_representations(representative(class_id))


def _claim_orbits(rank: int) -> ClaimResult:
    reps = orbit_representatives(rank)
    expected_total = nonassociative_count(rank)
    mismatches: list[str] = []
    members = {cid.index: size for cid, size in orbit_sizes(rank).items()}
    total = sum(members.values())
    if total != expected_total:
        mismatches.append(f"enumerated {total} vectors, expected {expected_total}")
    if len(members) != len(reps):
        mismatches.append(f"found {len(members)} orbits, expected {len(reps)}")
    # each representative is its own class's, with the identity witness
    for index, short in enumerate(reps, start=1):
        cv = CharVector.from_shorthand(rank, short)
        cid, rep, witness = canonicalize(cv)
        if cid.index != index or rep != cv or witness.rows != tuple(1 << i for i in range(rank)):
            mismatches.append(f"representative {short} does not canonicalize to itself")
    sizes = " ".join(f"{i}:{members.get(i, 0)}" for i in range(1, len(reps) + 1))
    detail = f"{total} vectors in {len(members)} orbits ({sizes})"
    return _result(f"rank{rank}-orbits", detail, mismatches)


def _claim_minimal(rank: int) -> ClaimResult:
    entries = [e for e in catalog.RANK3 + catalog.RANK4 if e.loop.startswith(f"C{rank}_")]
    mismatches: list[str] = []
    degrees: list[int] = []
    for entry in entries:
        report = minimal_report_for(entry.loop)
        degrees.append(report.degree)
        if report.degree != entry.degree:
            mismatches.append(
                f"{entry.loop}: search degree {report.degree}, table says {entry.degree}"
            )
        if len(report.representations) != 1:
            mismatches.append(
                f"{entry.loop}: {len(report.representations)} inequivalent minima, expected 1"
            )
        if report.types[0] != entry.type:
            mismatches.append(
                f"{entry.loop}: type {report.types[0]}, table says {entry.type}"
            )
    return _result(f"rank{rank}-minimal", "degrees " + ",".join(map(str, degrees)), mismatches)


def _check_reference_basis(entry: catalog.ReferenceEntry) -> list[str]:
    problems: list[str] = []
    basis = entry.basis()
    if not is_doubly_even(basis):
        return [f"{entry.loop}: reference basis is not doubly even"]
    class_id = loop_class(char_vector_of(basis))
    if str(class_id) != entry.loop:
        problems.append(f"{entry.loop}: classifies into {class_id}")
    if basis.support.weight != entry.degree:
        problems.append(f"{entry.loop}: degree {basis.support.weight}, table says {entry.degree}")
    report = minimal_report_for(entry.loop)
    if not any(codes_equivalent(basis, rep.basis) for rep in report.representations):
        problems.append(f"{entry.loop}: not equivalent to any computed minimal representation")
    return problems


def claim_reference_bases() -> ClaimResult:
    mismatches: list[str] = []
    corrected = []
    for entry in catalog.RANK3 + catalog.RANK4:
        mismatches.extend(_check_reference_basis(entry))
        if entry.corrected:
            corrected.append(entry.loop)
    detail = f"{len(catalog.RANK3) + len(catalog.RANK4)} bases verified"
    if corrected:
        detail += " (corrected transcriptions for " + ", ".join(corrected) + ")"
    return _result("reference-bases", detail, mismatches)


def _published_defect(entry: catalog.ReferenceEntry) -> str:
    """What the listing of ``entry`` shows as published: its odd pairwise
    meets when it is not doubly even, else the loop it classifies into and
    its length."""
    basis = entry.published_basis()
    if not is_doubly_even(basis):
        meets = meet_weights(basis.masks)
        odd = [
            f"generators {i + 1} and {j + 1} meet in {meets[1 << i | 1 << j]} positions"
            for i, j in combinations(range(basis.rank), 2)
            if meets[1 << i | 1 << j] % 2
        ]
        return "; ".join(odd) or "not doubly even"
    class_id = loop_class(char_vector_of(basis))
    return f"classifies into {class_id} at length {basis.length}"


def claim_published_misprints() -> ClaimResult:
    """The as-published variants of the corrected entries are exactly as defective
    as documented; every uncorrected entry is published correctly."""
    mismatches: list[str] = []
    corrected = tuple(e.loop for e in catalog.RANK3 + catalog.RANK4 if e.corrected)
    if corrected != EXPECTED_MISPRINTS:
        mismatches.append(f"corrected set is {corrected}, expected {EXPECTED_MISPRINTS}")
    for entry in catalog.RANK3 + catalog.RANK4:
        if not entry.corrected:
            continue
        found = _published_defect(entry)
        if found != MISPRINT_DIAGNOSES.get(entry.loop):
            mismatches.append(f"{entry.loop}: published basis {found}, not as documented")
    detail = f"documented defects confirmed for {', '.join(EXPECTED_MISPRINTS)}"
    return _result("published-misprints", detail, mismatches)


def claim_worked_example() -> ClaimResult:
    # the published u and solution v list the subsets of I_4 larger first,
    # then lexicographically; v omits I_4 itself
    published = sorted(class_order(4), key=lambda sigma: (-len(sigma), sigma))
    weights = [0] * 16
    for sigma, t in zip(published, catalog.WORKED_EXAMPLE_U):
        weights[sigma_mask(sigma)] = t
    mismatches: list[str] = []
    sizes = solve_system(weights)
    solution = tuple(sizes[sigma] for sigma in published[1:])
    if solution != catalog.WORKED_EXAMPLE_V:
        mismatches.append(f"solution {solution} != expected {catalog.WORKED_EXAMPLE_V}")
    basis = assemble_representation(sizes)
    generators = tuple(g.positions for g in basis.generators)
    if generators != catalog.WORKED_EXAMPLE_GENERATORS:
        mismatches.append(f"assembled {generators} != expected {catalog.WORKED_EXAMPLE_GENERATORS}")
    detail = f"degree {sizes.degree} assembly reproduced byte-exact"
    return _result("worked-example", detail, mismatches)


def check_loop_laws(entry: catalog.ReferenceEntry) -> list[str]:
    """Exhaustive law checks for one reference basis: the Moufang identity, and
    sign agreement of squares, commutators and associators with the weight
    formulas; each law reports its first counterexample.

    Under the xor rule of ``CodeLoop`` the three sign laws are the square, twist
    and cocycle axioms of the factor set, and they imply the identity axioms: the
    cocycle at v = w = 0 gives phi(0, u) = phi(0, 0), which the square law makes
    +1, and at w = 0 it gives phi(v, 0) = phi(0, u) = 1."""
    try:
        loop = build_loop(entry.basis())
    except LoopforgeError as exc:
        return [f"{entry.loop}: factor set failed: {exc}"]
    t, half, cw = loop.table, loop.half, loop.factor_set.codewords
    ids, v, left = loop.elements(), cw * 2, _left_maps(t)
    # byte c of L_(ab) xor L_a L_b is where (ab)c and a(bc) differ; the weight
    # formula's, per meet m = v_a & v_b, is half where |m & v_c| is odd
    as_int = partial(int.from_bytes, byteorder="little")
    meets = {x & y for x in cw for y in cw}
    flips = {m: as_int(bytes(half * ((m & w).bit_count() & 1) for w in cw) * 2) for m in meets}
    rows = [as_int(row) for row in left]
    # each law's first counterexample in a, then b, then c order, or None; a sign
    # is wrong where the table's negation and the weight formula's parity disagree
    laws = {
        "Moufang identity fails": None if is_moufang(loop) else (),
        "square sign wrong at element {}": next(
            ((a,) for a in ids if t[a][a] != half * (v[a].bit_count() >> 2 & 1)), None
        ),
        "commutator sign wrong at ({},{})": next(
            ((a, b) for a in ids for b in ids
             if (t[a][b] != t[b][a]) != (v[a] & v[b]).bit_count() >> 1 & 1), None
        ),
        "associator sign wrong at ({},{},{})": next(
            ((a, b, c) for a in ids for b in ids
             if rows[t[a][b]] ^ as_int(left[b].translate(left[a])) != flips[v[a] & v[b]]
             for c in ids
             if (t[t[a][b]][c] != t[a][t[b][c]]) != (v[a] & v[b] & v[c]).bit_count() & 1), None
        ),
    }
    return [f"{entry.loop}: {law.format(*at)}" for law, at in laws.items() if at is not None]


def claim_loop_laws() -> ClaimResult:
    mismatches: list[str] = []
    for entry in catalog.RANK3 + catalog.RANK4:
        mismatches.extend(check_loop_laws(entry))
    n = len(catalog.RANK3) + len(catalog.RANK4)
    detail = f"axioms, Moufang and sign laws hold exhaustively for {n} loops"
    return _result("loop-laws", detail, mismatches)


CLAIMS = {
    "rank3-orbits": partial(_claim_orbits, 3),
    "rank4-orbits": partial(_claim_orbits, 4),
    "rank3-minimal": partial(_claim_minimal, 3),
    "rank4-minimal": partial(_claim_minimal, 4),
    "reference-bases": claim_reference_bases,
    "published-misprints": claim_published_misprints,
    "worked-example": claim_worked_example,
    "loop-laws": claim_loop_laws,
}


def run_claims(only: str | None = None) -> list[ClaimResult]:
    """Run the suite (or one claim); results come back in declaration order."""
    if only is not None:
        if only not in CLAIMS:
            raise ValueError(f"unknown claim {quoted(only)}; known: {', '.join(CLAIMS)}")
        return [CLAIMS[only]()]
    return [claim() for claim in CLAIMS.values()]
