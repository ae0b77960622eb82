"""Golden verification suite: every classification and table the package
reproduces, checked mechanically against the reference data in ``catalog``.

Each claim returns a ``ClaimResult``; a claim fails when any expected value
disagrees with what the library computes from scratch.  The three documented
misprints in the published rank-4 basis table are themselves covered by a
claim (``published-misprints``) that fails if the as-published data stops
exhibiting exactly the analyzed defects or if any other entry acquires one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

from . import catalog
from .charvec import (
    CharVector,
    LoopClassId,
    canonicalize,
    char_vector_of,
    enumerate_nonassociative,
    loop_class,
    nonassociative_count,
    orbit_representatives,
    pair_index,
    representative,
)
from .errors import LoopforgeError
from .gf2 import WeightProfile, class_order, codes_equivalent, is_doubly_even
from .loops import build_loop, is_moufang
from .search import MinimalReport, assemble_representation, minimal_representations, solve_system

# What each misprinted listing shows as published, in the words of
# ``_published_defect``.
MISPRINT_DIAGNOSES = {
    "C4_7": "classifies into C4_2 at length 16",
    "C4_8": "generators 3 and 4 meet in 5 positions",
    "C4_10": "classifies into C4_8 at length 18",
}
EXPECTED_MISPRINTS = tuple(MISPRINT_DIAGNOSES)


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    passed: bool
    detail: str
    mismatches: tuple[str, ...] = ()


@lru_cache(maxsize=None)
def minimal_report_for(loop: str) -> MinimalReport:
    class_id = LoopClassId.parse(loop)
    return minimal_representations(representative(class_id))


def _claim_orbits(rank: int) -> ClaimResult:
    reps = orbit_representatives(rank)
    expected_total = nonassociative_count(rank)
    mismatches: list[str] = []
    members = Counter(loop_class(cv).index for cv in enumerate_nonassociative(rank))
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
    sizes = " ".join(f"{i}:{members[i]}" for i in range(1, len(reps) + 1))
    return ClaimResult(
        f"rank{rank}-orbits",
        not mismatches,
        f"{total} vectors in {len(members)} orbits ({sizes})",
        tuple(mismatches),
    )


def _claim_minimal(rank: int) -> ClaimResult:
    name = f"rank{rank}-minimal"
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
    return ClaimResult(
        name,
        not mismatches,
        "degrees " + ",".join(str(d) for d in degrees),
        tuple(mismatches),
    )


def _check_reference_basis(entry: catalog.ReferenceEntry) -> list[str]:
    problems: list[str] = []
    basis = entry.basis()
    if not is_doubly_even(basis):
        return [f"{entry.loop}: reference basis is not doubly even"]
    class_id = loop_class(char_vector_of(basis))
    if str(class_id) != entry.loop:
        problems.append(f"{entry.loop}: classifies into {class_id}")
    if basis.length != entry.degree or not basis.covers:
        problems.append(f"{entry.loop}: degree {basis.length}, table says {entry.degree}")
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
    return ClaimResult("reference-bases", not mismatches, detail, tuple(mismatches))


def _published_defect(entry: catalog.ReferenceEntry) -> str:
    """What the listing of ``entry`` shows as published: its odd pairwise
    meets when it is not doubly even, else the loop it classifies into and
    its length."""
    basis = entry.published_basis()
    if not is_doubly_even(basis):
        gens = [set(g) for g in entry.published_generators]
        meets = {(i, j): len(gens[i - 1] & gens[j - 1]) for i, j in pair_index(len(gens))}
        odd = [
            f"generators {i} and {j} meet in {t} positions"
            for (i, j), t in meets.items()
            if t % 2
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
    return ClaimResult(
        "published-misprints",
        not mismatches,
        f"documented defects confirmed for {', '.join(EXPECTED_MISPRINTS)}",
        tuple(mismatches),
    )


def claim_worked_example() -> ClaimResult:
    u = catalog.WORKED_EXAMPLE_U
    profile = WeightProfile(
        4, singles=tuple(u[11:15]), pairs=tuple(u[5:11]), triples=tuple(u[1:5]), quad=u[0]
    )
    mismatches: list[str] = []
    sizes = solve_system(profile)
    # the published solution lists x_sigma for the proper subsets sigma of
    # I_4, larger subsets first, then lexicographically
    published = sorted(class_order(4), key=lambda sigma: (-len(sigma), sigma))[1:]
    solution = tuple(sizes[sigma] for sigma in published)
    if solution != catalog.WORKED_EXAMPLE_V:
        mismatches.append(f"solution {solution} != expected {catalog.WORKED_EXAMPLE_V}")
    basis = assemble_representation(sizes)
    generators = tuple(g.positions for g in basis.generators)
    if generators != catalog.WORKED_EXAMPLE_GENERATORS:
        mismatches.append(f"assembled {generators} != expected {catalog.WORKED_EXAMPLE_GENERATORS}")
    return ClaimResult(
        "worked-example",
        not mismatches,
        f"degree {sizes.degree} assembly reproduced byte-exact",
        tuple(mismatches),
    )


def check_loop_laws(entry: catalog.ReferenceEntry) -> list[str]:
    """Exhaustive law checks for one reference basis: factor-set axioms,
    the Moufang identity, and sign agreement of squares, commutators and
    associators with the weight formulas, over all elements/pairs/triples."""
    problems: list[str] = []
    basis = entry.basis()
    try:
        loop = build_loop(basis)  # factor-set axioms verified inside
    except LoopforgeError as exc:
        return [f"{entry.loop}: factor set failed: {exc}"]
    if not is_moufang(loop):
        problems.append(f"{entry.loop}: Moufang identity fails")
    table = loop.table
    half = loop.half
    words = loop.factor_set.codewords
    order = loop.order
    for a in range(order):
        va = words[a % half]
        expected = half * ((va.bit_count() // 4) & 1)
        if table[a][a] != expected:
            problems.append(f"{entry.loop}: square sign wrong at element {a}")
            break
    for a in range(order):
        va = words[a % half]
        row_a = table[a]
        for b in range(order):
            negated = row_a[b] != table[b][a]
            if negated != bool((words[b % half] & va).bit_count() // 2 & 1):
                problems.append(f"{entry.loop}: commutator sign wrong at ({a},{b})")
                break
        else:
            continue
        break
    for a in range(order):
        va = words[a % half]
        row_a = table[a]
        for b in range(order):
            vab = va & words[b % half]
            ab = row_a[b]
            row_b = table[b]
            for c in range(order):
                negated = table[ab][c] != row_a[row_b[c]]
                if negated != bool((vab & words[c % half]).bit_count() & 1):
                    problems.append(f"{entry.loop}: associator sign wrong at ({a},{b},{c})")
                    break
            else:
                continue
            break
        else:
            continue
        break
    return problems


def claim_loop_laws() -> ClaimResult:
    mismatches: list[str] = []
    for entry in catalog.RANK3 + catalog.RANK4:
        mismatches.extend(check_loop_laws(entry))
    n = len(catalog.RANK3) + len(catalog.RANK4)
    return ClaimResult(
        "loop-laws",
        not mismatches,
        f"axioms, Moufang and sign laws hold exhaustively for {n} loops",
        tuple(mismatches),
    )


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


def claim_ids() -> tuple[str, ...]:
    return tuple(CLAIMS)


def run_claims(only: str | None = None) -> list[ClaimResult]:
    """Run the suite (or one claim); results come back in declaration order."""
    if only is not None:
        if only not in CLAIMS:
            raise ValueError(f"unknown claim {only!r}; known: {', '.join(CLAIMS)}")
        return [CLAIMS[only]()]
    return [claim() for claim in CLAIMS.values()]
