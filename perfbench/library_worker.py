"""Warm loopforge process of the library-batch workload.

    python3 perfbench/library_worker.py --seed N --seconds S --trace 0|1 --setup-only 0|1 --out FILE

Set-up (timed from before the first loopforge import): import, the first
``orbit_sizes(3)``, ``orbit_sizes(4)`` and ``canonical_code_signature`` per
rank.  Then rounds of three timed phases, each round on inputs generated
from (seed, round) before it starts:

  1. classify: parse and classify generated vectors (shorthand and ``full:``)
     and generated code texts, then normalize a few rank-4 ``full:`` vectors
     (``normalize_rank4`` costs about as much as 300 classifications);
  2. minimal: ``minimal_representations`` of all 21 classified loops;
  3. enumerate: the full default-bound ``enumerate_reduced`` stream of one
     seeded rank-4 loop.

Another round starts only while it is expected to end within S seconds
(always exactly one round with tracing on).  Outputs are checked after each
round, outside the timed phases.  The result is written to FILE as JSON.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from time import perf_counter

T_START = perf_counter()
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

N_VECTORS = 6000
N_CODES = 600
N_NORMALIZE = 25


def arg(name: str) -> str:
    return sys.argv[sys.argv.index(name) + 1]


def main() -> int:
    seed, seconds = int(arg("--seed")), float(arg("--seconds"))
    trace, setup_only = arg("--trace") == "1", arg("--setup-only") == "1"
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer("setup")
    import loopforge  # noqa: F401
    from loopforge import catalog, charvec, gf2

    import_s = perf_counter() - T_START
    import oracle  # before install(), so the checks' own calls stay untraced

    if tracer:
        tracer.install()
    t_build = perf_counter()
    charvec.orbit_sizes(3)
    charvec.orbit_sizes(4)
    gf2.canonical_code_signature(catalog.RANK3[0].basis())
    gf2.canonical_code_signature(catalog.RANK4[0].basis())
    result: dict = {"setup_s": import_s + perf_counter() - t_build}
    if not setup_only:
        result.update(run_rounds(seed, seconds, tracer, oracle))
    if tracer:
        result["trace"] = tracer.dump()
    with open(arg("--out"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_rounds(seed: int, seconds: float, tracer, oracle) -> dict:
    rounds: list[dict] = []
    failures: list[str] = []
    attempted = 0
    t0 = perf_counter()
    while True:
        rng = random.Random(f"library-batch/{seed}/{len(rounds)}")
        inputs = make_inputs(rng)
        timings, outputs = one_round(inputs, tracer)
        rounds.append(timings)
        bad = check_round(inputs, outputs, oracle)
        attempted += sum(len(inputs[k]) for k in ("vectors", "codes", "normalize", "loops")) + 1
        failures.extend(bad)
        elapsed = perf_counter() - t0
        if tracer or elapsed + sorted(r["wall_s"] for r in rounds)[len(rounds) // 2] > seconds:
            break
    return {"rounds": rounds, "attempted": attempted, "failed": len(failures), "failures": failures[:20]}


def make_inputs(rng: random.Random) -> dict:
    import inputs as gen

    vectors = [gen.vector_input(rng, rng.choice((3, 4))) for _ in range(N_VECTORS)]
    codes = [gen.code_input(rng, gen.choose_loop(rng, rank)) for rank in rng.choices((3, 4), k=N_CODES)]
    normalize = [gen.vector_input(rng, 4) for _ in range(N_NORMALIZE)]
    for v in normalize:
        v["text"] = gen.lambda_text(v["parts"], shorthand=False)
    loops = gen.loop_ids(3) + gen.loop_ids(4)
    rng.shuffle(loops)
    return {
        "vectors": vectors,
        "codes": codes,
        "normalize": normalize,
        "loops": loops,
        "stream": rng.choice(gen.loop_ids(4)),
        "sample_seed": rng.randrange(1 << 30),
    }


def one_round(inputs: dict, tracer) -> tuple[dict, dict]:
    from loopforge import charvec, fileio, search

    canonicalize, normalize_rank4 = charvec.canonicalize, charvec.normalize_rank4
    parse_lambda, parse_code_text = fileio.parse_lambda, fileio.parse_code_text
    char_vector_of = charvec.char_vector_of
    out: dict = {"vectors": [], "codes": [], "normalize": [], "minimal": [], "stream": []}

    def label(op: str) -> None:
        if tracer:
            tracer.op = op

    start = perf_counter()
    label("classify")
    for v in inputs["vectors"]:
        cv = parse_lambda(v["text"])
        out["vectors"].append((cv, canonicalize(cv)))
    for c in inputs["codes"]:
        cv = char_vector_of(parse_code_text(c["text"]))
        out["codes"].append((cv, canonicalize(cv)))
    t_classify = perf_counter()
    label("normalize")
    for v in inputs["normalize"]:
        cv = parse_lambda(v["text"])
        out["normalize"].append((cv, normalize_rank4(cv)))
    t_normalize = perf_counter()
    for loop in inputs["loops"]:
        label(f"minimal:{loop}")
        out["minimal"].append(search.minimal_representations(charvec.representative(charvec.LoopClassId.parse(loop))))
    t_minimal = perf_counter()
    label(f"enumerate:{inputs['stream']}")
    cv = charvec.representative(charvec.LoopClassId.parse(inputs["stream"]))
    rng = random.Random(inputs["sample_seed"])
    count = 0
    for rep in search.enumerate_reduced(cv):
        count += 1
        # keep a reservoir sample for the char_vector_of re-check
        if len(out["stream"]) < 5:
            out["stream"].append(rep)
        elif rng.randrange(count) < 5:
            out["stream"][rng.randrange(5)] = rep
    end = perf_counter()
    out["count"] = count
    n_classified = len(inputs["vectors"]) + len(inputs["codes"])
    return {
        "wall_s": end - start,
        "classify_s": t_classify - start,
        "classified": n_classified,
        "normalize_s": t_normalize - t_classify,
        "minimal_sweep_s": t_minimal - t_normalize,
        "enumerate_s": end - t_minimal,
        "reps": count,
    }, out


def check_round(inputs: dict, out: dict, oracle) -> list[str]:
    bad = []
    for v, (cv, (cid, rep, witness)) in zip(inputs["vectors"], out["vectors"]):
        why = check_classified(v, cv, cid, rep, witness, oracle)
        if why:
            bad.append(f"classify {v['text']}: {why}")
    for v, (cv, (ncv, g)) in zip(inputs["normalize"], out["normalize"]):
        if cv != oracle.vector_of(v["parts"]) or ncv.alpha != (1, 0, 0, 0) or oracle.gl_transform(cv, g) != ncv:
            bad.append(f"normalize {v['text']}: result is not normalized or not witnessed")
    for c, (cv, (cid, rep, witness)) in zip(inputs["codes"], out["codes"]):
        why = check_classified(c, cv, cid, rep, witness, oracle)
        if why:
            bad.append(f"classify code of {c['loop']}: {why}")
    for loop, report in zip(inputs["loops"], out["minimal"]):
        entry = oracle.ENTRIES[loop]
        if (str(report.loop), report.degree, report.types) != (loop, entry.degree, (entry.type,)):
            bad.append(f"minimal {loop}: degree {report.degree} types {report.types}")
    loop = inputs["stream"]
    want = oracle.STREAM_COUNTS[7][loop]
    cv = oracle.representative_vector(loop)
    if out["count"] != want:
        bad.append(f"enumerate {loop}: {out['count']} representations, expected {want}")
    elif any(oracle.char_vector_of(rep.basis) != cv for rep in out["stream"]):
        bad.append(f"enumerate {loop}: sampled representation has another vector")
    return bad


def check_classified(item, cv, cid, rep, witness, oracle) -> str | None:
    loop = item["loop"]
    if cv != oracle.vector_of(item["parts"]):
        return "parsed vector differs from the generated one"
    if str(cid) != loop:
        return f"classified as {cid}, built from {loop}"
    if rep != oracle.representative_vector(loop):
        return "wrong representative"
    if oracle.gl_transform(cv, witness) != rep:
        return "witness does not map the vector to the representative"
    return None


if __name__ == "__main__":
    raise SystemExit(main())
