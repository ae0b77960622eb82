"""loopforge benchmark: cold CLI session, warm library batch and verify-paper.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # the three, one after another
    python3 perfbench/run.py --self-check --seed N

Run from the root of a source checkout; the program under test is always
the checkout's own ``src/loopforge``.  Every workload is a closed loop with
one client, and at most one loopforge child process runs at a time:

  cli-session    seeded rounds of cold ``python -m loopforge.cli`` commands
  library-batch  one warm process: classify, minimal sweep, full rank-4 stream
  verify-paper   cold ``loopforge verify-paper`` runs with default flags

Rounds repeat while the next one is expected to end within S seconds (at
least one).  Every op's output is checked (see oracle.py).  With --trace 0
the metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
--trace 1 one traced round gives the per-layer metrics (see layers.py).
The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from statistics import median
from time import perf_counter
from typing import NamedTuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
CHILD_TIMEOUT_S = 150
COLD_SETUPS = 30  # half before and half after the timed phase
LIBRARY_SETUPS = 5  # two set-up-only workers before the timed one, two after
TAIL_MIN_BEYOND = 10  # cmd_tail_s needs this many commands beyond its percentile
TAIL_MIN_PCT = 75.0  # and a percentile at least this high
WORKLOADS = ("cli-session", "library-batch", "verify-paper")


class BenchError(Exception):
    """The benchmark itself cannot proceed (no result is printed)."""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    # On SIGTERM, unwind so that Run.child kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "loopforge" / "cli.py").is_file():
        print(f"error: no loopforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import loopforge

    if pathlib.Path(loopforge.__file__).resolve().parent != SRC / "loopforge":
        print(f"error: imported loopforge from {loopforge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args.seed)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        if args.workload == "all":
            print(f"== {workload}")
        run = Run(args, workload, pathlib.Path(tempfile.mkdtemp(dir=work)))
        try:
            result = {
                "cli-session": cli_session,
                "library-batch": library_batch,
                "verify-paper": verify_paper,
            }[workload](run)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(run.tmp, ignore_errors=True)
        for line in run.notes:
            print(line)
        print(json.dumps(result), flush=True)
    return 0


class Child(NamedTuple):
    rc: int | None  # None after a timeout
    out: str
    err: str
    seconds: float


class Run:
    """One benchmark run: child processes, op checking, notes and counters."""

    def __init__(self, args, workload: str, tmp: pathlib.Path) -> None:
        self.args = args
        self.workload = workload
        self.tmp = tmp
        self.trace = args.trace == 1
        self.env = {k: v for k, v in os.environ.items() if k not in ("LOOPFORGE_JOBS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches = 0
        self.notes: list[str] = []
        self.dumps: list[dict] = []
        self._n = 0

    def path(self, suffix: str) -> pathlib.Path:
        self._n += 1
        return self.tmp / f"{self._n}{suffix}"

    def child(self, argv: list[str]) -> Child:
        """Run one child to completion (killed after CHILD_TIMEOUT_S)."""
        out_p, err_p = self.path(".out"), self.path(".err")
        killed = threading.Event()
        with open(out_p, "wb") as fo, open(err_p, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, cwd=ROOT, env=self.env
            )

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(CHILD_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        out = out_p.read_text(encoding="utf-8", errors="replace")
        err = err_p.read_text(encoding="utf-8", errors="replace")
        out_p.unlink()
        err_p.unlink()
        return Child(None if killed.is_set() else proc.returncode, out, err, seconds)

    def cli_argv(self, argv: list[str], op_id: str, trace_out: pathlib.Path) -> list[str]:
        if self.trace:
            return [PY, str(HERE / "traced_cli.py"), "--trace-out", str(trace_out), "--op", op_id, "--"] + argv
        return [PY, "-m", "loopforge.cli"] + argv

    def run_op(self, op: dict, op_id: str) -> float:
        """Run one cold CLI op, check it, and return its latency."""
        import oracle

        argv = list(op["argv"])
        for name, text in op["files"].items():
            p = self.path(".code")
            p.write_text(text, encoding="utf-8")
            argv = [str(p) if a == "{" + name + "}" else a for a in argv]
        trace_out = self.path(".trace.json")
        res = self.child(self.cli_argv(argv, op_id, trace_out))
        self.attempted += 1
        why = oracle.check(op, res.rc, res.out, res.err)
        if why:
            self.failures.append(f"{op_id} {' '.join(op['argv'][:3])}: {why}")
            # Only the deliberate error inputs fail without making the run incorrect.
            self.mismatches += op["kind"] != "error"
        if self.trace and trace_out.exists():
            self.dumps.append(json.loads(trace_out.read_text(encoding="utf-8")))
            trace_out.unlink()
        return res.seconds

    def cold_setup(self, count: int) -> list[float]:
        """Fresh interpreters that import loopforge.cli and exit."""
        argv = [PY, "-c", "import loopforge.cli"]
        runs = [self.child(argv) for _ in range(count + 1)]  # the first may compile bytecode
        if any(r.rc != 0 for r in runs):
            raise BenchError("importing loopforge.cli failed: " + runs[-1].err.strip()[-300:])
        return [r.seconds for r in runs[1:]]

    def probe(self, include_verify: bool) -> list[dict]:
        """One traced process running one command of every subcommand."""
        import inputs as gen

        rng = random.Random(f"probe/{self.args.seed}")
        code = self.path(".code")
        code.write_text(gen.code_input(rng, "C4_3")["text"], encoding="utf-8")
        vector = gen.vector_input(rng, 4, "C4_14")
        while gen.is_normalized(vector["parts"][2]):  # minimal must call normalize_rank4
            vector = gen.vector_input(rng, 4, "C4_14")
        full = gen.lambda_text(vector["parts"], shorthand=False)
        commands = [
            ["classify", "--code", str(code)],
            ["orbits", "--rank", "4"],
            ["loop", "--code", str(code)],
            ["loop", "--code", str(code), "--format", "csv"],
            ["render", "--code", str(code)],
            ["render", "--code", str(code), "--style", "svg"],
            ["minimal", "--lambda", full],
            ["enumerate", "--loop", "C3_2", "--format", "json"],
        ] + ([["verify-paper"]] if include_verify else [])
        script = self.path(".json")
        script.write_text(json.dumps(commands), encoding="utf-8")
        trace_out = self.path(".trace.json")
        res = self.child([PY, str(HERE / "traced_cli.py"), "--trace-out", str(trace_out),
                          "--op", "probe", "--script", str(script)])
        if res.rc != 0 or not trace_out.exists():
            raise BenchError(f"traced probe failed with exit {res.rc}: {res.err.strip()[-300:]}")
        return [json.loads(trace_out.read_text(encoding="utf-8"))]

    def note(self, name: str, value: float, unit: str, n: int, extra: str = "") -> None:
        self.notes.append(f"metric {name} = {value:.6g} {unit}  (n={n}{', ' + extra if extra else ''})")

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        failed = len(self.failures)
        base = max(self.attempted, 1)
        self.note("error_ratio", failed / base, "-", self.attempted, f"{failed} failed of {self.attempted}")
        for f in self.failures[:20]:
            self.notes.append(f"failed {f}")
        self.notes[:0] = [f"metric {name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        return {
            "correct": self.mismatches == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def layer_result(self, wall_s: float, probe_dumps: list[dict]) -> dict:
        import layers

        values = layers.compute(self.dumps)
        filled = layers.compute(probe_dumps)
        from_probe = sorted(k for k, v in values.items() if v is None)
        for k in from_probe:
            values[k] = filled[k]
        missing = sorted(k for k, v in values.items() if v is None)
        if missing:
            raise BenchError(f"no samples for per-layer metrics {missing}")
        for name, secs in layers.position_bins(self.dumps + probe_dumps).items():
            self.notes.append(f"bin {name} = {secs:.6g} s")
        if from_probe:
            self.notes.append("from probe: " + ", ".join(from_probe))
        out = self.tmp.parent / f"trace-{self.workload}-seed{self.args.seed}.json"
        out.write_text(json.dumps({"ops": self.dumps, "probe": probe_dumps}), encoding="utf-8")
        metrics = {name: (values[name], layers.unit_of(name)) for name in values}
        metrics[layers.TRACE_WALL[0]] = (wall_s, "s")
        return self.result(metrics)


def rounds_until(seconds: float, one_round, trace: bool) -> list[float]:
    """Closed loop: run rounds while the next is expected to end in time."""
    walls: list[float] = []
    t0 = perf_counter()
    while True:
        walls.append(one_round(len(walls)))
        if trace or perf_counter() - t0 + median(walls) > seconds:
            return walls


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Latency at the highest percentile with TAIL_MIN_BEYOND samples beyond it.

    None when that percentile is below TAIL_MIN_PCT: the sample is too small
    for the value to say anything about the tail.
    """
    xs = sorted(latencies)
    k = len(xs) - 1 - TAIL_MIN_BEYOND
    pct = 100.0 * k / len(xs)
    return (xs[k], pct) if pct >= TAIL_MIN_PCT else None


# -- cli-session -------------------------------------------------------------


def op(kind, argv, fmt="text", rcs=(0,), files=None, **expect) -> dict:
    return {"kind": kind, "argv": argv, "format": fmt, "rcs": rcs, "files": files or {}, "expect": expect}


def session_round(rng: random.Random) -> list[dict]:
    """Fourteen cold commands: eight on rank-4 inputs, four on rank 3, two errors."""
    import inputs as gen

    def classify_vector(rank):
        v = gen.vector_input(rng, rank)
        f = rng.choice(("text", "json"))
        return op("classify", ["classify", "--lambda", v["text"], "--format", f], f,
                  loop=v["loop"], parts=v["parts"], **{"lambda": gen.lambda_text(v["parts"], True)})

    def classify_code(rank):
        c = gen.code_input(rng, gen.choose_loop(rng, rank), pad=gen.pad_size(rng))
        f = rng.choice(("text", "json"))
        return op("classify", ["classify", "--code", "{code}", "--format", f], f, files={"code": c["text"]},
                  loop=c["loop"], parts=c["parts"], **{"lambda": gen.lambda_text(c["parts"], True)})

    def enumerate_loop(loop, bound):
        f = rng.choice(("text", "json"))
        argv = ["enumerate", "--loop", loop, "--format", f]
        if bound != 7:
            argv += ["--max-class-size", str(bound)]
        return op("enumerate", argv, f, loop=loop, bound=bound) | {"sample_seed": rng.randrange(1 << 30)}

    def minimal(loop):
        f = rng.choice(("text", "json"))
        if loop.startswith("C4") and rng.random() < 0.5:
            v = gen.vector_input(rng, 4, loop)
            return op("minimal", ["minimal", "--lambda", gen.lambda_text(v["parts"], False), "--format", f],
                      f, loop=loop)
        return op("minimal", ["minimal", "--loop", loop, "--format", f], f, loop=loop)

    c4 = gen.code_input(rng, gen.choose_loop(rng, 4))
    f4 = rng.choice(("text", "json"))
    r4 = gen.vector_input(rng, 4)
    style = rng.choice(("ascii", "svg"))
    csv4 = gen.code_input(rng, gen.choose_loop(rng, 4), pad=gen.pad_size(rng))
    f_orb = rng.choice(("text", "json", "csv"))
    c3 = gen.code_input(rng, gen.choose_loop(rng, 3), pad=rng.choice((0, gen.pad_size(rng))))
    style3 = rng.choice(("ascii", "svg"))
    loop3 = rng.choice(gen.loop_ids(3))
    ops = [
        classify_vector(4),
        classify_code(4),
        op("orbits", ["orbits", "--rank", "4", "--format", f_orb], f_orb, rank=4),
        op("loop", ["loop", "--code", "{code}", "--format", f4], f4, files={"code": c4["text"]},
           loop=c4["loop"], rank=4),
        minimal(gen.choose_loop(rng, 4)),
        enumerate_loop(gen.choose_loop(rng, 4), 5),
        op("render", ["render", "--lambda", r4["text"], "--style", style], style, loop=r4["loop"]),
        op("loop", ["loop", "--code", "{code}", "--format", "csv"], "csv", files={"code": csv4["text"]},
           loop=csv4["loop"], rank=4),
        classify_code(3),
        enumerate_loop(rng.choice(gen.loop_ids(3)), 7),
        op("render", ["render", "--code", "{code}", "--style", style3], style3,
           (0,) if c3["length"] == c3["degree"] else (2,), {"code": c3["text"]}, loop=c3["loop"]),
        rng.choice((
            op("orbits", ["orbits", "--rank", "3", "--format", f_orb], f_orb, rank=3),
            minimal(loop3),
            op("loop", ["loop", "--loop", loop3, "--format", "csv"], "csv", loop=loop3, rank=3),
            classify_vector(3),
        )),
    ]
    files, rcs = rng.choice((gen.bad_rank1_code, gen.bad_not_doubly_even, gen.bad_header))(rng)
    ops.append(op("error", [rng.choice(("classify", "loop")), "--code", "{code}"], rcs=rcs, files=files))
    if rng.random() < 0.5:
        ops.append(op("error", ["classify", "--lambda", gen.bad_associative(rng)], rcs=(2,)))
    else:
        ops.append(op("error", [rng.choice(("classify", "minimal", "loop")), "--loop", gen.bad_loop_id(rng)],
                      rcs=(1,)))
    rng.shuffle(ops)
    return ops


def cli_session(run: Run) -> dict:
    seed = run.args.seed
    setups = [] if run.trace else run.cold_setup(COLD_SETUPS // 2)
    latencies: list[float] = []

    def one_round(r: int) -> float:
        ops = session_round(random.Random(f"cli-session/{seed}/{r}"))
        took = [run.run_op(o, f"r{r}.{i}.{o['argv'][0]}") for i, o in enumerate(ops)]
        latencies.extend(took)
        return sum(took)

    walls = rounds_until(run.args.seconds, one_round, run.trace)
    if run.trace:
        return run.layer_result(walls[0], run.probe(include_verify=True))
    setups += run.cold_setup(COLD_SETUPS // 2)
    run.note("cmd_p50_s", median(latencies), "s", len(latencies))
    if t := tail(latencies):
        run.note("cmd_tail_s", t[0], "s", len(latencies), f"p{t[1]:.0f}")
    else:
        run.notes.append(f"metric cmd_tail_s not reported (n={len(latencies)}: fewer than "
                         f"{TAIL_MIN_BEYOND} commands beyond p{TAIL_MIN_PCT:.0f})")
    return run.result({
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    })


# -- verify-paper ------------------------------------------------------------


def verify_paper(run: Run) -> dict:
    setups = [] if run.trace else run.cold_setup(COLD_SETUPS // 2)
    check = op("verify-paper", ["verify-paper"])
    walls = rounds_until(run.args.seconds, lambda r: run.run_op(check, f"r{r}.verify-paper"), run.trace)
    if run.trace:
        return run.layer_result(walls[0], run.probe(include_verify=False))
    setups += run.cold_setup(COLD_SETUPS // 2)
    run.note("cmd_p50_s", median(walls), "s", len(walls))
    return run.result({
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    })


# -- library-batch -----------------------------------------------------------


def library_batch(run: Run) -> dict:
    def worker(setup_only: bool) -> dict:
        out = run.path(".json")
        res = run.child([
            PY, str(HERE / "library_worker.py"), "--seed", str(run.args.seed),
            "--seconds", str(run.args.seconds), "--trace", str(run.args.trace),
            "--setup-only", "1" if setup_only else "0", "--out", str(out),
        ])
        if res.rc != 0 or not out.exists():
            raise BenchError(f"library worker exited {res.rc}: {res.err.strip()[-500:]}")
        return json.loads(out.read_text(encoding="utf-8"))

    around = 0 if run.trace else (LIBRARY_SETUPS - 1) // 2
    setups = [worker(True)["setup_s"] for _ in range(around)]
    res = worker(False)
    setups.append(res["setup_s"])
    run.attempted = res["attempted"]
    run.failures = res["failures"]
    run.mismatches = res["failed"]
    rounds = res["rounds"]
    if run.trace:
        run.dumps = [res["trace"]]
        return run.layer_result(rounds[0]["wall_s"], run.probe(include_verify=True))
    setups += [worker(True)["setup_s"] for _ in range(around)]
    classified = sum(r["classified"] for r in rounds)
    run.note("classify_per_s", classified / sum(r["classify_s"] for r in rounds), "1/s", classified)
    run.note("minimal_sweep_s", median(r["minimal_sweep_s"] for r in rounds), "s", len(rounds),
             "21 loops per sweep")
    reps = sum(r["reps"] for r in rounds)
    run.note("reps_per_s", reps / sum(r["enumerate_s"] for r in rounds), "1/s", reps,
             f"{len(rounds)} streams")
    return run.result({
        "setup_s": (median(setups), "s"),
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    })


# -- generator self-check ----------------------------------------------------


def self_check(seed: int) -> int:
    """Every valid generated input of a seed classifies to the loop it was built from."""
    import library_worker
    from loopforge import charvec, fileio

    batch = library_worker.make_inputs(random.Random(f"library-batch/{seed}/0"))
    items = [(v["loop"], False, v["text"]) for v in batch["vectors"] + batch["normalize"]]
    items += [(c["loop"], True, c["text"]) for c in batch["codes"]]
    for o in session_round(random.Random(f"cli-session/{seed}/0")):
        if o["kind"] == "classify":
            code = o["argv"][1] == "--code"
            items.append((o["expect"]["loop"], code, o["files"]["code"] if code else o["argv"][2]))
    bad = 0
    for loop, code, text in items:
        cv = charvec.char_vector_of(fileio.parse_code_text(text)) if code else fileio.parse_lambda(text)
        got = str(charvec.canonicalize(cv)[0])
        if got != loop:
            bad += 1
            print(f"self-check: input built from {loop} classifies as {got}")
    print(f"self-check: {len(items) - bad} of {len(items)} generated inputs classify as built")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
