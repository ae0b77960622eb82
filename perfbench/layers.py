"""Per-layer metrics computed from tracer dumps.

Each metric is (name, unit, better, formula).  A formula returns None when
the traced ops gave it no samples; the benchmark then takes the value from
a fixed traced probe (see ``run.PROBE``).  Conventions: ``*_us``/``*_ms`` are
means per call; ``*_s`` of per-leaf or search functions are totals over the
traced round; ``gl_group_s``/``orbit_table_s``/``import_s`` are medians over
processes of the one-off build or import; ``cli.main_s.*`` are means per
command; counts are per round.
"""

from __future__ import annotations

from statistics import median

CLAIMS = (
    "rank3-orbits", "rank4-orbits", "rank3-minimal", "rank4-minimal",
    "reference-bases", "published-misprints", "worked-example", "loop-laws",
)
SUBCOMMANDS = ("classify", "orbits", "loop", "render", "minimal", "enumerate", "verify-paper")


class Agg:
    """Counters and spans of several tracer dumps, merged."""

    def __init__(self, dumps: list[dict]) -> None:
        self.dumps = dumps
        self.stats = [s for d in dumps for s in d["stats"]]
        self.counters: dict[str, int] = {}
        for d in dumps:
            for k, v in d["counters"].items():
                self.counters[k] = self.counters.get(k, 0) + v

    def _rows(self, name: str, parent: str | None):
        for n, p, calls, total, raised in self.stats:
            if (n == name or (name.endswith("[") and n.startswith(name))) and (
                parent is None or p == parent
            ):
                yield calls, total, raised

    def calls(self, name, parent=None) -> int:
        return sum(r[0] for r in self._rows(name, parent))

    def total(self, name, parent=None) -> float:
        return sum(r[1] for r in self._rows(name, parent))

    def raised(self, name, parent=None) -> int:
        return sum(r[2] for r in self._rows(name, parent))

    def mean(self, name, scale: float, minus: str | None = None):
        calls = self.calls(name)
        if not calls:
            return None
        busy = self.total(name) - (self.total(minus, parent=name) if minus else 0.0)
        return busy / calls * scale

    def first_build(self, name: str):
        durations = []
        for d in self.dumps:
            spans = [s for s in d["spans"] if s[1] == name]
            if spans:
                first = min(spans, key=lambda s: s[2])
                durations.append(first[3] - first[2])
        return median(durations) if durations else None

    def spans_mean(self, name: str):
        durations = [s[3] - s[2] for d in self.dumps for s in d["spans"] if s[1] == name]
        return sum(durations) / len(durations) if durations else None

    def total_if_called(self, name, parent=None):
        return self.total(name, parent) if self.calls(name, parent) else None


def _metrics():
    m = [
        ("charvec.gl_group_s", "s", "lower", lambda a: a.first_build("charvec.gl_group[4]")),
        ("charvec.orbit_table_s", "s", "lower", lambda a: a.first_build("charvec.orbit_table[4]")),
        ("charvec.canonicalize_us", "us", "lower",
         lambda a: a.mean("charvec.canonicalize", 1e6, minus="charvec.orbit_table[")),
        ("charvec.canonicalize_calls", "count", "lower",
         lambda a: a.calls("charvec.canonicalize") or None),
        ("charvec.char_vector_of_us", "us", "lower", lambda a: a.mean("charvec.char_vector_of", 1e6)),
        ("charvec.normalize_rank4_us", "us", "lower", lambda a: a.mean("charvec.normalize_rank4", 1e6)),
        ("search.minimal_self_s", "s", "lower", _minimal_self_s),
        ("search.minimal_assemble_calls", "count", "lower",
         lambda a: a.calls("search.assemble", parent="search.minimal") or None),
        ("search.enumerate_s", "s", "lower", lambda a: a.total_if_called("search.enumerate")),
        ("search.reps_yielded", "count", "higher",
         lambda a: a.counters.get("search.enumerate.yielded") or None),
        ("search.assemble_us", "us", "lower", lambda a: a.mean("search.assemble", 1e6)),
        ("search.assemble_calls", "count", "lower", lambda a: a.calls("search.assemble") or None),
        ("search.degenerate_ratio", "ratio", "lower", _degenerate_ratio),
        ("gf2.signature_us", "us", "lower",
         lambda a: a.mean("gf2.signature", 1e6, minus="gf2.label_perms[")),
        ("gf2.signature_calls", "count", "lower", lambda a: a.calls("gf2.signature") or None),
        ("gf2.class_partition_us", "us", "lower", lambda a: a.mean("gf2.class_partition", 1e6)),
        ("gf2.type_vector_us", "us", "lower", lambda a: a.mean("gf2.type_vector", 1e6)),
        ("gf2.positions_s", "s", "lower", lambda a: a.total_if_called("gf2.positions[")),
        ("gf2.label_counts_s", "s", "lower", lambda a: a.total_if_called("gf2.label_counts[")),
        ("loops.build_factor_set_ms", "ms", "lower", lambda a: a.mean("loops.build_factor_set", 1e3)),
        ("loops.is_moufang_ms", "ms", "lower", lambda a: a.mean("loops.is_moufang", 1e3)),
        ("loops.center_ms", "ms", "lower", lambda a: a.mean("loops.center", 1e3)),
        ("loops.loop_table_csv_ms", "ms", "lower", lambda a: a.mean("loops.loop_table_csv", 1e3)),
        ("fileio.parse_code_text_ms", "ms", "lower", lambda a: a.mean("fileio.parse_code_text", 1e3)),
        ("fileio.record_us", "us", "lower", _record_us),
        ("render.render_ascii_us", "us", "lower", lambda a: a.mean("render.render_ascii", 1e6)),
        ("render.render_svg_us", "us", "lower", lambda a: a.mean("render.render_svg", 1e6)),
    ]
    for claim in CLAIMS:
        m.append((f"verify.claim.{claim}_s", "s", "lower",
                  lambda a, c=claim: a.total_if_called(f"verify.claim[{c}]")))
    m.append(("cli.import_s", "s", "lower", _import_s))
    for sub in SUBCOMMANDS:
        m.append((f"cli.main_s.{sub}", "s", "lower", lambda a, s=sub: a.spans_mean(f"cli.main[{s}]")))
    return m


def _minimal_self_s(a: Agg):
    """Time in minimal_representations minus its child canonicalize calls."""
    if not a.calls("search.minimal"):
        return None
    return a.total("search.minimal") - a.total("charvec.canonicalize", parent="search.minimal")


def _degenerate_ratio(a: Agg):
    """Leaves rejected with DegenerateBasis / assemble_representation calls."""
    calls = a.calls("search.assemble")
    return a.raised("search.assemble") / calls if calls else None


def _record_us(a: Agg):
    calls = a.calls("fileio.record") + a.calls("fileio.dumps")
    if not calls:
        return None
    return (a.total("fileio.record") + a.total("fileio.dumps")) / calls * 1e6


def _import_s(a: Agg):
    values = [d["import_s"] for d in a.dumps if d.get("import_s") is not None]
    return median(values) if values else None


METRICS = _metrics()
TRACE_WALL = ("trace.wall_s", "s", "lower")


def compute(dumps: list[dict]) -> dict[str, float | None]:
    agg = Agg(dumps)
    return {name: fn(agg) for name, _, _, fn in METRICS}


def unit_of(name: str) -> str:
    return next(unit for n, unit, _, _ in METRICS if n == name)


def position_bins(dumps: list[dict]) -> dict[str, float]:
    """Seconds in Codeword.positions/bitstring and label_counts, by ambient length."""
    bins: dict[str, float] = {}
    for d in dumps:
        for name, _, _, total, _ in d["stats"]:
            if name.startswith(("gf2.positions[", "gf2.label_counts[")):
                bins[name] = bins.get(name, 0.0) + total
    return dict(sorted(bins.items()))
