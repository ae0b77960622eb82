"""In-memory call tracing of loopforge, installed from outside the package.

``install()`` replaces selected loopforge functions by timing wrappers in
every ``loopforge`` module namespace that binds them (plus ``verify.CLAIMS``
and a few class attributes).  Module globals are looked up at call time, so
internal calls such as search -> assemble_representation are caught too.

Call-level functions record spans (id, name, start, end, parent id, op).
Per-leaf functions only add to counters keyed by (name, caller name):
calls, total seconds and calls that raised.  Nothing is written until
``dump()``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

SPAN, FIRST, LEAF = "span", "first", "leaf"


def _rank_key(n, *_args, **_kw):
    return n


def _length_bin(obj, *_args, **_kw):
    length = getattr(obj, "length", 0)
    return "m<=64" if length <= 64 else "m<=4096" if length <= 4096 else "m>4096"


# (module, attribute, trace name, mode, key function)
FUNCTIONS = (
    ("charvec", "gl_group", "charvec.gl_group", FIRST, _rank_key),
    ("charvec", "_orbit_table", "charvec.orbit_table", FIRST, _rank_key),
    ("charvec", "canonicalize", "charvec.canonicalize", LEAF, None),
    ("charvec", "char_vector_of", "charvec.char_vector_of", LEAF, None),
    ("charvec", "normalize_rank4", "charvec.normalize_rank4", LEAF, None),
    ("search", "minimal_representations", "search.minimal", SPAN, None),
    ("search", "assemble_representation", "search.assemble", LEAF, None),
    ("gf2", "canonical_code_signature", "gf2.signature", LEAF, None),
    ("gf2", "_gl_label_perms", "gf2.label_perms", FIRST, _rank_key),
    ("gf2", "class_partition", "gf2.class_partition", LEAF, None),
    ("gf2", "type_vector", "gf2.type_vector", LEAF, None),
    ("gf2", "label_counts", "gf2.label_counts", LEAF, _length_bin),
    ("loops", "build_factor_set", "loops.build_factor_set", SPAN, None),
    ("loops", "is_moufang", "loops.is_moufang", SPAN, None),
    ("loops", "loop_table_csv", "loops.loop_table_csv", SPAN, None),
    ("fileio", "parse_code_text", "fileio.parse_code_text", SPAN, None),
    ("fileio", "representation_record", "fileio.record", LEAF, None),
    ("fileio", "dumps", "fileio.dumps", LEAF, None),
    ("render", "render_ascii", "render.render_ascii", SPAN, None),
    ("render", "render_svg", "render.render_svg", SPAN, None),
)
GENERATORS = (("search", "enumerate_reduced", "search.enumerate"),)
# (module, class, attribute, trace name, mode, key function, is property)
METHODS = (
    ("gf2", "Codeword", "positions", "gf2.positions", LEAF, _length_bin, True),
    ("gf2", "Codeword", "bitstring", "gf2.positions", LEAF, _length_bin, False),
    ("loops", "CodeLoop", "center", "loops.center", SPAN, None, False),
)


class Tracer:
    def __init__(self, op: str = "") -> None:
        self.op = op
        self.stats: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.import_s: float | None = None
        self._stack: list[tuple[str, int | None]] = []
        self._next_id = 0
        self._seen: set[str] = set()

    def _add(self, name: str, parent: str, seconds: float, raised: int) -> None:
        st = self.stats.get((name, parent))
        if st is None:
            st = self.stats[(name, parent)] = [0, 0.0, 0]
        st[0] += 1
        st[1] += seconds
        st[2] += raised

    def _open(self, name: str, mode: str):
        stack = self._stack
        parent, parent_sid = stack[-1] if stack else ("", None)
        sid = None
        if mode == SPAN or (mode == FIRST and name not in self._seen):
            self._seen.add(name)
            sid = self._next_id
            self._next_id += 1
        stack.append((name, sid if sid is not None else parent_sid))
        return parent, parent_sid, sid

    def wrap(self, fn, base: str, mode: str, key=None):
        def traced(*args, **kwargs):
            name = base if key is None else f"{base}[{key(*args, **kwargs)}]"
            parent, parent_sid, sid = self._open(name, mode)
            raised = 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised = 1
                raise
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._add(name, parent, t1 - t0, raised)
                if sid is not None:
                    self.spans.append((sid, name, t0, t1, parent_sid, self.op))

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """Time only the work done inside the generator, not its consumer's."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            stack = self._stack
            parent, parent_sid = stack[-1] if stack else ("", None)
            sid = self._next_id
            self._next_id += 1
            busy, yielded, start, end = 0.0, 0, None, None
            try:
                while True:
                    stack.append((name, sid))
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        end = perf_counter()
                        stack.pop()
                        busy += end - t0
                        start = t0 if start is None else start
                    yielded += 1
                    yield item
            finally:
                self._add(name, parent, busy, 0)
                self.counters[name + ".yielded"] = self.counters.get(name + ".yielded", 0) + yielded
                self.spans.append((sid, name, start, end, parent_sid, self.op))

        traced.__wrapped__ = fn
        return traced

    def time_call(self, name: str, fn, *args):
        """Span around an arbitrary call made by the benchmark itself."""
        return self.wrap(fn, name, SPAN)(*args)

    def install(self) -> None:
        import loopforge.cli  # noqa: F401  (imports every loopforge module)
        import loopforge.verify as verify

        modules = [m for n, m in sys.modules.items() if n == "loopforge" or n.startswith("loopforge.")]
        replaced: dict[int, object] = {}
        for modname, attr, name, mode, key in FUNCTIONS:
            orig = getattr(sys.modules[f"loopforge.{modname}"], attr)
            replaced[id(orig)] = self.wrap(orig, name, mode, key)
        for modname, attr, name in GENERATORS:
            orig = getattr(sys.modules[f"loopforge.{modname}"], attr)
            replaced[id(orig)] = self.wrap_generator(orig, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        for claim, fn in list(verify.CLAIMS.items()):
            verify.CLAIMS[claim] = self.wrap(fn, f"verify.claim[{claim}]", SPAN)
        for modname, cls_name, attr, name, mode, key, is_prop in METHODS:
            cls = getattr(sys.modules[f"loopforge.{modname}"], cls_name)
            orig = vars(cls)[attr]
            if is_prop:
                setattr(cls, attr, property(self.wrap(orig.fget, name, mode, key)))
            else:
                setattr(cls, attr, self.wrap(orig, name, mode, key))

    def dump(self) -> dict:
        return {
            "op": self.op,
            "import_s": self.import_s,
            "stats": [[name, parent, *st] for (name, parent), st in self.stats.items()],
            "counters": self.counters,
            "spans": self.spans,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)
