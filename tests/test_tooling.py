"""Source-level checks on the library itself."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "loopforge").glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"charvec.py", "gf2.py", "search.py", "cli.py"}


def test_no_assert_statements_in_the_library():
    # ``python -O`` strips asserts, so invariants must be explicit checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_library_raises_no_runtime_error():
    # an internal invariant belongs to the tests; bad inputs raise DomainError,
    # ParseError or ValueError, so a RuntimeError guards nothing a caller can reach
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and isinstance(exc := node.exc.func if isinstance(node.exc, ast.Call) else node.exc, ast.Name)
        and exc.id == "RuntimeError"
    ]
    assert found == []


def test_no_unused_imports_in_the_library():
    # a module-level import that nothing reads outlives the code that used it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and name != "annotations":
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_no_orphaned_private_helpers_in_the_library():
    # a private module-level name that no library module reads outlived its callers
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [d for d in defined if d.startswith("_") and not d.startswith("__")]
            found += [f"{name}:{node.lineno} {d}" for d in private if d not in read]
    assert found == []


# members of library classes that no library or benchmark code reads, each kept for a reason
KEPT_UNREAD_MEMBERS = {
    "CodeLoop.mul": "the loop's element API: the product the tests state the loop laws with",
    "CodeLoop.square": "the loop's element API: x x, the square law's left side",
    "CodeLoop.commutator": "the loop's element API: [x, y], the commutator law's left side",
    "CodeLoop.associator": "the loop's element API: (x, y, z), the associator law's left side",
    "CodeLoop.element_id": "the loop's element API: how a caller names the element (sign, codeword)",
    "CodeLoop.negative_identity": "the loop's element API: -1, where squares, commutators and associators land",
    "CharVector.sigma": "the README documents it as the vector's square part",
    "CharVector.beta": "the README documents it as the vector's commutator part",
}


def test_every_class_member_is_read_or_kept_for_a_reason():
    # a method or property (defined, or assigned as ``name = property(...)``) that
    # no module under src/ reads, and that perfbench/ reads neither as an
    # attribute nor as a string, has only the tests left as callers: it goes, and
    # its tests move to the code it wraps or to an oracle in tests/conftest.py,
    # unless it is kept above with its reason
    read = set()
    for path in [*SOURCES, *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path.parent.name == "perfbench":
                read.add(node.value)
    unread = [
        f"{cls.name}.{name}"
        for path in SOURCES
        for cls in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        for name in (
            [member.name] if isinstance(member, ast.FunctionDef)
            else [t.id for t in member.targets if isinstance(t, ast.Name)] if isinstance(member, ast.Assign)
            else []
        )
        if not name.startswith("__") and name not in read
    ]
    assert sorted(unread) == sorted(KEPT_UNREAD_MEMBERS)


def test_the_library_parses_as_python_3_10():
    # pyproject.toml promises Python >= 3.10; a best-effort check of syntax only
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):  # the check bites: except* came in 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_error_class_is_read_outside_errors_py():
    # an exception class that no other module raises or catches outlived
    # the check that raised it
    defined = [
        node.name
        for node in ast.parse((ROOT / "src" / "loopforge" / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]
    read = {
        node.id
        for path in SOURCES
        if path.name not in ("errors.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert defined and [name for name in defined if name not in read] == []


def test_benchmark_tracer_finds_every_function_it_wraps():
    # perfbench/tracer.py wraps library functions by module and name, so a
    # rename in src/ must fail here, not only in a traced benchmark run; the
    # wrapped loop checks are called too, so a method turned property or a
    # changed signature fails here as well, and the search and record calls,
    # so a leaf that bypasses the module globals the tracer replaces fails too
    code = textwrap.dedent(
        """
        import sys; sys.path[:0] = ['perfbench', 'src']
        from tracer import Tracer
        tracer = Tracer(); tracer.install()
        from loopforge import catalog, charvec, fileio, loops, search
        loop = loops.build_loop(catalog.ENTRIES['C4_14'].basis())
        assert loops.is_moufang(loop) and loop.center() == (0, loop.half)
        c4_14, c3_2 = (charvec.representative(charvec.LoopClassId.parse(s)) for s in ('C4_14', 'C3_2'))
        report = search.minimal_representations(c4_14)
        stream = [(rep.type, rep.basis) for rep in search.enumerate_reduced(c3_2)]
        fileio.representation_record(report.loop, report.representations[0])
        assert ('search.assemble', 'search.minimal') in tracer.stats and stream
        assert {name for name, _ in tracer.stats} >= {
            'loops.is_moufang', 'loops.center', 'gf2.type_vector', 'search.enumerate', 'fileio.record'
        }
        """
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"import sys; sys.path[:0] = ['src']\n{code}\nprint(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("loopforge")}


def test_each_command_imports_only_what_it_runs():
    # a cold command compiles every module it imports, so the CLI loads a
    # module only when a command runs it; perfbench/tracer.py wraps functions
    # in the modules that importing cli and verify loads, render among them
    assert _package(_loaded_modules("import loopforge.cli")) == {
        "loopforge", "loopforge.cli", "loopforge.errors", "loopforge.render"
    }
    classify = _loaded_modules("from loopforge.cli import main; main(['classify', '--loop', 'C4_3'])")
    assert not classify & {"loopforge.verify", "loopforge.loops", "loopforge.catalog", "loopforge.search"}
    assert not classify & {"json", "csv"}  # a text command writes no record
    verify = _loaded_modules("from loopforge.cli import main; main(['verify-paper'])")
    assert _package(verify) == {"loopforge"} | {f"loopforge.{p.stem}" for p in SOURCES if p.stem != "__init__"}
    # every module is loaded, and none needs the decorator machinery (4 ms a command)
    assert not verify & {"dataclasses", "inspect"}


def test_readme_library_example_runs():
    # the README's python block is the library's front page: it must run, and
    # its comments must stay true
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["cv"].shorthand() == "111111"
    assert str(names["loop_id"]) == "C3_1" and names["loop"].order == 16
    assert names["sizes"].counts == (1,) * 7


def _readme_names() -> list[str]:
    """Backticked tokens of README.md outside fenced blocks that are dotted or
    underscored identifiers (a test's parametrize id stripped); flags, file
    paths, claim names and expressions are not."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.M | re.S)
    tokens = (re.sub(r"\[.*\]$", "", token) for token in re.findall(r"`([^`]+)`", text))
    return [
        token for token in tokens
        if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", token) and re.search(r"[._]", token)
        and not token.endswith(".py")
    ]


def test_readme_names_only_what_exists():
    # a name the README puts in backticks must still be there: an attribute of
    # the package, a submodule or a library class, a builtin, or a test
    import builtins
    import importlib
    import pkgutil

    import loopforge

    submodules = pkgutil.iter_modules(loopforge.__path__)
    modules = [loopforge, builtins] + [importlib.import_module(f"loopforge.{m.name}") for m in submodules]
    tests = {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }

    def resolves(token: str) -> bool:
        head, *rest = token.split(".")
        roots = [getattr(m, head) for m in modules if hasattr(m, head)]
        roots += [loopforge] if head == "loopforge" else []
        for obj in roots:
            for attr in rest:
                obj = getattr(obj, attr, None)
            if obj is not None:
                return True
        return token in tests

    names = _readme_names()
    assert {"GLMatrix.inverse", "bytes.translate", "__getattr__"} <= set(names)
    assert [token for token in names if not resolves(token)] == []


def test_code_signature_enumerates_gl4_once(monkeypatch):
    # the benchmark's charvec.gl_group_s samples come from the label actions that
    # canonical_code_signature builds; a rewrite that drops the call must fail here
    from loopforge import charvec, gf2

    calls = []
    real = charvec.gl_group
    monkeypatch.setattr(charvec, "gl_group", lambda n: calls.append(n) or real(n))
    gf2._gl_label_perms.cache_clear()
    basis = gf2.CodeBasis.from_positions(8, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7), (1, 2, 3, 4, 5, 6, 7, 8)])
    gf2.canonical_code_signature(basis)
    assert calls == [4]


def test_verify_paper_enumerates_each_gl_group_once(monkeypatch):
    # building the label actions is a one-off cost of every cold verify-paper;
    # all claims together may build each rank's actions only once
    from loopforge import charvec, gf2, verify

    calls = []
    real = charvec.gl_group
    monkeypatch.setattr(charvec, "gl_group", lambda n: calls.append(n) or real(n))
    gf2._gl_label_perms.cache_clear()
    verify.run_claims()
    assert calls == [3, 4]
