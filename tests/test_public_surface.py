"""The public surface: the package's names and the CLI's help text."""

from __future__ import annotations

import hashlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loopforge
from loopforge.cli import main

PUBLIC_NAMES = [
    "CharVector", "ClassPartition", "CodeBasis", "CodeLoop", "Codeword",
    "FactorSet", "GLMatrix", "LoopClassId", "MinimalReport", "ReducedRepresentation",
    "alpha_radical", "assemble_representation", "build_factor_set", "build_loop",
    "canonicalize", "char_vector_of", "charvec", "class_partition", "codes_equivalent",
    "enumerate_reduced", "errors", "fileio", "gf2", "gl_group", "gl_transform", "is_doubly_even",
    "is_moufang", "loop_class", "loops", "meet_weights", "minimal_representations",
    "normalize_rank4", "orbit_sizes", "representative", "search", "solve_system", "type_vector",
]  # fmt: skip

# SHA-256 of the help text at 80 columns, by the interpreter version it was taken on:
# the help is argparse's output, and argparse 3.13 wraps the top-level usage line
# differently.  The 3.11 digests were recorded before the subcommands added their
# arguments lazily; 3.10.13, 3.12.1 and 3.13.0 printed the same bytes but for that line.
_HELP_DIGESTS_311 = {
    "": "2e0c15a34157c40579e681aff543945eec82c214f44786be366e11f92595a167",
    "classify": "ca31324d63afa02da5fe9cac3d3cc27933d37cbc62c1b884e3a3f1c0ae64d44e",
    "orbits": "a512833e18e5fcc39b66cc0e47f2585b7e303beac4df5a1adaebb48e14c8c747",
    "enumerate": "109d286824f9cffdc2eaa654400fea6c84191583d4ec7dd54a4af0b464734d56",
    "minimal": "7732537ab2b55ab4cbdceb8333d38bfcda7314e5849e83ba7d68901bb8d89de6",
    "loop": "860463fce64f87b2b0eb0427b12cdf65c95f29aa24dc7811c650281ed8882664",
    "render": "4ee8a41dcf52c2837866fd5ab5b965080679285f742a1b7f5e1571e8d13afb40",
    "verify-paper": "5fc992af9e786fa77e5e7cdc419c85c28f927f2239b8272bf77c17f73ffd2166",
}
HELP_DIGESTS = {
    (3, 10): _HELP_DIGESTS_311,
    (3, 11): _HELP_DIGESTS_311,
    (3, 12): _HELP_DIGESTS_311,
    (3, 13): {**_HELP_DIGESTS_311, "": "2ca874c411ee8d40f3212b83ccbd96614100c2310255153638b63108a21f2500"},
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 37
    assert sorted(loopforge.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_every_public_name_resolves(name):
    value = getattr(loopforge, name)
    if isinstance(value, types.ModuleType):
        assert value.__name__ == f"loopforge.{name}"
    else:
        assert getattr(sys.modules[value.__module__], name) is value
    assert name in dir(loopforge)


def test_star_import_binds_every_public_name():
    # in a fresh interpreter, where no name has been loaded yet
    code = (
        "import sys; sys.path[:0] = ['src']; import loopforge; before = set(vars(loopforge))\n"
        "from loopforge import *\n"
        "names = sorted(n for n in loopforge.__all__ if globals()[n] is getattr(loopforge, n))\n"
        "print(len(before & set(loopforge.__all__)), ' '.join(names))\n"
    )
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", *PUBLIC_NAMES]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        loopforge.no_such_name  # noqa: B018
    assert not hasattr(loopforge, "verify_everything")


@pytest.mark.parametrize("command", list(_HELP_DIGESTS_311))
def test_help_text_is_unchanged(command, capsys, monkeypatch):
    version = sys.version_info[:2]
    if version not in HELP_DIGESTS:
        pytest.skip(f"no help digests pinned for Python {version[0]}.{version[1]}")
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[version][command], out
