"""Code loops from doubly even binary codes.

Construction of the explicit loops, classification of the nonassociative
rank-3 and rank-4 loops by characteristic-vector orbits under GL(n,2), and
exhaustive enumeration of reduced and minimal code representations.

Public names load on first use (PEP 562): importing the package compiles no submodule.
"""

from importlib import import_module

_EXPORTS = {
    "charvec": """CharVector GLMatrix LoopClassId alpha_radical canonicalize char_vector_of
        gl_group gl_transform loop_class normalize_rank4 orbit_sizes representative""",
    "gf2": """ClassPartition CodeBasis Codeword class_partition codes_equivalent
        is_doubly_even meet_weights type_vector""",
    "loops": "CodeLoop FactorSet build_factor_set build_loop is_moufang",
    "search": """MinimalReport ReducedRepresentation assemble_representation
        enumerate_reduced minimal_representations solve_system""",
}
# each public name's module; a module name is its own home
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}
_HOMES.update((home, home) for home in (*_EXPORTS, "errors", "fileio"))

__version__ = "0.1.0"

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
