"""Code loops from doubly even binary codes.

Construction of the explicit loops, classification of the nonassociative
rank-3 and rank-4 loops by characteristic-vector orbits under GL(n,2), and
exhaustive enumeration of reduced and minimal code representations.
"""

from .charvec import (
    CharVector,
    GLMatrix,
    LoopClassId,
    alpha_radical,
    canonicalize,
    char_vector_of,
    enumerate_nonassociative,
    eval_alpha,
    eval_beta,
    eval_sigma,
    gl_group,
    gl_transform,
    loop_class,
    normalize_rank4,
    orbit_sizes,
    representative,
)
from .gf2 import (
    ClassPartition,
    CodeBasis,
    Codeword,
    WeightProfile,
    class_partition,
    codes_equivalent,
    is_doubly_even,
    meet_weight,
    pair_length,
    profile_of,
    span,
    triple_length,
    type_vector,
    weight,
)
from .loops import (
    CodeLoop,
    FactorSet,
    build_factor_set,
    build_loop,
    is_moufang,
    loops_isomorphic,
)
from .search import (
    ClassSizes,
    MinimalReport,
    ReducedRepresentation,
    assemble_representation,
    enumerate_reduced,
    minimal_representations,
    solve_system,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
