"""Boolean clone identification and equivalence-preserving formula
reductions over Post's lattice."""

from .boolfun import (
    ARITY_CAP,
    INFINITE,
    BooleanFunction,
    apply,
    dual,
    is_affine,
    is_c_reproducing,
    is_essentially_unary,
    is_monotone,
    is_self_dual,
    parse_function_literal,
    separating_degree,
    threshold,
)
from .clones import (
    CloneName,
    ClosureSet,
    NotInCloneError,
    catalog,
    classify_sat,
    clone_of,
    closure,
    includes,
    lattice_dot,
    member,
    represent,
)
from .errors import PostLatticeError
from .formula import (
    Apply,
    Base,
    Connective,
    Formula,
    Prop,
    STANDARD_BASE,
    equivalent,
    evaluate,
    metrics,
    parse,
    render,
    substitute,
    truth_table,
)
from .reductions import (
    CanonicalResult,
    ReductionOutput,
    canonical_equivalent,
    eliminate_constants,
    normalize_E,
    normalize_L,
    normalize_V,
    reduce_D,
    reduce_EVL,
    reduce_S00,
    reduce_S02,
    reduce_S10,
    reduce_S12,
    theorem_case,
    theorem_reduce,
)
from .restructure import (
    SplitChoice,
    restructure_full,
    restructure_monotone_g,
    restructure_monotone_h,
    select_split,
)

__version__ = "0.1.0"
