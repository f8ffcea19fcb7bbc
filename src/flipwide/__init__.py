"""Flips, indiscernible sequences, and flip-wideness for finite graphs."""

from .errors import (
    BudgetExceeded,
    ExtractionShortfall,
    FlipwideError,
    InputError,
    InternalInvariantError,
    ModeError,
)
from .formulas import (
    Atom,
    EvalContext,
    Pattern,
    PhiType,
    all_phi_types,
    dist_atom,
    edge_atom,
    enumerate_type_patterns,
    entry_mask,
    eq_atom,
    eval_atom,
    type_pattern,
)
from .graphcore import (
    Flip,
    FlipSet,
    Graph,
    apply_flips,
    ball,
    ball_mask,
    distances_from,
    eq_class_mask,
    exact_distance_layer,
    format_edge_list,
    is_distance_r_independent,
    parse_edge_list,
    phi_equivalent_over,
)
from .indiscernibles import (
    Counterexample,
    ExtractionConfig,
    extract_indiscernible,
    is_delta_indiscernible,
)
from .oracles import (
    AlternationWitness,
    BipartitePattern,
    ExceptionWitness,
    OracleReport,
    TypeDecomposition,
    TypeFalsifier,
    Witness,
    alternation_rank,
    bipartite_canonical_pattern,
    decompose_sequence_types,
    exception_rank,
    order_property_witness,
    pairing_index_witness,
    shattering_witness,
)
from .sampleset import (
    DisjointFamilyInput,
    SampleBudget,
    SampleSetResult,
    build_sample_set,
    verify_sample_set,
)
from .wideness import (
    FlipWideRequest,
    FlipWideResult,
    LevelTrace,
    flip_widen,
    verify_flip_wide,
)

__version__ = "0.1.0"

# The exported names, a stated choice: every class and function imported
# above, and the seven submodules they come from (not ``generators`` or
# ``cli``).
__all__ = [
    "AlternationWitness", "Atom", "BipartitePattern", "BudgetExceeded",
    "Counterexample", "DisjointFamilyInput", "EvalContext", "ExceptionWitness",
    "ExtractionConfig", "ExtractionShortfall", "Flip", "FlipSet",
    "FlipWideRequest", "FlipWideResult", "FlipwideError", "Graph",
    "InputError", "InternalInvariantError", "LevelTrace", "ModeError",
    "OracleReport", "Pattern", "PhiType", "SampleBudget", "SampleSetResult",
    "TypeDecomposition", "TypeFalsifier", "Witness", "all_phi_types",
    "alternation_rank", "apply_flips", "ball", "ball_mask",
    "bipartite_canonical_pattern", "build_sample_set",
    "decompose_sequence_types", "dist_atom", "distances_from", "edge_atom",
    "entry_mask", "enumerate_type_patterns", "eq_atom", "eq_class_mask",
    "eval_atom", "exact_distance_layer", "exception_rank",
    "extract_indiscernible", "flip_widen", "format_edge_list",
    "is_delta_indiscernible", "is_distance_r_independent",
    "order_property_witness", "pairing_index_witness", "parse_edge_list",
    "phi_equivalent_over", "shattering_witness", "type_pattern",
    "verify_flip_wide", "verify_sample_set",
    "errors", "formulas", "graphcore", "indiscernibles", "oracles",
    "sampleset", "wideness",
]
