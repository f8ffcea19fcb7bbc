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
    eval_gamma,
    eval_type,
    type_pattern,
)
from .graphcore import (
    Flip,
    FlipSet,
    Graph,
    all_pairs_distance,
    apply_flips,
    ball,
    ball_mask,
    distances_from,
    eq_class_mask,
    exact_distance_layer,
    format_edge_list,
    is_distance_r_independent,
    make_flip_set,
    parse_edge_list,
    phi_equivalent_over,
)
from .indiscernibles import (
    Counterexample,
    ExtractionConfig,
    em_type,
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
    decompose_exceptional,
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

__all__ = [name for name in dir() if not name.startswith("_")]
