"""Toolkit for BCSL rule-based models.

Parses model files, grounds them into multiset rewriting systems,
explores their (optionally regulated) transition systems, samples runs
and machine-checks that the direct and the grounded semantics coincide.
"""

from .conformance import (
    ConformanceReport,
    Counterexample,
    check_equivalence,
)
from .lts import (
    LabelSequences,
    Lts,
    RuleMatcher,
    RunTree,
    build_lts,
    explore,
    lts_to_dot,
    lts_to_json_obj,
    maximal_label_sequences,
    tree_to_dot,
    tree_to_json_obj,
    unroll,
)
from .mrs import (
    EPSILON_LABEL,
    Mrs,
    MrsRule,
    Run,
    apply_rule,
    build_mrs,
    enabled,
    sample_run,
    successors,
)
from .patterns import (
    DEFAULT_GROUNDING_CAP,
    GroundingCapError,
    GroundingError,
    Instantiation,
    Reaction,
    deatomise,
    enumerate_instantiations,
    expand_agent,
    expand_pattern,
    ground_rule,
    instantiation_count,
    pattern_multiset,
)
from .regulation import (
    AutomatonRegulation,
    ConcurrentFreeRegulation,
    ConditionalRegulation,
    Dfa,
    Regulation,
    RegulationError,
    RegulationGuard,
    RegulationWarning,
    compile_label_regex,
    compile_regulation,
    concurrency_relation,
    direct_walk,
    guarded,
    make_guard,
)
from .syntax import (
    BcslModel,
    BcslRule,
    ParseError,
    SignatureError,
    infer_signatures,
    model_to_text,
    parse_agent,
    parse_model,
    parse_multiset,
    parse_pattern,
    parse_rule,
)
from .terms import (
    EPSILON,
    Agent,
    Atomic,
    Multiset,
    Pattern,
    Structure,
    canonicalize,
)

__version__ = "0.1.0"
