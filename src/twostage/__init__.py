"""Two-stage submodular maximization with randomized greedy reduction.

Reduce a ground set of n items to l representatives so that, for every
function in a family, the best size-k subset of the reduced set stays close
to the best size-k subset of everything.  The solver combines per-round
candidate sampling with local-search absorption and trimming; exact
enumeration references and an experiment harness verify its guarantees on
desk-scale instances.
"""

from .exceptions import (
    GuardExceededError,
    PreconditionError,
    TwoStageError,
    ValidationError,
)
from .functions import (
    Coverage,
    FacilityLocation,
    FunctionDescriptor,
    GraphCut,
    Modular,
    Oracle,
)
from .harness import (
    ALGORITHMS,
    CSV_HEADER,
    F_EVAL_MODES,
    RunConfig,
    TrialRecord,
    evaluate_reported_F,
    run_experiment,
    write_csv,
)
from .instances import (
    GENERATOR_KINDS,
    Instance,
    descriptor_from_json,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .local_search import (
    GainAction,
    ScoredItem,
    local_gain,
    score_items,
    select_top_l,
)
from .reference import (
    BRUTE_FORCE_GUARD,
    EXACT_EVAL_GUARD,
    ExactResult,
    brute_force_cost,
    brute_force_optimum,
    evaluate_F_exact,
    evaluate_F_greedy,
    exact_eval_cost,
    random_baseline,
)
from .solver import (
    RoundState,
    TwoStageSolution,
    apply_candidate,
    feasible_sets_value,
    replacement_greedy,
    sampling_greedy,
    trim,
)

__version__ = "0.1.0"

__all__ = [
    "TwoStageError",
    "ValidationError",
    "PreconditionError",
    "GuardExceededError",
    "Coverage",
    "FacilityLocation",
    "GraphCut",
    "Modular",
    "FunctionDescriptor",
    "Oracle",
    "descriptor_from_json",
    "Instance",
    "parse_instance",
    "serialize_instance",
    "generate_instance",
    "GENERATOR_KINDS",
    "GainAction",
    "ScoredItem",
    "local_gain",
    "score_items",
    "select_top_l",
    "RoundState",
    "TwoStageSolution",
    "trim",
    "apply_candidate",
    "sampling_greedy",
    "replacement_greedy",
    "feasible_sets_value",
    "EXACT_EVAL_GUARD",
    "BRUTE_FORCE_GUARD",
    "ExactResult",
    "exact_eval_cost",
    "brute_force_cost",
    "evaluate_F_exact",
    "evaluate_F_greedy",
    "brute_force_optimum",
    "random_baseline",
    "ALGORITHMS",
    "F_EVAL_MODES",
    "CSV_HEADER",
    "RunConfig",
    "TrialRecord",
    "evaluate_reported_F",
    "run_experiment",
    "write_csv",
    "__version__",
]
