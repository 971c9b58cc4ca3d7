"""The public surface, pinned by name.

Adding or deleting a public name means editing EXPECTED here, so every change
to the surface is deliberate.
"""

import importlib

import pytest

import twostage

EXPECTED = {
    # exceptions
    "TwoStageError", "ValidationError", "PreconditionError", "GuardExceededError",
    # functions
    "Coverage", "FacilityLocation", "GraphCut", "Modular", "FunctionDescriptor",
    "Oracle", "descriptor_from_json",
    # instances
    "Instance", "parse_instance", "serialize_instance", "generate_instance",
    "GENERATOR_KINDS",
    # local_search
    "GainAction", "ScoredItem", "local_gain", "score_items", "select_top_l",
    # solver
    "RoundState", "TwoStageSolution", "trim", "apply_candidate", "sampling_greedy",
    "replacement_greedy", "feasible_sets_value",
    # reference
    "EXACT_EVAL_GUARD", "BRUTE_FORCE_GUARD", "ExactResult", "exact_eval_cost",
    "brute_force_cost", "evaluate_F_exact", "evaluate_F_greedy", "brute_force_optimum",
    "random_baseline",
    # harness
    "ALGORITHMS", "F_EVAL_MODES", "CSV_HEADER", "RunConfig", "TrialRecord",
    "evaluate_reported_F", "run_experiment", "write_csv",
    "__version__",
}

MODULES = (
    "twostage",
    "twostage.exceptions",
    "twostage.functions",
    "twostage.instances",
    "twostage.local_search",
    "twostage.solver",
    "twostage.reference",
    "twostage.harness",
    "twostage.cli",
)


def test_package_all_is_pinned():
    assert len(twostage.__all__) == len(set(twostage.__all__))
    assert set(twostage.__all__) == EXPECTED


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
