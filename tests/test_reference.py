"""Reference-oracle tests: exact evaluation, brute force, baselines."""

import random

import pytest

from twostage.exceptions import GuardExceededError, ValidationError
from twostage.functions import Coverage, Modular
from twostage.instances import Instance, generate_instance
from twostage.reference import (
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
from twostage.solver import feasible_sets_value, replacement_greedy, sampling_greedy

import helpers


def zoo_instance(k=1, l=2):
    return Instance(3, k, l, (helpers.zoo_coverage(),))


class TestEvaluateFExact:
    def test_coverage_best_single_item(self):
        result = evaluate_F_exact(zoo_instance(), {0, 1})
        assert result == ExactResult(2.0, (frozenset({0}),))

    def test_empty_reduced_set(self):
        result = evaluate_F_exact(zoo_instance(), set())
        assert result.value == 0.0
        assert result.witness == (frozenset(),)

    def test_two_functions_sum(self):
        instance = Instance(3, 1, 2, (helpers.zoo_coverage(), helpers.path_cut()))
        result = evaluate_F_exact(instance, {0, 1})
        assert result.value == 4.0
        assert result.witness == (frozenset({0}), frozenset({1}))

    def test_witness_never_contains_a_dummy(self):
        # Ids from n on are not items: evaluation rejects one rather than
        # enumerate witnesses around it.
        with pytest.raises(ValidationError, match="item 3 out of range"):
            evaluate_F_exact(zoo_instance(k=2), {0, 3})

    def test_guard_refuses_oversized_enumeration(self):
        instance = Instance(50, 6, 10, (Modular(tuple(float(i) for i in range(50))),))
        assert exact_eval_cost(40, 6) > EXACT_EVAL_GUARD
        with pytest.raises(GuardExceededError, match="use evaluate_F_greedy"):
            evaluate_F_exact(instance, range(40))

    @pytest.mark.parametrize("reporter", [evaluate_F_exact, evaluate_F_greedy])
    def test_witness_replay_reproduces_value(self, reporter):
        rng = random.Random(60)
        for _ in range(25):
            instance = generate_instance(
                "mixed", rng.randrange(3, 8), rng.randrange(1, 4),
                rng.randrange(1, 3), 2, seed=rng.randrange(500),
            )
            S = helpers.random_subset(rng, range(instance.n))
            result = reporter(instance, S)
            replay = 0.0
            for oracle, witness in zip(instance.oracles(), result.witness):
                assert witness <= S
                assert len(witness) <= instance.k
                replay += oracle.eval(witness)
            assert replay == result.value


class TestEvaluateFGreedy:
    def test_modular_greedy_is_exact(self):
        instance = Instance(3, 2, 3, (Modular((5.0, 3.0, 1.0)),))
        greedy = evaluate_F_greedy(instance, {0, 1, 2})
        assert greedy == ExactResult(8.0, (frozenset({0, 1}),))
        assert greedy.value == evaluate_F_exact(instance, {0, 1, 2}).value

    def test_empty_set(self):
        assert evaluate_F_greedy(zoo_instance(), set()) == ExactResult(0.0, (frozenset(),))

    def test_greedy_trace_with_tied_second_pick(self):
        # First pick covers weight 3; items 1 and 2 then gain 1 each, the tie
        # resolves to item 1, and the k=2 value lands on 4.
        cov = Coverage((1.0,) * 5, (frozenset({0, 1, 2}), frozenset({3}), frozenset({4})))
        instance = Instance(3, 2, 3, (cov,))
        assert evaluate_F_greedy(instance, {0, 1, 2}) == ExactResult(4.0, (frozenset({0, 1}),))
        assert evaluate_F_exact(instance, {0, 1, 2}).value == 4.0

    def test_zoo_coverage_pairs_cap_at_three(self):
        instance = zoo_instance(k=2)
        assert evaluate_F_greedy(instance, {0, 1, 2}).value == 3.0
        assert evaluate_F_exact(instance, {0, 1, 2}).value == 3.0

    def test_sandwich_never_exceeds_exact(self):
        rng = random.Random(61)
        for _ in range(30):
            instance = generate_instance(
                rng.choice(("graph_cut", "mixed")), rng.randrange(3, 8),
                rng.randrange(1, 4), rng.randrange(1, 4), 2, seed=rng.randrange(500),
            )
            S = helpers.random_subset(rng, range(instance.n))
            assert evaluate_F_greedy(instance, S).value <= evaluate_F_exact(instance, S).value


class TestBruteForceOptimum:
    def test_coverage_lexicographic_tie(self):
        result = brute_force_optimum(zoo_instance())
        assert result == ExactResult(2.0, frozenset({0}))

    def test_path_cut_middle_vertex(self):
        instance = Instance(3, 1, 1, (helpers.path_cut(),))
        assert brute_force_optimum(instance) == ExactResult(2.0, frozenset({1}))

    def test_unconstrained_when_l_equals_n(self):
        instance = generate_instance("mixed", 5, 3, 2, 5, seed=3)
        result = brute_force_optimum(instance)
        assert result.value == evaluate_F_exact(instance, range(5)).value

    def test_guard_refuses_oversized_search(self):
        instance = Instance(40, 3, 12, (Modular(tuple(float(i) for i in range(40))),))
        assert brute_force_cost(instance) > BRUTE_FORCE_GUARD
        with pytest.raises(GuardExceededError, match="brute-force optimum needs"):
            brute_force_optimum(instance)

    def test_optimum_witness_replays(self):
        instance = generate_instance("graph_cut", 6, 2, 2, 3, seed=11)
        result = brute_force_optimum(instance)
        assert evaluate_F_exact(instance, result.witness).value == result.value


class TestReplacementGreedy:
    def test_zoo_coverage_second_round_skips_selected(self):
        solution = replacement_greedy(zoo_instance())
        assert solution.S == {0, 1}
        assert solution.Ts == (frozenset({0}),)
        assert solution.seed is None

    def test_zoo_coverage_eval_count(self):
        # Round 1 scores items 0-2 against the empty set (1 base + 3 adds),
        # then absorbs 0 (base + add) and trims {0} (base + 1 removal): 8.
        # Round 2 scores only 1 and 2 against {0} (1 base + 2 swaps), then
        # finds that item 1 does not gain (base + 1 swap): 5 more.
        assert replacement_greedy(zoo_instance()).evals == 13

    def test_matches_sampling_when_every_round_is_forced(self):
        instance = Instance(3, 1, 1, (helpers.zoo_coverage(),))
        deterministic = replacement_greedy(instance)
        for seed in range(5):
            sampled = sampling_greedy(instance, seed)
            assert sampled.S == deterministic.S
            assert sampled.Ts == deterministic.Ts

    def test_modular_takes_items_in_value_order(self):
        instance = Instance(3, 2, 2, (Modular((5.0, 3.0, 1.0)),))
        solution = replacement_greedy(instance)
        assert solution.S == {0, 1}
        assert solution.Ts == (frozenset({0, 1}),)


class TestRandomBaseline:
    def test_full_ground_set_when_l_equals_n(self):
        instance = generate_instance("coverage", 4, 2, 2, 4, seed=0)
        assert random_baseline(instance, 99).S == frozenset(range(4))

    def test_singleton_draws_cover_the_ground_set(self):
        instance = Instance(3, 1, 1, (Modular((1.0, 2.0, 3.0)),))
        seen = {frozenset(random_baseline(instance, seed).S) for seed in range(60)}
        assert seen == {frozenset({0}), frozenset({1}), frozenset({2})}

    def test_deterministic_given_seed(self):
        instance = generate_instance("mixed", 6, 3, 2, 3, seed=4)
        assert random_baseline(instance, 17) == random_baseline(instance, 17)

    def test_feasible_sets_stay_inside_s(self):
        instance = generate_instance("graph_cut", 7, 2, 2, 3, seed=6)
        solution = random_baseline(instance, 5)
        for T in solution.Ts:
            assert T <= solution.S
            assert len(T) <= instance.k


class TestCrossAlgorithmInvariants:
    def test_no_algorithm_beats_brute_force(self):
        rng = random.Random(62)
        for _ in range(12):
            instance = generate_instance(
                rng.choice(("graph_cut", "mixed", "coverage")), rng.randrange(3, 8),
                rng.randrange(1, 3), rng.randrange(1, 3),
                rng.randrange(1, 4), seed=rng.randrange(500),
            )
            optimum = brute_force_optimum(instance)
            for solution in (
                sampling_greedy(instance, rng.randrange(100)),
                replacement_greedy(instance),
                random_baseline(instance, rng.randrange(100)),
            ):
                assert evaluate_F_exact(instance, solution.S).value <= optimum.value

    def test_feasible_sum_is_a_lower_bound_witness(self):
        rng = random.Random(63)
        for _ in range(12):
            instance = generate_instance(
                "mixed", rng.randrange(3, 8), rng.randrange(1, 4),
                rng.randrange(1, 3), rng.randrange(1, 4), seed=rng.randrange(500),
            )
            solution = sampling_greedy(instance, rng.randrange(100))
            assert (
                feasible_sets_value(instance, solution.Ts)
                <= evaluate_F_exact(instance, solution.S).value
            )
