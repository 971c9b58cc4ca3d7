"""Solver tests: trimming, candidate absorption, the randomized reduction."""

import hashlib
import json
import math
import random
import statistics

import pytest

from twostage.exceptions import ValidationError
from twostage.functions import GraphCut, Modular, Oracle
from twostage.harness import RunConfig, run_experiment
from twostage.instances import GENERATOR_KINDS, Instance, generate_instance
from twostage.solver import (
    apply_candidate,
    feasible_sets_value,
    replacement_greedy,
    sampling_greedy,
    trim,
)

import helpers
from helpers import ADVERSARIAL_CUT


class TestTrim:
    def test_path_cut_trims_to_middle_vertex(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert trim(oracle, {0, 1, 2}) == {1}

    def test_trim_raises_value(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        kept = trim(oracle, {0, 1, 2})
        assert helpers.path_cut().value(kept) == 2.0 > helpers.path_cut().value({0, 1, 2})

    def test_monotone_function_is_left_alone(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert trim(oracle, {0, 1, 2}) == {0, 1, 2}

    def test_monotone_trim_makes_no_call_and_hands_out_a_plain_frozenset(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        kept = trim(oracle, oracle.grow(frozenset({0}), 2))
        assert type(kept) is frozenset and kept == {0, 2}
        assert oracle.eval_count == 0

    def test_empty_set(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert trim(oracle, set()) == frozenset()

    def test_cost_is_one_eval_per_member_plus_base(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        trim(oracle, {0, 1, 2})
        assert oracle.eval_count == 4

    def test_trim_guarantee_sweep(self):
        """Spot version of the acceptance trim-guarantee suite (200 pairs)."""
        rng = random.Random(77)
        for _ in range(200):
            kind = rng.choice(sorted(helpers.DESCRIPTOR_BUILDERS))
            n = rng.randrange(2, 8)
            descriptor = helpers.random_descriptor(rng, kind, n)
            oracle = Oracle(descriptor, n)
            B = helpers.random_subset(rng, range(n))
            A = trim(oracle, B)
            assert descriptor.value(A) >= descriptor.value(B)
            for x in A:
                assert descriptor.value(A) - descriptor.value(A - {x}) >= 0.0
            # The random descriptors carry non-unit float weights.
            if descriptor.monotone:
                assert A == B

    def test_adversarial_cut_keeps_no_harmful_member(self):
        oracle = Oracle(ADVERSARIAL_CUT, 6)
        kept = trim(oracle, range(6))
        value = oracle.eval(kept)
        harmful = [x for x in sorted(kept) if value - oracle.eval(kept - {x}) < 0]
        assert harmful == []

    def test_members_are_tested_in_ascending_order(self):
        # {1, 2} and {0} are both worth 3.0, and {0, 1, 2} is worth 0.
        # Ascending, dropping 0 raises the value to 3.0, and then neither 1 nor
        # 2 may go.  Descending would drop 2 (to 2.0), then 1 (to 3.0), and
        # keep {0}.
        oracle = Oracle(GraphCut(((0, 1, 1.0), (0, 2, 2.0))), 3)
        assert trim(oracle, {0, 1, 2}) == {1, 2}

    def test_star_cut_keeps_no_harmful_member(self):
        # Vertex 3 joins 0, 1 and 2 with weights 5e-324, 1.0 and 2**53.  On
        # rounded values alone, trim keeps 0, whose removal marginal -5e-324
        # rounds to 0, then drops 2, after which that marginal rounds to -2.0.
        oracle = Oracle(GraphCut(((0, 3, 5e-324), (1, 3, 1.0), (2, 3, 2.0**53))), 4)
        kept = trim(oracle, {0, 2, 3})
        value = oracle.eval(kept)
        harmful = [x for x in sorted(kept) if value - oracle.eval(kept - {x}) < 0]
        assert harmful == []


class TestApplyCandidate:
    def test_path_cut_swap_then_trim(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert apply_candidate(oracle, {0}, 1, k=1) == {1}

    def test_member_is_a_no_op(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert apply_candidate(oracle, {0}, 0, k=1) == {0}

    def test_dummy_against_trimmed_set_is_a_no_op(self):
        # Only one item is left in round 2, so one of its two slots is blank
        # and is drawn in some solves; S and T must then stay as they are.
        instance = Instance(2, 1, 2, (Modular((1.0, 0.0)),))
        blank = 0
        for seed in range(40):
            snapshots = []
            sampling_greedy(instance, seed, on_round=snapshots.append)
            before, after = snapshots
            if after.S == before.S:
                blank += 1
                assert after.Ts == before.Ts
        assert blank > 0

    def test_zero_gain_item_is_not_inserted(self):
        # Items 0 and 1 cover the same element: swapping gains exactly zero.
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert apply_candidate(oracle, {0}, 1, k=1) == {0}


class TestSamplingGreedy:
    def test_forced_singleton_choice_coverage(self):
        instance = Instance(3, 1, 1, (helpers.zoo_coverage(),))
        for seed in range(6):
            solution = sampling_greedy(instance, seed)
            assert solution.S == {0}
            assert solution.Ts == (frozenset({0}),)
            assert feasible_sets_value(instance, solution.Ts) == 2.0
            assert solution.seed == seed

    def test_forced_singleton_choice_modular(self):
        instance = Instance(3, 1, 1, (Modular((5.0, 3.0, 1.0)),))
        solution = sampling_greedy(instance, 123)
        assert solution.S == {0}
        assert solution.Ts == (frozenset({0}),)

    def test_single_item_ground_set(self):
        lively = Instance(1, 1, 1, (Modular((4.0,)),))
        assert sampling_greedy(lively, 0).S == {0}
        flat = Instance(1, 1, 1, (Modular((0.0,)),))
        solution = sampling_greedy(flat, 0)
        assert solution.S <= {0}
        assert solution.Ts == (frozenset(),)

    def test_identical_seed_is_bit_identical(self):
        instance = generate_instance("mixed", 7, 3, 2, 3, seed=5)
        assert sampling_greedy(instance, 9) == sampling_greedy(instance, 9)

    def test_dummies_never_reach_the_returned_solution(self):
        # Round 2 may draw a blank slot; only real ids ever come back.
        instance = Instance(2, 1, 2, (Modular((1.0, 0.0)),))
        for seed in range(40):
            solution = sampling_greedy(instance, seed)
            assert all(x < instance.n for x in solution.S)
            assert all(x < instance.n for T in solution.Ts for x in T)

    def test_round_invariants(self):
        rng = random.Random(31)
        for _ in range(15):
            kind = rng.choice(("graph_cut", "mixed", "coverage"))
            n = rng.randrange(3, 8)
            instance = generate_instance(
                kind, n, rng.randrange(1, 4), rng.randrange(1, 3),
                rng.randrange(1, min(4, n) + 1), seed=rng.randrange(1000),
            )
            snapshots = []
            sampling_greedy(instance, rng.randrange(1000), on_round=snapshots.append)
            assert [s.round_index for s in snapshots] == list(range(1, instance.l + 1))
            previous_S, previous_Ts = frozenset(), tuple(frozenset() for _ in instance.functions)
            previous_value = 0.0
            for snap in snapshots:
                # A round adds at most one item; a blank round changes nothing.
                assert previous_S <= snap.S
                assert len(snap.S) <= len(previous_S) + 1
                if snap.S == previous_S:
                    assert snap.Ts == previous_Ts
                previous_S, previous_Ts = snap.S, snap.Ts
                assert all(x < instance.n for x in snap.S)
                for T in snap.Ts:
                    assert T <= snap.S
                    assert len(T) <= instance.k
                    assert all(x < instance.n for x in T)
                value = feasible_sets_value(instance, snap.Ts)
                assert value >= previous_value
                previous_value = value

    @pytest.mark.parametrize(
        ("shape", "digest", "blank_solves"),
        [
            ((4, 2, 2, 4), "c006443259c8106b8a14d8ffca392498323684b42b610c883cb53f9c10dd5e83", 40),
            ((5, 2, 2, 4), "6e80a723260284330be452f5ee6498c0cd55d22e34e81dbda4ba33ef795bde0b", 28),
        ],
        ids=("n4-l4", "n5-l4"),
    )
    def test_blank_round_golden_digest(self, shape, digest, blank_solves):
        # Shapes with n - l + 1 < l leave blank slots in the late rounds.
        # The digest covers the final (S, Ts, evals) and every RoundState of
        # sampling_greedy(instance, seed) and replacement_greedy(instance) for
        # each generator kind and seeds 0..9.  Re-pinned when scoring stopped
        # valuing a monotone set's swaps while it has room and trim stopped
        # valuing monotone sets, and again when scoring stopped re-valuing a
        # function whose set had not changed since its last pass: each time,
        # with the evals left out, both digests read as before.
        records, blank = [], 0
        for kind in GENERATOR_KINDS:
            for seed in range(10):
                instance = generate_instance(kind, *shape, seed=seed)
                for solve in (
                    lambda on_round: sampling_greedy(instance, seed, on_round),
                    lambda on_round: replacement_greedy(instance, on_round),
                ):
                    snapshots = []
                    solution = solve(snapshots.append)
                    records.append([
                        sorted(solution.S), [sorted(T) for T in solution.Ts], solution.evals,
                        [[s.round_index, sorted(s.S), [sorted(T) for T in s.Ts], s.evals]
                         for s in snapshots],
                    ])
                    blank += solution.seed is not None and len(solution.S) < instance.l
        assert blank == blank_solves
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest

    def test_oracle_call_budget(self):
        rng = random.Random(32)
        for _ in range(10):
            n = rng.randrange(3, 9)
            m = rng.randrange(1, 4)
            k = rng.randrange(1, 3)
            l = rng.randrange(1, min(4, n) + 1)
            instance = generate_instance("mixed", n, m, k, l, seed=rng.randrange(1000))
            solution = sampling_greedy(instance, 0)
            assert solution.evals <= 3 * l * m * (n + l) * (k + 1)


class TestReferenceSolver:
    """Both solvers against helpers.ref_solve, an independent transcription of
    README "Algorithms" that values every set whole: the same S, Ts, evals and
    rounds on the 100 instances of the acceptance sweeps."""

    @pytest.mark.parametrize("seed", [None, 17, 18])
    def test_acceptance_instances(self, seed):
        grid = [(5, 1, 1, 2), (6, 2, 2, 3), (7, 3, 2, 4), (8, 2, 1, 3), (6, 3, 2, 2)]
        for kinds in (("graph_cut", "mixed"), ("coverage", "facility_location")):
            for idx in range(50):
                n, m, k, l = grid[idx % len(grid)]
                instance = generate_instance(kinds[idx // 25], n, m, k, l, seed=1000 + idx)
                helpers.assert_solves_like_reference(instance, seed)


class TestExpectedFEstimate:
    """Monte-Carlo estimates of the feasible-set value sum, read off the
    sum_fT column of seeded run_experiment trials."""

    @staticmethod
    def sums(instance, trials, base_seed):
        config = RunConfig("sampling_greedy", trials=trials, base_seed=base_seed)
        return [r.sum_fT for r in run_experiment(instance, config)]

    def test_deterministic_instance_has_zero_spread(self):
        instance = Instance(3, 1, 1, (helpers.zoo_coverage(),))
        assert self.sums(instance, trials=10, base_seed=0) == [2.0] * 10

    def test_single_trial_equals_that_run(self):
        instance = generate_instance("graph_cut", 6, 2, 2, 3, seed=8)
        solution = sampling_greedy(instance, 7)
        assert self.sums(instance, trials=1, base_seed=7) == [
            feasible_sets_value(instance, solution.Ts)
        ]

    def test_path_cut_mean_beats_the_guarantee(self):
        # Brute force gives F(O) = 2 for the path cut with k=1, l=2.
        instance = Instance(3, 1, 2, (helpers.path_cut(),))
        mean = statistics.fmean(self.sums(instance, trials=400, base_seed=0))
        assert mean >= 2.0 / (2.0 * math.e)
        assert 1.5 <= mean <= 2.0

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError, match="trials must be"):
            RunConfig("sampling_greedy", trials=0)
