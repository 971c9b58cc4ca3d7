"""Local-search kernel tests: gains, moves, scoring, top-l selection."""

import itertools
import random

import pytest

from twostage.exceptions import PreconditionError
from twostage.functions import Coverage, Modular, Oracle
from twostage.local_search import (
    GainAction,
    ScoredItem,
    local_gain,
    score_items,
    select_top_l,
)

import helpers


class TestSwapGain:
    """Swap moves as local_gain chooses them on the unit path cut 0 - 1 - 2."""

    def test_path_cut_swap_in_the_middle(self):
        # f({1}) - f({0}) = 1 beats adding 1 to {0}, which gains nothing.
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 1, {0}, 2) == GainAction(1.0, frozenset({1}))

    def test_path_cut_swap_out_of_the_middle(self):
        # Swapping 0 in for 1 and adding 0 both lose 1.
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 0, {1}, 2) == GainAction(0.0, frozenset({1}))

    def test_candidate_must_be_outside(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 0, {0, 1}, 2) == GainAction(0.0, frozenset({0, 1}))
        assert oracle.eval_count == 0


class TestLocalGain:
    def test_member_item_is_noop(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 1, {1}, 1) == GainAction(0.0, frozenset({1}))
        assert oracle.eval_count == 0

    def test_full_set_swap(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 1, {0}, 1) == GainAction(1.0, frozenset({1}))

    def test_empty_set_add(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 1, set(), 1) == GainAction(2.0, frozenset({1}))

    def test_room_prefers_strictly_better_add(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert local_gain(oracle, 1, {0}, 2) == GainAction(1.0, frozenset({0, 1}))

    def test_tied_add_and_swap_resolves_to_swap(self):
        # Item 0 covers {0,1}, item 1 covers {0}: adding 0 to {1} and swapping
        # 0 for 1 both gain exactly 1, so the swap wins the tie.
        cov = Coverage((1.0, 1.0), (frozenset({0, 1}), frozenset({0})))
        oracle = Oracle(cov, n=2)
        assert local_gain(oracle, 0, {1}, 2) == GainAction(1.0, frozenset({0}))

    def test_victim_tie_breaks_to_smallest_id(self):
        oracle = Oracle(Modular((1.0, 1.0, 3.0)), n=3)
        assert local_gain(oracle, 2, {0, 1}, 2) == GainAction(2.0, frozenset({1, 2}))

    def test_negative_moves_collapse_to_noop(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert local_gain(oracle, 0, {1}, 1) == GainAction(0.0, frozenset({1}))

    def test_oversized_set_rejected(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        with pytest.raises(PreconditionError, match="feasible set has 2 items, budget k=1"):
            local_gain(oracle, 2, {0, 1}, 1)


class TestScoreItems:
    def test_zoo_coverage_scores(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        scores = score_items([oracle], [set()], {0, 1, 2}, k=1)
        assert scores == [ScoredItem(0, 2.0), ScoredItem(1, 2.0), ScoredItem(2, 1.0)]

    def test_member_of_every_set_scores_zero(self):
        fs = [Oracle(helpers.zoo_coverage(), 3), Oracle(Modular((9.0, 1.0, 1.0)), 3)]
        scores = score_items(fs, [{0}, {0}], {0}, k=1)
        assert scores == [ScoredItem(0, 0.0)]

    def test_length_mismatch_rejected(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        with pytest.raises(PreconditionError, match="length mismatch: 1 vs 2"):
            score_items([oracle], [set(), set()], {0}, k=1)

    def test_base_value_cached_once_per_function(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        score_items([oracle], [set()], {0, 1, 2}, k=1)
        # 1 base evaluation + 3 items with an empty set: one add probe each.
        assert oracle.eval_count == 4

        full = Oracle(helpers.zoo_coverage(), n=3)
        score_items([full], [{0}], {0, 1, 2}, k=1)
        # 1 base + two non-members, each probing a single swap.
        assert full.eval_count == 3


class TestSelectTopL:
    def test_score_tie_breaks_to_smallest_id(self):
        scores = [ScoredItem(i, s) for i, s in enumerate([2.0, 2.0, 1.0, 0.0])]
        assert select_top_l(scores, 1) == {0}

    def test_top_three(self):
        scores = [ScoredItem(i, s) for i, s in enumerate([2.0, 2.0, 1.0, 0.0])]
        assert select_top_l(scores, 3) == {0, 1, 2}

    def test_all_zero_scores_select_smallest_ids(self):
        scores = [ScoredItem(i, 0.0) for i in range(5)]
        assert select_top_l(scores, 2) == {0, 1}

    def test_request_larger_than_pool_rejected(self):
        with pytest.raises(PreconditionError, match="cannot select top 3 from 2"):
            select_top_l([ScoredItem(0, 1.0), ScoredItem(1, 0.0)], 3)


def _random_case(rng):
    kind = rng.choice(sorted(helpers.DESCRIPTOR_BUILDERS))
    n = rng.randrange(2, 7)
    descriptor = helpers.random_descriptor(rng, kind, n)
    k = rng.randrange(1, 5)
    A = helpers.random_subset(rng, range(n), max_size=min(4, k))
    x = rng.randrange(n)
    return descriptor, n, x, A, k


class TestKernelProperties:
    def test_local_gain_matches_exhaustive_reference(self):
        """Spot version of the acceptance equivalence sweep (300 cases)."""
        rng = random.Random(42)
        for _ in range(300):
            descriptor, n, x, A, k = _random_case(rng)
            oracle = Oracle(descriptor, n)
            got = local_gain(oracle, x, A, k)
            assert (got.gain, got.after) == helpers.expected_local_gain(descriptor, x, A, k)

    def test_action_replay_changes_value_by_exactly_gain(self):
        rng = random.Random(43)
        seen_moves = 0
        for _ in range(300):
            descriptor, n, x, A, k = _random_case(rng)
            oracle = Oracle(descriptor, n)
            move = local_gain(oracle, x, A, k)
            assert len(move.after) <= k
            if move.gain == 0.0:
                assert move.after == frozenset(A)
            else:
                seen_moves += 1
                assert descriptor.value(move.after) - descriptor.value(A) == move.gain
        assert seen_moves > 50

    def test_scores_are_nonnegative(self):
        rng = random.Random(44)
        for _ in range(40):
            n = rng.randrange(2, 6)
            m = rng.randrange(1, 4)
            k = rng.randrange(1, 3)
            fs = [
                Oracle(helpers.random_descriptor(rng, rng.choice(sorted(helpers.DESCRIPTOR_BUILDERS)), n), n)
                for _ in range(m)
            ]
            Ts = [helpers.random_subset(rng, range(n), max_size=k) for _ in range(m)]
            for scored in score_items(fs, Ts, range(n), k):
                assert scored.total_score >= 0.0

    def test_top_l_sum_equals_enumerated_maximum(self):
        """Spot version of the acceptance additivity sweep (50 vectors)."""
        rng = random.Random(45)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        for _ in range(50):
            u = rng.randrange(1, 13)
            l = rng.randrange(0, u + 1)
            scores = [ScoredItem(i, rng.choice(grid)) for i in range(u)]
            chosen = select_top_l(scores, l)
            by_item = {s.item: s.total_score for s in scores}
            best = max(
                (sum(by_item[i] for i in combo) for combo in itertools.combinations(range(u), l)),
                default=0.0,
            )
            assert sum(by_item[i] for i in chosen) == best
