"""Reference-oracle tests: exact evaluation, brute force, baselines."""

import gc
import itertools
import pickle
import random
import signal
import weakref
from contextlib import contextmanager

import pytest

from twostage.exceptions import GuardExceededError, ValidationError
from twostage.functions import Coverage, FacilityLocation, GraphCut, Modular
from twostage.instances import GENERATOR_KINDS, Instance, generate_instance
from twostage.reference import (
    BRUTE_FORCE_GUARD,
    EXACT_EVAL_GUARD,
    ExactResult,
    _exact_feasible,
    _walk,
    brute_force_cost,
    brute_force_optimum,
    evaluate_F_exact,
    evaluate_F_greedy,
    exact_eval_cost,
    random_baseline,
)
from twostage.solver import feasible_sets_value, replacement_greedy, sampling_greedy

import helpers
from helpers import ADVERSARIAL_CUT, ADVERSARIAL_WEIGHTS


def zoo_instance(k=1, l=2):
    return Instance(3, k, l, (helpers.zoo_coverage(),))


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# (kind, seed, S, F(S).hex(), witnesses, calls) on the benchmark's two scale
# shapes: facility location (n=100, m=3, k=8, l=10) and mixed (n=100, m=5,
# k=5, l=10).  S is sampling_greedy(instance, seed).S.  calls are each
# function's oracle calls in its exact report: the monotone kinds' equal
# those of a preorder walk with the same bound, and the graph cuts' (the
# third function of mixed) are those of the k-aware bound, against 638 for
# every subset.  The other instances in these tests are too small for the
# pruned walk to skip much.  Facility location adds left to right, so the
# floats are the same on every supported Python.
SCALE_REPORTS = [
    ("facility_location", 10000, (0, 12, 14, 17, 27, 38, 46, 57, 81, 85), "0x1.131e798f414c0p+8", (
        (12, 14, 27, 38, 46, 57, 81, 85),
        (0, 17, 27, 38, 46, 57, 81, 85),
        (0, 12, 14, 27, 38, 46, 57, 85),
    ), (267, 270, 237)),
    ("facility_location", 10001, (10, 13, 15, 24, 41, 44, 70, 80, 83, 98), "0x1.138a67cb6556ep+8", (
        (10, 13, 41, 44, 70, 80, 83, 98),
        (10, 13, 15, 24, 41, 44, 80, 98),
        (10, 13, 15, 24, 41, 80, 83, 98),
    ), (246, 161, 203)),
    ("facility_location", 10002, (0, 2, 9, 22, 32, 33, 59, 68, 92, 93), "0x1.1333e90234d1cp+8", (
        (0, 9, 22, 32, 33, 59, 92, 93),
        (0, 2, 9, 32, 33, 59, 92, 93),
        (0, 9, 22, 32, 33, 68, 92, 93),
    ), (176, 203, 187)),
    ("mixed", 10000, (13, 21, 23, 27, 38, 42, 46, 65, 82, 92), "0x1.49d80303b2bd7p+9", (
        (13, 21, 27, 65, 82),
        (13, 21, 27, 38, 65),
        (13, 23, 27, 38, 42),
        (21, 23, 46, 82, 92),
        (13, 23, 38, 42, 92),
    ), (584, 567, 73, 476, 499)),
    ("mixed", 10001, (13, 16, 18, 24, 37, 41, 55, 57, 87, 90), "0x1.4dce04d1a2faep+9", (
        (13, 16, 24, 41, 55),
        (13, 16, 24, 57, 87),
        (13, 16, 18, 37, 57),
        (13, 16, 37, 87, 90),
        (13, 16, 41, 55, 87),
    ), (467, 496, 53, 553, 505)),
    ("mixed", 10002, (6, 7, 28, 35, 61, 67, 73, 74, 91, 96), "0x1.4b78ec8952475p+9", (
        (6, 67, 73, 74, 91),
        (28, 61, 73, 74, 91),
        (7, 28, 61, 67, 91),
        (6, 7, 28, 73, 96),
        (28, 35, 67, 73, 96),
    ), (629, 574, 80, 539, 659)),
]


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

    def test_tie_goes_to_the_smaller_tuple_across_sizes(self):
        # {1} and {0, 1} are both worth 1.0, and (0, 1) < (1,): a walk that
        # kept the first maximum in size order would report {1}.
        instance = Instance(2, 2, 2, (Modular((0.0, 1.0)),))
        assert evaluate_F_exact(instance, {0, 1}).witness == (frozenset({0, 1}),)

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

    @pytest.mark.parametrize("k", [15000, 10**5000], ids=["k=n", "k-past-digit-limit"])
    def test_guard_refuses_a_huge_enumeration_at_once(self, k):
        # Summing all 15,001 binomials of 15,000 took 38 s, and the count, past
        # str's digit limit, then broke the message with a plain ValueError;
        # so does a k past that limit.
        instance = Instance(15000, k, 1, (GraphCut(()),))
        with deadline(1.0), pytest.raises(GuardExceededError, match="use evaluate_F_greedy"):
            evaluate_F_exact(instance, range(15000))

    @pytest.mark.parametrize(
        "kind, seed, S, value, witnesses, calls", SCALE_REPORTS,
        ids=[f"{kind}-{seed}" for kind, seed, *_ in SCALE_REPORTS],
    )
    def test_scale_reports(self, kind, seed, S, value, witnesses, calls):
        m, k = (3, 8) if kind == "facility_location" else (5, 5)
        instance = generate_instance(kind, 100, m, k, 10, seed=seed)
        result = evaluate_F_exact(instance, S)
        assert result.value.hex() == value
        assert result.witness == tuple(map(frozenset, witnesses))
        oracles = instance.oracles()
        for oracle, witness in zip(oracles, witnesses):
            assert _exact_feasible(oracle, S, k)[0] == frozenset(witness)
        assert tuple(o.eval_count for o in oracles) == calls

    def test_cut_bound_is_summed_in_exact_ints(self):
        # Items 1..4 of S = {0, ..., 4} each cut their own edge, of weight 1,
        # 2**53, 1 and 1; item 0 cuts none.  Below {1}, at most 3 more items
        # give 1 + 2**53 + 1 + 1,
        # which rounds to 2**53 + 4; a float sum of the marginals from the
        # largest down gives 2**53 + 1, which rounds to 2**53, below the
        # 2**53 + 2 of {0, 1, 2, 3} found first, and would skip the optimum.
        cut = GraphCut(((1, 6, 1.0), (2, 7, 2.0**53), (3, 8, 1.0), (4, 9, 1.0)))
        result = evaluate_F_exact(Instance(10, 4, 5, (cut,)), range(5))
        assert result == ExactResult(2.0**53 + 4, (frozenset({1, 2, 3, 4}),))

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

    def test_tie_goes_to_the_smaller_tuple_across_sizes(self):
        # As in the exact report: {1} ties with {0, 1}, and (0, 1) < (1,).
        instance = Instance(2, 1, 2, (Modular((0.0, 1.0)),))
        assert brute_force_optimum(instance) == ExactResult(1.0, frozenset({0, 1}))

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

    def test_guard_refuses_a_huge_search_at_once(self):
        # run_experiment asks for the optimum before every run; counting all
        # of this instance's calls took 91 s.
        instance = Instance(2000, 2000, 2000, (GraphCut(()),))
        with deadline(1.0), pytest.raises(GuardExceededError, match="brute-force optimum needs"):
            brute_force_optimum(instance)

    def test_optimum_witness_replays(self):
        instance = generate_instance("graph_cut", 6, 2, 2, 3, seed=11)
        result = brute_force_optimum(instance)
        assert evaluate_F_exact(instance, result.witness).value == result.value


class TestBestSubset:
    def test_walk_leaves_no_reference_cycle(self):
        # An oracle holds its states and memo: a cycle through the walk would
        # keep them until the cyclic collector runs.
        class Size:
            class descriptor:
                monotone = True

            def eval(self, items, near=None):
                return float(len(items))

            def grow(self, near, x):
                return near | {x}

        oracle = Size()
        alive = weakref.ref(oracle)
        best = [0.0, ()]
        gc.disable()
        try:
            _walk(oracle, 3, tuple(range(5)), (), frozenset(), best)
            assert best == [3.0, (0, 1, 2)]
            del oracle
            assert alive() is None
        finally:
            gc.enable()


def _adversarial_instances():
    """Instances over ADVERSARIAL_CUT and over FL, cut and modular descriptors
    drawn from ADVERSARIAL_WEIGHTS, where many subsets tie exactly."""
    for k, l in ((1, 2), (2, 3), (3, 6)):
        yield Instance(6, k, l, (ADVERSARIAL_CUT,))
    rng = random.Random(17)
    n = 6
    for _ in range(12):
        similarity = tuple(
            tuple(rng.choice(ADVERSARIAL_WEIGHTS) for _ in range(n)) for _ in range(3)
        )
        edges = tuple(
            (u, v, rng.choice(ADVERSARIAL_WEIGHTS))
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.6
        )
        values = tuple(rng.choice(ADVERSARIAL_WEIGHTS) for _ in range(n))
        functions = (FacilityLocation(similarity), GraphCut(edges), Modular(values))
        k, l = rng.randrange(1, 4), rng.randrange(1, n + 1)
        yield Instance(n, k, l, functions)
        for f in functions:
            yield Instance(n, k, l, (f,))


class TestTabulatedBruteForce:
    """brute_force_optimum reads each function's values from one memo (a
    table of set -> value) for the whole search; it must give the float and
    the witness of enumerating evaluate_F_exact over every S."""

    @staticmethod
    def _check(instance) -> None:
        sets = (S for j in range(instance.l + 1)
                for S in itertools.combinations(range(instance.n), j))
        value = {S: evaluate_F_exact(instance, S).value for S in sets}
        want_tup = min(value, key=lambda S: (-value[S], S))
        want_value = value[want_tup]
        got = brute_force_optimum(instance)
        assert got.value == want_value and got.value.hex() == want_value.hex()
        assert got.witness == frozenset(want_tup)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generated_instances(self, kind):
        rng = random.Random(GENERATOR_KINDS.index(kind))
        for _ in range(8):
            n = rng.randrange(3, 8)
            self._check(generate_instance(
                kind, n, rng.randrange(1, 4), rng.randrange(1, 4),
                rng.randrange(1, n + 1), seed=rng.randrange(1000),
            ))

    def test_modular_instances(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randrange(3, 7)
            self._check(Instance(n, rng.randrange(1, 3), rng.randrange(1, n + 1),
                                 (helpers.random_modular(rng, n),)))

    def test_adversarial_weights(self):
        for instance in _adversarial_instances():
            self._check(instance)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_sets_past_the_memo_cap_are_valued_afresh(self, kind, monkeypatch):
        # 22 subsets of at most 2 of 6 items per function, against a cap of 3.
        instance = generate_instance(kind, 6, 3, 2, 3, seed=4)
        want = brute_force_optimum(instance)
        memos, build = [], Instance.oracles

        def recording(self, given=None):
            memos.extend(given or ())
            return build(self, given)

        monkeypatch.setattr(Instance, "oracles", recording)
        monkeypatch.setattr("twostage.functions._MEMO_LIMIT", 3)
        got = brute_force_optimum(instance)
        assert (got.value.hex(), got.witness) == (want.value.hex(), want.witness)
        # One memo per function for the whole search, each held at the cap.
        assert [len(memo) for memo in memos] == [3] * instance.m
        self._check(instance)


class TestReplacementGreedy:
    def test_zoo_coverage_second_round_skips_selected(self):
        solution = replacement_greedy(zoo_instance())
        assert solution.S == {0, 1}
        assert solution.Ts == (frozenset({0}),)
        assert solution.seed is None

    def test_zoo_coverage_eval_count(self):
        # Round 1 scores items 0-2 against the empty set (1 base + 3 adds),
        # then absorbs 0 (base + add); trim keeps a monotone {0} at no call: 6.
        # Round 2 scores only 1 and 2 against the full {0} (1 base + 2 swaps),
        # then finds that item 1 does not gain (base + 1 swap): 5 more.
        assert replacement_greedy(zoo_instance()).evals == 11

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

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_witnesses_are_plain_frozensets(self, kind):
        # The reports grow their nodes as the oracle's own set type, which
        # carries a state; none of those may leave the package.
        instance = generate_instance(kind, 8, 3, 3, 6, seed=8)
        S = range(1, 8)
        witnesses = (
            *evaluate_F_exact(instance, S).witness,
            *evaluate_F_greedy(instance, S).witness,
            *random_baseline(instance, 8).Ts,
        )
        assert any(witnesses)
        for witness in witnesses:
            assert type(witness) is frozenset
            assert pickle.loads(pickle.dumps(witness)) == witness
