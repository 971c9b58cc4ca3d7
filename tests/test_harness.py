"""Harness tests: run configs, trial sweeps, ratio plumbing, CSV output."""

import csv
import dataclasses
import hashlib
import io
import math
import random
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.exceptions import GuardExceededError, ValidationError
from twostage.functions import Modular
from twostage.harness import (
    ALGORITHMS,
    CSV_HEADER,
    F_EVAL_MODES,
    RunConfig,
    TrialRecord,
    _stdev,
    evaluate_reported_F,
    run_experiment,
)
from twostage.instances import GENERATOR_KINDS, Instance, generate_instance
from twostage.reference import brute_force_cost, brute_force_optimum, evaluate_F_exact
from twostage.solver import feasible_sets_value, replacement_greedy, sampling_greedy

import helpers


def forced_pick_instance():
    # l=1 makes every round's candidate pool a singleton, so the solve is
    # deterministic for any seed.
    return Instance(3, 1, 1, (helpers.zoo_coverage(),))


def big_modular_instance():
    return Instance(50, 6, 12, (Modular(tuple(float(i) for i in range(50))),))


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig("sampling_greedy")
        assert (config.trials, config.base_seed, config.f_eval_mode) == (1, 0, "auto")

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"algorithm": "simulated_annealing"}, "unknown algorithm 'simulated_annealing'"),
            ({"algorithm": "sampling_greedy", "trials": 0}, "trials must be ≥ 1"),
            ({"algorithm": "sampling_greedy", "trials": True}, "trials must be an integer"),
            ({"algorithm": "sampling_greedy", "base_seed": 1.5}, "base_seed must be an integer"),
            ({"algorithm": "sampling_greedy", "f_eval_mode": "fast"},
             "unknown F evaluation mode 'fast'"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            RunConfig(**kwargs)


class TestEvaluateReportedF:
    def test_exact_mode(self):
        instance = Instance(3, 1, 2, (helpers.zoo_coverage(),))
        assert evaluate_reported_F(instance, {0, 1}, "exact") == (2.0, "exact")

    def test_greedy_mode(self):
        instance = Instance(3, 1, 2, (helpers.zoo_coverage(),))
        assert evaluate_reported_F(instance, {0, 1}, "greedy") == (2.0, "greedy")

    def test_auto_prefers_exact_on_small_sets(self):
        instance = Instance(3, 1, 2, (helpers.zoo_coverage(),))
        assert evaluate_reported_F(instance, {0, 1}, "auto")[1] == "exact"

    def test_auto_falls_back_to_greedy(self):
        value, mode = evaluate_reported_F(big_modular_instance(), range(40), "auto")
        assert mode == "greedy"
        assert value == float(sum(range(34, 40)))

    def test_exact_mode_raises_past_guard(self):
        with pytest.raises(GuardExceededError, match="use evaluate_F_greedy"):
            evaluate_reported_F(big_modular_instance(), range(40), "exact")

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown F evaluation mode 'best'"):
            evaluate_reported_F(forced_pick_instance(), {0}, "best")


class TestRunExperiment:
    def test_forced_instance_gives_identical_trials(self):
        records = run_experiment(
            forced_pick_instance(), RunConfig("sampling_greedy", trials=5, base_seed=10)
        )
        assert [r.seed for r in records] == [10, 11, 12, 13, 14]
        for r in records:
            assert r.instance_id == "instance"
            assert r.F_reported == 2.0
            assert r.F_mode == "exact"
            assert r.sum_fT == 2.0
            assert r.F_opt == 2.0
            assert r.ratio == 1.0
            assert r.evals == records[0].evals
            assert r.wall_ms >= 0.0

    def test_zero_optimum_reads_as_ratio_one(self):
        instance = Instance(2, 1, 1, (Modular((0.0, 0.0)),))
        for r in run_experiment(instance, RunConfig("sampling_greedy", trials=2)):
            assert r.F_opt == 0.0
            assert r.ratio == 1.0

    def test_brute_force_single_self_ratio_record(self):
        instance = Instance(3, 1, 2, (helpers.zoo_coverage(), helpers.path_cut()))
        records = run_experiment(instance, RunConfig("brute_force", trials=7), "tiny")
        assert len(records) == 1
        r = records[0]
        assert r.seed is None
        assert r.F_reported == r.F_opt == r.sum_fT == 4.0
        assert r.ratio == 1.0
        assert r.F_mode == "exact"
        assert r.evals == brute_force_cost(instance)

    def test_ratio_blank_past_brute_force_guard(self):
        instance = big_modular_instance()
        assert brute_force_cost(instance) > 10**7
        records = run_experiment(instance, RunConfig("sampling_greedy", f_eval_mode="greedy"))
        assert records[0].F_opt is None
        assert records[0].ratio is None

    def test_random_baseline_records(self):
        instance = generate_instance("mixed", 6, 2, 2, 3, seed=5)
        records = run_experiment(instance, RunConfig("random_baseline", trials=3), "rb")
        assert len(records) == 3
        for r in records:
            assert r.algorithm == "random_baseline"
            assert 0.0 <= r.ratio <= 1.0 + 1e-12
            assert r.sum_fT <= r.F_reported + 1e-12

    def test_replacement_greedy_ignores_seed_but_records_it(self):
        instance = generate_instance("coverage", 5, 2, 2, 2, seed=8)
        records = run_experiment(instance, RunConfig("replacement_greedy", trials=2, base_seed=3))
        assert records[0].seed == 3 and records[1].seed == 4
        assert records[0].F_reported == records[1].F_reported

    def test_greedy_report_never_below_own_feasible_sets(self):
        # Greedy reporting alone gives seed 3 less than its sum_fT.
        instance = generate_instance("coverage", 6, 2, 2, 3, seed=0)
        config = RunConfig("sampling_greedy", trials=5, base_seed=0, f_eval_mode="greedy")
        for r in run_experiment(instance, config):
            exact = evaluate_F_exact(instance, sampling_greedy(instance, r.seed).S).value
            assert r.F_mode == "greedy"
            assert r.sum_fT <= r.F_reported <= exact
            assert r.ratio == r.F_reported / r.F_opt

    def test_ratio_sweep_stays_in_unit_interval(self):
        rng = random.Random(80)
        for _ in range(6):
            instance = generate_instance(
                rng.choice(("mixed", "graph_cut")), rng.randrange(3, 7),
                rng.randrange(1, 3), rng.randrange(1, 3), 2, seed=rng.randrange(100),
            )
            for algorithm in ("sampling_greedy", "replacement_greedy", "random_baseline"):
                for r in run_experiment(instance, RunConfig(algorithm, trials=4)):
                    assert 0.0 <= r.ratio <= 1.0 + 1e-12


# The five acceptance grid cells, then two shapes with n - l + 1 < l, whose
# late rounds have blank slots.
MEMO_CELLS = [(5, 1, 1, 2), (6, 2, 2, 3), (7, 3, 2, 4), (8, 2, 1, 3), (6, 3, 2, 2),
              (5, 2, 2, 4), (4, 2, 2, 4)]
MEMO_SOLVERS = {
    "sampling_greedy": sampling_greedy,
    "replacement_greedy": lambda instance, seed, on_round=None, **kw:
        replacement_greedy(instance, on_round, **kw),
}


def _memo_instances():
    for kind in GENERATOR_KINDS:
        for j, (n, m, k, l) in enumerate(MEMO_CELLS):
            yield generate_instance(kind, n, m, k, l, seed=300 + j)


class TestSharedValueMemo:
    """run_experiment shares one value memo per function and one report memo
    across its trials; every record must be the one a separate solve gives."""

    @pytest.mark.parametrize("f_eval_mode", ["auto", "greedy"])
    @pytest.mark.parametrize("algorithm", sorted(MEMO_SOLVERS))
    def test_records_match_separate_solves(self, algorithm, f_eval_mode):
        solve = MEMO_SOLVERS[algorithm]
        trials = 40 if algorithm == "sampling_greedy" else 3
        blank = 0
        for instance in _memo_instances():
            config = RunConfig(algorithm, trials=trials, base_seed=50, f_eval_mode=f_eval_mode)
            records = run_experiment(instance, config, "cell")
            opt = brute_force_optimum(instance).value
            expected = []
            for seed in range(50, 50 + trials):
                solution = solve(instance, seed)
                reported, mode = evaluate_reported_F(instance, solution.S, f_eval_mode)
                sum_fT = feasible_sets_value(instance, solution.Ts)
                reported = max(reported, sum_fT)
                ratio = 1.0 if opt == 0.0 else reported / opt
                expected.append(TrialRecord("cell", algorithm, seed, reported, mode, sum_fT,
                                            opt, ratio, solution.evals, 0.0))
                blank += len(solution.S) < instance.l
            assert [dataclasses.replace(r, wall_ms=0.0) for r in records] == expected
        # Only sampling ever draws a blank slot; the blank cells must reach one.
        assert (blank > 0) == (algorithm == "sampling_greedy")

    @pytest.mark.parametrize("algorithm", sorted(MEMO_SOLVERS))
    def test_shared_memos_give_the_same_round_states(self, algorithm):
        solve = MEMO_SOLVERS[algorithm]
        seeds = 30 if algorithm == "sampling_greedy" else 3
        for instance in _memo_instances():
            memos = [{} for _ in instance.functions]
            calls = 0
            for seed in range(seeds):
                alone, shared = [], []
                want = solve(instance, seed, on_round=alone.append)
                got = solve(instance, seed, on_round=shared.append, memos=memos)
                assert got == want
                assert shared == alone
                calls += got.evals
            # The solves share sets, so the memos hold fewer than all their calls.
            assert sum(len(memo) for memo in memos) < calls


class TestCsv:
    def test_header_and_shape(self):
        records = run_experiment(
            forced_pick_instance(), RunConfig("sampling_greedy", trials=2), "zoo"
        )
        lines = helpers.render_csv(records).splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 + 2
        assert lines[1].startswith("zoo,sampling_greedy,0,2,exact,2,2,1,")

    def test_aggregate_rows(self):
        records = run_experiment(
            forced_pick_instance(), RunConfig("sampling_greedy", trials=3), "zoo"
        )
        rows = list(csv.reader(io.StringIO(helpers.render_csv(records))))
        mean, stddev = rows[-2], rows[-1]
        assert mean[:4] == ["zoo", "sampling_greedy", "mean", "2"]
        assert mean[7] == "1"
        assert mean[4] == mean[5] == mean[6] == mean[8] == mean[9] == ""
        assert stddev[:4] == ["zoo", "sampling_greedy", "stddev", "0"]
        assert stddev[7] == "0"

    def test_aggregate_ratio_blank_when_unavailable(self):
        records = run_experiment(
            big_modular_instance(), RunConfig("sampling_greedy", trials=2, f_eval_mode="greedy")
        )
        rows = list(csv.reader(io.StringIO(helpers.render_csv(records))))
        assert rows[-2][2] == "mean" and rows[-2][7] == ""
        assert rows[-1][2] == "stddev" and rows[-1][7] == ""

    def test_twelve_significant_digits(self):
        record = TrialRecord(
            "fmt", "sampling_greedy", 0, 2.0 / 3.0, "exact",
            1.0 / 3.0, 1.0, 2.0 / 3.0, 5, 0.125,
        )
        row = list(csv.reader(io.StringIO(helpers.render_csv([record]))))[1]
        assert row[3] == "0.666666666667"
        assert row[5] == "0.333333333333"
        assert row[9] == "0.125"

    def test_rows_sorted_across_groups(self):
        a = run_experiment(
            forced_pick_instance(), RunConfig("sampling_greedy", trials=2), "b-second"
        )
        b = run_experiment(
            forced_pick_instance(), RunConfig("replacement_greedy", trials=2), "a-first"
        )
        rows = list(csv.reader(io.StringIO(helpers.render_csv(a + b))))[1:]
        trial_keys = [(r[0], r[1]) for r in rows[:4]]
        assert trial_keys == sorted(trial_keys)
        assert rows[0][0] == "a-first"
        assert [r[2] for r in rows[4:]] == ["mean", "stddev", "mean", "stddev"]

    @staticmethod
    def golden_digest(blanked):
        """First 16 hex digits of the sha256 of the golden records' CSV with
        the named columns blanked.  The records cover every algorithm, every F
        mode, and a group past the brute-force guard whose aggregate rows
        carry a blank ratio."""
        records = []
        for kind in GENERATOR_KINDS:
            for seed in (0, 1):
                instance = generate_instance(kind, 6, 2, 2, 3, seed=seed)
                for algorithm in ALGORITHMS:
                    for mode in F_EVAL_MODES:
                        config = RunConfig(algorithm, trials=2, base_seed=seed, f_eval_mode=mode)
                        records += run_experiment(instance, config, f"{kind}-{seed}-{mode}")
        records += run_experiment(
            generate_instance("facility_location", 30, 2, 2, 10, seed=1),
            RunConfig("sampling_greedy", trials=2, f_eval_mode="greedy"),
            "big",
        )
        rows = list(csv.reader(io.StringIO(helpers.render_csv(reversed(records)))))
        assert rows[0] == list(CSV_HEADER) and len(rows) == 365
        blank = [CSV_HEADER.index(name) for name in blanked]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow(["" if i in blank else cell for i, cell in enumerate(row)])
        return hashlib.sha256(buffer.getvalue().encode()).hexdigest()[:16]

    def test_csv_bytes_golden_digest(self):
        # wall_ms is the only column that varies between runs.  Re-pinned when
        # scoring stopped valuing a monotone set's swaps while it has room and
        # trim stopped valuing monotone sets, and again when scoring stopped
        # re-valuing a function whose set had not changed since its last
        # pass: each time only evals moved (see below).
        assert self.golden_digest(["wall_ms"]) == "62cb195fe6072bd2"

    def test_csv_bytes_golden_digest_without_evals(self):
        # Everything but the call counts.  Recorded while scoring still valued
        # a monotone set's swaps and trim still valued monotone sets: dropping
        # those calls, and the re-scoring of unchanged sets, moved evals and
        # nothing else.
        assert self.golden_digest(["evals", "wall_ms"]) == "43e82c00335daeeb"


# A sample of F_reported or ratio values: finite and non-negative, from 0 and
# the smallest subnormal to near the largest float, with repeats and ties.
samples = st.lists(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    | st.sampled_from(helpers.ADVERSARIAL_WEIGHTS),
    min_size=2, max_size=100,
)


class TestStddev:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="stdev is correctly rounded from 3.11")
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(samples)
    def test_stddev_is_statistics_stdev(self, values):
        assert _stdev(values).hex() == statistics.stdev(values).hex()

    def test_stddev_is_the_rounded_exact_root(self):
        # On every Python: sqrt(var) lies within half an ulp of the result,
        # checked in exact Fractions.
        rng = random.Random(70)
        for _ in range(300):
            values = [rng.choice(helpers.ADVERSARIAL_WEIGHTS) * rng.random()
                      for _ in range(rng.randrange(2, 40))]
            exact = [Fraction(v) for v in values]
            mean = sum(exact) / len(exact)
            var = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
            got = _stdev(values)
            below, above = math.nextafter(got, 0.0), math.nextafter(got, math.inf)
            assert (Fraction(below) + Fraction(got)) ** 2 / 4 <= var
            assert var <= (Fraction(got) + Fraction(above)) ** 2 / 4

    def test_fewer_than_two_values_have_no_spread(self):
        assert _stdev([]) == _stdev([3.5]) == 0.0
