"""Harness tests: run configs, trial sweeps, ratio plumbing, CSV output."""

import csv
import hashlib
import io
import random

import pytest

from twostage.exceptions import GuardExceededError, ValidationError
from twostage.functions import Modular
from twostage.harness import (
    ALGORITHMS,
    CSV_HEADER,
    F_EVAL_MODES,
    RunConfig,
    TrialRecord,
    evaluate_reported_F,
    run_experiment,
)
from twostage.instances import GENERATOR_KINDS, Instance, generate_instance
from twostage.reference import brute_force_cost, evaluate_F_exact
from twostage.solver import sampling_greedy

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

    def test_csv_bytes_golden_digest(self):
        # Every algorithm, every F mode, and a group past the brute-force guard
        # whose aggregate rows carry a blank ratio.  wall_ms is the only column
        # that varies between runs, so it is blanked before hashing.
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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rows[0])
        for row in rows[1:]:
            writer.writerow(row[:-1] + [""])
        assert len(rows) == 365
        digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
        assert digest[:16] == "247a9c10f20327ba"
