"""Acceptance suite: nine go/no-go criteria, one printed verdict line each.

Criteria 1, 2, 8, and 9 share two session-scoped Monte-Carlo sweeps: 50
non-monotone and 50 monotone instances, 400 seeded trials apiece, with the
optimum of every instance from brute force.  Run with -s to see the verdict
lines on success; the whole file finishes in well under a minute.
"""

import itertools
import math
import random
import statistics

import pytest

from twostage.functions import Oracle
from twostage.harness import RunConfig, run_experiment
from twostage.instances import generate_instance
from twostage.local_search import ScoredItem, local_gain, select_top_l
from twostage.solver import sampling_greedy, trim

import helpers

NONMONOTONE_BOUND = 1.0 / (2.0 * math.e)
MONOTONE_BOUND = (1.0 - math.exp(-2.0)) / 2.0

GRID = [(5, 1, 1, 2), (6, 2, 2, 3), (7, 3, 2, 4), (8, 2, 1, 3), (6, 3, 2, 2)]
TRIALS = 400


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _sweep(kinds):
    cells = []
    idx = 0
    for kind in kinds:
        for _ in range(25):
            n, m, k, l = GRID[idx % len(GRID)]
            instance = generate_instance(kind, n, m, k, l, seed=1000 + idx)
            records = run_experiment(
                instance,
                RunConfig("sampling_greedy", trials=TRIALS, base_seed=17),
                instance_id=f"{kind}-{idx}",
            )
            cells.append(
                {"kind": kind, "n": n, "m": m, "k": k, "l": l, "records": records}
            )
            idx += 1
    return cells


@pytest.fixture(scope="session")
def nonmonotone_sweep():
    return _sweep(("graph_cut", "mixed"))


@pytest.fixture(scope="session")
def monotone_sweep():
    return _sweep(("coverage", "facility_location"))


def _mean_ratios(cells):
    return [statistics.fmean(r.ratio for r in cell["records"]) for cell in cells]


def test_criterion_1_nonmonotone_expectation_bound(nonmonotone_sweep):
    means = _mean_ratios(nonmonotone_sweep)
    ok = len(means) == 50 and all(m >= NONMONOTONE_BOUND for m in means)
    _verdict(
        1, ok,
        f"all {len(means)} non-monotone instances reach mean ratio >= "
        f"{NONMONOTONE_BOUND:.5f} (min mean {min(means):.4f})",
    )


def test_criterion_2_monotone_expectation_bound(monotone_sweep):
    means = _mean_ratios(monotone_sweep)
    ok = len(means) == 50 and all(m >= MONOTONE_BOUND for m in means)
    _verdict(
        2, ok,
        f"all {len(means)} monotone instances reach mean ratio >= "
        f"{MONOTONE_BOUND:.5f} (min mean {min(means):.4f})",
    )


def test_criterion_3_trim_guarantees():
    rng = random.Random(42)
    violations = 0
    for _ in range(1000):
        kind = rng.choice(sorted(helpers.DESCRIPTOR_BUILDERS))
        n = rng.randrange(2, 8)
        descriptor = helpers.random_descriptor(rng, kind, n)
        oracle = Oracle(descriptor, n)
        B = helpers.random_subset(rng, range(n))
        A = trim(oracle, B)
        if descriptor.value(A) < descriptor.value(B):
            violations += 1
        for x in A:
            if descriptor.value(A) - descriptor.value(A - {x}) < 0.0:
                violations += 1
    _verdict(
        3, violations == 0,
        f"1000 trim pairs: value never drops, removal marginals never "
        f"negative ({violations} violations)",
    )


def test_criterion_4_local_gain_equivalence():
    rng = random.Random(43)
    mismatches = 0
    for _ in range(1000):
        kind = rng.choice(sorted(helpers.DESCRIPTOR_BUILDERS))
        n = rng.randrange(2, 8)
        descriptor = helpers.random_descriptor(rng, kind, n)
        oracle = Oracle(descriptor, n)
        x = rng.randrange(n)
        A = helpers.random_subset(rng, [y for y in range(n) if y != x], max_size=4)
        k = max(1, len(A)) + rng.randrange(0, 3)
        # x is never in A, so no-op, add and each swap victim produce
        # distinct sets: comparing the set pins the chosen move exactly.
        move = local_gain(oracle, x, A, k)
        expected = helpers.expected_local_gain(descriptor, x, A, k)
        if (move.gain, move.after) != expected:
            mismatches += 1
    _verdict(
        4, mismatches == 0,
        f"1000 random moves match the exhaustive gain and resulting-set "
        f"reference exactly ({mismatches} mismatches)",
    )


def test_criterion_5_top_l_additivity():
    rng = random.Random(44)
    grid = (0.0, 0.5, 1.0, 1.5, 2.0)
    mismatches = 0
    for _ in range(200):
        universe = rng.randrange(1, 13)
        scores = [ScoredItem(item, rng.choice(grid)) for item in range(universe)]
        l = rng.randrange(1, universe + 1)
        by_item = {s.item: s.total_score for s in scores}
        chosen = select_top_l(scores, l)
        best = max(
            sum(s.total_score for s in combo)
            for combo in itertools.combinations(scores, l)
        )
        if sum(by_item[item] for item in chosen) != best:
            mismatches += 1
    _verdict(
        5, mismatches == 0,
        f"200 score vectors: top-l summed score equals enumerated maximum "
        f"({mismatches} mismatches)",
    )


def test_criterion_6_function_zoo_properties():
    rng = random.Random(45)
    kinds = sorted(helpers.DESCRIPTOR_BUILDERS)
    bad = {}
    for kind in kinds:
        submodular = nonneg = 0
        for _ in range(20):
            n = rng.randrange(2, 9)
            oracle = Oracle(helpers.random_descriptor(rng, kind, n), n)
            submodular += helpers.submodularity_violations(oracle, rng, 50, eps=1e-9)
            nonneg += helpers.nonnegativity_violations(oracle, rng, 50)
        bad[kind] = submodular + nonneg
    total = sum(bad.values())
    _verdict(
        6, total == 0,
        f"1000 submodularity and 1000 non-negativity samples per kind "
        f"({', '.join(kinds)}): {total} violations",
    )


def test_criterion_7_deterministic_csv():
    instance = generate_instance("mixed", 6, 3, 2, 3, seed=9)

    def stripped_csv(records):
        lines = helpers.render_csv(records).splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines)

    def run(trials, base_seed):
        config = RunConfig("sampling_greedy", trials=trials, base_seed=base_seed)
        return run_experiment(instance, config, "det")

    first = stripped_csv(run(6, 50))
    reversed_singles = [r for t in reversed(range(6)) for r in run(1, 50 + t)]
    ok = first == stripped_csv(run(6, 50)) == stripped_csv(reversed_singles)
    _verdict(
        7, ok,
        "repeat solves, and the same trials run one at a time in reverse "
        "order, render byte-identical CSV (wall_ms column excluded as "
        "inherently non-reproducible)",
    )


def test_criterion_8_eval_budget(nonmonotone_sweep, monotone_sweep):
    worst = 0.0
    over = 0
    for cell in nonmonotone_sweep + monotone_sweep:
        budget = 3 * cell["l"] * cell["m"] * (cell["n"] + cell["l"]) * (cell["k"] + 1)
        for record in cell["records"]:
            worst = max(worst, record.evals / budget)
            if record.evals > budget:
                over += 1
    _verdict(
        8, over == 0,
        f"all 40000 solves stay within 3*l*m*(n+l)*(k+1) oracle calls "
        f"(worst utilization {worst:.2f})",
    )


def test_criterion_9_optimality_ceiling(nonmonotone_sweep, monotone_sweep):
    bad = 0
    for cell in nonmonotone_sweep + monotone_sweep:
        for record in cell["records"]:
            if record.F_mode != "exact" or record.F_reported > record.F_opt + 1e-9:
                bad += 1
    _verdict(
        9, bad == 0,
        f"no exactly-evaluated solution exceeds its brute-force optimum "
        f"({bad} exceedances over 40000 runs)",
    )
