"""Experiment harness: trial sweeps, optimality ratios, CSV reporting.

A run takes one instance and one RunConfig, executes the configured number of
trials with fanned-out seeds, and produces one TrialRecord per trial.  When
the instance is small enough for the brute-force guard, the optimum is
computed once and every record carries its ratio against it.  The CSV writer
sorts rows by (instance_id, algorithm, seed), so its bytes do not depend on
the order in which records are passed in.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import statistics
import time
from dataclasses import dataclass, fields
from typing import Iterable, Sequence, TextIO

from .exceptions import GuardExceededError, ValidationError
from .functions import ValueMemo, _check_int
from .instances import Instance
from .reference import (
    brute_force_cost,
    brute_force_optimum,
    evaluate_F_exact,
    evaluate_F_greedy,
    random_baseline,
)
from .solver import feasible_sets_value, replacement_greedy, sampling_greedy

__all__ = [
    "ALGORITHMS",
    "F_EVAL_MODES",
    "CSV_HEADER",
    "RunConfig",
    "TrialRecord",
    "evaluate_reported_F",
    "run_experiment",
    "write_csv",
]

ALGORITHMS = ("sampling_greedy", "replacement_greedy", "random_baseline", "brute_force")
F_EVAL_MODES = ("exact", "greedy", "auto")


@dataclass(frozen=True)
class RunConfig:
    """What to run: which algorithm, how many trials, seeding, and how the
    reported objective is evaluated.  brute_force ignores trials, base_seed
    and f_eval_mode: it always yields a single exact record, and raises
    GuardExceededError past the brute-force guard."""

    algorithm: str
    trials: int = 1
    base_seed: int = 0
    f_eval_mode: str = "auto"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        _check_int("trials", self.trials, 1)
        _check_int("base_seed", self.base_seed)
        if self.f_eval_mode not in F_EVAL_MODES:
            raise ValidationError(f"unknown F evaluation mode {self.f_eval_mode!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row: the solution value of a single trial plus bookkeeping.

    F_opt and ratio are either both present or both absent; seed is None only
    for the deterministic brute_force record.  F_reported is never below
    sum_fT.  evals counts oracle calls made by the algorithm itself, not by
    the reporting evaluation.
    """

    instance_id: str
    algorithm: str
    seed: int | None
    F_reported: float
    F_mode: str
    sum_fT: float
    F_opt: float | None
    ratio: float | None
    evals: int
    wall_ms: float


CSV_HEADER = tuple(f.name for f in fields(TrialRecord))


def evaluate_reported_F(
    instance: Instance, S: Iterable[int], mode: str
) -> tuple[float, str]:
    """Objective value of a reduced set under the requested evaluation mode.

    Returns the value and the mode actually used.  "exact" enumerates and
    raises when the enumeration guard trips; "greedy" always uses the
    surrogate; "auto" picks exact whenever the guard allows it.
    """
    if mode not in F_EVAL_MODES:
        raise ValidationError(f"unknown F evaluation mode {mode!r}")
    S = frozenset(S)
    if mode != "greedy":
        try:
            return evaluate_F_exact(instance, S).value, "exact"
        except GuardExceededError:
            if mode == "exact":
                raise
    return evaluate_F_greedy(instance, S).value, "greedy"


def _ratio(reported: float, optimum: float) -> float:
    # A zero optimum pins every reported value to zero, so 0/0 reads as 1.0.
    if optimum == 0.0:
        return 1.0
    return reported / optimum


def _solve(instance: Instance, algorithm: str, seed: int, memos: Sequence[ValueMemo]):
    if algorithm == "sampling_greedy":
        return sampling_greedy(instance, seed, memos=memos)
    if algorithm == "replacement_greedy":
        return replacement_greedy(instance, memos=memos)
    return random_baseline(instance, seed)


def _record_key(record: TrialRecord) -> tuple:
    seed = -1 if record.seed is None else record.seed
    return (record.instance_id, record.algorithm, seed)


def run_experiment(
    instance: Instance,
    config: RunConfig,
    instance_id: str = "instance",
) -> list[TrialRecord]:
    """Execute the configured trials and return their TrialRecords.

    Trial t runs with seed base_seed + t, so records come out in seed order.
    The optimum (hence F_opt and ratio) is filled in whenever the instance
    fits the brute-force guard; larger instances get blank ratio columns.

    Every trial starts from the same state, so the trials' solves evaluate
    many of the same sets: they share one value memo per function, and the
    reports of a final S and of final feasible sets are computed once per
    run.  Records are those of separate solves, evals included, since every
    oracle call is still made and counted.  Only wall_ms, which times the
    solve alone, reads the savings.
    """
    start = time.perf_counter()
    try:
        opt_value = brute_force_optimum(instance).value
    except GuardExceededError:
        if config.algorithm == "brute_force":
            raise
        opt_value = None
    if config.algorithm == "brute_force":
        wall_ms = (time.perf_counter() - start) * 1000.0
        # The optimum's value already sums, in function order, the values of
        # its best feasible sets: it is their sum_fT.
        record = TrialRecord(
            instance_id, config.algorithm, None, opt_value, "exact", opt_value,
            opt_value, 1.0, brute_force_cost(instance), wall_ms,
        )
        return [record]

    memos: list[ValueMemo] = [{} for _ in instance.functions]
    report = functools.cache(
        functools.partial(evaluate_reported_F, instance, mode=config.f_eval_mode)
    )
    feasible_value = functools.cache(functools.partial(feasible_sets_value, instance))

    def one_trial(t: int) -> TrialRecord:
        seed = config.base_seed + t
        start = time.perf_counter()
        solution = _solve(instance, config.algorithm, seed, memos)
        wall_ms = (time.perf_counter() - start) * 1000.0
        reported, mode_used = report(solution.S)
        sum_fT = feasible_value(solution.Ts)
        # The solver's own feasible sets lie inside S, so their sum is a floor
        # that greedy reporting can miss; exact reporting never falls below it.
        reported = max(reported, sum_fT)
        return TrialRecord(
            instance_id,
            config.algorithm,
            seed,
            reported,
            mode_used,
            sum_fT,
            opt_value,
            None if opt_value is None else _ratio(reported, opt_value),
            solution.evals,
            wall_ms,
        )

    return [one_trial(t) for t in range(config.trials)]


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _row(**columns: object) -> list[str]:
    return [_cell(columns.get(name)) for name in CSV_HEADER]


def _sqrt(p: int, r: int) -> float:
    """The square root of p / r >= 0, correctly rounded.

    With p / r scaled by 4**e, isqrt gives floor(sqrt(p / r) * 2**e), an int
    of at least 55 bits for a positive p.  Setting its last bit when it is
    inexact rounds it to odd, and an int that wide, rounded to odd, rounds
    to the float nearest sqrt(p / r) once it is scaled back by 2**e.
    """
    e = (111 - p.bit_length() + r.bit_length()) // 2 + 1
    if e >= 0:
        p <<= 2 * e
    else:
        r <<= -2 * e
    root = math.isqrt(p // r)
    root |= root * root * r != p
    return root / (1 << e) if e >= 0 else float(root << -e)


def _stdev(values: Sequence[float]) -> float:
    """Sample standard deviation, 0.0 for fewer than two values.

    The correctly rounded square root of the exact sample variance, so the
    same float on every Python (statistics.stdev gives it from 3.11 on).
    Each float is an exact int multiple of 1 / scale, the largest of their
    power-of-two denominators, so the variance is a ratio of ints.
    """
    n = len(values)
    if n < 2:
        return 0.0
    ratios = [v.as_integer_ratio() for v in values]
    scale = max([q for _, q in ratios])
    ints = [p * (scale // q) for p, q in ratios]
    total = sum(ints)
    return _sqrt(n * sum([a * a for a in ints]) - total * total, n * (n - 1) * scale * scale)


def write_csv(records: Iterable[TrialRecord], fp: TextIO) -> None:
    """Write the fixed-schema CSV: one row per trial, floats at 12 significant
    digits, then per-(instance, algorithm) mean and stddev rows at the end.
    A stat row fills only instance_id, algorithm, seed (the label), F_reported
    and ratio; its ratio is blank when any trial in the group has none."""
    ordered = sorted(records, key=_record_key)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in ordered:
        writer.writerow(_row(**vars(record)))
    for (instance_id, algorithm), group in itertools.groupby(
        ordered, key=lambda r: (r.instance_id, r.algorithm)
    ):
        group = list(group)
        values = [r.F_reported for r in group]
        ratios = [r.ratio for r in group]
        have_ratio = None not in ratios
        for label, stat in (("mean", statistics.fmean), ("stddev", _stdev)):
            writer.writerow(_row(
                instance_id=instance_id,
                algorithm=algorithm,
                seed=label,
                F_reported=stat(values),
                ratio=stat(ratios) if have_ratio else None,
            ))
