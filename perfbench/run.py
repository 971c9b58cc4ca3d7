"""Closed-loop benchmark of the twostage package.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The package is imported from the
checkout's ``src/`` (never from an installed copy) and driven only through
``twostage.cli.main(["bench", ...])``, ``sampling_greedy`` and
``evaluate_reported_F``.  One client on one thread sends each call after the
previous one returned.

A run is a fixed number of work units derived from ``--seed``; ``--seconds``
sets how many, at ``unit_s`` reference seconds per unit (measured at the
commit that introduced the benchmark, 2 cores, Python 3.11).  A faster
program therefore finishes the same work sooner, and two commits are always
compared on identical inputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half as many
units twice, untraced and then with every layer wrapped by ``tracer.py``, and
prints the per-layer metrics.  The last line of output is one JSON object;
lines before it repeat the metrics for people.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    TOL,
    csv_digest,
    feasible_sum,
    fmt,
    ratio_bound,
    solution_digest,
    structure_errors,
)
from tracer import Tracer, layer_metrics, traced_package

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
# Not used while the benchmark was written; reserved for confirming gain claims.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
GRID = [(5, 1, 1, 2), (6, 2, 2, 3), (7, 3, 2, 4), (8, 2, 1, 3), (6, 3, 2, 2)]
SWEEP_KINDS = ("coverage", "facility_location", "graph_cut", "mixed")

clock = time.perf_counter


class PackageMissing(Exception):
    pass


def import_package():
    """Import twostage afresh from the checkout's src/, dropping earlier imports."""
    src = ROOT / "src"
    for name in [n for n in sys.modules if n == "twostage" or n.startswith("twostage.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("twostage")
        importlib.import_module("twostage.cli")
    except ImportError as exc:
        raise PackageMissing(f"cannot import twostage from {src}: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != src / "twostage":
        raise PackageMissing(f"twostage was imported from {pkg.__file__}, not {src}")
    return pkg


def unit_seed(seed: int, u: int) -> int:
    return seed * 10_000 + u


@dataclass
class Tally:
    """What a set of units attempted, what failed, and the timing samples."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    solve_ms: list[float] = field(default_factory=list)
    evals: list[int] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


# --------------------------------------------------------------------------
# sweep: the acceptance grid through the in-process `twostage bench` CLI.

@dataclass(frozen=True)
class SweepUnit:
    config: Path
    out: Path
    instances: dict
    base_seed: int


@dataclass(frozen=True)
class SweepOutcome:
    wall_s: float
    csv_text: str | None
    error: str | None


@dataclass(frozen=True)
class Sweep:
    trials: int
    unit_s: float

    def setup(self, pkg, seed: int, units: int, workdir: Path) -> list[SweepUnit]:
        out = []
        for u in range(units):
            useed = unit_seed(seed, u)
            entries, instances = [], {}
            for kind in SWEEP_KINDS:
                for j, (n, m, k, l) in enumerate(GRID):
                    iid = f"{kind}-{j}"
                    instance = pkg.generate_instance(kind, n, m, k, l, seed=useed * 100 + len(instances))
                    path = workdir / f"u{u}-{iid}.json"
                    path.write_text(pkg.serialize_instance(instance) + "\n", encoding="utf-8")
                    instances[iid] = instance
                    entries.append({"instance": str(path), "id": iid,
                                    "algorithm": "sampling_greedy", "trials": self.trials,
                                    "base_seed": useed * 1000, "f_eval_mode": "auto"})
            config = workdir / f"u{u}.json"
            config.write_text(json.dumps(entries), encoding="utf-8")
            out.append(SweepUnit(config, workdir / f"u{u}.csv", instances, useed * 1000))
        return out

    def measure(self, pkg, inputs: list[SweepUnit]) -> list[SweepOutcome]:
        outcomes = []
        for unit in inputs:
            unit.out.unlink(missing_ok=True)
            error = None
            start = clock()
            try:
                code = pkg.cli.main(["bench", "--config", str(unit.config), "--out", str(unit.out)])
            except Exception as exc:  # counted as failed trials, reported below
                code, error = None, repr(exc)
            wall = clock() - start
            if code != 0 and error is None:
                error = f"twostage bench exited with {code}"
            text = unit.out.read_text(encoding="utf-8") if error is None else None
            outcomes.append(SweepOutcome(wall, text, error))
        return outcomes

    def digests(self, outcomes: list[SweepOutcome]) -> list[str | None]:
        return [None if o.csv_text is None else csv_digest(o.csv_text) for o in outcomes]

    def check(self, pkg, inputs, outcomes, expected) -> Tally:
        tally = Tally()
        for u, (unit, out) in enumerate(zip(inputs, outcomes)):
            expected_rows = len(unit.instances) * self.trials
            tally.attempted += expected_rows
            tally.wall_s += out.wall_s
            if out.error is not None:
                tally.fail(expected_rows, f"unit {u}: {out.error}")
                continue
            if u < len(expected) and csv_digest(out.csv_text) != expected[u]:
                tally.fail(expected_rows, f"unit {u}: CSV digest differs from the recorded one")
                continue
            table = list(csv.DictReader(io.StringIO(out.csv_text)))
            rows = {(r["instance_id"], r["seed"]): r for r in table
                    if r["seed"] not in ("mean", "stddev")}
            if len(rows) != expected_rows:
                tally.fail(expected_rows, f"unit {u}: {len(rows)} trial rows, expected {expected_rows}")
                continue
            bad = set()
            by_instance = defaultdict(list)
            try:
                parsed = [(key, float(r["ratio"]) if r["ratio"] else float("inf"),
                           float(r["sum_fT"]), float(r["F_reported"]), int(r["evals"]),
                           float(r["wall_ms"])) for key, r in rows.items()]
            except ValueError as exc:
                tally.fail(expected_rows, f"unit {u}: malformed CSV value: {exc}")
                continue
            for key, ratio, sum_fT, F_reported, evals, wall_ms in parsed:
                if ratio > 1.0 + TOL or rows[key]["F_mode"] != "exact":
                    bad.add(key)
                if sum_fT > F_reported + TOL:
                    bad.add(key)
                by_instance[key[0]].append(ratio)
                tally.solve_ms.append(wall_ms)
                tally.evals.append(evals)
                tally.ratios.append(ratio)
            for iid, ratios in by_instance.items():
                if statistics.fmean(ratios) < ratio_bound(unit.instances[iid]):
                    bad.update(key for key in rows if key[0] == iid)
            # The CSV has no S or T_i: replay each instance's first trial and
            # check both its structure and that it reproduces its CSV row.
            for iid, instance in unit.instances.items():
                key = (iid, str(unit.base_seed))
                row = rows.get(key)
                if row is None:
                    bad.add(key)
                    continue
                try:
                    sol = pkg.sampling_greedy(instance, unit.base_seed)
                    F, _ = pkg.evaluate_reported_F(instance, sol.S, "auto")
                except Exception as exc:  # counted as a failed trial
                    tally.problems.append(f"unit {u} {iid}: replay raised {exc!r}")
                    bad.add(key)
                    continue
                replayed = (fmt(F), str(sol.evals), fmt(feasible_sum(instance, sol.Ts)))
                if structure_errors(instance, sol.S, sol.Ts, F) or replayed != (
                        row["F_reported"], row["evals"], row["sum_fT"]):
                    bad.add(key)
            if bad:
                tally.fail(min(len(bad), expected_rows), f"unit {u}: {len(bad)} trials failed checks")
        return tally


# --------------------------------------------------------------------------
# scale_*: one large instance per unit, solved and then reported exactly.

@dataclass(frozen=True)
class ScaleUnit:
    instance: object
    seed: int


@dataclass(frozen=True)
class ScaleOutcome:
    solution: object
    F: float
    solve_s: float
    report_s: float
    error: str | None


@dataclass(frozen=True)
class Scale:
    kind: str
    n: int
    m: int
    k: int
    l: int
    unit_s: float

    def setup(self, pkg, seed: int, units: int, workdir: Path) -> list[ScaleUnit]:
        return [
            ScaleUnit(pkg.generate_instance(self.kind, self.n, self.m, self.k, self.l,
                                            seed=unit_seed(seed, u)), unit_seed(seed, u))
            for u in range(units)
        ]

    def measure(self, pkg, inputs: list[ScaleUnit]) -> list[ScaleOutcome]:
        outcomes = []
        for unit in inputs:
            start = clock()
            try:
                sol = pkg.sampling_greedy(unit.instance, unit.seed)
                solved = clock()
                F, _ = pkg.evaluate_reported_F(unit.instance, sol.S, "auto")
            except Exception as exc:  # counted as a failed trial
                outcomes.append(ScaleOutcome(None, 0.0, 0.0, 0.0, repr(exc)))
                continue
            done = clock()
            outcomes.append(ScaleOutcome(sol, F, solved - start, done - solved, None))
        return outcomes

    def digests(self, outcomes: list[ScaleOutcome]) -> list[str | None]:
        return [None if o.error else solution_digest(o.solution.S, o.solution.Ts, o.F)
                for o in outcomes]

    def check(self, pkg, inputs, outcomes, expected) -> Tally:
        tally = Tally()
        for u, (unit, out) in enumerate(zip(inputs, outcomes)):
            tally.attempted += 1
            if out.error is not None:
                tally.fail(1, f"unit {u}: {out.error}")
                continue
            sol = out.solution
            tally.wall_s += out.solve_s + out.report_s
            tally.solve_ms.append(out.solve_s * 1e3)
            tally.evals.append(sol.evals)
            # No optimum at this size: compare with the greedy value of the
            # unreduced ground set, i.e. what reducing to l items keeps.
            reference, _ = pkg.evaluate_reported_F(unit.instance, range(unit.instance.n), "greedy")
            tally.ratios.append(out.F / reference if reference else 1.0)
            errors = structure_errors(unit.instance, sol.S, sol.Ts, out.F)
            if u < len(expected) and solution_digest(sol.S, sol.Ts, out.F) != expected[u]:
                errors.append("solution digest differs from the recorded one")
            if errors:
                tally.fail(1, f"unit {u}: {'; '.join(errors)}")
        return tally


WORKLOADS = {
    "sweep": Sweep(trials=100, unit_s=2.0),
    "scale_fl": Scale("facility_location", n=100, m=3, k=8, l=10, unit_s=2.2),
    "scale_mixed": Scale("mixed", n=100, m=5, k=5, l=10, unit_s=2.1),
}

SMOKE_WORKLOADS = {
    "sweep": Sweep(trials=3, unit_s=1.0),
    "scale_fl": Scale("facility_location", n=20, m=3, k=3, l=4, unit_s=1.0),
    "scale_mixed": Scale("mixed", n=20, m=3, k=3, l=4, unit_s=1.0),
}


# --------------------------------------------------------------------------
# Runs and metrics.

def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) of the samples, 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    completed = tally.attempted - tally.failed
    return {
        "trials_per_s": (completed / tally.wall_s if tally.wall_s else 0.0, "1/s"),
        "solve_ms_p50": (_quantile(tally.solve_ms, 50), "ms"),
        "solve_ms_p90": (_quantile(tally.solve_ms, 90), "ms"),
        "evals_per_solve": (_mean(tally.evals), "count"),
        "ratio_mean": (_mean(tally.ratios), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def load_digests(name: str, seed: int) -> list[str]:
    """Recorded per-unit digests; they apply only to the seed they were made with."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if seed != recorded["seed"]:
        return []
    return recorded["workloads"].get(name, [])


def run(workload, seed: int, seconds: float, trace: bool, expected: list[str],
        workdir: Path) -> tuple[Tally, dict[str, tuple[float, str]]]:
    """Set up, measure and check one workload; returns the tally and metrics."""
    units = max(1, round(seconds / workload.unit_s / (2 if trace else 1)))
    setup_times, inputs = [], None
    for _ in range(1 if trace else SETUP_REPEATS):
        # Each repeat starts from a collected heap, as a fresh process would.
        inputs = None
        gc.collect()
        start = clock()
        pkg = import_package()
        inputs = workload.setup(pkg, seed, units, workdir)
        setup_times.append(clock() - start)
    gc.collect()
    outcomes = workload.measure(pkg, inputs)
    tally = workload.check(pkg, inputs, outcomes, expected)
    if not trace:
        return tally, end_to_end(tally, statistics.median(setup_times))

    tracer = Tracer()
    with traced_package(tracer, pkg):
        traced_inputs = workload.setup(pkg, seed, units, workdir)
        traced_outcomes = workload.measure(pkg, traced_inputs)
    # Tracing must not change results: the traced pass replays the untraced one.
    traced = workload.check(pkg, traced_inputs, traced_outcomes, workload.digests(outcomes))
    ledger = sum(tracer.counts[f"evals.{p}"] for p in ("score", "absorb", "trim"))
    if ledger != sum(traced.evals) or tracer.counts["evals.other"]:
        traced.fail(traced.attempted - traced.failed,
                    f"oracle ledger {ledger} (+{tracer.counts['evals.other']} unattributed) "
                    f"does not match the solvers' {sum(traced.evals)} evals")
    overhead = traced.wall_s / tally.wall_s - 1.0 if tally.wall_s else 0.0
    tally.merge(traced)
    return tally, layer_metrics(tracer, overhead)


def report(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    samples = len(tally.solve_ms)
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'solve time samples':48s} {samples:14d} count")
    print(f"{'failed_frac':48s} {frac:14.6g} frac ({tally.failed} of {tally.attempted})")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# --------------------------------------------------------------------------
# Smoke self-test: small sizes, metric names and units, and proof that a
# corrupted result is counted as failed.

def smoke(workdir: Path) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {trace: {m["name"]: m["unit"] for m in spec[key]}
              for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    problems = []
    for name, workload in SMOKE_WORKLOADS.items():
        for trace in (False, True):
            tally, metrics = run(workload, DEFAULT_SEED, 2.0, trace, [], workdir)
            got = {metric: unit for metric, (_, unit) in metrics.items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                "differ in name or unit from BENCHMARK.json")
            if tally.failed:
                problems.append(f"{name} trace={trace}: {tally.failed} failed on a sound run")

    pkg = import_package()
    sweep = SMOKE_WORKLOADS["sweep"]
    inputs = sweep.setup(pkg, DEFAULT_SEED, 1, workdir)
    outcomes = sweep.measure(pkg, inputs)
    good = sweep.check(pkg, inputs, outcomes, sweep.digests(outcomes))
    tampered = sweep.check(pkg, inputs, outcomes, ["0" * 16])
    if good.failed or tampered.failed != tampered.attempted:
        problems.append("a tampered sweep digest was not counted as failed")

    scale = SMOKE_WORKLOADS["scale_mixed"]
    inputs = scale.setup(pkg, DEFAULT_SEED, 1, workdir)
    outcomes = scale.measure(pkg, inputs)
    sol = outcomes[0].solution
    dummy = inputs[0].instance.n
    injected = sol.__class__(sol.S, (sol.Ts[0] | {dummy},) + sol.Ts[1:], sol.evals, sol.seed)
    corrupted = [ScaleOutcome(injected, outcomes[0].F, 0.0, 0.0, None)]
    if scale.check(pkg, inputs, outcomes, scale.digests(outcomes)).failed:
        problems.append("a sound scale result was counted as failed")
    if scale.check(pkg, inputs, corrupted, []).failed != 1:
        problems.append("a dummy injected into T_0 was not counted as failed")
    if scale.check(pkg, inputs, outcomes, ["0" * 16]).failed != 1:
        problems.append("a tampered scale digest was not counted as failed")
    return problems


def record_digests(name: str, seconds: float, workdir: Path) -> None:
    """Rewrite the recorded digests of one workload from a run on DEFAULT_SEED."""
    workload = WORKLOADS[name]
    units = max(1, round(seconds / workload.unit_s))
    pkg = import_package()
    inputs = workload.setup(pkg, DEFAULT_SEED, units, workdir)
    outcomes = workload.measure(pkg, inputs)
    tally = workload.check(pkg, inputs, outcomes, [])
    if tally.failed:
        raise SystemExit(f"not recording: {tally.problems[:5]}")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["seed"] != DEFAULT_SEED:
        raise SystemExit(f"{DIGESTS} holds seed {recorded['seed']}, not {DEFAULT_SEED}")
    recorded["workloads"][name] = workload.digests(outcomes)
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="sweep")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {HELD_OUT_SEED} is held out for gain claims")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small self-test of metric names and corruption detection")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite this workload's digests from a run on seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.smoke:
            problems = smoke(workdir)
            for problem in problems:
                print(f"smoke: {problem}", file=sys.stderr)
            print("smoke: ok" if not problems else "smoke: FAILED")
            return 1 if problems else 0
        if args.record_digests:
            record_digests(args.workload, args.seconds, workdir)
            return 0
        tally, metrics = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), load_digests(args.workload, args.seed), workdir)
        print(json.dumps(report(tally, metrics)))
        return 0
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
