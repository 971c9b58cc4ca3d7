"""In-memory span tracer that wraps the package's functions from outside.

The package's modules import one another's functions by name (``solver``
binds ``score_items``, ``harness`` binds ``sampling_greedy``, ...), so a
function is wrapped at every module attribute that holds it, not only where
it is defined.  Methods are wrapped on their class.

Every call opens a span on a stack.  When it returns, its duration and its
self time (the duration minus the time covered by the spans it contained)
are added to per-name aggregates held in memory; nothing is written until
the run ends and ``layer_metrics`` reads them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

# Innermost open phase span -> ledger entry an oracle call is credited to.
PHASES = {
    "local_search.score_items": "score",
    "solver.apply_candidate": "absorb",
    "solver.trim": "trim",
    "reference.evaluate_F_exact": "report",
    "reference.brute_force_optimum": "report",
    "reference.evaluate_F_greedy": "report",
}

VALUE_KINDS = ("coverage", "facility_location", "graph_cut")


class Tracer:
    """Span aggregates plus event counters, filled by the wrappers it makes."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter[str] = Counter()
        self._open: list[float] = []  # child time covered so far, per open span
        self._phases: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def phase(self) -> str:
        return self._phases[-1] if self._phases else "other"

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        phase = PHASES.get(name)
        open_spans, phases, clock = self._open, self._phases, time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            if phase:
                phases.append(phase)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if phase:
                    phases.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch_function(self, module, attr: str, observe=None) -> None:
        """Wrap module.attr and every other package attribute bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", original, observe)
        package = module.__name__.split(".")[0]
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for bound, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound, traced)
                    self._undo.append((mod, bound, original))

    def patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, observe))
        self._undo.append((cls, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


@contextmanager
def traced_package(tracer: Tracer, pkg) -> Iterator[Tracer]:
    """Wrap the layers of the twostage package for the duration of the block."""
    counts = tracer.counts

    def on_eval(args, result) -> None:
        counts["evals." + tracer.phase] += 1
        counts["eval.items"] += len(args[1])

    def on_local_gain(args, result) -> None:
        counts["local_gain.positive"] += result.gain > 0.0

    def on_apply_candidate(args, result) -> None:
        f, T, x = args[0], args[1], args[2]
        counts["apply_candidate.changed"] += result != frozenset(T)
        counts["apply_candidate.dummy"] += x >= f.n

    def on_trim(args, result) -> None:
        before = len(frozenset(args[1]))
        counts["trim.members"] += before
        counts["trim.dropped"] += before - len(result)

    functions = pkg.functions
    tracer.patch_method(functions.Oracle, "eval", "functions.Oracle.eval", on_eval)
    for cls in (functions.Coverage, functions.FacilityLocation, functions.GraphCut):
        tracer.patch_method(cls, "value", f"functions.value.{cls.kind}")
    tracer.patch_function(pkg.instances, "generate_instance")
    tracer.patch_function(pkg.local_search, "score_items")
    tracer.patch_function(pkg.local_search, "local_gain", on_local_gain)
    tracer.patch_function(pkg.local_search, "select_top_l")
    tracer.patch_function(pkg.solver, "sampling_greedy")
    tracer.patch_function(pkg.solver, "apply_candidate", on_apply_candidate)
    tracer.patch_function(pkg.solver, "trim", on_trim)
    tracer.patch_function(pkg.reference, "evaluate_F_exact")
    tracer.patch_function(pkg.reference, "evaluate_F_greedy")
    tracer.patch_function(pkg.reference, "brute_force_optimum")
    tracer.patch_function(pkg.harness, "run_experiment")
    tracer.patch_function(pkg.harness, "write_csv")
    tracer.patch_function(pkg.cli, "main")
    try:
        yield tracer
    finally:
        tracer.remove()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit)."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def us_per_call(name: str) -> float:
        n, total, _ = spans.get(name, [0, 0.0, 0.0])
        return _share(total, n) * 1e6

    out: dict[str, tuple[float, str]] = {}
    evals = "functions.Oracle.eval"
    out[f"{evals}.calls"] = (calls(evals), "count")
    out[f"{evals}.us_per_call"] = (us_per_call(evals), "us")
    out[f"{evals}.mean_set_size"] = (_share(counts["eval.items"], calls(evals)), "items")
    for kind in VALUE_KINDS:
        name = f"functions.value.{kind}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.us_per_call"] = (us_per_call(name), "us")
    out["local_search.score_items.calls"] = (calls("local_search.score_items"), "count")
    out["local_search.score_items.self_s"] = (self_s("local_search.score_items"), "s")
    gains = calls("local_search.local_gain")
    out["local_search.local_gain.calls"] = (gains, "count")
    out["local_search.local_gain.positive_frac"] = (
        _share(counts["local_gain.positive"], gains), "frac")
    out["local_search.select_top_l.self_s"] = (self_s("local_search.select_top_l"), "s")
    out["solver.sampling_greedy.self_s"] = (self_s("solver.sampling_greedy"), "s")
    absorbs = calls("solver.apply_candidate")
    out["solver.apply_candidate.calls"] = (absorbs, "count")
    out["solver.apply_candidate.absorb_frac"] = (
        _share(counts["apply_candidate.changed"], absorbs), "frac")
    out["solver.apply_candidate.dummy_frac"] = (
        _share(counts["apply_candidate.dummy"], absorbs), "frac")
    out["solver.trim.calls"] = (calls("solver.trim"), "count")
    out["solver.trim.self_s"] = (self_s("solver.trim"), "s")
    out["solver.trim.drop_frac"] = (_share(counts["trim.dropped"], counts["trim.members"]), "frac")
    for name in ("reference.evaluate_F_exact", "reference.brute_force_optimum"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("harness.run_experiment", "harness.write_csv", "cli.main",
                 "instances.generate_instance"):
        out[f"{name}.self_s"] = (self_s(name), "s")
    for phase in ("score", "absorb", "trim", "report"):
        out[f"evals.{phase}"] = (counts[f"evals.{phase}"], "count")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
