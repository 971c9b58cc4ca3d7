"""Every committed ``BENCH_*.json`` states where it was measured and carries
before and after numbers for each metric it lists, so a speedup claim cannot
land without its baseline from the same session."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def test_bench_files_record_parent_and_change():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json in the repo root"
    for path in paths:
        bench = json.loads(path.read_text(encoding="utf-8"))
        for key in ("machine", "python"):
            assert isinstance(bench.get(key), str) and bench[key], f"{path.name}: no {key}"
        metrics = bench.get("metrics")
        assert isinstance(metrics, list) and metrics, f"{path.name}: no metrics"
        for entry in metrics:
            label = f"{path.name}: {entry.get('workload')} {entry.get('name')}"
            assert isinstance(entry.get("name"), str) and entry["name"], label
            for side in ("parent", "change"):
                assert _is_number(entry.get(side)), f"{label}: no {side} value"
