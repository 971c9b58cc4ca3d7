"""Mutation check: does tier-1 notice a plausible bug?

Each mutant in CATALOGUE is one exact string replacement in one source file,
which must match exactly once.  For every mutant the script copies the
repository into a temporary directory, applies the replacement there, and
runs the tier-1 tests with ``-x``.  A mutant is killed when they fail.  An
equivalent mutant changes no output, so it is expected to survive; the reason
is stated next to it.

Run from anywhere, with pytest and hypothesis installed:

    python tools/mutants.py

It first runs the unmutated tests, then prints one line per mutant: killed or
survived, with its time.  It exits non-zero when a pattern does not match
exactly once, when the unmutated tests fail, when a non-equivalent mutant
survives, or when an equivalent one is killed.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None  # why no output can change, if none can


REFERENCE = "src/twostage/reference.py"
LOCAL_SEARCH = "src/twostage/local_search.py"
SOLVER = "src/twostage/solver.py"
FUNCTIONS = "src/twostage/functions.py"

CATALOGUE = (
    Mutant(
        "walk prunes on a bound tie", REFERENCE,
        "if bounds[i] < best[0] or (",
        "if bounds[i] <= best[0] or (",
    ),
    Mutant(
        "walk drops the tie clause of its skip test", REFERENCE,
        "if bounds[i] < best[0] or (bounds[i] == best[0] and best[1] < child):",
        "if bounds[i] < best[0]:",
    ),
    Mutant(
        "walk keeps the first maximum it values", REFERENCE,
        "if val > best[0] or (val == best[0] and child < best[1]):",
        "if val > best[0]:",
    ),
    Mutant(
        "walk ties go to the later tuple", REFERENCE,
        "(val == best[0] and child < best[1])",
        "(val == best[0] and child > best[1])",
    ),
    Mutant(
        "brute force ties go to the larger S", REFERENCE,
        "negated, best = min((-value(S), S) for S in sets)\n"
        "    return ExactResult(-negated, frozenset(best))",
        "top, best = max((value(S), S) for S in sets)\n"
        "    return ExactResult(top, frozenset(best))",
    ),
    Mutant(
        "cut bound room is k - |c| - 2", REFERENCE,
        "room = k - len(near) - 1",
        "room = k - len(near) - 2",
    ),
    Mutant(
        "cut bound summed in floats", REFERENCE,
        "bounds[i] = (total + gains[i] + sum(top)) / descriptor._scale",
        "bounds[i] = sum(g / descriptor._scale for g in [total, gains[i], *reversed(top)])",
    ),
    Mutant(
        "monotone bound chain one item short", REFERENCE,
        "base = oracle.grow(near, members[-1])",
        "base = near",
    ),
    Mutant(
        "greedy report runs k + 1 rounds", REFERENCE,
        "for _ in range(k):",
        "for _ in range(k + 1):",
    ),
    Mutant(
        "local_gain swap tie goes to the last victim", LOCAL_SEARCH,
        "        if g > gain:\n            gain, after = g, candidate",
        "        if g > gain or (g == gain and g > 0):\n            gain, after = g, candidate",
    ),
    Mutant(
        "local_gain add wins a tie with the best swap", LOCAL_SEARCH,
        "        if g > gain:\n            gain, after = g, with_x",
        "        if g >= gain and g > 0:\n            gain, after = g, with_x",
    ),
    Mutant(
        "monotone shortcut for every kind", LOCAL_SEARCH,
        "members = () if room and f.descriptor.monotone else sorted(T)",
        "members = () if room else sorted(T)",
    ),
    Mutant(
        "monotone shortcut on a full set", LOCAL_SEARCH,
        "members = () if room and f.descriptor.monotone else sorted(T)",
        "members = () if f.descriptor.monotone else sorted(T)",
    ),
    Mutant(
        "score_items swap tie goes to the last victim", LOCAL_SEARCH,
        "                if g > gain:\n                    gain = g\n            if room:",
        "                if g >= gain:\n                    gain = g\n            if room:",
        equivalent="score_items keeps only the best gain, not the victim, and "
        "g == gain assigns the same float (a difference of equal floats is +0.0)",
    ),
    Mutant(
        "reuse a pass whatever T is", LOCAL_SEARCH,
        "if held is not None and held[0] == T and held[1] == k:",
        "if held is not None and held[1] == k:",
    ),
    Mutant(
        "reuse a pass across a different k", LOCAL_SEARCH,
        "if held is not None and held[0] == T and held[1] == k:",
        "if held is not None and held[0] == T:",
    ),
    Mutant(
        "select_top_l ties go to larger ids", LOCAL_SEARCH,
        "key=lambda s: (-s.total_score, s.item)",
        "key=lambda s: (-s.total_score, -s.item)",
    ),
    Mutant(
        "descending trim", SOLVER,
        "for x in sorted(kept):",
        "for x in sorted(kept, reverse=True):",
    ),
    Mutant(
        "trim returns B for every kind", SOLVER,
        "    if descriptor.monotone:\n        kept = frozenset(B)",
        "    if True:\n        kept = frozenset(B)",
    ),
    Mutant(
        "trim without graph cut's exact tie", SOLVER,
        "        if current - without < 0 or (\n"
        "            current == without\n"
        "            and descriptor._exact(descriptor._state(kept - {x}))\n"
        "            > descriptor._exact(descriptor._state(kept))\n"
        "        ):",
        "        if current - without < 0:",
    ),
    Mutant(
        "absorb on a zero gain", SOLVER,
        "if move.gain > 0.0 else",
        "if move.gain >= 0.0 else",
    ),
    Mutant(
        "a blank slot draws the last item", SOLVER,
        "slot = rng.randrange(top) if rng is not None else 0",
        "slot = min(rng.randrange(top), len(M) - 1) if rng is not None else 0",
    ),
    Mutant(
        "graph-cut gain counts w(x, t) once", FUNCTIONS,
        "entry[0] - 2 * _weight_into(entry[1], state[0])",
        "entry[0] - _weight_into(entry[1], state[0])",
    ),
    Mutant(
        "a plain near keeps its old states", FUNCTIONS,
        "self._near, self._states = near, {}",
        "self._near = near",
    ),
    Mutant(
        "a grown base keeps its parent's state", FUNCTIONS,
        "base.state = self.descriptor._grow(self._state_of(near), x)",
        "base.state = self._state_of(near)",
    ),
)


def _copy(into: Path) -> Path:
    repo = into / "repo"
    shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
    return repo


def _tier1(repo: Path, timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of ``pytest -x`` in repo; a timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=repo, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    unmatched = []
    for mutant in CATALOGUE:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            unmatched.append(f"{mutant.name}: pattern matches {count} times in {mutant.path}")
    if unmatched:
        print("\n".join(unmatched))
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        passed, seconds = _tier1(_copy(Path(tmp) / "base"), None)
    print(f"unmutated: {'passed' if passed else 'FAILED'} ({seconds:.1f} s)", flush=True)
    if not passed:
        return 1
    timeout = max(120.0, 4 * seconds)

    wrong = []
    for mutant in CATALOGUE:
        with tempfile.TemporaryDirectory() as tmp:
            repo = _copy(Path(tmp))
            source = repo / mutant.path
            source.write_text(source.read_text().replace(mutant.old, mutant.new))
            survived, seconds = _tier1(repo, timeout)
        verdict = "survived" if survived else "killed"
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{mutant.name}: {verdict} ({seconds:.1f} s){note}", flush=True)
        if survived != (mutant.equivalent is not None):
            wrong.append(mutant.name)
    if wrong:
        print("unexpected: " + "; ".join(wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
