"""Local-search kernel: per-function gains and candidate scoring.

For a feasible set A of size at most k, the gain of an outside item x is the
best of three moves: do nothing, add x (only if there is room), or swap x in
for some current member y.  Zero-gain moves are folded into "do nothing", so
an item only ever enters a set when it strictly improves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .exceptions import PreconditionError
from .functions import Oracle

NOOP = "noop"
ADD = "add"
SWAP = "swap"

__all__ = [
    "NOOP",
    "ADD",
    "SWAP",
    "GainAction",
    "ScoredItem",
    "local_gain",
    "apply_action",
    "score_items",
    "select_top_l",
]


@dataclass(frozen=True)
class GainAction:
    """Outcome of the local-search decision for one (item, set) pair.

    gain is non-negative; it is zero exactly when kind is NOOP.  victim is
    the set member to remove, present exactly when kind is SWAP.
    """

    gain: float
    kind: str
    victim: int | None = None


@dataclass(frozen=True)
class ScoredItem:
    item: int
    total_score: float


def local_gain(
    f: Oracle, x: int, A: Iterable[int], k: int, base: float | None = None
) -> GainAction:
    """Best-move gain of x against A under the cardinality budget k.

    Returns the exact max of zero, the best swap gain over members of A, and
    (when |A| < k) the direct-add gain.  The action mirrors the choice: a tie
    between a positive add and an equal best swap resolves to the swap, and
    victim ties resolve to the smallest item id.  ``base`` may supply a cached
    f(A) to save one evaluation; semantics are unchanged.
    """
    current = frozenset(A)
    if len(current) > k:
        raise PreconditionError(f"feasible set has {len(current)} items, budget k={k}")
    if x in current:
        return GainAction(0.0, NOOP)
    if base is None:
        base = f.eval(current)

    best_swap: float | None = None
    victim: int | None = None
    for y in sorted(current):
        g = f.eval((current | {x}) - {y}) - base
        if best_swap is None or g > best_swap:
            best_swap = g
            victim = y

    room = len(current) < k
    add_gain = f.eval(current | {x}) - base if room else None

    gain = 0.0
    if best_swap is not None and best_swap > gain:
        gain = best_swap
    if add_gain is not None and add_gain > gain:
        gain = add_gain
    if gain == 0.0:
        return GainAction(0.0, NOOP)
    if room and (best_swap is None or add_gain > best_swap):
        return GainAction(gain, ADD)
    return GainAction(gain, SWAP, victim)


def apply_action(A: Iterable[int], x: int, action: GainAction) -> frozenset[int]:
    """Replay a GainAction on A, returning the updated set."""
    current = frozenset(A)
    if action.kind == NOOP:
        return current
    if action.kind == ADD:
        return current | {x}
    if action.victim not in current:
        raise PreconditionError(f"swap victim {action.victim} not in A")
    return (current | {x}) - {action.victim}


def score_items(
    fs: Sequence[Oracle],
    Ts: Sequence[Iterable[int]],
    universe: Iterable[int],
    k: int,
) -> list[ScoredItem]:
    """Total local-search gain of every universe item against the current sets.

    The score of x is the sum over functions of local_gain(f_i, x, T_i, k);
    each f_i(T_i) is evaluated once and reused across items, so one x costs at
    most |T_i| + 1 evaluations per function.  Output is in ascending item
    order, one entry per universe item.
    """
    if len(fs) != len(Ts):
        raise PreconditionError(f"fs and Ts length mismatch: {len(fs)} vs {len(Ts)}")
    sets = [frozenset(T) for T in Ts]
    bases = [f.eval(T) for f, T in zip(fs, sets)]
    out = []
    for x in sorted(universe):
        total = 0.0
        for f, T, base in zip(fs, sets, bases):
            total += local_gain(f, x, T, k, base=base).gain
        out.append(ScoredItem(x, total))
    return out


def select_top_l(scores: Sequence[ScoredItem], l: int) -> frozenset[int]:
    """The l items with the largest scores, ties going to smaller ids.

    The summed score is additive over the chosen set, so this is exactly the
    size-l set maximizing the total score.
    """
    if l > len(scores):
        raise PreconditionError(f"cannot select top {l} from {len(scores)} scored items")
    if l < 0:
        raise PreconditionError("l must be non-negative")
    ranked = sorted(scores, key=lambda s: (-s.total_score, s.item))
    return frozenset(s.item for s in ranked[:l])
