"""Local-search kernel: per-function gains and candidate scoring.

For a feasible set A of size at most k, the gain of an outside item x is the
best of three moves: do nothing, add x (only if there is room), or swap x in
for some current member y.  Zero-gain moves are folded into "do nothing", so
an item only ever enters a set when it strictly improves it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .exceptions import ValidationError
from .functions import Oracle

__all__ = [
    "GainAction",
    "ScoredItem",
    "local_gain",
    "score_items",
    "select_top_l",
]


class GainAction(NamedTuple):
    """Outcome of the local-search decision for one (item, set) pair.

    gain is non-negative; after is the set the best move produces, which is
    the unchanged set exactly when gain is zero.
    """

    gain: float
    after: frozenset[int]


class ScoredItem(NamedTuple):
    item: int
    total_score: float


def local_gain(f: Oracle, x: int, A: Iterable[int], k: int) -> GainAction:
    """Best-move gain of x against A under the cardinality budget k.

    Returns the exact max of zero, the best swap gain over members of A, and
    (when |A| < k) the direct-add gain, with the set that move produces.
    Swaps are evaluated in ascending victim id, then the add; victim ties
    resolve to the smallest id, and an add must strictly beat the best swap.
    Each move is valued with A as ``near``, from the states the oracle builds
    once for the set A (see Oracle); every move is still one counted call.
    """
    current = frozenset(A)
    if len(current) > k:
        raise ValidationError(f"feasible set has {len(current)} items, budget k={k}")
    if x in current:
        return GainAction(0.0, current)
    base = f.eval(current)

    # Only strict improvements replace the running best, so the first victim
    # in ascending order wins a swap tie and an add must beat every swap.
    gain, after = 0.0, current
    with_x = current | {x}
    for y in sorted(current):
        candidate = with_x - {y}
        g = f.eval(candidate, current) - base
        if g > gain:
            gain, after = g, candidate
    if len(current) < k:
        g = f.eval(with_x, current) - base
        if g > gain:
            gain, after = g, with_x
    return GainAction(gain, after)


def score_items(
    fs: Sequence[Oracle],
    Ts: Sequence[Iterable[int]],
    universe: Iterable[int],
    k: int,
) -> list[ScoredItem]:
    """Total local-search gain of every universe item against the current sets.

    The score of x is the sum, in function order, of the gains
    local_gain(f_i, x, T_i, k) gives.  One pass per function values every
    item's moves against T_i: f_i(T_i) once, then per item outside T_i its
    |T_i| swaps and, when |T_i| < k, its add, each one call from the states
    the oracle builds once for T_i.  A monotone f_i whose T_i has room values
    the add alone: f_i(T_i + x) is at least every f_i(T_i + x - y), rounded
    values included, so the add's gain is the best.  Output is in ascending
    item order, one entry per universe item.

    Each pass is kept on f_i's oracle (T_i, k, the items and their gains).
    A later call whose T_i equals the kept one, under the same k, and whose
    items were all scored by that pass reuses its gains and makes no call
    for f_i, f_i(T_i) included: a gain depends only on T_i, k and x.  So a
    round that leaves T_i as it was scores f_i for free in the next one
    (Minoux 1978).  Totals are summed in function order from 0.0 either way,
    so every score is the same float.
    """
    if len(fs) != len(Ts):
        raise ValidationError(f"fs and Ts length mismatch: {len(fs)} vs {len(Ts)}")
    sets = [frozenset(T) for T in Ts]
    items = sorted(universe)
    for T in sets if items else ():
        if len(T) > k:
            raise ValidationError(f"feasible set has {len(T)} items, budget k={k}")
    totals = [0.0] * len(items)
    for f, T in zip(fs, sets):
        held = f._pass
        if held is not None and held[0] == T and held[1] == k:
            gain_of = dict(zip(held[2], held[3]))
            if gain_of.keys() >= set(items):
                totals = [t + gain_of[x] for t, x in zip(totals, items)]
                continue
        gains = [0.0] * len(items)
        base = f.eval(T)
        room, value = len(T) < k, f.eval
        members = () if room and f.descriptor.monotone else sorted(T)
        for j, x in enumerate(items):
            if x in T:
                continue
            # near goes by position: within an experiment run most moves are
            # memo hits, and a keyword argument adds about a fifth to the
            # cost of each.
            gain, with_x = 0.0, T | {x}
            for y in members:
                g = value(with_x - {y}, T) - base
                if g > gain:
                    gain = g
            if room:
                g = value(with_x, T) - base
                if g > gain:
                    gain = g
            totals[j] += gain
            gains[j] = gain
        f._pass = (T, k, items, gains)
    return [ScoredItem(x, total) for x, total in zip(items, totals)]


def select_top_l(scores: Sequence[ScoredItem], l: int) -> frozenset[int]:
    """The l items with the largest scores, ties going to smaller ids.

    The summed score is additive over the chosen set, so this is exactly the
    size-l set maximizing the total score.
    """
    if l > len(scores):
        raise ValidationError(f"cannot select top {l} from {len(scores)} scored items")
    if l < 0:
        raise ValidationError("l must be non-negative")
    ranked = sorted(scores, key=lambda s: (-s.total_score, s.item))
    return frozenset(s.item for s in ranked[:l])
