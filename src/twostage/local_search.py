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


def local_gain(
    f: Oracle, x: int, A: Iterable[int], k: int, base: float | None = None
) -> GainAction:
    """Best-move gain of x against A under the cardinality budget k.

    Returns the exact max of zero, the best swap gain over members of A, and
    (when |A| < k) the direct-add gain, with the set that move produces.
    Swaps are evaluated in ascending victim id, then the add; victim ties
    resolve to the smallest id, and an add must strictly beat the best swap.
    ``base`` may supply a cached f(A) to save one evaluation; semantics are
    unchanged.  Each move is valued with A as ``near``, so the oracle prices
    it from the states it keeps for A (see Oracle); every move is still one
    counted call.
    """
    current = frozenset(A)
    if len(current) > k:
        raise ValidationError(f"feasible set has {len(current)} items, budget k={k}")
    if x in current:
        return GainAction(0.0, current)
    if base is None:
        base = f.eval(current)

    # Only strict improvements replace the running best, so the first victim
    # in ascending order wins a swap tie and an add must beat every swap.
    gain, after = 0.0, current
    with_x = current | {x}
    # near goes by position: within an experiment run most moves are memo
    # hits, and a keyword argument adds about a fifth to the cost of each.
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

    The score of x is the sum over functions of local_gain(f_i, x, T_i, k);
    each f_i(T_i) is evaluated once and reused across items, so one x costs at
    most |T_i| + 1 evaluations per function.  Output is in ascending item
    order, one entry per universe item.
    """
    if len(fs) != len(Ts):
        raise ValidationError(f"fs and Ts length mismatch: {len(fs)} vs {len(Ts)}")
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
        raise ValidationError(f"cannot select top {l} from {len(scores)} scored items")
    if l < 0:
        raise ValidationError("l must be non-negative")
    ranked = sorted(scores, key=lambda s: (-s.total_score, s.item))
    return frozenset(s.item for s in ranked[:l])
