"""Randomized greedy ground-set reduction with trimming.

Over l rounds, every item not yet selected is scored by its total
local-search gain against the current per-function feasible sets, and one of
l slots is drawn uniformly.  The slots hold the top-l candidates in id order;
when fewer than l items remain, the slots past them are blank and a round
that draws one selects nothing.  Each feasible set that strictly benefits
from the pick absorbs it and is trimmed back to a state where no member
hurts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .functions import Oracle, ValueMemo
from .instances import Instance
from .local_search import local_gain, score_items, select_top_l

__all__ = [
    "RoundState",
    "TwoStageSolution",
    "trim",
    "apply_candidate",
    "sampling_greedy",
    "replacement_greedy",
    "feasible_sets_value",
]


@dataclass(frozen=True)
class RoundState:
    """Snapshot handed to an observer after each solver round completes.

    S holds the items selected so far; after a blank round it and every
    feasible set equal the previous snapshot's."""

    round_index: int
    S: frozenset[int]
    Ts: tuple[frozenset[int], ...]
    evals: int


@dataclass(frozen=True)
class TwoStageSolution:
    """Reduced set S (at most l items, fewer after blank rounds), per-function
    feasible sets, and the oracle-call count of the solve.  seed is None for
    deterministic runs."""

    S: frozenset[int]
    Ts: tuple[frozenset[int], ...]
    evals: int
    seed: int | None


def trim(f: Oracle, B: Iterable[int]) -> frozenset[int]:
    """Single ascending-id pass dropping items whose removal marginal is
    strictly negative, tested against the shrinking set.

    The result A satisfies f(A) >= f(B) and f(A) - f(A - {x}) >= 0 for every
    remaining x; one pass suffices because removals only raise the remaining
    removal marginals under submodularity.
    """
    kept = set(B)
    current = f.eval(kept)
    descriptor = f.descriptor
    for x in sorted(kept):
        without = f.eval(kept - {x})
        # Only graph cut is non-monotone.  Its values are correctly rounded,
        # so only a tie can hide a marginal's sign: that goes to the exact int
        # totals its states hold, at no oracle call.
        if current - without < 0 or (
            current == without and not descriptor.monotone
            and descriptor._state(kept - {x})[1] > descriptor._state(kept)[1]
        ):
            kept.discard(x)
            current = without
    return frozenset(kept)


def apply_candidate(f: Oracle, T: Iterable[int], x: int, k: int) -> frozenset[int]:
    """Absorb x into T when its local gain is strictly positive, then trim."""
    move = local_gain(f, x, T, k)
    return trim(f, move.after) if move.gain > 0.0 else move.after


def _greedy_rounds(
    instance: Instance,
    rng: random.Random | None,
    on_round: Callable[[RoundState], None] | None,
    seed: int | None,
    memos: Sequence[ValueMemo] | None,
) -> TwoStageSolution:
    n, k, l = instance.n, instance.k, instance.l
    top = l if rng is not None else 1
    oracles = instance.oracles(memos)
    S: set[int] = set()
    Ts: list[frozenset[int]] = [frozenset() for _ in oracles]
    for round_index in range(1, l + 1):
        unpicked = [x for x in range(n) if x not in S]
        M = sorted(select_top_l(score_items(oracles, Ts, unpicked, k), min(top, len(unpicked))))
        slot = rng.randrange(top) if rng is not None else 0
        # A slot past the remaining items is blank: S and every T stay as they are.
        if slot < len(M):
            S.add(M[slot])
            Ts = [apply_candidate(f, T, M[slot], k) for f, T in zip(oracles, Ts)]
        if on_round is not None:
            on_round(
                RoundState(
                    round_index,
                    frozenset(S),
                    tuple(Ts),
                    sum(o.eval_count for o in oracles),
                )
            )
    return TwoStageSolution(frozenset(S), tuple(Ts), sum(o.eval_count for o in oracles), seed)


def sampling_greedy(
    instance: Instance,
    seed: int,
    on_round: Callable[[RoundState], None] | None = None,
    *,
    memos: Sequence[ValueMemo] | None = None,
) -> TwoStageSolution:
    """Run l rounds of randomized top-l candidate sampling with trimming.

    Each round scores the items not yet selected, keeps the l best-scoring
    candidates (score ties to smaller ids), draws one of l slots uniformly
    with the seeded generator, and updates every feasible set that strictly
    gains.  When fewer than l items remain, some slots are blank and drawing
    one selects nothing that round.  Identical (instance, seed) pairs give
    identical output.  memos, one value memo per function (see Oracle), lets
    solves of one instance share the values of the sets they evaluate; the
    output, evals included, is the same with or without it.
    """
    return _greedy_rounds(instance, random.Random(seed), on_round, seed, memos)


def replacement_greedy(
    instance: Instance,
    on_round: Callable[[RoundState], None] | None = None,
    *,
    memos: Sequence[ValueMemo] | None = None,
) -> TwoStageSolution:
    """Deterministic sibling of sampling_greedy: each round takes the single
    highest-scored remaining item instead of sampling from the top l.
    memos is as in sampling_greedy."""
    return _greedy_rounds(instance, None, on_round, None, memos)


def feasible_sets_value(instance: Instance, Ts: Sequence[Iterable[int]]) -> float:
    """Sum of raw per-function values of the feasible sets, in function order.

    Computed off the descriptors directly: it is bookkeeping, not an oracle
    call of any algorithm or report.  It never exceeds the two-stage objective
    of S, since each feasible set competes in its function's inner maximization.
    """
    total = 0.0
    for descriptor, T in zip(instance.functions, Ts, strict=True):
        total += descriptor.value(frozenset(T))
    return total

