"""Randomized greedy ground-set reduction with trimming.

Over l rounds, every real item not yet selected is scored by its total
local-search gain against the current per-function feasible sets, one of the
top l candidates is drawn uniformly, and each feasible set that strictly
benefits absorbs the pick and is trimmed back to a state where no member
hurts.  The shortlist is padded with l dummy ids ``n .. n+l-1`` that score 0
without an oracle call, so a round may select "nothing"; a drawn dummy stays
in S for budget accounting during the run and is stripped from the returned
solution.  No oracle ever sees a dummy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .functions import Oracle
from .instances import Instance
from .local_search import ScoredItem, local_gain, score_items, select_top_l

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
    """Snapshot handed to an observer after each solver round completes."""

    round_index: int
    S: frozenset[int]
    Ts: tuple[frozenset[int], ...]
    evals: int


@dataclass(frozen=True)
class TwoStageSolution:
    """Reduced set S (real items only), per-function feasible sets, and the
    oracle-call count of the solve.  seed is None for deterministic runs."""

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
    for x in sorted(kept):
        without = f.eval(kept - {x})
        if current - without < 0:
            kept.discard(x)
            current = without
    return frozenset(kept)


def apply_candidate(f: Oracle, T: Iterable[int], x: int, k: int) -> frozenset[int]:
    """Absorb x into T when its local gain is strictly positive, then trim."""
    move = local_gain(f, x, T, k)
    return trim(f, move.after) if move.gain > 0.0 else move.after


def _greedy_rounds(
    instance: Instance,
    pick: Callable[[Sequence[int]], int],
    top: int,
    on_round: Callable[[RoundState], None] | None,
    seed: int | None,
) -> TwoStageSolution:
    n, k, l = instance.n, instance.k, instance.l
    oracles = instance.oracles()
    S: set[int] = set()
    Ts: list[frozenset[int]] = [frozenset() for _ in oracles]
    for round_index in range(1, l + 1):
        unpicked = [x for x in range(n) if x not in S]
        # A dummy leaves every set as it is, so it scores 0; real ids are
        # smaller, so it enters M only when fewer than top real items remain.
        dummies = [ScoredItem(d, 0.0) for d in range(n, n + l) if d not in S]
        M = select_top_l(score_items(oracles, Ts, unpicked, k) + dummies, top)
        x_star = pick(sorted(M))
        S.add(x_star)
        if x_star < n:
            Ts = [apply_candidate(f, T, x_star, k) for f, T in zip(oracles, Ts)]
        if on_round is not None:
            on_round(
                RoundState(
                    round_index,
                    frozenset(S),
                    tuple(Ts),
                    sum(o.eval_count for o in oracles),
                )
            )
    real = frozenset(x for x in S if x < n)
    return TwoStageSolution(real, tuple(Ts), sum(o.eval_count for o in oracles), seed)


def sampling_greedy(
    instance: Instance,
    seed: int,
    on_round: Callable[[RoundState], None] | None = None,
) -> TwoStageSolution:
    """Run l rounds of randomized top-l candidate sampling with trimming.

    Each round scores the real items not yet selected, keeps the l
    best-scoring candidates (score ties to smaller ids, so dummies fill in
    only when fewer than l real items remain), draws one uniformly with the
    seeded generator, and updates every feasible set that strictly gains.  Identical
    (instance, seed) pairs give identical output.
    """
    rng = random.Random(seed)
    return _greedy_rounds(
        instance, lambda M: M[rng.randrange(len(M))], instance.l, on_round, seed
    )


def replacement_greedy(
    instance: Instance,
    on_round: Callable[[RoundState], None] | None = None,
) -> TwoStageSolution:
    """Deterministic sibling of sampling_greedy: each round takes the single
    highest-scored remaining item instead of sampling from the top l."""
    return _greedy_rounds(instance, lambda M: M[0], 1, on_round, None)


def feasible_sets_value(instance: Instance, Ts: Sequence[Iterable[int]]) -> float:
    """Sum of raw per-function values of the feasible sets, in function order.

    Computed off the descriptors directly so reporting does not disturb any
    oracle counter.  This sum never exceeds the two-stage objective of S,
    since each feasible set competes in its function's inner maximization.
    """
    total = 0.0
    for descriptor, T in zip(instance.functions, Ts, strict=True):
        total += descriptor.value(frozenset(T))
    return total

