"""Exact reference oracles and baseline algorithms for small instances.

The two-stage objective F(S) sums, over functions, the best value of any
subset of S within the cardinality budget.  That inner maximization is
NP-hard in general, so the exact routines here enumerate, pruning where a
function is monotone, and are protected by explicit guards on the size of the
enumeration, which raise GuardExceededError before any oracle call; the
greedy surrogate scales instead.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .exceptions import GuardExceededError
from .functions import Oracle, _int_text
from .instances import Instance
from .solver import TwoStageSolution

__all__ = [
    "EXACT_EVAL_GUARD",
    "BRUTE_FORCE_GUARD",
    "ExactResult",
    "exact_eval_cost",
    "brute_force_cost",
    "evaluate_F_exact",
    "evaluate_F_greedy",
    "brute_force_optimum",
    "random_baseline",
]

# evaluate_F_exact refuses an S with more subsets of at most k items than
# this; the pruned walk makes fewer than twice as many calls per function.
EXACT_EVAL_GUARD = 10**6
BRUTE_FORCE_GUARD = 10**7


@dataclass(frozen=True)
class ExactResult:
    """A reported value plus what achieved it.

    For F-evaluation the witness holds one feasible set per function, and
    their values sum to the value: argmax subsets for exact evaluation,
    greedy sets for the surrogate.  For the brute-force optimum it is the
    single optimal reduced set.  Exact ties resolve to the lexicographically
    smallest sorted item tuple.
    """

    value: float
    witness: tuple[frozenset[int], ...] | frozenset[int]


def _exact_eval_terms(set_size: int, k: int) -> Iterator[int]:
    return (math.comb(set_size, j) for j in range(min(k, set_size) + 1))


def _brute_force_terms(instance: Instance) -> Iterator[int]:
    n, k, m = instance.n, instance.k, instance.m
    return (m * math.comb(n, s) * exact_eval_cost(s, k) for s in range(instance.l + 1))


def _exceeds(terms: Iterable[int], limit: int) -> bool:
    # Adds only until the sum passes limit: the full sum can take minutes.
    return any(total > limit for total in itertools.accumulate(terms))


def exact_eval_cost(set_size: int, k: int) -> int:
    """Subsets of a size-|S| set with at most k items: what exact
    F-evaluation enumerates per function, at fewer than twice as many calls."""
    return sum(_exact_eval_terms(set_size, k))


def brute_force_cost(instance: Instance) -> int:
    """Total oracle calls for enumerating every |S| <= l reduced set."""
    return sum(_brute_force_terms(instance))


def _best_subset(
    value: Callable[[tuple[int, ...]], float],
    members: Sequence[int],
    max_size: int,
    bound: Callable[[tuple[int, ...]], float] | None = None,
) -> tuple[float, tuple[int, ...]]:
    """Max value over the subsets of the ascending ``members`` with at most
    ``max_size`` items, ties to the lexicographically smallest tuple.

    One depth-first walk in preorder, which over ascending members is
    lexicographic order, so the first maximum found is the one returned.
    With ``bound``, a function no smaller than ``value`` on any subset of its
    argument, the walk skips the subsets that extend a prefix c ending at
    ``members[i]`` when ``bound(c + members[i + 1:]) <= best``: none of them
    can beat the best so far, and each is lexicographically later than it.
    A prefix with one later member values that one extension instead, at the
    same cost.  So the walk makes at most one bound call per subset it values.
    """
    members = tuple(members)
    best = [value(()), ()]
    if max_size > 0:
        _walk(value, bound, members, max_size, (), 0, best)
    return best[0], best[1]


def _walk(
    value: Callable[[tuple[int, ...]], float],
    bound: Callable[[tuple[int, ...]], float] | None,
    members: tuple[int, ...],
    max_size: int,
    prefix: tuple[int, ...],
    start: int,
    best: list,
) -> None:
    """The walk of _best_subset below ``prefix``, whose extensions take
    members from ``members[start]`` on; ``best`` is [value, subset] so far.

    A plain function, not a closure: a closure that calls itself is a
    reference cycle, which would keep ``value`` (and the memos it may hold)
    alive until the cyclic garbage collector runs.
    """
    n = len(members)
    for i in range(start, n):
        combo = prefix + (members[i],)
        val = value(combo)
        if val > best[0]:
            best[:] = val, combo
        if len(combo) < max_size and i + 1 < n and (
            bound is None or i + 2 == n or bound(combo + members[i + 1:]) > best[0]
        ):
            _walk(value, bound, members, max_size, combo, i + 1, best)


def _summed(pairs: Iterable[tuple[frozenset[int], float]]) -> ExactResult:
    """Sum per-function (witness, value) pairs in function order."""
    total = 0.0
    witnesses = []
    for witness, val in pairs:
        witnesses.append(witness)
        total += val
    return ExactResult(total, tuple(witnesses))


def _exact_feasible(
    oracle: Oracle, members: Sequence[int], k: int
) -> tuple[frozenset[int], float]:
    """Best subset of the ascending ``members`` with at most k items.

    A monotone function is its own bound on the walk (see _best_subset).  The
    bound holds in floats: coverage and modular values are correctly rounded
    totals, and facility location adds non-negative per-client maxima, each
    of which grows with the set, left to right from 0.0, and rounded float
    addition is monotone.
    """
    bound = oracle.eval if oracle.descriptor.monotone else None
    val, tup = _best_subset(oracle.eval, members, k, bound)
    return frozenset(tup), val


def evaluate_F_exact(instance: Instance, S: Iterable[int]) -> ExactResult:
    """Exact two-stage value of the reduced set S: per function, the best
    subset of S with at most k items, found by the walk of _best_subset,
    pruned for a monotone function.

    Guarded: refuses, before any oracle call, when S has more than 10^6 such
    subsets; each function then makes fewer than 2 * 10^6 calls.
    """
    S = frozenset(S)
    if _exceeds(_exact_eval_terms(len(S), instance.k), EXACT_EVAL_GUARD):
        raise GuardExceededError(
            f"exact evaluation of a {len(S)}-item set with k={_int_text(instance.k)} "
            f"enumerates more than {EXACT_EVAL_GUARD} subsets per function, with up to "
            "twice as many subset evaluations per function; use evaluate_F_greedy instead"
        )
    members = sorted(S)
    return _summed(_exact_feasible(o, members, instance.k) for o in instance.oracles())


def _greedy_feasible(oracle: Oracle, S: Iterable[int], k: int) -> tuple[frozenset[int], float]:
    """Build one feasible set by strictly-improving greedy restricted to S.

    Each A + x is valued as a move from A (``Oracle.eval``'s ``near``): the
    same float as a whole-set value, at a fraction of its cost.
    """
    pool = sorted(S)
    A: frozenset[int] = frozenset()
    current = oracle.eval(A)
    for _ in range(k):
        best_gain = 0.0
        best_item = None
        best_value = current
        for x in pool:
            if x in A:
                continue
            val = oracle.eval(A | {x}, A)
            gain = val - current
            if gain > best_gain:
                best_gain = gain
                best_item = x
                best_value = val
        if best_item is None:
            break
        A |= {best_item}
        current = best_value
    return A, current


def evaluate_F_greedy(instance: Instance, S: Iterable[int]) -> ExactResult:
    """Greedy surrogate for the two-stage value: per function, k rounds of
    adding the best strictly-improving item of S, stopping early when nothing
    improves.  The witnesses are those greedy sets; the value never exceeds
    the exact one."""
    S = frozenset(S)
    return _summed(_greedy_feasible(o, S, instance.k) for o in instance.oracles())


def brute_force_optimum(instance: Instance) -> ExactResult:
    """Optimal reduced set by enumerating every S with |S| <= l.

    Ties resolve to the lexicographically smallest S.  Each function has one
    memoised oracle for the whole search, and F(S) sums, in function order,
    each function's maximum over the subsets of S with at most k items: one
    of its values, whatever the order, so the float evaluate_F_exact returns.
    """
    if _exceeds(_brute_force_terms(instance), BRUTE_FORCE_GUARD):
        raise GuardExceededError(
            f"brute-force optimum needs more than {BRUTE_FORCE_GUARD} oracle calls"
        )
    k = instance.k
    oracles = instance.oracles([{} for _ in instance.functions])

    def value(S: tuple[int, ...]) -> float:
        subsets = [frozenset(c) for j in range(min(k, len(S)) + 1)
                   for c in itertools.combinations(S, j)]
        total = 0.0
        for oracle in oracles:
            total += max(map(oracle.eval, subsets))
        return total

    best_val, best_tup = _best_subset(value, range(instance.n), instance.l)
    return ExactResult(best_val, frozenset(best_tup))


def random_baseline(instance: Instance, seed: int) -> TwoStageSolution:
    """Uniformly random size-l reduced set with greedy feasible sets.

    A control: any advantage of the guided reductions must show up against
    this."""
    rng = random.Random(seed)
    S = frozenset(rng.sample(range(instance.n), instance.l))
    oracles = instance.oracles()
    Ts = tuple(_greedy_feasible(o, S, instance.k)[0] for o in oracles)
    return TwoStageSolution(S, Ts, sum(o.eval_count for o in oracles), seed)
