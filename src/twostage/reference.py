"""Exact reference oracles and baseline algorithms for small instances.

The two-stage objective F(S) sums, over functions, the best value of any
subset of S within the cardinality budget.  That inner maximization is
NP-hard in general, so the exact routines here enumerate, pruning where a
function is monotone, and are protected by explicit guards on the size of the
enumeration, which raise GuardExceededError before any oracle call; the
greedy surrogate scales instead.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def _walk(
    oracle: Oracle, k: int, members: tuple[int, ...], parent: tuple[int, ...],
    near: frozenset[int], best: list,
) -> None:
    """The exact report's walk below ``parent``, held as the base ``near``:
    the subsets that add at most k - |parent| of the ascending ``members``
    to it.  ``best`` is [value, subset] so far; ties go to the
    lexicographically smaller tuple.

    A depth-first walk values all the children of a node, each a move from
    it (singletons from the empty set), then visits them in order, each as a
    base grown from the node's (``Oracle.grow``).  Before visiting, it bounds
    each child but the last: no subset below the child, which adds later
    members to it, is worth more.  It skips the subsets below a child whose
    bound is less than the best so far, or equal to it with a best that
    precedes the child: none of them can beat the best, and each is
    lexicographically later than the child.

    A plain function, not a closure: a closure that calls itself is a
    reference cycle, which would keep the oracle (its states and memo) alive
    until the cyclic garbage collector runs.
    """
    children = [parent + (x,) for x in members]
    for child in children:
        val = oracle.eval(child, near)
        if val > best[0] or (val == best[0] and child < best[1]):
            best[:] = val, child
    if len(parent) + 1 == k or len(children) < 2:
        return
    if oracle.descriptor.monotone:
        bounds = _monotone_bounds(oracle, near, members)
    else:
        bounds = _cut_bounds(oracle, k, near, members)
    for i, child in enumerate(children[:-1]):
        if bounds[i] < best[0] or (bounds[i] == best[0] and best[1] < child):
            continue
        _walk(oracle, k, members[i + 1:], child, oracle.grow(near, child[-1]), best)


def _monotone_bounds(
    oracle: Oracle, near: frozenset[int], members: tuple[int, ...]
) -> list[float]:
    """f(child + every later member) per child near + members[i], for a
    monotone function.

    The child before the last has one extension, which the walk values at
    the same cost, so its bound is infinite.  The others are valued from the
    last child down, each an add move from the next one's bound set, a
    grown base.
    """
    bounds = [math.inf] * (len(members) - 1)
    if len(members) > 2:
        base = oracle.grow(near, members[-1])
        for i in range(len(members) - 2, 0, -1):
            base = oracle.grow(base, members[i])
            bounds[i - 1] = oracle.eval(base | {members[i - 1]}, base)
    return bounds


def _cut_bounds(
    oracle: Oracle, k: int, near: frozenset[int], members: tuple[int, ...]
) -> list[float]:
    """The k-aware submodular bound per child c = parent + x, at no call.

    For submodular f and any set Y of at most r = k - |c| later members,
    f(c + Y) <= f(c) + the sum over y in Y of f(parent + y) - f(parent)
    (Nemhauser, Wolsey and Fisher 1978), so the bound is f(c) plus the r
    largest positive of those sibling marginals.  It is summed in exact ints
    from the state of near, the parent, and rounded once: rounding is
    monotone, so no subset below c has a larger float value.
    """
    descriptor = oracle.descriptor
    state = oracle._state_of(near)
    total = descriptor._exact(state)
    gains = [descriptor._gain(state, x) for x in members]
    room = k - len(near) - 1
    top: list[int] = []  # the room largest positive gains after child i, ascending
    bounds = [math.inf] * (len(members) - 1)
    for i in range(len(members) - 2, -1, -1):
        if gains[i + 1] > 0:
            bisect.insort(top, gains[i + 1])
            del top[:-room]
        try:
            bounds[i] = (total + gains[i] + sum(top)) / descriptor._scale
        except OverflowError:
            pass  # past the largest float: no bound
    return bounds


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
    """Best subset of the ascending ``members`` with at most k items, by
    _walk from the empty set.

    A monotone function is its own bound (_monotone_bounds), which holds in
    floats: coverage and modular values are correctly rounded totals, and
    facility location adds non-negative per-client maxima, each of which
    grows with the set, left to right from 0.0, and rounded float addition is
    monotone.  A graph cut takes the k-aware bound (_cut_bounds).
    """
    best = [oracle.eval(()), ()]
    if k > 0:
        _walk(oracle, k, tuple(members), (), frozenset(), best)
    return frozenset(best[1]), best[0]


def evaluate_F_exact(instance: Instance, S: Iterable[int]) -> ExactResult:
    """Exact two-stage value of the reduced set S: per function, the best
    subset of S with at most k items, found by a pruned walk (_walk).

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
    same float as a whole-set value, at a fraction of its cost.  Each round's
    A is grown from the last (``Oracle.grow``); a plain frozenset is returned.
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
        A = oracle.grow(A, best_item)
        current = best_value
    return frozenset(A), current


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

    sets = (S for j in range(instance.l + 1)
            for S in itertools.combinations(range(instance.n), j))
    negated, best = min((-value(S), S) for S in sets)
    return ExactResult(-negated, frozenset(best))


def random_baseline(instance: Instance, seed: int) -> TwoStageSolution:
    """Uniformly random size-l reduced set with greedy feasible sets.

    A control: any advantage of the guided reductions must show up against
    this."""
    rng = random.Random(seed)
    S = frozenset(rng.sample(range(instance.n), instance.l))
    oracles = instance.oracles()
    Ts = tuple(_greedy_feasible(o, S, instance.k)[0] for o in oracles)
    return TwoStageSolution(S, Ts, sum(o.eval_count for o in oracles), seed)
