"""Shared builders and property sweeps used by unit and acceptance tests.

Reference values here are computed by deliberately different code paths than
the library (element-centric coverage, pairwise cut loops), so agreement is
evidence rather than tautology.
"""

from __future__ import annotations

import io
import itertools
import math
import random
from fractions import Fraction

from twostage.functions import Coverage, FacilityLocation, GraphCut, Modular
from twostage.harness import write_csv
from twostage.solver import RoundState, replacement_greedy, sampling_greedy


def zoo_coverage() -> Coverage:
    """Four unit-weight universe elements, three items: {0,1}, {1,2}, {3}."""
    return Coverage((1.0, 1.0, 1.0, 1.0), (frozenset({0, 1}), frozenset({1, 2}), frozenset({3})))


def path_cut() -> GraphCut:
    """Unit-weight path 0 - 1 - 2."""
    return GraphCut(((0, 1, 1.0), (1, 2, 1.0)))


# Adversarial finite weights: zero, the smallest subnormal, 2**53 (past which
# + 1.0 is lost), 1e16, exact ties, and ordinary fractions.
ADVERSARIAL_WEIGHTS = (0.0, 5e-324, 2.0**53, 1e16, 0.1, 0.2, 0.3, 1.0)

# A 6-item cut on which a left-to-right sum of the cut weights made
# trim(range(6)) keep items 1 and 2 with a removal marginal of -2.0.
ADVERSARIAL_CUT = GraphCut(
    (
        (0, 1, 0.3), (0, 2, 0.2), (0, 3, 2.0**53), (0, 4, 5e-324), (0, 5, 5e-324),
        (1, 2, 1.0), (1, 4, 0.1), (1, 5, 0.0), (2, 4, 1.0), (3, 4, 1e16),
    )
)


# ---------------------------------------------------------------------------
# Independent reference value functions.  Ids outside 0 .. n-1 add nothing.
# Coverage, graph cut and modular are correctly rounded (math.fsum); facility
# location adds each client's best similarity left to right.

def ref_coverage_value(weights, covers, items) -> float:
    members = [x for x in items if 0 <= x < len(covers)]
    return math.fsum(
        w for u, w in enumerate(weights) if any(u in covers[x] for x in members)
    )


def ref_facility_value(similarity, items) -> float:
    total = 0.0
    for row in similarity:
        best = 0.0
        for x in items:
            if 0 <= x < len(row) and row[x] > best:
                best = row[x]
        total += best
    return total


def ref_cut_value(edges, items) -> float:
    return math.fsum(w for u, v, w in edges if (u in items) + (v in items) == 1)


def ref_modular_value(values, items) -> float:
    return math.fsum(values[x] for x in set(items) if 0 <= x < len(values))


def ref_value(descriptor):
    """The reference value function of a descriptor, over an item set."""
    if isinstance(descriptor, Coverage):
        return lambda A: ref_coverage_value(descriptor.universe_weights, descriptor.covers, A)
    if isinstance(descriptor, FacilityLocation):
        return lambda A: ref_facility_value(descriptor.similarity, A)
    if isinstance(descriptor, GraphCut):
        return lambda A: ref_cut_value(descriptor.edges, A)
    return lambda A: ref_modular_value(descriptor.values, A)


def ref_trim(descriptor, B, value=None):
    """trim(Oracle(descriptor, n), B) transcribed from README "Algorithms":
    one pass in ascending id order drops each member whose removal marginal
    is negative.  A graph cut's float tie goes to exact Fraction cut totals,
    which make no call.  ``value`` values a set (the ref_value of descriptor
    by default)."""
    value = ref_value(descriptor) if value is None else value

    def exact_cut(A):
        return sum(Fraction(w) for u, v, w in descriptor.edges if (u in A) + (v in A) == 1)

    kept = set(B)
    current = value(kept)
    cut = isinstance(descriptor, GraphCut)
    for x in sorted(B):
        without = value(kept - {x})
        if current - without < 0 or (
            current == without and cut and exact_cut(kept - {x}) > exact_cut(kept)
        ):
            kept.discard(x)
            current = without
    return frozenset(kept)


def ref_greedy(instance, S):
    """evaluate_F_greedy(instance, S) transcribed from its docstring, every
    set valued whole by ref_value: (value, witnesses, calls per function).

    Per function: k rounds, each adding the item of S, in ascending id order,
    with the largest strictly positive gain; a round with none ends it.
    """
    total, witnesses, calls = 0.0, [], []
    for descriptor in instance.functions:
        value = ref_value(descriptor)
        A = frozenset()
        current, count = value(A), 1
        for _ in range(instance.k):
            best_gain, best = 0.0, None
            for x in sorted(set(S) - A):
                val = value(A | {x})
                count += 1
                if val - current > best_gain:
                    best_gain, best = val - current, (x, val)
            if best is None:
                break
            A, current = A | {best[0]}, best[1]
        witnesses.append(A)
        calls.append(count)
        total += current
    return total, tuple(witnesses), calls


def ref_brute_force(instance):
    """brute_force_optimum(instance) transcribed from its definition:
    (value, S), every set valued whole by ref_value.

    Every S with |S| <= l, in lexicographic order of its sorted items; F(S)
    sums, in function order, each function's max over the subsets of S with
    at most k items; the first maximum wins.
    """
    values = [ref_value(d) for d in instance.functions]
    candidates = sorted(
        S for size in range(instance.l + 1)
        for S in itertools.combinations(range(instance.n), size)
    )
    best = None
    for S in candidates:
        subsets = [A for j in range(min(instance.k, len(S)) + 1)
                   for A in itertools.combinations(S, j)]
        total = 0.0
        for value in values:
            total += max(value(A) for A in subsets)
        if best is None or total > best[0]:
            best = (total, frozenset(S))
    return best


def ref_solve(instance, seed):
    """sampling_greedy(instance, seed), or replacement_greedy(instance) for
    seed None, transcribed from README "Algorithms": (S, Ts, evals, rounds).

    Every set is valued whole by the ref_*_value functions, with no oracle,
    memo or move state.  Every move is valued, so each score is checked in
    full, but only the calls the solver makes are counted: a function whose
    T is the one its last counted pass scored counts none, and each of its
    gains must be the one that pass found; scoring a monotone function whose
    T has room counts its adds alone, which must give the best gain; and trim
    counts none on a monotone function, where ref_trim must keep every
    member.  Trim is ref_trim.
    """
    n, k, l = instance.n, instance.k, instance.l
    rng = None if seed is None else random.Random(seed)
    top = 1 if rng is None else l
    values = [ref_value(d) for d in instance.functions]
    monotone = [d.monotone for d in instance.functions]
    calls = 0

    def f(i, A, counted=True):
        nonlocal calls
        calls += counted
        return values[i](A)

    def best_move(i, T, x, base, counted=True):
        # Swaps in ascending victim id, then the add; only a strict gain wins.
        gain, after = 0.0, T
        for candidate in [(T | {x}) - {y} for y in sorted(T)] + ([T | {x}] if len(T) < k else []):
            g = f(i, candidate, counted) - base
            if g > gain:
                gain, after = g, candidate
        return gain, after

    S, Ts, rounds = set(), [frozenset()] * len(values), []
    # Per function, the T its last counted pass scored and that pass's gains.
    scored, held = [None] * len(values), [None] * len(values)
    for r in range(1, l + 1):
        unpicked = [x for x in range(n) if x not in S]
        gains = []
        for i, T in enumerate(Ts):
            fresh = T != scored[i]
            base = f(i, T, fresh)
            gain_of = {}
            for x in unpicked:
                if monotone[i] and len(T) < k:
                    gain = best_move(i, T, x, base, counted=False)[0]
                    assert gain == max(0.0, f(i, T | {x}, fresh) - base), (instance, i, T, x)
                else:
                    gain = best_move(i, T, x, base, fresh)[0]
                if not fresh:
                    assert gain == held[i][x], (instance, i, T, x)
                gain_of[x] = gain
            if fresh:
                scored[i], held[i] = T, gain_of
            gains.append(gain_of)
        scores = []
        for x in unpicked:
            total = 0.0
            for gain_of in gains:
                total += gain_of[x]
            scores.append((-total, x))
        M = sorted(x for _, x in sorted(scores)[:top])
        slot = 0 if rng is None else rng.randrange(top)
        if slot < len(M):
            x = M[slot]
            S.add(x)
            for i, T in enumerate(Ts):
                gain, after = best_move(i, T, x, f(i, T))
                if gain > 0.0 and monotone[i]:
                    assert ref_trim(instance.functions[i], after) == after, (instance, i, after)
                elif gain > 0.0:
                    after = ref_trim(instance.functions[i], after, lambda A: f(i, A))
                Ts[i] = after
        rounds.append(RoundState(r, frozenset(S), tuple(Ts), calls))
    return frozenset(S), tuple(Ts), calls, rounds


def assert_solves_like_reference(instance, seed) -> None:
    """sampling_greedy (replacement_greedy for seed None) returns ref_solve's
    S, Ts and evals, and reports ref_solve's rounds."""
    rounds = []
    if seed is None:
        solution = replacement_greedy(instance, rounds.append)
    else:
        solution = sampling_greedy(instance, seed, rounds.append)
    got = (solution.S, solution.Ts, solution.evals, rounds)
    assert got == ref_solve(instance, seed), (instance, seed)


# ---------------------------------------------------------------------------
# Random descriptor builders for property sweeps.

def random_coverage(rng: random.Random, n: int) -> Coverage:
    universe = rng.randrange(1, 2 * n + 1)
    weights = tuple(rng.uniform(0.0, 2.0) for _ in range(universe))
    covers = tuple(
        frozenset(u for u in range(universe) if rng.random() < 0.4) for _ in range(n)
    )
    return Coverage(weights, covers)


def random_facility(rng: random.Random, n: int) -> FacilityLocation:
    clients = rng.randrange(1, n + 2)
    return FacilityLocation(
        tuple(tuple(rng.random() for _ in range(n)) for _ in range(clients))
    )


def random_graph_cut(rng: random.Random, n: int) -> GraphCut:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, rng.random()))
    return GraphCut(tuple(edges))


def random_modular(rng: random.Random, n: int) -> Modular:
    return Modular(tuple(rng.uniform(0.0, 3.0) for _ in range(n)))


DESCRIPTOR_BUILDERS = {
    "coverage": random_coverage,
    "facility_location": random_facility,
    "graph_cut": random_graph_cut,
    "modular": random_modular,
}


def random_descriptor(rng: random.Random, kind: str, n: int):
    return DESCRIPTOR_BUILDERS[kind](rng, n)


def random_subset(rng: random.Random, pool, max_size=None) -> frozenset[int]:
    pool = sorted(pool)
    top = len(pool) if max_size is None else min(max_size, len(pool))
    size = rng.randrange(0, top + 1)
    return frozenset(rng.sample(pool, size))


def render_csv(records) -> str:
    """The CSV that write_csv produces for records, as a string."""
    buffer = io.StringIO()
    write_csv(records, buffer)
    return buffer.getvalue()


def marginal(oracle, x: int, A) -> float:
    """Gain of adding x to A: eval(A + x) - eval(A).  Two oracle calls."""
    base = frozenset(A)
    return oracle.eval(base | {x}) - oracle.eval(base)


# ---------------------------------------------------------------------------
# Property sweeps shared with the acceptance suite.  Each returns the number
# of violating samples, so a passing sweep returns 0.

def expected_local_gain(descriptor, x: int, A: frozenset[int], k: int):
    """Exhaustive reference for the best-move gain and the set it produces.

    Works straight off descriptor values with dict loops, independent of the
    library's evaluation caching.  Returns (gain, after).
    """
    if x in A:
        return 0.0, A
    base = descriptor.value(A)
    swaps = {y: descriptor.value((A | {x}) - {y}) - base for y in A}
    best_swap = max(swaps.values()) if swaps else None
    add = descriptor.value(A | {x}) - base if len(A) < k else None
    gain = 0.0
    for candidate in (best_swap, add):
        if candidate is not None and candidate > gain:
            gain = candidate
    if gain == 0.0:
        return 0.0, A
    if len(A) < k and (best_swap is None or add > best_swap):
        return gain, A | {x}
    victim = min(y for y, g in swaps.items() if g == best_swap)
    return gain, (A | {x}) - {victim}


def nonnegativity_violations(oracle, rng: random.Random, trials: int) -> int:
    bad = 0
    for _ in range(trials):
        A = random_subset(rng, range(oracle.n))
        if oracle.eval(A) < 0:
            bad += 1
    return bad


def submodularity_violations(oracle, rng: random.Random, trials: int, eps: float = 1e-9) -> int:
    ids = range(oracle.n)
    bad = 0
    for _ in range(trials):
        x = rng.choice(ids)
        pool = [y for y in ids if y != x]
        big = random_subset(rng, pool)
        small = frozenset(y for y in big if rng.random() < 0.5)
        if marginal(oracle, x, small) < marginal(oracle, x, big) - eps:
            bad += 1
    return bad


def monotonicity_violations(oracle, rng: random.Random, trials: int, eps: float = 1e-9) -> int:
    ids = range(oracle.n)
    bad = 0
    for _ in range(trials):
        x = rng.choice(ids)
        A = random_subset(rng, [y for y in ids if y != x])
        if marginal(oracle, x, A) < -eps:
            bad += 1
    return bad
