"""Property tests (hypothesis) for all four kinds: coverage, facility location,
graph cut and modular, with every weight drawn from helpers.ADVERSARIAL_WEIGHTS.

The seeded sweeps in test_functions.py and test_solver.py sample ordinary
weights; here hypothesis searches the adversarial pool, n <= 7, for a move
that differs from a whole-set value (from one base or along a chain of
bases), a grown state whose total differs from the grown set's, a trim that
loses value, keeps a member whose removal would raise it or differs from
helpers.ref_trim, a monotone trim that makes a call or drops a member, a
monotone swap or removal worth more than the add or the set, a pruned exact
report that differs from full enumeration, a blank round that changes S
or a feasible set, a graph cut whose adjacency sums differ from its toggled
cut, and a scoring pass that is reused for a changed set, budget or item, or
re-scores an unchanged one.  It also runs both solvers and the greedy reports
on instances of up to three such functions against helpers.ref_solve and
helpers.ref_greedy, brute force against helpers.ref_brute_force, local_gain
and score_items against helpers.expected_local_gain, and checks that each
solver's feasible sets stay below the exact report of its S, whose witnesses
replay to its value.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twostage.exceptions import ValidationError
from twostage.functions import Coverage, FacilityLocation, GraphCut, Modular, Oracle
from twostage.instances import Instance
from twostage.local_search import local_gain, score_items
from twostage.reference import (
    _exact_feasible,
    _greedy_feasible,
    brute_force_optimum,
    evaluate_F_exact,
    evaluate_F_greedy,
    exact_eval_cost,
    random_baseline,
)
from twostage.solver import feasible_sets_value, replacement_greedy, sampling_greedy, trim

from helpers import (
    ADVERSARIAL_CUT,
    ADVERSARIAL_WEIGHTS,
    assert_solves_like_reference,
    expected_local_gain,
    ref_brute_force,
    ref_greedy,
    ref_trim,
    ref_value,
)

weights = st.sampled_from(ADVERSARIAL_WEIGHTS)


@st.composite
def coverages(draw, n: int) -> Coverage:
    m = draw(st.integers(1, 2 * n))
    covers = st.frozensets(st.integers(0, m - 1))
    return Coverage(
        tuple(draw(st.lists(weights, min_size=m, max_size=m))),
        tuple(draw(st.lists(covers, min_size=n, max_size=n))),
    )


@st.composite
def facilities(draw, n: int) -> FacilityLocation:
    rows = st.lists(weights, min_size=n, max_size=n).map(tuple)
    return FacilityLocation(tuple(draw(st.lists(rows, max_size=4))))


@st.composite
def graph_cuts(draw, n: int) -> GraphCut:
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.dictionaries(st.sampled_from(pairs), weights)) if pairs else {}
    return GraphCut(tuple((u, v, w) for (u, v), w in sorted(chosen.items())))


# Weights whose sums round away the smaller: 1 + 5e-324 == 1 and 2**53 + 1 == 2**53.
TIGHT_WEIGHTS = (5e-324, 1.0, 2.0**53)


@st.composite
def shaped_cuts(draw, n: int) -> GraphCut:
    """A star or a path over a drawn order of range(n), its edges weighted in
    turn by a drawn order of TIGHT_WEIGHTS, so that any three edges in a row
    carry all three: a removal marginal that rounds to 0 is then common.
    Independent weights made such cuts too rare for the search to reach the
    star cut below."""
    order = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        pairs = [(order[0], v) for v in order[1:]]
    else:
        pairs = list(zip(order, order[1:]))
    ws = draw(st.permutations(TIGHT_WEIGHTS))
    return GraphCut(tuple((min(u, v), max(u, v), ws[i % 3]) for i, (u, v) in enumerate(pairs)))


@st.composite
def modulars(draw, n: int) -> Modular:
    return Modular(tuple(draw(st.lists(weights, min_size=n, max_size=n))))


def descriptors(n: int):
    return st.one_of(coverages(n), facilities(n), graph_cuts(n), shaped_cuts(n), modulars(n))


@st.composite
def sized_descriptors(draw):
    """(n, descriptor)"""
    n = draw(st.integers(1, 7))
    return n, draw(descriptors(n))


@st.composite
def cases(draw):
    """(n, descriptor, a subset of range(n))"""
    n, descriptor = draw(sized_descriptors())
    return n, descriptor, draw(st.frozensets(st.integers(0, n - 1)))


@st.composite
def instances(draw) -> Instance:
    n = draw(st.integers(1, 7))
    functions = draw(st.lists(descriptors(n), min_size=1, max_size=3))
    return Instance(n, draw(st.integers(1, 3)), draw(st.integers(1, n)), tuple(functions))


# derandomize: the suite explores the same examples on every run.
search = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@search
@given(cases())
def test_every_kernel_move_is_the_whole_set_value(case):
    n, descriptor, T = case
    oracle = Oracle(descriptor, n)
    for x in sorted(set(range(n)) - T):
        for y in [None, *sorted(T)]:
            move = T | {x} if y is None else (T | {x}) - {y}
            got, want = oracle.eval(move, near=T), descriptor.value(move)
            assert got.hex() == want.hex(), (sorted(move), got, want)


@search
@given(cases())
# The star cut of test_solver.py::TestTrim::test_star_cut_keeps_no_harmful_member,
# where a removal marginal rounds to 0 before a later removal.
@example((4, GraphCut(((0, 3, 5e-324), (1, 3, 1.0), (2, 3, 2.0**53))), frozenset({0, 2, 3})))
def test_trim_keeps_the_value_and_no_harmful_member(case):
    n, descriptor, B = case
    A = trim(Oracle(descriptor, n), B)
    value = descriptor.value
    assert value(A) >= value(B)
    assert [x for x in sorted(A) if value(A) - value(A - {x}) < 0] == []


@search
@given(cases().filter(lambda case: case[1].monotone))
def test_a_monotone_trim_keeps_every_member_at_no_call(case):
    n, descriptor, B = case
    oracle = Oracle(descriptor, n)
    A = trim(oracle, sorted(B))
    assert type(A) is frozenset and A == B and oracle.eval_count == 0
    with pytest.raises(ValidationError, match=f"item {n} out of range, ground set has {n} items"):
        trim(oracle, B | {n})
    assert oracle.eval_count == 0


@search
@given(cases())
# Both {1, 2} and {0} are worth 3.0: an ascending pass keeps {1, 2}, a
# descending one {0}.
@example((3, GraphCut(((0, 1, 1.0), (0, 2, 2.0))), frozenset({0, 1, 2})))
def test_trim_is_the_reference_trim(case):
    n, descriptor, B = case
    assert trim(Oracle(descriptor, n), B) == ref_trim(descriptor, B)


@search
@given(sized_descriptors())
# Ties: item 0's column is all zero, items 1 and 2 have equal columns.
@example((4, FacilityLocation(((0.0, 1.0, 1.0, 0.1), (0.0, 0.2, 0.2, 0.3)))))
# Ties: items 0 and 1 cover the same elements, item 3 covers none.
@example((4, Coverage((1.0, 1.0, 0.1), (frozenset({0, 1}),) * 2 + (frozenset({2}), frozenset()))))
# Marginals from 5e-324 to 2**53 and 1e16, which a float sum of the k-aware
# bound would round away.
@example((6, ADVERSARIAL_CUT))
# Ties: the star's leaves are worth the same, so a later sibling can hold the
# best value when the walk decides whether to skip below an earlier one.
@example((5, GraphCut(((0, 4, 1.0), (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)))))
def test_pruned_exact_report_is_full_enumeration(case):
    # Every S and every k up to |S|, for every kind: the monotone bound and
    # graph cut's k-aware bound.  The memo makes repeated sets cheap; each
    # call still counts.
    n, descriptor = case
    subsets = [c for j in range(n + 1) for c in itertools.combinations(range(n), j)]
    value, memo = dict(zip(subsets, map(descriptor.value, subsets))), {}
    for S in subsets:
        for k in range(len(S) + 1):
            oracle = Oracle(descriptor, n, memo)
            witness, got = _exact_feasible(oracle, S, k)
            feasible = (c for j in range(k + 1) for c in itertools.combinations(S, j))
            tup = min(feasible, key=lambda c: (-value[c], c))
            assert (got.hex(), witness) == (value[tup].hex(), frozenset(tup)), (S, k)
            # The k-aware bound makes no call.
            calls = exact_eval_cost(len(S), k) * (1 if isinstance(descriptor, GraphCut) else 2)
            assert oracle.eval_count <= calls


@search
@given(cases())
@example((6, ADVERSARIAL_CUT, frozenset({0, 2, 3})))
def test_grow_is_the_state_of_the_grown_set(case):
    # Grown from the empty set through T's items in ascending order, then
    # from T by every item outside it.
    n, descriptor, T = case
    order = sorted(T)
    steps = [(frozenset(order[:i]), x) for i, x in enumerate(order)]
    steps += [(T, x) for x in sorted(set(range(n)) - T)]
    states = {frozenset(): descriptor._state(())}
    for before, x in steps:
        grown = states[before | {x}] = descriptor._grow(states[before], x)
        whole = descriptor._state(before | {x})
        total = descriptor._total(whole).hex()
        assert descriptor._total(grown).hex() == total, (sorted(before), x)
        assert descriptor._join(states[before], x).hex() == total, (sorted(before), x)
        if not isinstance(descriptor, FacilityLocation):
            assert descriptor._exact(grown) == descriptor._exact(whole), (sorted(before), x)


@st.composite
def multigraph_cuts(draw, n: int) -> GraphCut:
    """A cut whose edges may repeat a pair, either way round, and may leave
    vertices isolated or the cut edgeless."""
    pairs = list(itertools.permutations(range(n), 2))
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), weights), max_size=12)) if pairs else []
    return GraphCut(tuple((u, v, w) for (u, v), w in edges))


@st.composite
def cut_cases(draw):
    """(n, cut, a subset of range(n), ids outside 0 .. n-1)"""
    n = draw(st.integers(1, 7))
    cut = draw(st.one_of(multigraph_cuts(n), graph_cuts(n), shaped_cuts(n)))
    T = draw(st.frozensets(st.integers(0, n - 1)))
    return n, cut, T, draw(st.frozensets(st.sampled_from((-1, n, n + 5))))


def toggled_total(cut: GraphCut, A) -> int:
    """The cut total of A as a multiple of 1 / cut._scale: each member
    toggles its edges in and out of the cut, then the cut's weights are
    summed as Fractions."""
    inside = set()
    for x in set(A):
        inside ^= {i for i, (u, v, _) in enumerate(cut.edges) if x in (u, v)}
    total = sum(Fraction(cut.edges[i][2]) for i in inside) * cut._scale
    assert total.denominator == 1
    return total.numerator


@search
@given(cut_cases())
@example((6, ADVERSARIAL_CUT, frozenset({0, 2, 3}), frozenset()))
@example((4, GraphCut(((0, 3, 5e-324), (1, 3, 1.0), (2, 3, 2.0**53))), frozenset({0, 2, 3}),
          frozenset({4})))
# Parallel edges, one written the other way round; vertex 2 has no edge.
@example((4, GraphCut(((0, 1, 0.1), (1, 0, 0.2), (0, 1, 2.0**53), (1, 3, 5e-324))),
          frozenset({1}), frozenset({-1, 9})))
@example((3, GraphCut(()), frozenset({0, 2}), frozenset({3})))
def test_graph_cut_adjacency_is_the_toggled_cut(case):
    # Whole values, exact totals, gains, grown states and every add and swap
    # from T: the reference floats and the toggled int totals.  Ids outside
    # 0 .. n-1 are never endpoints, so they add nothing.
    n, cut, T, outside = case
    ref = ref_value(cut)
    A = T | outside
    state = cut._state(A)
    assert cut.value(A).hex() == ref(A).hex()
    assert cut._exact(state) == toggled_total(cut, A) == toggled_total(cut, T)
    oracle = Oracle(cut, n)
    for x in sorted(set(range(n)) - T):
        assert cut._gain(state, x) == toggled_total(cut, A | {x}) - toggled_total(cut, A)
        assert cut._exact(cut._grow(state, x)) == toggled_total(cut, A | {x})
        assert cut._join(state, x).hex() == ref(A | {x}).hex()
        for y in sorted(T):
            move = (T | {x}) - {y}
            assert oracle.eval(move, T).hex() == ref(move).hex(), (x, y)


@st.composite
def base_chains(draw):
    """(n, descriptor, order, lengths): the bases are the prefixes of one
    order of range(n) of the drawn lengths, so that they grow and shrink by
    one item or several."""
    n, descriptor = draw(sized_descriptors())
    order = draw(st.permutations(range(n)))
    lengths = draw(st.lists(st.integers(0, n), min_size=1, max_size=8))
    return n, descriptor, order, lengths


@search
@given(base_chains())
def test_moves_along_a_base_chain_are_whole_set_values(chain):
    # Each base is passed as a plain set, whose states the oracle builds, and
    # as a base grown (Oracle.grow) one item at a time from the empty set;
    # every add and swap from either must still be the whole-set value, at
    # one call each.
    n, descriptor, order, lengths = chain
    oracle = Oracle(descriptor, n)
    grown = [frozenset()]  # grown[j] is order[:j], grown item by item
    for j in lengths:
        T = frozenset(order[:j])
        while len(grown) <= j:
            grown.append(oracle.grow(grown[-1], order[len(grown) - 1]))
        assert grown[j] == T
        for near in (T, grown[j]):
            for x in sorted(set(range(n)) - T):
                for move in [T | {x}] + [(T | {x}) - {y} for y in sorted(T)]:
                    before = oracle.eval_count
                    got, want = oracle.eval(move, near), descriptor.value(move)
                    assert got.hex() == want.hex(), (sorted(T), sorted(move))
                    assert oracle.eval_count == before + 1


@st.composite
def crowded_instances(draw) -> Instance:
    """Instances with l = n or n - 1, so that late rounds have blank slots."""
    n = draw(st.integers(2, 7))
    functions = draw(st.lists(descriptors(n), min_size=1, max_size=3))
    return Instance(n, draw(st.integers(1, 3)), n - draw(st.integers(0, 1)), tuple(functions))


@search
@given(crowded_instances(), st.integers(0, 2**32 - 1))
def test_a_blank_round_changes_nothing(instance, seed):
    # A round adds its pick to S unless it draws a blank slot; then S and
    # every feasible set stay as they were.
    rounds = []
    solution = sampling_greedy(instance, seed, rounds.append)
    S, Ts = frozenset(), (frozenset(),) * instance.m
    for state in rounds:
        if len(state.S) == len(S):
            assert (state.S, state.Ts) == (S, Ts), state.round_index
        else:
            assert len(state.S) == len(S) + 1 and S < state.S
        S, Ts = state.S, state.Ts
    assert (solution.S, solution.Ts) == (S, Ts)


@search
@given(instances(), st.integers(0, 2**32 - 1))
def test_greedy_reports_match_the_reference(instance, seed):
    S = frozenset(random.Random(seed).sample(range(instance.n), instance.l))
    want_value, want_witnesses, want_calls = ref_greedy(instance, S)
    got = evaluate_F_greedy(instance, S)
    assert (got.value.hex(), got.witness) == (want_value.hex(), want_witnesses)
    for oracle, witness, calls in zip(instance.oracles(), want_witnesses, want_calls):
        assert _greedy_feasible(oracle, S, instance.k)[0] == witness
        assert oracle.eval_count == calls
    baseline = random_baseline(instance, seed)
    assert (baseline.S, baseline.Ts, baseline.evals) == (S, want_witnesses, sum(want_calls))


@search
@given(instances(), st.none() | st.integers(0, 2**32 - 1))
def test_solvers_match_the_reference_solver(instance, seed):
    # seed None runs replacement_greedy.
    assert_solves_like_reference(instance, seed)


@search
@given(crowded_instances(), st.none() | st.integers(0, 2**32 - 1))
def test_solvers_match_the_reference_solver_across_blank_rounds(instance, seed):
    # A blank round leaves every set as it was, so the next round scores
    # every function from its kept pass, at no call.
    assert_solves_like_reference(instance, seed)


@search
@given(cases().filter(lambda case: case[1].monotone))
def test_a_monotone_add_is_worth_every_swap_and_every_removal(case):
    # What score_items and trim rest on, in rounded values: f(T + x), as the
    # move scoring values, is at least every swap f(T + x - y), and no
    # removal f(T - x) is worth more than f(T).
    n, descriptor, T = case
    oracle = Oracle(descriptor, n)
    for x in sorted(set(range(n)) - T):
        add = oracle.eval(T | {x}, T)
        for y in sorted(T):
            assert add >= oracle.eval((T | {x}) - {y}, T), (x, y)
    value = descriptor.value(T)
    for x in sorted(T):
        assert value >= descriptor.value(T - {x}), x


@st.composite
def scored_sets(draw):
    """(n, k, descriptors, one set of at most k items per descriptor)"""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, n))
    functions = draw(st.lists(descriptors(n), min_size=1, max_size=3))
    Ts = [draw(st.frozensets(st.integers(0, n - 1), max_size=k)) for _ in functions]
    return n, k, functions, Ts


@search
@given(scored_sets())
# A full coverage set and a full facility location, where every swap counts.
@example((3, 1, [Coverage((1.0, 1.0, 1.0), (frozenset({0, 1}), frozenset({1}), frozenset({2})))],
          [frozenset({1})]))
@example((6, 2, [FacilityLocation(((1.0, 0.2, 0.5, 0.0, 0.1, 0.3), (0.0, 1.0, 0.3, 0.2, 0.0, 0.1))),
                 ADVERSARIAL_CUT], [frozenset({0, 2}), frozenset({1})]))
def test_score_items_totals_are_the_summed_local_gains(case):
    n, k, functions, Ts = case
    oracles = [Oracle(descriptor, n) for descriptor in functions]
    for x, total in score_items(oracles, Ts, range(n), k):
        want = 0.0
        for descriptor, T in zip(functions, Ts):
            want += expected_local_gain(descriptor, x, T, k)[0]
        assert total.hex() == want.hex(), x
    # One base per function; per outside item, the add alone for a monotone
    # function whose set has room, else every swap and, with room, the add.
    for oracle, descriptor, T in zip(oracles, functions, Ts):
        room = len(T) < k
        per_item = 1 if room and descriptor.monotone else len(T) + room
        assert oracle.eval_count == 1 + (n - len(T)) * per_item


def _scores(scored):
    return [(s.item, s.total_score.hex()) for s in scored]


def _calls(oracles):
    return [oracle.eval_count for oracle in oracles]


@search
@given(scored_sets(), st.data())
def test_a_second_pass_over_equal_sets_reuses_the_first_at_no_call(case, data):
    # Equal sets, not the same objects, and the items in another order or
    # only some of them: the same floats, and no call at all.
    n, k, functions, Ts = case
    oracles = [Oracle(descriptor, n) for descriptor in functions]
    first = score_items(oracles, Ts, range(n), k)
    calls = _calls(oracles)
    again = score_items(oracles, [set(T) for T in Ts], reversed(range(n)), k)
    assert _scores(again) == _scores(first) and _calls(oracles) == calls
    items = data.draw(st.frozensets(st.integers(0, n - 1)))
    part = score_items(oracles, [frozenset(sorted(T)) for T in Ts], items, k)
    assert _scores(part) == [s for s in _scores(first) if s[0] in items]
    assert _calls(oracles) == calls


@search
@given(scored_sets(), st.data())
def test_a_changed_set_k_or_item_scores_anew(case, data):
    # Against oracles that scored (Ts, range(n) - {z}, k): a changed set, a
    # larger k or the unscored item z gets today's scores at today's calls,
    # those of fresh oracles, and an unchanged set under the same k and items
    # makes no call.
    n, k, functions, Ts = case
    z = data.draw(st.integers(0, n - 1))
    unscored = [x for x in range(n) if x != z]

    def scored_once():
        oracles = [Oracle(descriptor, n) for descriptor in functions]
        score_items(oracles, Ts, unscored, k)
        return oracles

    def check(oracles, sets, items, budget, changed):
        before = _calls(oracles)
        got = score_items(oracles, sets, items, budget)
        fresh = [Oracle(descriptor, n) for descriptor in functions]
        assert _scores(got) == _scores(score_items(fresh, sets, items, budget))
        spent = [after - b for after, b in zip(_calls(oracles), before)]
        assert spent == [c if again else 0 for c, again in zip(_calls(fresh), changed)]

    moved = [data.draw(st.booleans()) for _ in Ts]
    sets = [
        data.draw(st.frozensets(st.integers(0, n - 1), max_size=k).filter(lambda U, T=T: U != T))
        if move else T
        for T, move in zip(Ts, moved)
    ]
    check(scored_once(), sets, unscored, k, moved)
    check(scored_once(), Ts, unscored, k + 1, [True] * len(Ts))
    check(scored_once(), Ts, range(n), k, [True] * len(Ts))


@search
@given(cases())
def test_local_gain_is_the_exhaustive_reference(case):
    n, descriptor, A = case
    for x in range(n):
        for k in range(len(A), n + 1):
            got = local_gain(Oracle(descriptor, n), x, A, k)
            gain, after = expected_local_gain(descriptor, x, A, k)
            assert (got.gain.hex(), got.after) == (gain.hex(), after), (x, k)


@search
@given(instances(), st.none() | st.integers(0, 2**32 - 1))
def test_feasible_sets_stay_below_the_exact_report(instance, seed):
    # seed None runs replacement_greedy.
    if seed is None:
        solution = replacement_greedy(instance)
    else:
        solution = sampling_greedy(instance, seed)
    S = solution.S
    report = evaluate_F_exact(instance, S)
    assert feasible_sets_value(instance, solution.Ts) <= report.value
    replay = 0.0
    for descriptor, witness in zip(instance.functions, report.witness, strict=True):
        assert witness <= S and len(witness) <= instance.k
        replay += descriptor.value(witness)
    assert replay.hex() == report.value.hex()


@search
@given(instances())
def test_brute_force_is_the_reference_brute_force(instance):
    got = brute_force_optimum(instance)
    value, S = ref_brute_force(instance)
    assert (got.value.hex(), got.witness) == (value.hex(), S)
