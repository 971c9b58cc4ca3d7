"""Property tests (hypothesis) for all four kinds: coverage, facility location,
graph cut and modular, with every weight drawn from helpers.ADVERSARIAL_WEIGHTS.

The seeded sweeps in test_functions.py and test_solver.py sample ordinary
weights; here hypothesis searches the adversarial pool, n <= 7, for a kernel
move that differs from a whole-set value, or a trim that loses value or keeps
a member of a monotone function's set whose removal would raise it.  It also
runs both solvers on instances of up to three such functions against
helpers.ref_solve.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.functions import Coverage, FacilityLocation, GraphCut, Modular, Oracle
from twostage.instances import Instance
from twostage.solver import trim

from helpers import ADVERSARIAL_WEIGHTS, assert_solves_like_reference

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


@st.composite
def modulars(draw, n: int) -> Modular:
    return Modular(tuple(draw(st.lists(weights, min_size=n, max_size=n))))


def descriptors(n: int):
    return st.one_of(coverages(n), facilities(n), graph_cuts(n), modulars(n))


@st.composite
def cases(draw):
    """(n, descriptor, a subset of range(n))"""
    n = draw(st.integers(1, 7))
    return n, draw(descriptors(n)), draw(st.frozensets(st.integers(0, n - 1)))


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
def test_trim_keeps_the_value_and_no_harmful_member(case):
    n, descriptor, B = case
    A = trim(Oracle(descriptor, n), B)
    value = descriptor.value
    assert value(A) >= value(B)
    # A graph cut can keep one by rounding: see
    # test_solver.py::TestTrim::test_star_cut_keeps_no_harmful_member.
    if descriptor.monotone:
        assert [x for x in sorted(A) if value(A) - value(A - {x}) < 0] == []


@search
@given(instances(), st.none() | st.integers(0, 2**32 - 1))
def test_solvers_match_the_reference_solver(instance, seed):
    # seed None runs replacement_greedy.
    assert_solves_like_reference(instance, seed)
