"""Function zoo and counting-oracle tests.

Frozen expected values were derived by hand or by the independent reference
implementations in helpers.py before the library code existed.
"""

import itertools
import random
import sys
from dataclasses import fields

import pytest

from twostage import functions
from twostage.exceptions import ValidationError
from twostage.functions import (
    Coverage,
    FacilityLocation,
    GraphCut,
    Modular,
    Oracle,
)
from twostage.instances import (
    Instance,
    descriptor_from_json,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from twostage.local_search import score_items

import helpers
from helpers import ADVERSARIAL_CUT, ADVERSARIAL_WEIGHTS

NAN = float("nan")
M = sys.float_info.max


class _Float(float):
    pass


class TestConstruction:
    def test_fresh_oracle_has_zero_count(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert oracle.eval_count == 0
        assert oracle.n == 3

    def test_negative_universe_weight_is_named(self):
        with pytest.raises(ValidationError, match=r"universe_weights\[1\] is negative"):
            Coverage((1.0, -2.0), (frozenset({0}),))

    def test_non_finite_weight_is_named(self):
        with pytest.raises(ValidationError, match=r"universe_weights\[0\] is not finite"):
            Coverage((float("nan"),), (frozenset(),))

    def test_cover_index_out_of_range_is_named(self):
        with pytest.raises(
            ValidationError, match=r"covers\[2\] references universe element 7, universe has 4"
        ):
            Coverage((1.0,) * 4, (frozenset({0}), frozenset(), frozenset({7})))

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match=r"edges\[0\] is a self-loop on vertex 2"):
            GraphCut(((2, 2, 1.0),))

    def test_negative_edge_weight_rejected(self):
        with pytest.raises(ValidationError, match=r"edges\[1\] weight is negative"):
            GraphCut(((0, 1, 1.0), (1, 2, -0.5)))

    def test_negative_modular_value_rejected(self):
        with pytest.raises(ValidationError, match=r"values\[1\] is negative"):
            Modular((1.0, -1.0))

    def test_ragged_similarity_rejected(self):
        with pytest.raises(ValidationError, match="similarity row 1 has length 1, expected 2"):
            FacilityLocation(((0.5, 0.25), (0.125,)))

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: Coverage((1.0,), 5), "coverage covers must be a list of lists"),
            (lambda: FacilityLocation(5), "facility_location similarity must be a list of rows"),
            (lambda: GraphCut(5), "graph_cut edges must be a list"),
            (lambda: Modular(5), "modular values must be a list"),
        ],
        ids=["coverage", "facility_location", "graph_cut", "modular"],
    )
    def test_non_list_argument_is_a_validation_error(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: Modular(("x",)), r"values\[0\] is not a number"),
            (lambda: GraphCut(((0.5, 1, 1.0),)), r"edges\[0\] endpoint must be an integer"),
            (lambda: GraphCut(((-1, 1, 1.0),)), r"edges\[0\] endpoint must be ≥ 0"),
            # Past the 4,300-digit limit, str() of an int raises; a message
            # names such an id by its size.
            (lambda: GraphCut(((-10**5000, 1, 1.0),)), r"edges\[0\] endpoint must be ≥ 0"),
            (
                lambda: Coverage((1.0,), (frozenset({-10**5000}),)),
                r"covers\[0\] references universe element -<16610-bit integer>, universe has 1",
            ),
            (
                lambda: GraphCut(((10**5000, 10**5000, 1.0),)),
                r"edges\[0\] is a self-loop on vertex <16610-bit integer>$",
            ),
            (
                lambda: Instance(1, 1, 1, (GraphCut(((0, 10**5000, 1.0),)),)),
                r"edges\[0\] endpoint <16610-bit integer> out of range for n=1$",
            ),
            (
                lambda: Instance(10**5000, 1, 1, (Modular((1.0,)),)),
                r"modular values has 1 entries, expected n=<16610-bit integer>$",
            ),
            (
                lambda: Instance(1, 1, 10**5000, (Modular((1.0,)),)),
                r"^l=<16610-bit integer> exceeds n=1$",
            ),
            (
                lambda: Oracle(Modular((1.0,)), 1).eval([10**5000]),
                r"^item <16610-bit integer> out of range, ground set has 1 items$",
            ),
        ],
        ids=["modular-value", "endpoint-float", "endpoint-negative", "endpoint-huge-negative",
             "huge-cover-element", "huge-self-loop", "huge-endpoint-vs-n", "huge-n-vs-length",
             "huge-l-exceeds-n", "huge-oracle-item"],
    )
    def test_bad_entry_is_named(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            # min() skips a NaN after position 0; the row's fsum does not.
            (lambda: Coverage((1.0, NAN), (frozenset(),)),
             r"^universe_weights\[1\] is not finite$"),
            (lambda: FacilityLocation(((0.5, 0.25), (0.5, NAN))),
             r"^similarity\[1\]\[1\] is not finite$"),
            (lambda: Modular((1.0, 2.0, NAN)), r"^values\[2\] is not finite$"),
            (lambda: Modular((1.0, float("inf"))), r"^values\[1\] is not finite$"),
            (lambda: FacilityLocation(((0.5, -1.0),)), r"^similarity\[0\]\[1\] is negative$"),
            (lambda: Modular((1.0, True)), r"^values\[1\] is not a number$"),
            (lambda: Coverage((1.0, 1.0), ([0, True],)),
             r"^covers\[0\] element must be an integer$"),
            (lambda: Coverage((1.0, 1.0), ([0], [1, [0]])),
             r"^covers\[1\] element must be an integer$"),
            (lambda: Coverage((1.0, 1.0), ([1, -1],)),
             r"^covers\[0\] references universe element -1, universe has 2 elements$"),
        ],
        ids=["nan-after-first", "fl-nan-after-first", "modular-nan-last", "inf", "negative",
             "bool-weight", "bool-cover-element", "nested-cover-list", "negative-cover-element"],
    )
    def test_first_bad_weight_or_cover_element_is_named(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize(
        ("build", "field", "want"),
        [
            (lambda: descriptor_from_json({"type": "modular", "values": [1, 2]}), "values",
             (1.0, 2.0)),
            (lambda: Modular((_Float(0.5), 0.25)), "values", (0.5, 0.25)),
            (lambda: Coverage((-0.0, 1.0), ([0], [1])), "universe_weights", (-0.0, 1.0)),
            (lambda: FacilityLocation(((0.5, -0.0),)), "similarity", ((0.5, -0.0),)),
            # The row's fsum overflows, but each weight is finite and so is
            # the client's best similarity.
            (lambda: FacilityLocation(((M, M),)), "similarity", ((M, M),)),
        ],
        ids=["json-integers", "float-subclass", "coverage-negative-zero", "fl-negative-zero",
             "fl-row-sum-overflows"],
    )
    def test_accepted_weights_are_kept_as_plain_floats(self, build, field, want):
        got = getattr(build(), field)
        if got and isinstance(got[0], tuple):
            got, want = got[0], want[0]
        assert [(type(w), w.hex()) for w in got] == [(float, w.hex()) for w in want]

    def test_edge_endpoint_checked_against_n(self):
        with pytest.raises(ValidationError, match=r"edges\[0\] endpoint 5 out of range for n=3"):
            Oracle(GraphCut(((0, 5, 1.0),)), n=3)

    def test_coverage_length_checked_against_n(self):
        with pytest.raises(ValidationError, match="covers has 3 entries, expected n=5"):
            Oracle(helpers.zoo_coverage(), n=5)

    def test_bad_ground_set_parameters(self):
        with pytest.raises(ValidationError, match="n must be ≥ 1"):
            Oracle(Modular(()), n=0)
        with pytest.raises(ValidationError, match="n must be an integer"):
            Oracle(Modular((1.0,)), n=True)


class TestEval:
    def test_path_cut_values(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert oracle.eval({1}) == 2.0
        assert oracle.eval(set()) == 0.0
        assert oracle.eval({0, 1, 2}) == 0.0
        assert oracle.eval({0}) == 1.0
        assert oracle.eval({0, 2}) == 2.0
        assert oracle.eval({0, 1}) == 1.0

    def test_zoo_coverage_values(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert oracle.eval({0, 1}) == 3.0
        assert oracle.eval({0, 1, 2}) == 4.0
        assert oracle.eval({0}) == 2.0
        assert oracle.eval({2}) == 1.0

    def test_modular_empty_set(self):
        oracle = Oracle(Modular((2.0, 5.0)), n=2)
        assert oracle.eval(set()) == 0.0
        assert oracle.eval({0, 1}) == 7.0

    def test_facility_location_values(self):
        # Dyadic similarities keep every sum exact.
        oracle = Oracle(FacilityLocation(((0.5, 0.25), (0.125, 0.75))), n=2)
        assert oracle.eval({0}) == 0.625
        assert oracle.eval({1}) == 1.0
        assert oracle.eval({0, 1}) == 1.25
        assert oracle.eval(set()) == 0.0
        # No clients, nobody to serve.
        assert Oracle(FacilityLocation(()), 3).eval({0, 1}) == 0.0

    @pytest.mark.parametrize("kind", ["coverage", "modular"])
    def test_value_does_not_depend_on_iteration_order(self, kind):
        # 1, 9 and 17 collide in an 8-slot set, so the two frozensets below
        # iterate in opposite orders; a plain left-to-right sum gives
        # 0.6000000000000001 for one and 0.6 for the other.
        weights = [0.0] * 18
        weights[1], weights[9], weights[17] = 0.1, 0.2, 0.3
        if kind == "coverage":
            descriptor = Coverage(tuple(weights), tuple(frozenset({u}) for u in range(18)))
        else:
            descriptor = Modular(tuple(weights))
        forward, backward = frozenset([1, 9, 17]), frozenset([17, 9, 1])
        assert list(forward) != list(backward)
        assert descriptor.value(forward) == descriptor.value(backward) == 0.6

    def test_out_of_range_item_rejected(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        with pytest.raises(ValidationError, match="item 5 out of range"):
            oracle.eval({5})
        # Id n is one past the ground set; no oracle accepts it.
        with pytest.raises(ValidationError, match="item 3 out of range, ground set has 3 items"):
            oracle.eval({0, 3})
        with pytest.raises(ValidationError, match="item -1 out of range"):
            oracle.eval({-1})

    @pytest.mark.parametrize("memo", [None, {}])
    def test_items_are_read_once(self, memo):
        # An iterator is consumed by its first reading: the id check once
        # read it before the value did, which then saw no items.
        oracle = Oracle(Modular((1.0, 2.0)), 2, memo)
        assert oracle.eval(x for x in [0, 1]) == 3.0

    def test_eval_count_increments_once_per_call(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        for expected in range(1, 6):
            oracle.eval({0})
            assert oracle.eval_count == expected

    def test_values_match_reference_implementations(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(2, 7)
            cov = helpers.random_coverage(rng, n)
            fac = helpers.random_facility(rng, n)
            cut = helpers.random_graph_cut(rng, n)
            mod = helpers.random_modular(rng, n)
            A = helpers.random_subset(rng, range(n))
            assert Oracle(cov, n).eval(A) == pytest.approx(
                helpers.ref_coverage_value(cov.universe_weights, cov.covers, A), abs=1e-12
            )
            assert Oracle(fac, n).eval(A) == pytest.approx(
                helpers.ref_facility_value(fac.similarity, A), abs=1e-12
            )
            assert Oracle(cut, n).eval(A) == pytest.approx(
                helpers.ref_cut_value(cut.edges, A), abs=1e-12
            )
            assert Oracle(mod, n).eval(A) == pytest.approx(
                helpers.ref_modular_value(mod.values, A), abs=1e-12
            )


class TestValueMemo:
    """Oracles that share a memo answer repeated sets from it: the same float
    as a fresh evaluation, and one counted call each time."""

    @staticmethod
    def _descriptors():
        rng = random.Random(23)
        for _ in range(6):
            n = rng.randrange(3, 7)
            yield n, helpers.random_coverage(rng, n)
            yield n, helpers.random_facility(rng, n)
            yield n, helpers.random_graph_cut(rng, n)
            yield n, helpers.random_modular(rng, n)
            yield n, FacilityLocation(tuple(
                tuple(rng.choice(ADVERSARIAL_WEIGHTS) for _ in range(n)) for _ in range(3)))
        yield 6, ADVERSARIAL_CUT

    def test_memoised_values_are_the_same_floats(self):
        for n, descriptor in self._descriptors():
            memo = {}
            first, second = Oracle(descriptor, n, memo), Oracle(descriptor, n, memo)
            subsets = _all_subsets(n)
            for A in subsets:
                want = Oracle(descriptor, n).eval(A)
                _assert_same_float(first.eval(A), want)
                # A mutable set of the same items hits the entry A made.
                _assert_same_float(second.eval(set(A)), want)
            assert len(memo) == len(subsets)
            assert first.eval_count == second.eval_count == len(subsets)

    def test_out_of_range_items_never_enter_the_memo(self):
        memo = {}
        oracle = Oracle(helpers.zoo_coverage(), 3, memo)
        for _ in range(2):
            with pytest.raises(ValidationError, match="item 3 out of range"):
                oracle.eval({0, 3})
        assert memo == {} and oracle.eval_count == 0

    def test_memo_stops_growing_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(functions, "_MEMO_LIMIT", 3)
        memo = {}
        oracle = Oracle(helpers.path_cut(), 3, memo)
        values = [oracle.eval(A) for A in _all_subsets(3)]
        assert len(memo) == 3
        assert [oracle.eval(A) for A in _all_subsets(3)] == values
        assert oracle.eval_count == 16


def _assert_same_float(got: float, want: float) -> None:
    assert got == want and got.hex() == want.hex(), (got.hex(), want.hex())


def _all_subsets(n: int) -> list[frozenset[int]]:
    return [
        frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(n), r)
    ]


class TestBitExactValues:
    """Every kind must return the very floats of the references in helpers.py,
    not just close ones: an fsum for coverage, graph cut and modular, a
    left-to-right sum over clients for facility location.  Digests, trim
    decisions and CSV bytes rest on those bits."""

    @staticmethod
    def _check(descriptor, sets) -> None:
        if isinstance(descriptor, Coverage):
            ref = lambda A: helpers.ref_coverage_value(
                descriptor.universe_weights, descriptor.covers, A)
        elif isinstance(descriptor, FacilityLocation):
            ref = lambda A: helpers.ref_facility_value(descriptor.similarity, A)
        elif isinstance(descriptor, GraphCut):
            ref = lambda A: helpers.ref_cut_value(descriptor.edges, A)
        else:
            ref = lambda A: helpers.ref_modular_value(descriptor.values, A)
        for A in sets:
            _assert_same_float(descriptor.value(A), ref(A))

    @pytest.mark.parametrize("n", [5, 8, 100])
    @pytest.mark.parametrize("kind", ["facility_location", "graph_cut", "coverage"])
    def test_generated_instances(self, kind, n):
        rng = random.Random(n)
        (descriptor,) = generate_instance(kind, n, 1, 1, 1, seed=n).functions
        sets = [helpers.random_subset(rng, range(n), max_size=10) for _ in range(200)]
        sets += [frozenset(rng.sample(range(n), n // 2)) for _ in range(20)]
        self._check(descriptor, sets)

    def test_adversarial_cut_every_subset(self):
        self._check(ADVERSARIAL_CUT, _all_subsets(6))

    def test_adversarial_weights_every_subset(self):
        rng = random.Random(7)
        n = 6
        for _ in range(20):
            similarity = tuple(
                tuple(rng.choice(ADVERSARIAL_WEIGHTS) for _ in range(n)) for _ in range(5)
            )
            edges = tuple(
                (u, v, rng.choice(ADVERSARIAL_WEIGHTS))
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.6
            )
            self._check(FacilityLocation(similarity), _all_subsets(n))
            self._check(GraphCut(edges), _all_subsets(n))

    def test_adversarial_descriptors_every_subset(self):
        rng = random.Random(8)
        for n in (4, 6):
            for descriptor in _adversarial_descriptors(rng, n):
                self._check(descriptor, _all_subsets(n))

    @pytest.mark.parametrize(
        "descriptor",
        [
            FacilityLocation(((0.5, 0.1, 0.7), (2.0**53, 1.0, 1e16))),
            ADVERSARIAL_CUT,
            # Vertex 2 has no edges, and vertex 4 is past the last endpoint.
            GraphCut(((0, 1, 0.3), (1, 3, 0.7), (0, 3, 5e-324))),
            GraphCut(()),
            FacilityLocation(()),
            Coverage(
                (0.1, 2.0**53, 0.2, 1.0), (frozenset({0, 1}), frozenset({1, 2}), frozenset({3}))
            ),
            Modular((0.1, 0.2, 0.3)),
        ],
        ids=["facility", "cut", "isolated-vertex", "edgeless-cut", "no-clients", "coverage",
             "modular"],
    )
    def test_edge_case_inputs(self, descriptor):
        sets = [
            [],
            frozenset(),
            [1, 1],
            [0, 2, 0, 2, 1],
            [2],
            [4, 4, 0],
            frozenset({9}),
            {0, 1, 100},
            [5, 0, 5, 3],
            # A negative id adds nothing, like an id past the last item: it
            # is not a Python index from the end.
            [-1, 0, -2],
        ]
        self._check(descriptor, sets)

    def test_graph_cut_index_is_not_a_field(self):
        # The derived incidence lists stay out of ==, hash and the JSON form.
        assert [f.name for f in fields(GraphCut)] == ["edges"]
        a = GraphCut(((0, 1, 0.5), (1, 2, 0.25)))
        b = GraphCut([[0, 1, 0.5], [1, 2, 0.25]])
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "GraphCut(edges=((0, 1, 0.5), (1, 2, 0.25)))"
        assert serialize_instance(Instance(3, 1, 1, (a,))) == (
            '{"n": 3, "k": 1, "l": 1, "functions": '
            '[{"type": "graph_cut", "edges": [[0, 1, 0.5], [1, 2, 0.25]]}]}'
        )


def _adversarial_descriptors(rng: random.Random, n: int):
    """One descriptor of each kind with weights drawn from ADVERSARIAL_WEIGHTS."""
    pick = lambda: rng.choice(ADVERSARIAL_WEIGHTS)
    yield Coverage(
        tuple(pick() for _ in range(2 * n)),
        tuple(frozenset(u for u in range(2 * n) if rng.random() < 0.4) for _ in range(n)),
    )
    yield FacilityLocation(tuple(tuple(pick() for _ in range(n)) for _ in range(4)))
    yield GraphCut(tuple(
        (u, v, pick()) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.6
    ))
    yield Modular(tuple(pick() for _ in range(n)))


def _kernel_cases():
    """(n, descriptor) pairs: generated, adversarial and degenerate inputs of
    every kind, all on n <= 7."""
    for n in (5, 7):
        for kind in ("coverage", "facility_location", "graph_cut"):
            yield n, generate_instance(kind, n, 1, 1, 1, seed=n).functions[0]
        yield n, helpers.random_modular(random.Random(n), n)
    rng = random.Random(12)
    for n in (4, 6, 7):
        for descriptor in _adversarial_descriptors(rng, n):
            yield n, descriptor
    yield 6, ADVERSARIAL_CUT
    # Zeros, exact ties and signed zeros: a client's maximum may be any of
    # several equal similarities, and 0.0 and -0.0 compare equal.
    yield 5, FacilityLocation(((0.0,) * 5, (0.5,) * 5, (-0.0, 0.0, -0.0, 0.25, 0.25)))
    yield 5, FacilityLocation(((-0.0,) * 5, (0.3, 0.1, 0.3, 0.1, 0.3)))
    yield 5, Coverage((0.0, 0.5, 0.5, -0.0), tuple(frozenset({i % 4, 3}) for i in range(5)))
    yield 5, Coverage((1.0, 2.0), (frozenset(),) * 5)
    yield 5, GraphCut(((0, 1, 0.0), (1, 2, -0.0), (2, 3, 0.5), (3, 4, 0.5), (0, 4, 0.5)))
    yield 5, Modular((0.0, -0.0, 0.5, 0.5, 0.1))
    yield 5, FacilityLocation(())
    yield 5, GraphCut(())


def _moves(T: frozenset[int], x: int) -> list[frozenset[int]]:
    """T + x, then T + x - y for every member y."""
    with_x = T | {x}
    return [with_x] + [with_x - {y} for y in sorted(T)]


class TestMoveKernels:
    """eval(move, near=T) must return the very float descriptor.value gives
    the moved set, for every add and swap from every base, at one call each."""

    @pytest.mark.parametrize(
        ("n", "descriptor"), list(_kernel_cases()),
        ids=lambda v: v.kind if hasattr(v, "kind") else f"n{v}",
    )
    def test_every_move_from_every_base(self, n, descriptor):
        oracle = Oracle(descriptor, n)
        for T in _all_subsets(n):
            for x in sorted(set(range(n)) - T):
                for move in _moves(T, x):
                    before = oracle.eval_count
                    _assert_same_float(oracle.eval(move, near=T), descriptor.value(move))
                    assert oracle.eval_count == before + 1

    def test_bases_can_alternate(self):
        # The oracle must drop its states for a new base, and compare bases
        # by their items, not by identity.
        descriptor = FacilityLocation(((0.5, 0.1, 0.7, 0.2), (0.25, 0.75, 0.0, 1.0)))
        oracle = Oracle(descriptor, 4)
        bases = [frozenset({0}), frozenset({1, 2}), frozenset({0}), frozenset()]
        for T in bases * 2:
            for x in sorted(set(range(4)) - T):
                for move in _moves(T, x):
                    near = set(T) if len(T) % 2 else T
                    _assert_same_float(oracle.eval(move, near=near), descriptor.value(move))

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_a_scoring_pass_builds_each_state_once(self, kind, monkeypatch):
        # The value of T, the state of T and that of T - y per member y,
        # however many items are scored.
        T = frozenset({1, 4, 6})
        for n in (7, 40):
            descriptor = helpers.random_descriptor(random.Random(n), kind, n)
            built, state = [], type(descriptor)._state

            def counted(self, items):
                built.append(frozenset(items))
                return state(self, items)

            with monkeypatch.context() as patch:
                patch.setattr(type(descriptor), "_state", counted)
                score_items([Oracle(descriptor, n)], [T], range(n), k=5)
            assert len(built) <= len(T) + 2, sorted(map(sorted, built))

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_sets_that_are_not_moves_get_whole_values(self, kind):
        n = 6
        descriptor = helpers.random_descriptor(random.Random(31), kind, n)
        oracle = Oracle(descriptor, n)
        T = frozenset({0, 2, 4})
        others = [T, T - {2}, T | {1, 3}, T - {0, 2} | {5}, frozenset(), frozenset({1, 3, 5})]
        for count, items in enumerate(others, 1):
            _assert_same_float(oracle.eval(items, near=T), descriptor.value(items))
            assert oracle.eval_count == count

    def test_memo_answers_first(self):
        for n, descriptor in _kernel_cases():
            memo = {}
            warm, oracle = Oracle(descriptor, n, memo), Oracle(descriptor, n, memo)
            T = frozenset(range(0, n, 2))
            moves = [m for x in range(1, n, 2) for m in _moves(T, x)]
            for move in moves[::2]:
                warm.eval(move)
            # Half the moves are memo hits, half are valued from states and fill the memo.
            for move in moves:
                _assert_same_float(oracle.eval(move, near=T), descriptor.value(move))
            assert oracle.eval_count == len(moves)
            assert set(memo) == set(moves)
            for move in moves:
                _assert_same_float(memo[move], descriptor.value(move))

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_ids_outside_the_ground_set_are_rejected(self, kind):
        n = 4
        descriptor = helpers.random_descriptor(random.Random(5), kind, n)
        oracle = Oracle(descriptor, n, {})
        cases = [
            ({0, -1}, {-1}),  # a negative id in near, not a Python index from the end
            ({0, 4}, {4}),  # id n in near
            ({1, 2, 7}, {1, 7}),  # a swap whose base holds an id past n
            ({0, 4}, {0}),  # the added id is n
            ({0, -2}, {0}),  # the added id is negative
        ]
        for items, near in cases:
            with pytest.raises(ValidationError, match="out of range, ground set has 4 items"):
                oracle.eval(items, near=near)
        assert oracle.eval_count == 0
        # A rejected base leaves no state behind.
        _assert_same_float(oracle.eval({0, 1}, near={0}), descriptor.value({0, 1}))


# Weights from the smallest subnormal to a quarter of the largest float: each
# is held as a multiple of 2**-1074, so totals run to about 2,100 bits.
EXTREMES = (5e-324, 2.0**53, 0.1, M / 4)


class TestExactTotals:
    """Values and moves over extreme and signed-zero weights are the
    very floats of the fsum references in helpers.py."""

    @pytest.mark.parametrize(
        "descriptor",
        [
            Coverage(EXTREMES + EXTREMES[::-1] + (0.1,), (
                frozenset({0, 4, 8}), frozenset({1, 2}), frozenset({2, 3, 5}),
                frozenset({6, 7, 0}), frozenset(),
            )),
            GraphCut((
                (0, 1, 5e-324), (0, 2, 2.0**53), (1, 2, M / 4), (2, 3, 0.1),
                (3, 4, M / 4), (0, 4, 5e-324), (1, 3, 0.1), (1, 4, M / 4),
            )),
            Modular(EXTREMES + (5e-324,)),
            Coverage((-0.0, -0.0), (frozenset({0}), frozenset({0, 1}), frozenset(), frozenset({1}),
                                    frozenset({0}))),
            GraphCut(((0, 1, -0.0), (1, 2, -0.0), (2, 3, -0.0), (0, 4, -0.0))),
            Modular((-0.0,) * 5),
        ],
        ids=["coverage", "graph_cut", "modular", "coverage-negative-zeros",
             "graph_cut-negative-zeros", "modular-negative-zeros"],
    )
    def test_every_value_and_move_is_the_reference_float(self, descriptor):
        n = 5
        ref = helpers.ref_value(descriptor)
        oracle = Oracle(descriptor, n)
        for T in _all_subsets(n):
            _assert_same_float(descriptor.value(T), ref(T))
            for x in sorted(set(range(n)) - T):
                for move in _moves(T, x):
                    _assert_same_float(oracle.eval(move, near=T), ref(move))

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: Coverage((M, M), (frozenset({0}),)), "universe_weights total is not finite"),
            (lambda: GraphCut(((0, 1, M), (1, 2, M))), "edge weight total is not finite"),
            (lambda: Modular((M, M)), "values total is not finite"),
            # M plus half an ulp of M rounds up, to infinity; a little less
            # rounds down, to M.
            (lambda: Modular((M, 2.0**970)), "values total is not finite"),
        ],
        ids=["coverage", "graph_cut", "modular", "modular-half-ulp"],
    )
    def test_total_past_the_largest_float_is_rejected(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()

    def test_total_just_below_the_rounding_edge_is_kept(self):
        _assert_same_float(Modular((M, 2.0**969)).value({0, 1}), M)


class TestDuplicateIds:
    """A list with a repeated id is valued as its set, by every kind."""

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_list_is_valued_as_its_set(self, kind):
        n = 5
        descriptor = helpers.random_descriptor(random.Random(9), kind, n)
        for items in ([0, 0], [1, 3, 1, 1], [4, 2, 4, 0, 2]):
            want = descriptor.value(frozenset(items))
            _assert_same_float(descriptor.value(items), want)
            _assert_same_float(Oracle(descriptor, n).eval(items), want)
            _assert_same_float(Oracle(descriptor, n, {}).eval(items), want)

    def test_modular_counts_a_repeated_id_once(self):
        assert Oracle(Modular((1.0, 2.0)), 2).eval([0, 0]) == 1.0
        assert Oracle(Modular((1.0, 2.0)), 2, {}).eval([0, 0]) == 1.0


class TestMarginal:
    def test_path_cut_marginal_can_be_negative(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        assert helpers.marginal(oracle, 0, {1}) == -1.0

    def test_zoo_coverage_marginal(self):
        oracle = Oracle(helpers.zoo_coverage(), n=3)
        assert helpers.marginal(oracle, 2, {0, 1}) == 1.0

    def test_marginal_costs_two_evaluations(self):
        oracle = Oracle(helpers.path_cut(), n=3)
        helpers.marginal(oracle, 0, {1})
        assert oracle.eval_count == 2


class TestDescriptorJson:
    def test_round_trip_all_kinds(self):
        rng = random.Random(5)
        for kind in helpers.DESCRIPTOR_BUILDERS:
            instance = Instance(4, 1, 1, (helpers.random_descriptor(rng, kind, 4),))
            assert parse_instance(serialize_instance(instance)) == instance

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown function type 'banana'"):
            descriptor_from_json({"type": "banana"})

    def test_unknown_field_named(self):
        with pytest.raises(ValidationError, match=r"unknown modular field\(s\): extra"):
            descriptor_from_json({"type": "modular", "values": [1.0], "extra": 2})

    def test_missing_field_named(self):
        with pytest.raises(ValidationError, match=r"coverage is missing field\(s\): covers"):
            descriptor_from_json({"type": "coverage", "universe_weights": [1.0]})


class TestZooProperties:
    """Smaller seeded sweeps of the invariants; the acceptance suite re-runs
    them at 1000 samples per kind."""

    def _oracles(self, kind, seed, count=5):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            n = rng.randrange(3, 8)
            out.append(Oracle(helpers.random_descriptor(rng, kind, n), n))
        return out, rng

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_nonnegativity(self, kind):
        oracles, rng = self._oracles(kind, 101)
        assert sum(helpers.nonnegativity_violations(o, rng, 40) for o in oracles) == 0

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_dummy_transparency(self, kind):
        # No oracle takes an id from n on, but descriptor values skip one, so
        # perfbench --smoke can value a feasible set it injected id n into.
        oracles, rng = self._oracles(kind, 102)
        for o in oracles:
            for _ in range(40):
                A = helpers.random_subset(rng, range(o.n))
                d = rng.randrange(o.n, 2 * o.n)
                assert o.descriptor.value(A | {d}) == o.descriptor.value(A)

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_value_does_not_depend_on_item_order(self, kind):
        # Random float weights: ascending, descending and shuffled lists of
        # the same items must give bit-equal values.
        oracles, rng = self._oracles(kind, 106)
        for o in oracles:
            for _ in range(40):
                ascending = sorted(helpers.random_subset(rng, range(o.n)))
                shuffled = rng.sample(ascending, len(ascending))
                value = o.descriptor.value
                assert value(ascending) == value(ascending[::-1]) == value(shuffled)

    @pytest.mark.parametrize("kind", sorted(helpers.DESCRIPTOR_BUILDERS))
    def test_submodularity_spot_check(self, kind):
        oracles, rng = self._oracles(kind, 103)
        assert sum(helpers.submodularity_violations(o, rng, 40) for o in oracles) == 0

    @pytest.mark.parametrize("kind", ["coverage", "facility_location", "modular"])
    def test_monotone_kinds_have_nonnegative_marginals(self, kind):
        oracles, rng = self._oracles(kind, 104)
        assert all(o.descriptor.monotone for o in oracles)
        assert sum(helpers.monotonicity_violations(o, rng, 40) for o in oracles) == 0

    def test_graph_cut_is_flagged_non_monotone(self):
        assert GraphCut(()).monotone is False

    def test_graph_cut_empty_and_full_sets(self):
        rng = random.Random(105)
        for _ in range(20):
            n = rng.randrange(2, 7)
            oracle = Oracle(helpers.random_graph_cut(rng, n), n)
            assert oracle.eval(set()) == 0.0
            assert oracle.eval(set(range(n))) == 0.0


def test_instance_oracles_share_ground_set():
    instance = Instance(3, 1, 2, (helpers.zoo_coverage(), Modular((1.0, 2.0, 3.0))))
    oracles = instance.oracles()
    assert [o.n for o in oracles] == [3, 3]
    assert [o.eval_count for o in oracles] == [0, 0]
    assert [o.eval({0, 1, 2}) for o in oracles] == [4.0, 6.0]
