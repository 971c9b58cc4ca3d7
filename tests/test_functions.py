"""Function zoo and counting-oracle tests.

Frozen expected values were derived by hand or by the independent reference
implementations in helpers.py before the library code existed.
"""

import random

import pytest

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
    parse_instance,
    serialize_instance,
)

import helpers


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
            # Past the 4,300-digit limit, formatting the int itself would raise.
            (lambda: GraphCut(((-10**5000, 1, 1.0),)), r"edges\[0\] endpoint must be ≥ 0"),
        ],
        ids=["modular-value", "endpoint-float", "endpoint-negative", "endpoint-huge-negative"],
    )
    def test_bad_entry_is_named(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

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
