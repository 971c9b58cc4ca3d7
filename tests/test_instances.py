"""Instance validation, JSON round-trip, and generator tests."""

import hashlib
import json
import random

import pytest

from twostage.exceptions import ValidationError
from twostage.functions import Coverage, FacilityLocation, GraphCut, Modular
from twostage.instances import (
    GENERATOR_KINDS,
    Instance,
    generate_instance,
    parse_instance,
    serialize_instance,
)

import helpers


def small_instance():
    return Instance(3, 1, 2, (helpers.zoo_coverage(), helpers.path_cut()))


class TestValidation:
    @pytest.mark.parametrize(
        ("n", "k", "l", "message"),
        [
            (0, 1, 1, "n must be ≥ 1"),
            (3, 0, 1, "k must be ≥ 1"),
            (3, 1, 0, "l must be ≥ 1"),
            (3, 1, 5, "l=5 exceeds n=3"),
        ],
    )
    def test_bound_errors(self, n, k, l, message):
        with pytest.raises(ValidationError, match=message):
            Instance(n, k, l, (Modular((1.0, 1.0, 1.0)),))

    def test_rejects_non_integer_sizes(self):
        with pytest.raises(ValidationError, match="n must be an integer"):
            Instance(3.0, 1, 1, (Modular((1.0, 1.0, 1.0)),))
        with pytest.raises(ValidationError, match="k must be an integer"):
            Instance(3, True, 1, (Modular((1.0, 1.0, 1.0)),))

    def test_rejects_empty_function_list(self):
        with pytest.raises(ValidationError, match="functions must be non-empty"):
            Instance(3, 1, 1, ())

    def test_descriptors_checked_against_n(self):
        with pytest.raises(ValidationError, match="out of range for n=2"):
            Instance(2, 1, 1, (helpers.path_cut(),))
        with pytest.raises(ValidationError, match="similarity row 0 has length 2, expected n=3"):
            Instance(3, 1, 1, (FacilityLocation(((1.0, 2.0),)),))
        with pytest.raises(ValidationError, match="modular values has 1 entries, expected n=3"):
            Instance(3, 1, 1, (Modular((1.0,)),))

    def test_normalizes_function_sequence_to_tuple(self):
        instance = Instance(3, 1, 1, [helpers.zoo_coverage()])
        assert isinstance(instance.functions, tuple)

    def test_id_ranges(self):
        instance = small_instance()
        assert instance.m == 2
        assert instance.n == 3 and instance.l == 2
        assert [o.n for o in instance.oracles()] == [3, 3]

    def test_oracles_are_fresh_and_ordered(self):
        instance = small_instance()
        a = instance.oracles()
        b = instance.oracles()
        assert a[0].eval({0}) == 2.0
        assert a[1].eval({0}) == 1.0
        assert a[0].eval_count == 1
        assert b[0].eval_count == 0


class TestJsonRoundTrip:
    def test_round_trip_preserves_equality(self):
        instance = small_instance()
        assert parse_instance(serialize_instance(instance)) == instance

    def test_serialization_is_canonical(self):
        a = serialize_instance(small_instance())
        b = serialize_instance(small_instance())
        assert a == b
        assert "\n" not in a

    def test_serialized_bytes_golden_digest(self):
        # Instance files already written must keep their exact bytes, whatever
        # drives the encoder.
        texts = [
            serialize_instance(generate_instance(kind, 7, 4, 2, 3, seed))
            for kind in GENERATOR_KINDS
            for seed in range(20)
        ]
        texts.append(serialize_instance(Instance(3, 1, 2, (
            Coverage((1.0, 2.0), ((1, 0), (), (0,))),
            Modular((1, 2, 3)),
            GraphCut(((0, 1, 2.5),)),
        ))))
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest[:16] == "6b911d79be2c2ef1"

    def test_parses_bytes(self):
        text = serialize_instance(small_instance())
        assert parse_instance(text.encode()) == small_instance()

    def test_generated_instances_round_trip(self):
        rng = random.Random(70)
        for kind in GENERATOR_KINDS:
            instance = generate_instance(
                kind, rng.randrange(2, 7), rng.randrange(1, 5),
                1, 1, seed=rng.randrange(1000),
            )
            assert parse_instance(serialize_instance(instance)) == instance

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            (b"\xff\xfe", "instance is not UTF-8"),
            ("{not json", "instance is not valid JSON"),
            ("[1, 2]", "instance must be a JSON object"),
            ('{"n": 1, "k": 1, "l": 1, "functions": [], "extra": 0}',
             r"unknown instance field\(s\): extra"),
            ('{"n": 1, "k": 1}', r"missing field\(s\): functions, l"),
            ('{"n": 1, "k": 1, "l": 1, "functions": {}}',
             "functions must be a JSON array"),
            ('{"n":2,"k":1,"l":1,"functions":[5]}',
             "function descriptor must be a JSON object"),
            ('{"n": 2, "k": 1, "l": 1, "functions": [{"type": "coverage", '
             '"universe_weights": 5, "covers": [[0], [0]]}]}',
             "coverage universe_weights must be a list"),
            ('{"n": 2, "k": 1, "l": 1, "functions": [{"type": "coverage", '
             '"universe_weights": [1.0], "covers": [[[0]], [0]]}]}',
             r"covers\[0\] element must be an integer"),
            ('{"n": 2, "k": 1, "l": 1, "functions": [{"type": "graph_cut", '
             '"edges": [5]}]}',
             r"edges\[0\] must be a \(u, v, weight\) triple"),
            ('{"n": 2, "k": 1, "l": 1, "functions": [{"type": "coverage", '
             '"universe_weights": [1e308, 1e308], "covers": [[0], [1]]}]}',
             "universe_weights total is not finite"),
            ('{"n": 2, "k": 1, "l": 1, "functions": [{"type": "modular", '
             '"values": [1e308, 1e308]}]}',
             "values total is not finite"),
            ('{"n": 3, "k": 1, "l": 1, "functions": [{"type": "graph_cut", '
             '"edges": [[0, 1, 1e308], [0, 2, 1e308]]}]}',
             "edge weight total is not finite"),
            ('{"n": 1, "k": 1, "l": 1, "functions": [{"type": "facility_location", '
             '"similarity": [[1e308], [1e308]]}]}',
             "similarity row maxima total is not finite"),
            pytest.param("[" * 100000, "instance JSON is nested too deeply",
                         id="deeply-nested"),
            pytest.param('{"n": 1' + "0" * 5000 + ', "k": 1, "l": 1, "functions": []}',
                         "instance is not valid JSON", id="n-past-digit-limit"),
            pytest.param('{"n": 1, "k": 1, "l": 1, "functions": [{"type": "modular", '
                         '"values": [1' + "0" * 400 + ']}]}',
                         r"values\[0\] is not finite", id="integer-past-float-range"),
            pytest.param('{"n": 1, "k": 1, "l": 1, "functions": [{"type": ["coverage"]}]}',
                         r"unknown function type \['coverage'\]", id="type-not-a-string"),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(ValidationError, match=message):
            parse_instance(text)

    def test_parse_rejects_float_n(self):
        payload = json.loads(serialize_instance(small_instance()))
        payload["n"] = 3.0
        with pytest.raises(ValidationError, match="n must be an integer"):
            parse_instance(json.dumps(payload))


class TestGenerators:
    def test_same_seed_same_bytes(self):
        a = generate_instance("mixed", 6, 4, 2, 3, seed=42)
        b = generate_instance("mixed", 6, 4, 2, 3, seed=42)
        assert serialize_instance(a) == serialize_instance(b)

    def test_different_seeds_differ(self):
        a = generate_instance("coverage", 6, 2, 2, 3, seed=1)
        b = generate_instance("coverage", 6, 2, 2, 3, seed=2)
        assert a != b

    def test_coverage_shape(self):
        instance = generate_instance("coverage", 5, 3, 2, 2, seed=7)
        for f in instance.functions:
            assert isinstance(f, Coverage)
            assert f.universe_weights == (1.0,) * 10
            assert len(f.covers) == 5

    def test_facility_location_shape(self):
        instance = generate_instance("facility_location", 4, 2, 2, 2, seed=7)
        for f in instance.functions:
            assert isinstance(f, FacilityLocation)
            assert len(f.similarity) == 4
            assert all(len(row) == 4 for row in f.similarity)
            assert all(0.0 <= s < 1.0 for row in f.similarity for s in row)

    def test_graph_cut_shape(self):
        instance = generate_instance("graph_cut", 6, 2, 2, 2, seed=7)
        for f in instance.functions:
            assert isinstance(f, GraphCut)
            assert all(u < v for u, v, _ in f.edges)
            assert all(0 <= u and v < 6 for u, v, _ in f.edges)

    def test_mixed_cycles_through_kinds(self):
        instance = generate_instance("mixed", 4, 5, 1, 1, seed=0)
        kinds = [type(f) for f in instance.functions]
        assert kinds == [Coverage, FacilityLocation, GraphCut, Coverage, FacilityLocation]

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown generator kind 'slurm'"):
            generate_instance("slurm", 3, 1, 1, 1, seed=0)

    def test_m_must_be_positive(self):
        with pytest.raises(ValidationError, match="m must be ≥ 1"):
            generate_instance("coverage", 3, 0, 1, 1, seed=0)
