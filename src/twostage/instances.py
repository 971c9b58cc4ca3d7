"""Problem instances: validation, the package's JSON codec, synthetic generators.

An instance fixes the ground set size n, the per-function budget k, the
reduction budget l, and the list of function descriptors.  The JSON form is
flat and canonical, so generating the same instance twice yields identical
bytes.

Every JSON text the package reads or writes (instances, descriptors, bench
configs, ``twostage eval`` output) goes through one decoder, one field check
and one encoder here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .exceptions import ValidationError
from .functions import (
    Coverage,
    FacilityLocation,
    FunctionDescriptor,
    GraphCut,
    Modular,
    Oracle,
    ValueMemo,
    _check_int,
    _int_text,
)

__all__ = [
    "Instance",
    "descriptor_from_json",
    "parse_instance",
    "serialize_instance",
    "generate_instance",
    "GENERATOR_KINDS",
]

GENERATOR_KINDS = ("coverage", "facility_location", "graph_cut", "mixed")

# Every solver round scores each unpicked item, so n bounds the work of a
# round.  An instance of graph cuts alone ties n to no descriptor length, and
# only this limit keeps such an n from reaching range(n).
_MAX_N = 10**6


def _check_n_limit(n: int) -> None:
    if n > _MAX_N:
        raise ValidationError(f"n={_int_text(n)} exceeds the ground-set limit of {_MAX_N}")


@dataclass(frozen=True)
class Instance:
    n: int
    k: int
    l: int
    functions: tuple[FunctionDescriptor, ...]

    def __post_init__(self) -> None:
        for name in ("n", "k", "l"):
            _check_int(name, getattr(self, name), 1)
        if self.l > self.n:
            raise ValidationError(f"l={_int_text(self.l)} exceeds n={_int_text(self.n)}")
        functions = tuple(self.functions)
        if not functions:
            raise ValidationError("functions must be non-empty")
        for f in functions:
            f.validate_for(self.n)
        _check_n_limit(self.n)
        object.__setattr__(self, "functions", functions)

    @property
    def m(self) -> int:
        return len(self.functions)

    def oracles(self, memos: Sequence[ValueMemo] | None = None) -> list[Oracle]:
        """Fresh counting oracles over this instance's ground set; memos, when
        given, holds one value memo per function (see Oracle)."""
        if memos is None:
            return [Oracle(f, self.n) for f in self.functions]
        return [Oracle(f, self.n, memo) for f, memo in zip(self.functions, memos, strict=True)]


def _decode_json(data: bytes | str, what: str) -> object:
    """Decode JSON text, mapping every failure to ValidationError."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValidationError(f"{what} JSON is nested too deeply") from exc
    except ValueError as exc:
        # JSONDecodeError, and integer literals past the interpreter's digit limit.
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _check_fields(
    obj: object, what: str, required: Iterable[str], optional: Iterable[str] = ()
) -> dict:
    """Return obj if it is a JSON object with every required key and no key
    outside required and optional."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    required = set(required)
    unknown = sorted(set(obj) - required - set(optional))
    if unknown:
        raise ValidationError(f"unknown {what} field(s): {', '.join(unknown)}")
    missing = sorted(required - set(obj))
    if missing:
        raise ValidationError(f"{what} is missing field(s): {', '.join(missing)}")
    return obj


def _plain(value: object) -> object:
    # json.dumps writes tuples as arrays itself and hands everything else here.
    if isinstance(value, frozenset):
        return sorted(value)
    obj = {f.name: getattr(value, f.name) for f in fields(value)}
    kind = getattr(value, "kind", None)
    return obj if kind is None else {"type": kind, **obj}


def _encode_json(value: object) -> str:
    """Single-line JSON: a dataclass becomes an object of its fields, tagged
    with its "type" first when it is a descriptor, and a frozenset a sorted
    array."""
    return json.dumps(value, default=_plain)


_DESCRIPTOR_TYPES = {cls.kind: cls for cls in (Coverage, FacilityLocation, GraphCut, Modular)}


def descriptor_from_json(obj: object) -> FunctionDescriptor:
    """Build a descriptor from its JSON dict form, rejecting unknown fields."""
    if not isinstance(obj, dict):
        raise ValidationError("function descriptor must be a JSON object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_TYPES:
        raise ValidationError(f"unknown function type {kind!r}")
    cls = _DESCRIPTOR_TYPES[kind]
    names = [f.name for f in fields(cls)]
    _check_fields(obj, kind, ("type", *names))
    return cls(**{name: obj[name] for name in names})


def parse_instance(text: bytes | str) -> Instance:
    """Parse and validate the JSON instance form, rejecting unknown fields."""
    obj = _check_fields(
        _decode_json(text, "instance"), "instance", (f.name for f in fields(Instance))
    )
    if not isinstance(obj["functions"], list):
        raise ValidationError("functions must be a JSON array")
    descriptors = tuple(descriptor_from_json(d) for d in obj["functions"])
    return Instance(obj["n"], obj["k"], obj["l"], descriptors)


def serialize_instance(instance: Instance) -> str:
    """Canonical single-line JSON; equal instances serialize to equal bytes."""
    return _encode_json(instance)


def _generate_descriptor(kind: str, n: int, rng: random.Random) -> FunctionDescriptor:
    if kind == "coverage":
        universe = 2 * n
        covers = tuple(
            frozenset(u for u in range(universe) if rng.random() < 0.3)
            for _ in range(n)
        )
        return Coverage((1.0,) * universe, covers)
    if kind == "facility_location":
        return FacilityLocation(
            tuple(tuple(rng.random() for _ in range(n)) for _ in range(n))
        )
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                edges.append((u, v, rng.random()))
    return GraphCut(tuple(edges))


def generate_instance(
    kind: str, n: int, m: int, k: int, l: int, seed: int
) -> Instance:
    """Deterministic synthetic instance.

    coverage: each item covers each of 2n unit-weight universe elements with
    probability 0.3.  facility_location: an n-client similarity matrix uniform
    in [0, 1).  graph_cut: each of the C(n, 2) edges appears with probability
    0.4 and uniform weight.  mixed: functions cycle through those three kinds.
    """
    if kind not in GENERATOR_KINDS:
        raise ValidationError(f"unknown generator kind {kind!r}")
    _check_n_limit(_check_int("n", n, 1))
    _check_int("seed", seed)
    _check_int("m", m, 1)
    rng = random.Random(seed)
    if kind == "mixed":
        cycle = ("coverage", "facility_location", "graph_cut")
        kinds = [cycle[i % 3] for i in range(m)]
    else:
        kinds = [kind] * m
    functions = tuple(_generate_descriptor(c, n, rng) for c in kinds)
    return Instance(n, k, l, functions)
