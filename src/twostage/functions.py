"""Submodular function zoo and the counting evaluation oracle.

Items are plain integers ``0 .. n-1``.  Complexity accounting is done in
oracle calls, hence every evaluation goes through :class:`Oracle`, which
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable

from .exceptions import ValidationError

__all__ = [
    "Coverage",
    "FacilityLocation",
    "GraphCut",
    "Modular",
    "FunctionDescriptor",
    "Oracle",
]


def _check_int(label: str, value: object, minimum: int | None = None) -> int:
    # The value stays out of the message: formatting a huge int can itself raise.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{label} must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{label} must be ≥ {minimum}")
    return value


def _check_weight(label: str, w: object) -> float:
    if not isinstance(w, (int, float)) or isinstance(w, bool):
        raise ValidationError(f"{label} is not a number")
    try:
        w = float(w)
    except OverflowError:
        # An integer too large for a float is not finite either.
        w = math.inf
    if not math.isfinite(w):
        raise ValidationError(f"{label} is not finite")
    if w < 0:
        raise ValidationError(f"{label} is negative")
    return w


def _check_total(label: str, weights: Iterable[float]) -> None:
    # No value exceeds the sum of these weights, and fsum raises rather than
    # return inf, so a finite total keeps every value() call finite.
    try:
        math.fsum(weights)
    except OverflowError:
        raise ValidationError(f"{label} total is not finite") from None


def _is_list(x: object, of: tuple[type, ...] | None = None) -> bool:
    # A JSON array arrives as a list, a constructor argument usually as a tuple.
    return isinstance(x, (list, tuple)) and (of is None or all(isinstance(e, of) for e in x))


@dataclass(frozen=True)
class Coverage:
    """Weighted coverage: value of A is the total weight of universe
    elements covered by at least one item in A.

    ``covers[x]`` lists the universe elements item ``x`` covers, so the
    descriptor fixes the number of real items to ``len(covers)``.
    """

    universe_weights: tuple[float, ...]
    covers: tuple[frozenset[int], ...]

    kind = "coverage"
    monotone = True

    def __post_init__(self) -> None:
        if not _is_list(self.universe_weights):
            raise ValidationError("coverage universe_weights must be a list")
        if not _is_list(self.covers, (list, tuple, set, frozenset)):
            raise ValidationError("coverage covers must be a list of lists")
        weights = tuple(
            _check_weight(f"universe_weights[{i}]", w)
            for i, w in enumerate(self.universe_weights)
        )
        _check_total("universe_weights", weights)
        m = len(weights)
        normalized = []
        for i, cover in enumerate(self.covers):
            # Checked before hashing: a nested JSON list is unhashable.
            for u in cover:
                if not 0 <= _check_int(f"covers[{i}] element", u) < m:
                    raise ValidationError(
                        f"covers[{i}] references universe element {u}, universe has {m} elements"
                    )
            normalized.append(frozenset(cover))
        object.__setattr__(self, "universe_weights", weights)
        object.__setattr__(self, "covers", tuple(normalized))

    def validate_for(self, n: int) -> None:
        if len(self.covers) != n:
            raise ValidationError(
                f"coverage covers has {len(self.covers)} entries, expected n={n}"
            )

    def value(self, items: Collection[int]) -> float:
        n = len(self.covers)
        covered: set[int] = set()
        # Ids from n on are skipped: perfbench --smoke values a set carrying id n.
        for x in items:
            if x < n:
                covered |= self.covers[x]
        weights = self.universe_weights
        # fsum is correctly rounded, so the value cannot depend on the order
        # in which the set happens to iterate.
        return math.fsum(weights[u] for u in covered)


@dataclass(frozen=True)
class FacilityLocation:
    """Facility location: each client is served by its most similar selected
    item, value is the sum over clients.  ``similarity[c][x]`` is the affinity
    of client ``c`` for item ``x``; an empty selection serves nobody.
    """

    similarity: tuple[tuple[float, ...], ...]

    kind = "facility_location"
    monotone = True

    def __post_init__(self) -> None:
        if not _is_list(self.similarity, (list, tuple)):
            raise ValidationError("facility_location similarity must be a list of rows")
        rows = []
        width = None
        for c, row in enumerate(self.similarity):
            checked = tuple(
                _check_weight(f"similarity[{c}][{x}]", w) for x, w in enumerate(row)
            )
            if width is None:
                width = len(checked)
            elif len(checked) != width:
                raise ValidationError(
                    f"similarity row {c} has length {len(checked)}, expected {width}"
                )
            rows.append(checked)
        # A value sums at most each client's best similarity.
        _check_total("similarity row maxima", (max(r, default=0.0) for r in rows))
        object.__setattr__(self, "similarity", tuple(rows))

    def validate_for(self, n: int) -> None:
        for c, row in enumerate(self.similarity):
            if len(row) != n:
                raise ValidationError(
                    f"facility_location similarity row {c} has length {len(row)}, expected n={n}"
                )

    def value(self, items: Collection[int]) -> float:
        if not self.similarity:
            return 0.0
        n = len(self.similarity[0])
        # Ids from n on are skipped: perfbench --smoke values a set carrying id n.
        selected = [x for x in items if x < n]
        if not selected:
            return 0.0
        return float(sum(max(row[x] for x in selected) for row in self.similarity))


@dataclass(frozen=True)
class GraphCut:
    """Weighted graph cut: value of A is the total weight of edges with
    exactly one endpoint in A.  Non-monotone, the canonical stress case.
    Edges are (u, v, weight) triples over real item ids.
    """

    edges: tuple[tuple[int, int, float], ...]

    kind = "graph_cut"
    monotone = False

    def __post_init__(self) -> None:
        if not _is_list(self.edges):
            raise ValidationError("graph_cut edges must be a list")
        normalized = []
        for i, edge in enumerate(self.edges):
            if not isinstance(edge, (tuple, list)) or len(edge) != 3:
                raise ValidationError(f"edges[{i}] must be a (u, v, weight) triple")
            u, v, w = edge
            for endpoint in (u, v):
                _check_int(f"edges[{i}] endpoint", endpoint, 0)
            if u == v:
                raise ValidationError(f"edges[{i}] is a self-loop on vertex {u}")
            normalized.append((u, v, _check_weight(f"edges[{i}] weight", w)))
        _check_total("edge weight", (w for _, _, w in normalized))
        object.__setattr__(self, "edges", tuple(normalized))

    def validate_for(self, n: int) -> None:
        for i, (u, v, _) in enumerate(self.edges):
            if u >= n or v >= n:
                raise ValidationError(
                    f"graph_cut edges[{i}] endpoint {max(u, v)} out of range for n={n}"
                )

    def value(self, items: Collection[int]) -> float:
        # Ids from n on are never endpoints: perfbench --smoke values a set carrying id n.
        return float(
            sum(w for u, v, w in self.edges if (u in items) != (v in items))
        )


@dataclass(frozen=True)
class Modular:
    """Additive function: value of A is the sum of per-item values.
    Trivially submodular and monotone, useful as a sanity anchor.
    """

    values: tuple[float, ...]

    kind = "modular"
    monotone = True

    def __post_init__(self) -> None:
        if not _is_list(self.values):
            raise ValidationError("modular values must be a list")
        checked = tuple(
            _check_weight(f"values[{i}]", w) for i, w in enumerate(self.values)
        )
        _check_total("values", checked)
        object.__setattr__(self, "values", checked)

    def validate_for(self, n: int) -> None:
        if len(self.values) != n:
            raise ValidationError(
                f"modular values has {len(self.values)} entries, expected n={n}"
            )

    def value(self, items: Collection[int]) -> float:
        n = len(self.values)
        # Ids from n on are skipped: perfbench --smoke values a set carrying id n.
        return math.fsum(self.values[x] for x in items if x < n)


FunctionDescriptor = Coverage | FacilityLocation | GraphCut | Modular


class Oracle:
    """Evaluation oracle for one descriptor over the ground set ``0 .. n-1``.

    Wraps a descriptor with its ground-set size, validates item ids, and
    counts every evaluation.  An oracle belongs to one solve or one report:
    ``Instance.oracles()`` builds fresh ones each time, and none is shared.
    """

    __slots__ = ("descriptor", "n", "_count")

    def __init__(self, descriptor: FunctionDescriptor, n: int) -> None:
        _check_int("n", n, 1)
        descriptor.validate_for(n)
        self.descriptor = descriptor
        self.n = n
        self._count = 0

    @property
    def eval_count(self) -> int:
        return self._count

    def eval(self, items: Collection[int]) -> float:
        """Value of the item set.  Counts as one oracle call."""
        n = self.n
        for x in items:
            if not 0 <= x < n:
                raise ValidationError(f"item {x} out of range, ground set has {n} items")
        self._count += 1
        return self.descriptor.value(items)
