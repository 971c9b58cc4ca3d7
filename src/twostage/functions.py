"""Submodular function zoo and the counting evaluation oracle.

Items are plain integers ``0 .. n-1``.  Complexity accounting is done in
oracle calls, hence every evaluation goes through :class:`Oracle`, which
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Collection, Iterable

from .exceptions import ValidationError

__all__ = [
    "Coverage",
    "FacilityLocation",
    "GraphCut",
    "Modular",
    "FunctionDescriptor",
    "Oracle",
]


def _int_text(x: object) -> str:
    """``str(x)``, except that an int past the interpreter's digit limit
    (4,300 digits by default), which ``str`` refuses, is named by its size."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' if x < 0 else ''}<{abs(x).bit_length()}-bit integer>"


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


# move(x, None) is f(base + x), move(x, y) is f(base + x - y), for an id x
# outside base and a member y: see each descriptor's move_kernel.
MoveKernel = Callable[[int, int | None], float]


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
                        f"covers[{i}] references universe element {_int_text(u)}, "
                        f"universe has {m} elements"
                    )
            normalized.append(frozenset(cover))
        object.__setattr__(self, "universe_weights", weights)
        object.__setattr__(self, "covers", tuple(normalized))

    def validate_for(self, n: int) -> None:
        if len(self.covers) != n:
            raise ValidationError(
                f"coverage covers has {len(self.covers)} entries, expected n={_int_text(n)}"
            )

    def value(self, items: Collection[int]) -> float:
        n = len(self.covers)
        # Ids from n on are skipped: perfbench --smoke values a set carrying id n.
        return self._total(self._covered([x for x in items if x < n]))

    def move_kernel(self, base: frozenset[int]) -> MoveKernel:
        """Values of base + x and base + x - y from the elements base covers
        and, per y, those still covered without y."""
        covers = self.covers
        covered = self._covered(base)
        kept: dict[int, set[int]] = {}

        def move(x: int, y: int | None) -> float:
            if y is None:
                c = covered
            else:
                c = kept.get(y)
                if c is None:
                    c = kept[y] = self._covered(base - {y})
            return self._total(c | covers[x])

        return move

    def _covered(self, items: Iterable[int]) -> set[int]:
        covered: set[int] = set()
        for x in items:
            covered |= self.covers[x]
        return covered

    def _total(self, covered: Iterable[int]) -> float:
        # fsum is correctly rounded, so the value cannot depend on the order
        # in which the set happens to iterate.
        weights = self.universe_weights
        return math.fsum(weights[u] for u in covered)


@dataclass(frozen=True)
class FacilityLocation:
    """Facility location: each client is served by its most similar selected
    item, value is the sum over clients.  ``similarity[c][x]`` is the affinity
    of client ``c`` for item ``x``; an empty selection serves nobody.

    A value costs one C-level item getter and ``max`` per client, summed
    with the builtin ``sum`` in client order.
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
                    f"facility_location similarity row {c} has length {len(row)}, "
                    f"expected n={_int_text(n)}"
                )

    def value(self, items: Collection[int]) -> float:
        rows = self.similarity
        if not rows:
            return 0.0
        n = len(rows[0])
        # Ids from n on are skipped: perfbench --smoke values a set carrying id n.
        return sum(self._maxima([x for x in items if x < n]), 0.0)

    def move_kernel(self, base: frozenset[int]) -> MoveKernel:
        """Values of base + x and base + x - y from the per-client maxima over
        base and, per y, over base - y.

        A move compares x's similarity with one such maximum per client; x's
        column is kept for the next move, which usually has the same x.  Each
        client's maximum is the one value() takes over the moved set, up to
        the sign of a zero, which the sum from 0.0 erases, so the same floats
        are summed in the same client order.
        """
        rows = self.similarity
        best = self._maxima(base)
        without: dict[int, tuple[float, ...]] = {}
        column: tuple[int, tuple[float, ...]] = (-1, ())

        def move(x: int, y: int | None) -> float:
            nonlocal column
            if y is None:
                b = best
            else:
                b = without.get(y)
                if b is None:
                    b = without[y] = self._maxima(base - {y})
            if column[0] != x:
                column = (x, tuple(map(itemgetter(x), rows)))
            return sum([s if s > m else m for m, s in zip(b, column[1])], 0.0)

        return move

    def _maxima(self, items: Collection[int]) -> tuple[float, ...]:
        """Each client's best similarity over items, 0.0 over no items."""
        rows = self.similarity
        if not items:
            return (0.0,) * len(rows)
        # itemgetter of one id returns that client's similarity, of several a tuple.
        if len(items) == 1:
            return tuple(map(itemgetter(*items), rows))
        return tuple(map(max, map(itemgetter(*items), rows)))


@dataclass(frozen=True)
class GraphCut:
    """Weighted graph cut: value of A is the total weight of edges with
    exactly one endpoint in A.  Non-monotone, the canonical stress case.
    Edges are (u, v, weight) triples over real item ids.

    Each vertex keeps the ascending indices of its incident edges, so a value
    costs the degree sum of A plus a sort of the cut edges, not |E|.  The cut
    weights are summed with the builtin ``sum`` in edge order.
    """

    edges: tuple[tuple[int, int, float], ...]

    kind = "graph_cut"
    monotone = False

    def __post_init__(self) -> None:
        if not _is_list(self.edges):
            raise ValidationError("graph_cut edges must be a list")
        normalized = []
        incident: dict[int, list[int]] = {}
        for i, edge in enumerate(self.edges):
            if not isinstance(edge, (tuple, list)) or len(edge) != 3:
                raise ValidationError(f"edges[{i}] must be a (u, v, weight) triple")
            u, v, w = edge
            for endpoint in (u, v):
                _check_int(f"edges[{i}] endpoint", endpoint, 0)
            if u == v:
                raise ValidationError(f"edges[{i}] is a self-loop on vertex {_int_text(u)}")
            normalized.append((u, v, _check_weight(f"edges[{i}] weight", w)))
            incident.setdefault(u, []).append(i)
            incident.setdefault(v, []).append(i)
        _check_total("edge weight", (w for _, _, w in normalized))
        object.__setattr__(self, "edges", tuple(normalized))
        # Derived, not fields: equality, hashing and the JSON form ignore them.
        object.__setattr__(self, "_incident", {x: tuple(e) for x, e in incident.items()})
        object.__setattr__(self, "_weights", tuple(w for _, _, w in normalized))

    def validate_for(self, n: int) -> None:
        for i, (u, v, _) in enumerate(self.edges):
            if u >= n or v >= n:
                raise ValidationError(
                    f"graph_cut edges[{i}] endpoint {_int_text(max(u, v))} "
                    f"out of range for n={_int_text(n)}"
                )

    def value(self, items: Collection[int]) -> float:
        # Ids from n on are never endpoints (perfbench --smoke values a set
        # carrying id n).
        return self._total(self._cut(set(items)))

    def move_kernel(self, base: frozenset[int]) -> MoveKernel:
        """Values of base + x and base + x - y from the cut edges of base and,
        per y, of base - y: a move toggles only x's incident edges, then sorts
        and sums the cut as value() does."""
        incident = self._incident
        cut = self._cut(base)
        without: dict[int, set[int]] = {}

        def move(x: int, y: int | None) -> float:
            if y is None:
                c = cut
            else:
                c = without.get(y)
                if c is None:
                    c = without[y] = cut.symmetric_difference(incident.get(y, ()))
            return self._total(c.symmetric_difference(incident.get(x, ())))

        return move

    def _cut(self, items: set[int] | frozenset[int]) -> set[int]:
        incident = self._incident
        cut: set[int] = set()
        # Toggling each member's edges leaves those with one end in the set:
        # an edge toggled twice has both.
        for x in items:
            if x in incident:
                cut.symmetric_difference_update(incident[x])
        return cut

    def _total(self, cut: set[int]) -> float:
        return sum(map(self._weights.__getitem__, sorted(cut)), 0.0)


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
                f"modular values has {len(self.values)} entries, expected n={_int_text(n)}"
            )

    def value(self, items: Collection[int]) -> float:
        n = len(self.values)
        # A repeated id counts once.  Ids from n on are skipped: perfbench
        # --smoke values a set carrying id n.
        return math.fsum(self.values[x] for x in set(items) if x < n)

    def move_kernel(self, base: frozenset[int]) -> MoveKernel:
        """Values of base + x and base + x - y: an fsum of the moved set."""
        values = self.values

        def move(x: int, y: int | None) -> float:
            return math.fsum([values[x], *(values[i] for i in base if i != y)])

        return move


FunctionDescriptor = Coverage | FacilityLocation | GraphCut | Modular


# Item set -> value, shared by the oracles of one function (see Oracle).
ValueMemo = dict[frozenset[int], float]

# A value memo stops growing at this many sets; sets past it are valued
# afresh on every call.  Bounds the memo's memory on large instances, where
# few sets repeat anyway.
_MEMO_LIMIT = 1 << 12


class Oracle:
    """Evaluation oracle for one descriptor over the ground set ``0 .. n-1``.

    Wraps a descriptor with its ground-set size, validates item ids, and
    counts every evaluation.  An oracle belongs to one solve or one report:
    ``Instance.oracles()`` builds fresh ones each time, and none is shared.
    Every descriptor values a set: a repeated id counts once, and the value
    does not depend on the order in which the set iterates.

    ``memo`` (optional) maps item sets to values.  Oracles given the same
    memo answer a set valued before from it, so the solves of one experiment
    run do not recompute the sets they share.  Every call still counts, and
    the value is the same float.

    ``eval(items, near=base)`` values a set that is base plus one id x, or
    base plus x minus one member y, with the descriptor's move kernel for
    base: the same float as a whole-set value, at a fraction of its cost.
    The oracle keeps the kernel of the last base it was given (a one-entry
    cache), so a scoring pass against one feasible set builds it once.
    """

    __slots__ = ("descriptor", "n", "_count", "_memo", "_near", "_move")

    def __init__(
        self,
        descriptor: FunctionDescriptor,
        n: int,
        memo: ValueMemo | None = None,
    ) -> None:
        _check_int("n", n, 1)
        descriptor.validate_for(n)
        self.descriptor = descriptor
        self.n = n
        self._count = 0
        self._memo = memo
        self._near: frozenset[int] | None = None
        self._move: MoveKernel | None = None

    @property
    def eval_count(self) -> int:
        return self._count

    def eval(self, items: Collection[int], near: Collection[int] | None = None) -> float:
        """Value of the item set.  Counts as one oracle call.

        ``near``, when given, is a set that items is likely one move from (see
        the class docstring); it changes the cost of the call, not its value.
        """
        memo = self._memo
        if memo is not None:
            items = frozenset(items)
            value = memo.get(items)
            if value is not None:
                # A memoised set was validated when it was first valued.
                self._count += 1
                return value
        elif near is not None:
            items = frozenset(items)
        value = None if near is None else self._move_value(items, frozenset(near))
        if value is None:
            self._check_ids(items)
            value = self.descriptor.value(items)
        self._count += 1
        if memo is not None and len(memo) < _MEMO_LIMIT:
            memo[items] = value
        return value

    def _move_value(self, items: frozenset[int], near: frozenset[int]) -> float | None:
        """f(items) by near's move kernel, or None when items is not one move
        from near."""
        added = items - near
        if len(added) != 1:
            return None
        grown = len(items) - len(near)
        if grown == 1:
            y = None
        elif grown == 0:
            (y,) = near - items
        else:
            return None
        self._check_ids(added)
        if near is not self._near and near != self._near:
            self._check_ids(near)
            self._move = self.descriptor.move_kernel(near)
            self._near = near
        (x,) = added
        return self._move(x, y)

    def _check_ids(self, items: Iterable[int]) -> None:
        n = self.n
        for x in items:
            if not 0 <= x < n:
                raise ValidationError(
                    f"item {_int_text(x)} out of range, ground set has {_int_text(n)} items"
                )
