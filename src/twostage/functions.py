"""Submodular function zoo and the counting evaluation oracle.

Items are plain integers ``0 .. n-1``.  Complexity accounting is done in
oracle calls, hence every evaluation goes through :class:`Oracle`, which
counts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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


def _check_weights(label: str, ws: Iterable[object]) -> tuple[float, ...]:
    """``_check_weight`` of every entry, ``label[i]`` naming entry i.

    A row of plain non-negative floats with a finite fsum is returned as it
    is after one C-level pass.  Any other row is walked entry by entry, so the
    first bad entry gets ``_check_weight``'s message: a NaN that ``min`` skips
    leaves the fsum NaN, and a row whose fsum overflows may still hold only
    finite weights.
    """
    ws = tuple(ws)
    try:
        if (
            set(map(type, ws)) <= {float}
            and min(ws, default=0.0) >= 0.0
            and math.isfinite(math.fsum(ws))
        ):
            return ws
    except OverflowError:
        pass
    return tuple(_check_weight(f"{label}[{i}]", w) for i, w in enumerate(ws))


def _is_list(x: object, of: tuple[type, ...] | None = None) -> bool:
    # A JSON array arrives as a list, a constructor argument usually as a tuple.
    return isinstance(x, (list, tuple)) and (of is None or all(isinstance(e, of) for e in x))


class _Summed:
    """The value of every kind: a set's state, summed.

    A kind gives four hooks: ``_state(items)``, what a set contributes
    (ids outside 0 .. n-1 contribute nothing); ``_grow(state, x)``, the state
    of that set with item x added; ``_join(state, x)``, the value of that
    grown state, without building it; and ``_total(state)``, the value of a
    state.  ``value`` totals a set's state, and Oracle values a move from a
    base T as the state of T or of T - y joined with x, so both give the same
    float.
    """

    def value(self, items: Collection[int]) -> float:
        return self._total(self._state(items))

    def _check_total(self, label: str, state: object) -> None:
        # No value exceeds the total of this state, summed by the kind's own
        # rule, so a finite total keeps every value() call finite.  An int
        # total raises where a float sum returns inf.
        try:
            finite = math.isfinite(self._total(state))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"{label} total is not finite")


class _ExactSum(_Summed):
    """The state of coverage, graph cut and modular ends in the exact total
    of its weights (``_exact``), and a kind gives ``_gain``, the exact int
    that item x adds to a state's total; ``_join`` adds it.

    Each weight is held as an exact integer multiple of ``1 / _scale``
    (``_ints``), where ``_scale`` is 2**s for the largest binary exponent s
    among the weights, at most 1074.  A total is then an exact int, and a
    value is that int divided by ``_scale``: int true division is correctly
    rounded, so a value is the very float ``math.fsum`` gives the weights it
    sums, and it depends neither on the order in which a set iterates nor on
    how its total was gathered.
    """

    _ints: tuple[int, ...]
    _scale: int

    def _hold(self, label: str, weights: Iterable[float]) -> None:
        """Keep the (checked) weights as ints, and check that their total,
        which no value exceeds, is finite."""
        ratios = [w.as_integer_ratio() for w in weights]
        # Every denominator is a power of two, so each divides the largest.
        scale = max([q for _, q in ratios], default=1)
        ints = tuple([p * (scale // q) for p, q in ratios])
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_scale", scale)
        self._check_total(label, ((), sum(ints)))

    def _total(self, state: tuple[Collection[int], int]) -> float:
        # Raises OverflowError where fsum would: when the rounded total is
        # past the largest float.
        return state[1] / self._scale

    def _exact(self, state: tuple[Collection[int], int]) -> int:
        """The state's total as an exact int multiple of ``1 / _scale``."""
        return state[1]

    def _join(self, state: tuple[Collection[int], int], x: int) -> float:
        return (state[1] + self._gain(state, x)) / self._scale


class _AtomSum(_ExactSum):
    """The state of coverage and modular: a set of atoms and their exact
    total.  The atoms are the universe elements a set covers, or its own
    items.

    A kind gives item x's atoms (``_atoms_of(x)``, none for an id outside
    0 .. n-1).  A set's atoms are the union of its members'; ``_gain`` is
    the weight of the atoms x brings that the state lacks.
    """

    def _state(self, items: Iterable[int]) -> tuple[set[int], int]:
        atoms: set[int] = set()
        for x in items:
            atoms.update(self._atoms_of(x))
        ints = self._ints
        return atoms, sum([ints[u] for u in atoms])

    def _gain(self, state: tuple[set[int], int], x: int) -> int:
        ints = self._ints
        return sum([ints[u] for u in self._atoms_of(x).difference(state[0])])

    def _grow(self, state: tuple[set[int], int], x: int) -> tuple[set[int], int]:
        atoms, total = state
        return atoms.union(self._atoms_of(x)), total + self._gain(state, x)


@dataclass(frozen=True)
class Coverage(_AtomSum):
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
        weights = _check_weights("universe_weights", self.universe_weights)
        self._hold("universe_weights", weights)
        m = len(weights)
        normalized = []
        for i, cover in enumerate(self.covers):
            # Checked before hashing: a nested JSON list is unhashable.  A
            # cover of plain ints in range passes in one C-level pass; any
            # other is walked, so its first bad element is the one named.
            if not (set(map(type, cover)) <= {int} and (
                not cover or (min(cover) >= 0 and max(cover) < m)
            )):
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

    # perfbench's tracer wraps cls.__dict__["value"] of each kind it times.
    value = _Summed.value

    def _atoms_of(self, x: int) -> frozenset[int]:
        covers = self.covers
        return covers[x] if 0 <= x < len(covers) else frozenset()


@dataclass(frozen=True)
class FacilityLocation(_Summed):
    """Facility location: each client is served by its most similar selected
    item, value is the sum over clients.  ``similarity[c][x]`` is the affinity
    of client ``c`` for item ``x``; an empty selection serves nobody.

    A value costs one C-level item getter and ``max`` per client, added
    left to right from 0.0 in client order by a plain loop: the builtin
    ``sum`` of floats is compensated from Python 3.12, which would make the
    value depend on the interpreter.
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
            checked = _check_weights(f"similarity[{c}]", row)
            if width is None:
                width = len(checked)
            elif len(checked) != width:
                raise ValidationError(
                    f"similarity row {c} has length {len(checked)}, expected {width}"
                )
            rows.append(checked)
        object.__setattr__(self, "similarity", tuple(rows))
        # A value sums at most each client's best similarity.
        self._check_total("similarity row maxima", [max(r, default=0.0) for r in rows])

    def validate_for(self, n: int) -> None:
        for c, row in enumerate(self.similarity):
            if len(row) != n:
                raise ValidationError(
                    f"facility_location similarity row {c} has length {len(row)}, "
                    f"expected n={_int_text(n)}"
                )

    value = _Summed.value  # in the class dict, as for Coverage

    def _state(self, items: Iterable[int]) -> tuple[float, ...]:
        """Each client's best similarity over items, 0.0 over no items."""
        rows = self.similarity
        n = len(rows[0]) if rows else 0
        # Ids outside 0 .. n-1 add nothing: perfbench --smoke values a set
        # carrying id n.
        ids = [x for x in items if 0 <= x < n]
        if not ids:
            return (0.0,) * len(rows)
        # itemgetter of one id returns that client's similarity, of several a tuple.
        if len(ids) == 1:
            return tuple(map(itemgetter(*ids), rows))
        return tuple(map(max, map(itemgetter(*ids), rows)))

    def _grow(self, best: tuple[float, ...], x: int) -> tuple[float, ...]:
        column = map(itemgetter(x), self.similarity)
        return tuple([s if s > m else m for m, s in zip(best, column)])

    def _join(self, best: tuple[float, ...], x: int) -> float:
        # Each client's maximum is the one _state takes over the moved set, up
        # to the sign of a zero, which adding to 0.0 erases, so a move adds
        # the same floats in the same client order as value().  The same
        # holds for a state _grow built.
        total = 0.0
        for m, r in zip(best, self.similarity):
            s = r[x]
            total += s if s > m else m
        return total

    def _total(self, best: Iterable[float]) -> float:
        total = 0.0
        for m in best:
            total += m
        return total


def _weight_into(weights: dict[int, int], members: frozenset[int]) -> int:
    """The summed weight of a vertex's edges into members, walking the
    smaller of its adjacency map and members."""
    if len(members) < len(weights):
        return sum([weights[t] for t in members if t in weights])
    return sum([w for t, w in weights.items() if t in members])


@dataclass(frozen=True)
class GraphCut(_ExactSum):
    """Weighted graph cut: value of A is the total weight of edges with
    exactly one endpoint in A.  Non-monotone, the canonical stress case.
    Edges are (u, v, weight) triples over real item ids.

    Each vertex has an adjacency map, neighbour -> the summed int weight of
    the edges between them, and its weighted degree, built on first use.  A
    state is A's members and its exact cut total.  A value sums, per member,
    the weights to its neighbours outside A: its degree less its weight into
    A.  A move adds x's degree less twice its weight into A.  A weight into A
    costs at most |A| lookups, so a value costs O(|A|^2) and a move O(|A|),
    not |E| or deg(x).
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
                raise ValidationError(f"edges[{i}] is a self-loop on vertex {_int_text(u)}")
            normalized.append((u, v, _check_weight(f"edges[{i}] weight", w)))
        # Derived, not fields: equality, hashing and the JSON form ignore them.
        self._hold("edge weight", [w for _, _, w in normalized])
        object.__setattr__(self, "edges", tuple(normalized))

    def validate_for(self, n: int) -> None:
        for i, (u, v, _) in enumerate(self.edges):
            if u >= n or v >= n:
                raise ValidationError(
                    f"graph_cut edges[{i}] endpoint {_int_text(max(u, v))} "
                    f"out of range for n={_int_text(n)}"
                )

    value = _Summed.value  # in the class dict, as for Coverage

    @cached_property
    def _adjacent(self) -> dict[int, tuple[int, dict[int, int]]]:
        """Vertex -> (weighted degree, neighbour -> summed weight), in ints.
        Built on first use, so building an instance does not pay for it."""
        adjacent: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for (u, v, _), w in zip(self.edges, self._ints):
            # Parallel edges sum into one weight; a single edge's weight is
            # the int _ints holds, not a copy.
            into_u, into_v = adjacent[u], adjacent[v]
            into_u[v] = into_u[v] + w if v in into_u else w
            into_v[u] = into_v[u] + w if u in into_v else w
        return {x: (sum(ws.values()), ws) for x, ws in adjacent.items()}

    def _state(self, items: Iterable[int]) -> tuple[frozenset[int], int]:
        # Each member adds its weight to neighbours outside A: its degree less
        # its weight into A.  Ids outside 0 .. n-1 are never endpoints.
        members, adjacent, total = frozenset(items), self._adjacent, 0
        for a in members:
            entry = adjacent.get(a)
            if entry is not None:
                total += entry[0] - _weight_into(entry[1], members)
        return members, total

    def _gain(self, state: tuple[frozenset[int], int], x: int) -> int:
        # For x outside A: x's edges into A leave the cut, the others enter.
        entry = self._adjacent.get(x)
        return 0 if entry is None else entry[0] - 2 * _weight_into(entry[1], state[0])

    def _grow(self, state: tuple[frozenset[int], int], x: int) -> tuple[frozenset[int], int]:
        return state[0] | {x}, state[1] + self._gain(state, x)


@dataclass(frozen=True)
class Modular(_AtomSum):
    """Additive function: value of A is the sum of per-item values.
    Trivially submodular and monotone, useful as a sanity anchor.
    """

    values: tuple[float, ...]

    kind = "modular"
    monotone = True

    def __post_init__(self) -> None:
        if not _is_list(self.values):
            raise ValidationError("modular values must be a list")
        checked = _check_weights("values", self.values)
        self._hold("values", checked)
        object.__setattr__(self, "values", checked)

    def validate_for(self, n: int) -> None:
        if len(self.values) != n:
            raise ValidationError(
                f"modular values has {len(self.values)} entries, expected n={_int_text(n)}"
            )

    def _atoms_of(self, x: int) -> frozenset[int]:
        return frozenset((x,)) if 0 <= x < len(self.values) else frozenset()


FunctionDescriptor = Coverage | FacilityLocation | GraphCut | Modular


# Item set -> value, shared by the oracles of one function (see Oracle).
ValueMemo = dict[frozenset[int], float]

# A value memo stops growing at this many sets; sets past it are valued
# afresh on every call.  Bounds the memo's memory on large instances, where
# few sets repeat anyway.
_MEMO_LIMIT = 1 << 12


class _Base(frozenset):
    """A set with its state, from ``Oracle.grow``; never handed out."""

    __slots__ = ("state",)


class Oracle:
    """Evaluation oracle for one descriptor over the ground set ``0 .. n-1``.

    Wraps a descriptor with its ground-set size, validates item ids, and
    counts every evaluation.  An oracle belongs to one solve or one report:
    ``Instance.oracles()`` builds fresh ones each time, and none is shared.
    Every descriptor values a set: a repeated id counts once, and the value
    does not depend on the order in which the set iterates.  An id outside
    ``0 .. n-1`` adds nothing to a descriptor's value, but the oracle rejects
    it.

    ``memo`` (optional) maps item sets to values.  Oracles given the same
    memo answer a set valued before from it, so the solves of one experiment
    run do not recompute the sets they share.  Every call still counts, and
    the value is the same float.

    ``eval(items, near=base)`` values a set that is base plus one id x, or
    base plus x minus one member y, as the descriptor's state of base, or of
    base - y, joined with x (see ``_Summed``): the same float as a whole-set
    value, at a fraction of its cost.  A base from ``grow`` carries its state
    (the reports grow each node from its parent).  For any other set, such
    as a solver's feasible set T, the oracle builds the states of T and of
    each T - y whole on first use, and keeps them while the same set object
    keeps coming as ``near``.

    ``score_items`` keeps its last pass over each oracle in ``_pass`` and
    reuses it, at no call, while that function's set stays the same.  An
    oracle lives for one solve, so a kept pass never leaves it.
    """

    __slots__ = ("descriptor", "n", "_count", "_memo", "_near", "_states", "_pass")

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
        # The last plain set given as near, and the states its moves start
        # from, by the member a swap removes (None for the set itself).
        self._near: frozenset[int] | None = None
        self._states: dict[int | None, object] = {}
        # The last scoring pass over this oracle: (T, k, items, gains), see
        # score_items.
        self._pass: tuple[frozenset[int], int, list[int], list[float]] | None = None

    @property
    def eval_count(self) -> int:
        return self._count

    def eval(self, items: Iterable[int], near: Collection[int] | None = None) -> float:
        """Value of the item set.  Counts as one oracle call.

        ``near``, when given, is a set or a base from ``grow`` that items is
        likely one move from (see the class docstring); it changes the cost
        of the call, not its value.
        """
        items = frozenset(items)
        memo = self._memo
        if memo is not None:
            value = memo.get(items)
            if value is not None:
                # A memoised set was validated when it was first valued.
                self._count += 1
                return value
        value = None if near is None else self._move_value(items, near)
        if value is None:
            self._check_ids(items)
            value = self.descriptor.value(items)
        self._count += 1
        if memo is not None and len(memo) < _MEMO_LIMIT:
            memo[items] = value
        return value

    def grow(self, near: frozenset[int], x: int) -> frozenset[int]:
        """near + x, for an x not in near, as a base that carries its state
        (see the class docstring).  Reads no value and counts no call."""
        if not 0 <= x < self.n:
            self._check_ids((x,))
        base = _Base(near | {x})
        base.state = self.descriptor._grow(self._state_of(near), x)
        return base

    def _move_value(self, items: frozenset[int], near: Collection[int]) -> float | None:
        """f(items) from a state of near or of near - y, or None when items is
        not one move from near."""
        if not isinstance(near, frozenset):
            near = frozenset(near)
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
        (x,) = added
        if not 0 <= x < self.n:
            self._check_ids(added)
        state = self._states.get(y) if near is self._near else None
        if state is None:
            state = self._state_of(near, y)
        return self.descriptor._join(state, x)

    def _state_of(self, near: frozenset[int], y: int | None = None) -> object:
        """The descriptor's state of near, or of near - y.  Reads no value and
        counts no call."""
        if y is None and type(near) is _Base:
            return near.state
        if near is not self._near:
            self._check_ids(near)
            self._near, self._states = near, {}
        state = self._states.get(y)
        if state is None:
            state = self._states[y] = self.descriptor._state(near if y is None else near - {y})
        return state

    def _check_ids(self, items: Iterable[int]) -> None:
        n = self.n
        for x in items:
            if not 0 <= x < n:
                raise ValidationError(
                    f"item {_int_text(x)} out of range, ground set has {_int_text(n)} items"
                )
