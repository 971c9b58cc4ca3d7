"""Submodular function zoo and the counting evaluation oracle.

Items are plain integers ``0 .. n-1``.  Complexity accounting is done in
oracle calls, hence every evaluation goes through :class:`Oracle`, which
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    A kind gives three hooks: ``_state(items)``, what a set contributes
    (ids outside 0 .. n-1 contribute nothing); ``_join(state, x)``, the value
    of that state with item x added; and ``_total(state)``, the value of a
    state.  ``value`` totals a set's state, and Oracle values a move from a
    base T as the state of T or of T - y joined with x, so both give the same
    float.
    """

    def value(self, items: Collection[int]) -> float:
        return self._total(self._state(items))

    def _check_total(self, label: str, state: object) -> None:
        # No value exceeds the total of this state, summed by the kind's own
        # rule, so a finite total keeps every value() call finite.  An int
        # total raises where the builtin sum returns inf.
        try:
            finite = math.isfinite(self._total(state))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"{label} total is not finite")


class _AtomSum(_Summed):
    """The state of coverage, graph cut and modular: a set of atoms and the
    exact total of their weights.  The atoms are the universe elements a set
    covers, the edges it cuts, or its own items.

    A kind gives item x's atoms (``_atoms_of(x)``, none for an id outside
    0 .. n-1).  A set's atoms join those of its members: a union, or for graph
    cut (``_toggle``) a symmetric difference, which keeps the edges with
    exactly one end in the set.  ``_join`` adds to the total only the atoms x
    brings that the state lacks, so coverage and modular give frozensets;
    graph cut overrides it with a toggle.

    Each weight is held as an exact integer multiple of ``1 / _scale``
    (``_ints``), where ``_scale`` is 2**s for the largest binary exponent s
    among the weights, at most 1074.  A total is then an exact int, and a
    value is that int divided by ``_scale``: int true division is correctly
    rounded, so a value is the very float ``math.fsum`` gives the atoms'
    weights, and it depends neither on the order in which a set iterates nor
    on how its atoms were gathered.
    """

    _toggle = False
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

    def _state(self, items: Iterable[int]) -> tuple[set[int], int]:
        atoms: set[int] = set()
        join = atoms.symmetric_difference_update if self._toggle else atoms.update
        # A repeated id joins once: a second toggle would undo the first.
        for x in frozenset(items):
            join(self._atoms_of(x))
        ints = self._ints
        return atoms, sum([ints[u] for u in atoms])

    def _total(self, state: tuple[Collection[int], int]) -> float:
        # Raises OverflowError where fsum would: when the rounded total is
        # past the largest float.
        return state[1] / self._scale

    def _join(self, state: tuple[set[int], int], x: int) -> float:
        atoms, total = state
        ints = self._ints
        return (total + sum([ints[u] for u in self._atoms_of(x).difference(atoms)])) / self._scale


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

    def _join(self, best: tuple[float, ...], x: int) -> float:
        # Each client's maximum is the one _state takes over the moved set, up
        # to the sign of a zero, which the sum from 0.0 erases, so a move sums
        # the same floats in the same client order as value().
        return sum([r[x] if r[x] > m else m for m, r in zip(best, self.similarity)], 0.0)

    def _total(self, best: Iterable[float]) -> float:
        return sum(best, 0.0)


@dataclass(frozen=True)
class GraphCut(_AtomSum):
    """Weighted graph cut: value of A is the total weight of edges with
    exactly one endpoint in A.  Non-monotone, the canonical stress case.
    Edges are (u, v, weight) triples over real item ids.

    Each vertex keeps the indices of its incident edges, its atoms, so a value
    costs the degree sum of A plus a sum over the cut, not |E|, and a move
    from A costs the degree of the added item.
    """

    edges: tuple[tuple[int, int, float], ...]

    kind = "graph_cut"
    monotone = False
    _toggle = True

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
        # Derived, not fields: equality, hashing and the JSON form ignore them.
        self._hold("edge weight", [w for _, _, w in normalized])
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_incident", {x: tuple(e) for x, e in incident.items()})

    def validate_for(self, n: int) -> None:
        for i, (u, v, _) in enumerate(self.edges):
            if u >= n or v >= n:
                raise ValidationError(
                    f"graph_cut edges[{i}] endpoint {_int_text(max(u, v))} "
                    f"out of range for n={_int_text(n)}"
                )

    value = _Summed.value  # in the class dict, as for Coverage

    def _atoms_of(self, x: int) -> Iterable[int]:
        # Ids outside 0 .. n-1 are never endpoints.
        return self._incident.get(x, ())

    def _join(self, state: tuple[set[int], int], x: int) -> float:
        # Each of x's edges toggles: one already cut leaves the cut, any other
        # enters it.
        atoms, total = state
        ints = self._ints
        toggled = [-ints[e] if e in atoms else ints[e] for e in self._atoms_of(x)]
        return (total + sum(toggled)) / self._scale


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
    value, at a fraction of its cost.  For the last base it was given, the
    oracle keeps each state it built, that of base under the key None and
    that of base - y under y, and drops them all when another base arrives,
    so a scoring pass against one feasible set builds each state once.
    """

    __slots__ = ("descriptor", "n", "_count", "_memo", "_near", "_states")

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
        self._states: dict[int | None, object] = {}

    @property
    def eval_count(self) -> int:
        return self._count

    def eval(self, items: Iterable[int], near: Collection[int] | None = None) -> float:
        """Value of the item set.  Counts as one oracle call.

        ``near``, when given, is a set that items is likely one move from (see
        the class docstring); it changes the cost of the call, not its value.
        """
        items = frozenset(items)
        memo = self._memo
        if memo is not None:
            value = memo.get(items)
            if value is not None:
                # A memoised set was validated when it was first valued.
                self._count += 1
                return value
        value = None if near is None else self._move_value(items, frozenset(near))
        if value is None:
            self._check_ids(items)
            value = self.descriptor.value(items)
        self._count += 1
        if memo is not None and len(memo) < _MEMO_LIMIT:
            memo[items] = value
        return value

    def _move_value(self, items: frozenset[int], near: frozenset[int]) -> float | None:
        """f(items) from a state of near, or None when items is not one move
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
            self._near, self._states = near, {}
        descriptor, states = self.descriptor, self._states
        state = states.get(y)
        if state is None:
            state = states[y] = descriptor._state(near if y is None else near - {y})
        (x,) = added
        return descriptor._join(state, x)

    def _check_ids(self, items: Iterable[int]) -> None:
        n = self.n
        for x in items:
            if not 0 <= x < n:
                raise ValidationError(
                    f"item {_int_text(x)} out of range, ground set has {_int_text(n)} items"
                )
