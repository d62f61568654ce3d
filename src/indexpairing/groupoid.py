"""Finite groupoids over a weighted finite base.

The base is a finite set of points, each carrying a positive weight (the
transverse measure) and a fiber model.  A groupoid is described by an
explicit arrow table: every arrow has a source point, a target point, an
inverse, and a partial composition defined when the target of the first
factor equals the source of the second.

Composition convention: ``compose(g1, g2)`` is the arrow "g1 then g2", with
source s(g1) and target t(g2).  Units are the identity arrows at each point.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import FiberModel, ModelError


@dataclass(frozen=True)
class BasePoint:
    name: str
    weight: float
    fiber: FiberModel


class BaseModel:
    """Finite weighted base with one fiber model per point."""

    def __init__(self, points: list[BasePoint]):
        if not points:
            raise ModelError("base must contain at least one point")
        names = [p.name for p in points]
        if len(set(names)) != len(names):
            raise ModelError("base point names must be distinct")
        for p in points:
            if p.weight <= 0:
                raise ModelError(f"base point {p.name!r} has non-positive weight")
        self.points = list(points)
        self.index = {p.name: i for i, p in enumerate(points)}

    def __len__(self) -> int:
        return len(self.points)

    def weight(self, i: int) -> float:
        return self.points[i].weight

    def fiber(self, i: int) -> FiberModel:
        return self.points[i].fiber


class FiniteGroup:
    """Finite group given by a Cayley table ``table[a, b] = a*b``."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=int)
        k = table.shape[0]
        if table.shape != (k, k):
            raise ModelError("Cayley table must be square")
        if table.min() < 0 or table.max() >= k:
            raise ModelError("Cayley table entries out of range")
        # locate the identity
        ident = None
        for e in range(k):
            if np.array_equal(table[e], np.arange(k)) and np.array_equal(
                table[:, e], np.arange(k)
            ):
                ident = e
                break
        if ident is None:
            raise ModelError("Cayley table has no identity element")
        inv = np.full(k, -1, dtype=int)
        for a in range(k):
            hits = np.flatnonzero(table[a] == ident)
            if len(hits) != 1 or table[hits[0], a] != ident:
                raise ModelError("Cayley table has a non-invertible element")
            inv[a] = hits[0]
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if table[table[a, b], c] != table[a, table[b, c]]:
                        raise ModelError("Cayley table is not associative")
        self.table = table
        self.identity = int(ident)
        self.inverse = inv

    def __len__(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(np.zeros((1, 1), dtype=int))

    @classmethod
    def cyclic(cls, k: int) -> "FiniteGroup":
        a = np.arange(k)
        table = (a[:, None] + a[None, :]) % k
        return cls(table)


@dataclass(frozen=True)
class Arrow:
    """One groupoid arrow: an opaque label plus source/target point indices."""

    label: object
    src: int
    tgt: int


class GroupoidModel:
    """Explicit finite groupoid over a BaseModel.

    ``arrows`` lists every arrow.  ``compose_fn(a1, a2)`` returns the label of
    the composite "a1 then a2" (defined when a1.tgt == a2.src), and
    ``inverse_fn(a)`` the label of the inverse.  Labels must be hashable and
    unique.  The constructor checks units, inverses and associativity by
    exhaustive scan, so it is meant for the small groupoids used here.
    """

    def __init__(self, base: BaseModel, arrows: list[Arrow], compose_fn, inverse_fn):
        self.base = base
        self.arrows = list(arrows)
        self.by_label = {a.label: a for a in self.arrows}
        if len(self.by_label) != len(self.arrows):
            raise ModelError("arrow labels must be unique")
        self._compose_fn = compose_fn
        self._inverse_fn = inverse_fn
        self.source_fibers = [
            [a for a in self.arrows if a.src == x] for x in range(len(base))
        ]
        self.target_fibers = [
            [a for a in self.arrows if a.tgt == x] for x in range(len(base))
        ]
        self.units = self._find_units()
        self._validate()

    def compose(self, a1: Arrow, a2: Arrow) -> Arrow:
        if a1.tgt != a2.src:
            raise ModelError("arrows are not composable")
        lbl = self._compose_fn(a1, a2)
        out = self.by_label[lbl]
        if out.src != a1.src or out.tgt != a2.tgt:
            raise ModelError("composition does not respect source/target")
        return out

    def inverse(self, a: Arrow) -> Arrow:
        out = self.by_label[self._inverse_fn(a)]
        if out.src != a.tgt or out.tgt != a.src:
            raise ModelError("inverse does not swap source and target")
        return out

    def _find_units(self) -> list[Arrow]:
        units: list[Arrow | None] = [None] * len(self.base)
        for a in self.arrows:
            if a.src != a.tgt:
                continue
            if all(
                self._compose_fn(a, b) == b.label for b in self.source_fibers[a.src]
            ) and all(
                self._compose_fn(b, a) == b.label for b in self.target_fibers[a.src]
            ):
                units[a.src] = a
        missing = [x for x, u in enumerate(units) if u is None]
        if missing:
            raise ModelError(f"no unit arrow at base points {missing}")
        return units  # type: ignore[return-value]

    def _validate(self) -> None:
        for a in self.arrows:
            inv = self.inverse(a)
            if self.compose(a, inv).label != self.units[a.src].label:
                raise ModelError("a . a^-1 is not the unit")
            if self.compose(inv, a).label != self.units[a.tgt].label:
                raise ModelError("a^-1 . a is not the unit")
        for a1 in self.arrows:
            for a2 in self.source_fibers[a1.tgt]:
                c12 = self.compose(a1, a2)
                for a3 in self.source_fibers[a2.tgt]:
                    lhs = self.compose(c12, a3)
                    rhs = self.compose(a1, self.compose(a2, a3))
                    if lhs.label != rhs.label:
                        raise ModelError("composition is not associative")

    def arrows_from(self, x: int) -> list[Arrow]:
        """All arrows with source x."""
        return self.source_fibers[x]


def action_groupoid(group: FiniteGroup, base: BaseModel, act) -> GroupoidModel:
    """Groupoid of a finite group action on the base point set.

    ``act(g, x)`` is the image point index of x under group element g; it must
    satisfy act(e, x) = x and act(g*h, x) = act(g, act(h, x)).  The arrow
    labelled (g, x) has source x and target act(g, x); composing (g, x) then
    (h, act(g, x)) gives (h*g, x).
    """
    for x in range(len(base)):
        if act(group.identity, x) != x:
            raise ModelError("identity does not act trivially")
        for g in range(len(group)):
            for h in range(len(group)):
                if act(group.mul(g, h), x) != act(g, act(h, x)):
                    raise ModelError("action is not compatible with the group law")

    arrows = [
        Arrow(label=(g, x), src=x, tgt=act(g, x))
        for g in range(len(group))
        for x in range(len(base))
    ]

    def compose_fn(a1: Arrow, a2: Arrow):
        g1, x1 = a1.label
        g2, _ = a2.label
        return (group.mul(g2, g1), x1)

    def inverse_fn(a: Arrow):
        g, x = a.label
        return (group.inv(g), act(g, x))

    return GroupoidModel(base, arrows, compose_fn, inverse_fn)
