"""The action groupoid of a cyclic group acting on a finite base.

The base is a finite set of points that all share one fiber model; the
transverse measure lives on ``density.TransversalDensity``.  The
group Z/m acts on the points by the powers of one permutation sigma with
sigma^m = id, and the groupoid is the action groupoid Z/m x base: the arrow
(g, x) has source x and target sigma^g(x).  Its laws are those of Z/m, so
they are computed, not scanned: "(g1, x) then (g2, sigma^g1(x))" is
((g1 + g2) mod m, x), the unit at x is (0, x) and the inverse of (g, x) is
((-g) mod m, sigma^g(x)).
"""
from __future__ import annotations

from dataclasses import dataclass

from .grids import FiberModel, ModelError


class BaseModel:
    """Finite base of ``points`` points that all carry one fiber model."""

    def __init__(self, fiber: FiberModel, points: int):
        if points < 1:
            raise ModelError("base must contain at least one point")
        self.fiber = fiber
        self.points = int(points)

    def __len__(self) -> int:
        return self.points


@dataclass(frozen=True)
class Arrow:
    """One groupoid arrow: its label (g, x) plus source/target point indices."""

    label: tuple[int, int]
    src: int
    tgt: int


class CyclicGroupoid:
    """The action groupoid of Z/``order`` acting on the base through ``sigma``.

    ``sigma[x]`` is the image of point x under the generator; it must permute
    the base and satisfy sigma^order = id, which is all the constructor
    checks.  ``arrows`` lists (g, x) with g outer and x inner, so
    ``arrows_from(x)`` runs through g = 0, 1, .., order - 1.
    """

    def __init__(self, base: BaseModel, order: int, sigma=None):
        bp = len(base)
        sigma = list(range(bp)) if sigma is None else [int(y) for y in sigma]
        if sorted(sigma) != list(range(bp)):
            raise ModelError(f"sigma {sigma} does not permute the {bp} base points")
        powers = [list(range(bp))]  # powers[g][x] = sigma^g(x)
        for _ in range(order):
            powers.append([sigma[y] for y in powers[-1]])
        if powers.pop() != powers[0]:
            raise ModelError(f"sigma {sigma} to the power {order} is not the identity")
        self.base = base
        self.order = order
        self.arrows = [
            Arrow((g, x), x, powers[g][x]) for g in range(order) for x in range(bp)
        ]
        self.units = self.arrows[:bp]

    def arrows_from(self, x: int) -> list[Arrow]:
        """All arrows with source x, by ascending group element."""
        return self.arrows[x :: len(self.base)]

    def inverse(self, a: Arrow) -> Arrow:
        g, _ = a.label
        return self.arrows[(-g) % self.order * len(self.base) + a.tgt]
