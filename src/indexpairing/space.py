"""Torus translations and fibered groupoid actions.

Every arrow of the groupoid acts on fibers by a rational translation
z -> z + theta (mod 1) of the torus [0, 1)^r.  Shifts are exact Fractions,
so composing two maps adds their shifts with no rounding, grid preservation
is decidable, and the map of an inverse arrow is the negated shift (the
constructor of FiberedGSpace checks that the assignment is functorial).
A translation moves grid points by whole ticks and preserves orientation,
so a field or a form of any degree moves by one grid permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import ModelError
from .groupoid import Arrow, GroupoidModel


@dataclass(frozen=True)
class AffineTorusMap:
    """The translation z -> z + shift on the torus [0,1)^r.

    The shift is stored reduced mod 1 as a tuple of Fractions, so equality
    and grid preservation are exact.
    """

    shift: tuple[Fraction, ...]

    @classmethod
    def translation(cls, shift) -> "AffineTorusMap":
        return cls(tuple(Fraction(t) % 1 for t in shift))

    @classmethod
    def identity(cls, r: int) -> "AffineTorusMap":
        return cls.translation([0] * r)

    @property
    def dim(self) -> int:
        return len(self.shift)

    def after(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """The composite map "self after other": the shifts add."""
        return AffineTorusMap.translation([s + t for s, t in zip(self.shift, other.shift)])

    def grid_permutation(self, n: int) -> np.ndarray:
        """Permutation p with map(z_j) = z_{p[j]} on the n^r product grid.

        Each axis moves by its shift in ticks; flat indices are row-major over
        the r axes, matching grid_points.
        """
        ticks = [n * t for t in self.shift]
        if any(k.denominator != 1 for k in ticks):
            raise ModelError("map does not preserve the grid")
        flat = np.zeros(1, dtype=int)
        for k in ticks:
            flat = (flat[:, None] * n + (np.arange(n) + int(k)) % n).ravel()
        return flat


class FiberedGSpace:
    """A groupoid together with one torus translation per arrow.

    The map of an arrow sends the fiber over the arrow's target to the fiber
    over its source (so that the pullback of functions goes source -> target
    covariantly along composition).  The constructor checks that units map to
    the identity and that the assignment is functorial: the map of
    "g1 then g2" equals map(g1) after map(g2).
    """

    def __init__(self, groupoid: GroupoidModel, maps: dict[object, AffineTorusMap]):
        self.groupoid = groupoid
        base = groupoid.base
        dims = {base.fiber(x).dim for x in range(len(base))}
        if len(dims) != 1:
            raise ModelError("all fibers must share one dimension")
        self.fiber_dim = dims.pop()
        self.maps = dict(maps)
        for a in groupoid.arrows:
            if a.label not in self.maps:
                raise ModelError(f"missing fiber map for arrow {a.label!r}")
            if self.maps[a.label].dim != self.fiber_dim:
                raise ModelError(f"fiber map dimension mismatch at {a.label!r}")
        for u in groupoid.units:
            if self.maps[u.label] != AffineTorusMap.identity(self.fiber_dim):
                raise ModelError("unit arrows must act by the identity map")
        for a1 in groupoid.arrows:
            for a2 in groupoid.source_fibers[a1.tgt]:
                c = groupoid.compose(a1, a2)
                expected = self.maps[a1.label].after(self.maps[a2.label])
                if self.maps[c.label] != expected:
                    raise ModelError("fiber maps are not functorial")

    @property
    def base(self):
        return self.groupoid.base

    def permutation(self, a: Arrow) -> np.ndarray:
        """Grid permutation p of the arrow's fiber map: transport is f -> f[p].

        The permutation of the inverse arrow is the pointwise action: it sends
        grid point z over s(a) to the index of its image over t(a).
        """
        n = self.base.fiber(a.src).grid_size
        if self.base.fiber(a.tgt).grid_size != n:
            raise ModelError("grid sizes must agree along arrows")
        return self.maps[a.label].grid_permutation(n)

    def transport(self, a: Arrow, field: np.ndarray) -> np.ndarray:
        """Carry a grid field on the source fiber to the target fiber.

        The result is field composed with the stored fiber map, i.e. the
        push-forward of the field under the pointwise action.  Transporting
        along "a1 then a2" equals transporting along a1, then along a2.
        Fields are stored flat over the grid; trailing axes (form or matrix
        components) ride along.
        """
        perm = self.permutation(a)
        field = np.asarray(field)
        if field.shape[:1] != perm.shape:
            raise ModelError(f"field shape {field.shape} does not match the {len(perm)}-point grid")
        return field[perm]

    def eval_after_action(self, a: Arrow, field: np.ndarray) -> np.ndarray:
        """Samples of z -> field(action_a(z)) on the source fiber.

        ``field`` lives on the fiber over t(a); the result lives on the fiber
        over s(a).  This is transport along the inverse arrow.
        """
        return self.transport(self.groupoid.inverse(a), field)

    @classmethod
    def trivial(cls, groupoid: GroupoidModel) -> "FiberedGSpace":
        dims = {groupoid.base.fiber(x).dim for x in range(len(groupoid.base))}
        r = dims.pop()
        ident = AffineTorusMap.identity(r)
        return cls(groupoid, {a.label: ident for a in groupoid.arrows})
