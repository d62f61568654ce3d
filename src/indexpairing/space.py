"""Torus translations and fibered cyclic actions.

The generator of the cyclic group acts on fibers by one rational translation
z -> z + theta (mod 1) of the torus [0, 1)^r, so the arrow (g, x) acts by
z -> z + g theta.  Shifts are exact Fractions: the action is well defined on
Z/m exactly when m theta is an integer vector, and a translation preserves
the grid of n points per axis exactly when n theta is one.  A translation
moves grid points by whole ticks and preserves orientation, so a field or a
form of any degree moves by one grid permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import ModelError
from .groupoid import Arrow, CyclicGroupoid


def whole_multiple(k: int, shift) -> bool:
    """True when k * shift is an integer vector."""
    return all((k * Fraction(t)).denominator == 1 for t in shift)


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
    """A cyclic groupoid whose generator translates the fibers by ``shift``.

    The map of the arrow (g, x), the translation by g * shift, sends the
    fiber over the arrow's target to the fiber over its source (so that the
    pullback of functions goes source -> target covariantly along
    composition).  The constructor checks that order * shift is an integer
    vector, which makes the assignment functorial: the map of "g1 then g2"
    is the translation by (g1 + g2) * shift.
    """

    def __init__(self, groupoid: CyclicGroupoid, shift):
        self.groupoid = groupoid
        r = groupoid.base.fiber.dim
        shift = [Fraction(t) for t in shift]
        if len(shift) != r:
            raise ModelError(f"fiber shift {shift} needs one entry per fiber dimension {r}")
        if not whole_multiple(groupoid.order, shift):
            raise ModelError(
                f"fiber maps are not functorial: {groupoid.order} * shift is not an integer vector"
            )
        self._maps = [
            AffineTorusMap.translation([g * t for t in shift]) for g in range(groupoid.order)
        ]

    @property
    def base(self):
        return self.groupoid.base

    def fiber_map(self, a: Arrow) -> AffineTorusMap:
        """The translation by g * shift that the arrow (g, x) acts by."""
        return self._maps[a.label[0]]

    def moving_arrows(self) -> list[Arrow]:
        """The arrows (g, 0), g = 1 .. m/2, whose translation moves the fiber.

        Every base point carries the same fiber data, so the arrow (g, x)
        moves a kernel or a form by the permutation of g alone, and the
        defect entries of m - g are those of g, permuted and negated: the
        entries of f - f o (-g shift) are those of f - f o (g shift) moved by
        g, and a kernel's alike under conjugation.  So these arrows give the
        same largest defect, as the same float, as every non-unit arrow.  A
        zero shift leaves no arrow.
        """
        m = self.groupoid.order
        arrows = self.groupoid.arrows_from(0)[1 : m // 2 + 1]
        return [a for a in arrows if any(self.fiber_map(a).shift)]

    def permutation(self, a: Arrow) -> np.ndarray:
        """Grid permutation p of the arrow's fiber map: transport is f -> f[p].

        The permutation of the inverse arrow is the pointwise action: it sends
        grid point z over s(a) to the index of its image over t(a).
        """
        return self.fiber_map(a).grid_permutation(self.base.fiber.grid_size)

    def transport(self, a: Arrow, field: np.ndarray) -> np.ndarray:
        """Carry a grid field on the source fiber to the target fiber.

        The result is field composed with the arrow's fiber map, i.e. the
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
    def trivial(cls, groupoid: CyclicGroupoid) -> "FiberedGSpace":
        return cls(groupoid, [0] * groupoid.base.fiber.dim)
