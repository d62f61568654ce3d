"""Torus translations and the cyclic action on the fiber.

The generator of the cyclic group acts on the fiber by one rational
translation z -> z + theta (mod 1) of the torus [0, 1)^r, so the group
element g acts by z -> z + g theta.  Shifts are exact Fractions: the action
is well defined on Z/m exactly when m theta is an integer vector, and a
translation preserves the grid of n points per axis exactly when n theta is
one.  A translation moves grid points by whole ticks and preserves
orientation, so a field or a form of any degree moves by one grid
permutation.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .grids import FiberModel, ModelError


def whole_multiple(k: int, shift) -> bool:
    """True when k * shift is an integer vector."""
    return all((k * Fraction(t)).denominator == 1 for t in shift)


@lru_cache(maxsize=None)
def _grid_permutation(shift: tuple[Fraction, ...], n: int) -> np.ndarray:
    """Permutation p with z_j + shift = z_{p[j]} on the n^r product grid.

    Each axis moves by its shift in ticks; flat indices are row-major over
    the r axes, matching grid_points.  Built once per shift and grid size,
    and read-only.
    """
    ticks = [n * t for t in shift]
    if any(k.denominator != 1 for k in ticks):
        raise ModelError("map does not preserve the grid")
    flat = np.zeros(1, dtype=int)
    for k in ticks:
        flat = (flat[:, None] * n + (np.arange(n) + int(k)) % n).ravel()
    flat.flags.writeable = False
    return flat


class FiberedGSpace:
    """Z/``order`` acting on one torus fiber, the generator by the shift ``shift``.

    The group element g acts by the translation by g * shift.  Every base
    point carries this fiber and this action; the base itself stays with
    the scenario driver, which meets the fiber only through one weight
    field.  The constructor checks that order * shift is an integer vector,
    which makes the assignment a group action: the map of g1 + g2 is the
    translation by (g1 + g2) * shift.
    """

    def __init__(self, fiber: FiberModel, order: int, shift):
        r = fiber.dim
        shift = [Fraction(t) for t in shift]
        if len(shift) != r:
            raise ModelError(f"fiber shift {shift} needs one entry per fiber dimension {r}")
        if not whole_multiple(order, shift):
            raise ModelError(
                f"fiber maps are not functorial: {order} * shift is not an integer vector"
            )
        self.fiber = fiber
        self.order = order
        self._shifts = [tuple(g * t % 1 for t in shift) for g in range(order)]

    def shift(self, g: int) -> tuple[Fraction, ...]:
        """The shift g * shift of the translation by g, reduced mod 1."""
        return self._shifts[g % self.order]

    def moving_elements(self) -> list[int]:
        """One group element g = 1 .. m/2 per distinct translation g shift that moves the fiber.

        The defect entries of m - g are those of g, permuted and negated: the
        entries of f - f o (-g shift) are those of f - f o (g shift) moved by
        g, and a kernel's alike under conjugation.  Elements with the same
        translation move everything alike.  So these elements give the same
        largest defect, as the same float, as every g != 0.  A zero shift
        leaves none.
        """
        first: dict[tuple, int] = {}
        for g in range(1, self.order // 2 + 1):
            shift = self.shift(g)
            if any(shift):
                first.setdefault(shift, g)
        return list(first.values())

    def permutation(self, g: int) -> np.ndarray:
        """Grid permutation p of the translation by g * shift: transport is f -> f[p]."""
        return _grid_permutation(self.shift(g), self.fiber.grid_size)

    def transport(self, g: int, field: np.ndarray) -> np.ndarray:
        """The grid field composed with the translation by g * shift.

        Transporting by g1 + g2 equals transporting by g1, then by g2.
        Fields are stored flat over the grid; trailing axes (form or matrix
        components) ride along.
        """
        perm = self.permutation(g)
        field = np.asarray(field)
        if field.shape[:1] != perm.shape:
            raise ModelError(f"field shape {field.shape} does not match the {len(perm)}-point grid")
        return field[perm]

    @classmethod
    def trivial(cls, fiber: FiberModel, order: int = 1) -> "FiberedGSpace":
        """Z/``order`` fixing every fiber point."""
        return cls(fiber, order, [0] * fiber.dim)
