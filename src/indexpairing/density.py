"""Cutoff densities and the transverse measure.

The cutoff family c_x >= 0 satisfies, at every fiber point z over every base
point x, the partition identity

    sum over arrows a with source x of  c_{t(a)}(action_a(z))  =  1.

It is built from any positive seed family by normalizing with the orbit sum;
the identity then holds pointwise on the grid with no quadrature error, by
the left-translation bijection of the arrow set at x.
"""
from __future__ import annotations

import numpy as np

from .grids import ModelError
from .groupoid import Arrow
from .space import FiberedGSpace


class CoverageError(ModelError):
    """Raised when a cutoff or seed family fails positivity or coverage."""


class CutoffDensity:
    """Nonnegative fields c_x on the fibers with the unit partition property."""

    def __init__(self, gspace: FiberedGSpace, fields: list[np.ndarray]):
        base = gspace.base
        if len(fields) != len(base):
            raise CoverageError("one cutoff field per base point is required")
        self.gspace = gspace
        self.fields = [np.asarray(f, dtype=float).reshape(-1) for f in fields]
        for x, f in enumerate(self.fields):
            if f.shape != (base.fiber.npoints,):
                raise CoverageError(f"cutoff field at point {x} has wrong size")
            if f.min() < -1e-14:
                raise CoverageError(f"cutoff field at point {x} is negative")


def compute_cutoff(gspace: FiberedGSpace, seeds: list[np.ndarray] | None = None) -> CutoffDensity:
    """Normalize a positive seed family into a cutoff density.

    With no seeds, every point gets the constant seed 1, which yields the
    uniform cutoff 1/#(arrows from x).
    """
    base = gspace.base
    if seeds is None:
        seeds = [np.ones(base.fiber.npoints) for _ in range(len(base))]
    seeds = [np.asarray(s, dtype=float).reshape(-1) for s in seeds]
    for x, s in enumerate(seeds):
        if s.shape != (base.fiber.npoints,):
            raise CoverageError(f"seed at point {x} has wrong size")
        if s.min() < 0:
            raise CoverageError(f"seed at point {x} must be nonnegative")
    fields = []
    for x in range(len(base)):
        orbit_sum = np.zeros(base.fiber.npoints)
        for a in gspace.groupoid.arrows_from(x):
            orbit_sum += gspace.eval_after_action(a, seeds[a.tgt]).real
        bad = np.flatnonzero(orbit_sum <= 0)
        if len(bad):
            raise CoverageError(
                f"seed family does not cover the orbit of grid point "
                f"{int(bad[0])} over base point {x}"
            )
        fields.append(seeds[x] / orbit_sum)
    return CutoffDensity(gspace, fields)


class TransversalDensity:
    """The transverse measure: one positive mass per base point.

    ``masses[x]`` scales the unit Lebesgue mass of the fiber over x; every
    trace and integral sees it through ``weight``.
    """

    def __init__(self, gspace: FiberedGSpace, masses: list[float]):
        if len(masses) != len(gspace.base):
            raise ModelError("one mass per base point is required")
        if min(masses) <= 0:
            raise ModelError("masses must be positive")
        self.gspace = gspace
        self.masses = [float(v) for v in masses]

    def modular(self, a: Arrow) -> float:
        """Multiplicative cocycle comparing the mass at target and source.

        Equal to 1 on every arrow exactly when the mass is constant along
        orbits, which is the condition for the traces downstream to be
        genuinely tracial.
        """
        return self.masses[a.tgt] / self.masses[a.src]

    def weight(self, fields: list[np.ndarray]) -> np.ndarray:
        """The one fiber field sum over base points x of masses[x] * fields[x].

        Every weighted quadrature is linear in its per-point field (a cutoff
        or a fundamental-domain indicator) and reads the same fiber data at
        every point, so this is the only place the base enters it.
        """
        if len(fields) != len(self.masses):
            raise ModelError(
                f"{len(fields)} per-point fields for {len(self.masses)} base-point masses"
            )
        return sum(m * f for m, f in zip(self.masses, fields))

    @classmethod
    def uniform(cls, gspace: FiberedGSpace) -> "TransversalDensity":
        return cls(gspace, [1.0] * len(gspace.base))
