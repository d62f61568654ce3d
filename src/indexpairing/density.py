"""The cutoff field on the fiber.

The cutoff c >= 0 satisfies, at every fiber point z, the partition identity

    sum over g in Z/m of  c(z - g theta)  =  1.

Every base point carries the same fiber and the same action, so one field
serves them all.  It is built from any positive seed by normalizing with its
sum over the m translates; the identity then holds pointwise on the grid
with no quadrature error, since the translates of a point run through its
orbit.
"""
from __future__ import annotations

import numpy as np

from .grids import ModelError
from .space import FiberedGSpace


class CoverageError(ModelError):
    """Raised when a cutoff seed fails positivity or coverage."""


def compute_cutoff(space: FiberedGSpace, seed: np.ndarray | None = None) -> np.ndarray:
    """Normalize a nonnegative seed field into the cutoff field.

    With no seed, the constant seed 1 yields the uniform cutoff 1/m.
    """
    npoints = space.fiber.npoints
    seed = np.ones(npoints) if seed is None else np.asarray(seed, dtype=float).reshape(-1)
    if seed.shape != (npoints,):
        raise CoverageError(f"seed has {seed.size} values for the {npoints}-point grid")
    if seed.min() < 0:
        raise CoverageError("seed must be nonnegative")
    orbit_sum = np.zeros(npoints)
    for g in range(space.order):
        orbit_sum += space.transport(-g, seed).real
    bad = np.flatnonzero(orbit_sum <= 0)
    if len(bad):
        raise CoverageError(f"seed does not cover the orbit of grid point {int(bad[0])}")
    return seed / orbit_sum
