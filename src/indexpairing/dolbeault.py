"""Twisted antiholomorphic derivative on the two-torus, realized exactly.

Sections of the degree-d twist are functions on the plane with
f(z1 + 1, z2) = f(z) and f(z1, z2 + 1) = exp(-2 pi i d z1) f(z); the operator
is D = dbar + pi i d z2 with dbar = (d/dz1 + i d/dz2) / 2.  Fourier analysis
in z1 splits sections into |d| sectors, and in each sector D is a harmonic
oscillator ladder:

    level basis  B_{j,l}(z) = (2 pi |d|)^(1/4) * sum_p h_l(sqrt(2 pi |d|)
                               * (z2 - p + j/d)) * exp(2 pi i (j - d p) z1)

with h_l the orthonormal Hermite functions.  For d > 0 the ladder lowers,
D B_{j,l} = i sqrt(pi d l) B_{j,l-1}, so the kernel is the |d|-dimensional
level zero; for d < 0 it raises and the cokernel is level zero.  The operator
blocks are assembled from these exact relations; the tests check them against
an independent quasi-periodic finite-difference application.
"""
from __future__ import annotations

import numpy as np

from .grids import FiberModel, ModelError, grid_points
from .operators import OperatorBlock, SectionBasis, fourier_basis


def hermite_values(max_level: int, t: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite function values, shape (max_level + 1,) + t.shape."""
    t = np.asarray(t, dtype=float)
    out = np.empty((max_level + 1,) + t.shape)
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    if max_level >= 1:
        out[1] = np.sqrt(2.0) * t * out[0]
    for l in range(2, max_level + 1):
        out[l] = t * np.sqrt(2.0 / l) * out[l - 1] - np.sqrt((l - 1.0) / l) * out[l - 2]
    return out


def _level_images(fiber: FiberModel, twist: int, max_level: int):
    """The image terms of the level basis on the grid, one per (j, p).

    Yields (j, j - d p, the Hermite argument sqrt(2 pi |d|) (z2 - p + j/d),
    the phase exp(2 pi i (j - d p) z1)).  The image sum over p is truncated
    where the Gaussian tails of levels up to max_level drop below working
    precision; every sampler of the basis shares this truncation.
    """
    if fiber.dim != 2:
        raise ModelError("the twisted realization lives on two-dimensional fibers")
    if twist == 0:
        raise ModelError("zero twist has no level basis; use the Fourier realization")
    d = int(twist)
    scale = np.sqrt(2.0 * np.pi * abs(d))
    reach = (np.sqrt(2.0 * max_level + 1.0) + 9.0) / scale
    p_max = int(np.ceil(reach)) + 1
    pts = grid_points(fiber.grid_size, 2)
    z1, z2 = pts[:, 0], pts[:, 1]
    for j in range(abs(d)):
        for p in range(-p_max, p_max + 1):
            freq = j - d * p
            yield j, freq, scale * (z2 - p + j / d), np.exp(2j * np.pi * freq * z1)


def landau_section_values(fiber: FiberModel, twist: int, max_level: int) -> np.ndarray:
    """Grid samples of the level basis, columns ordered level-major.

    Column l * |twist| + j holds B_{j,l}.
    """
    s = abs(int(twist))
    cols = np.zeros((fiber.npoints, s * (max_level + 1)), dtype=complex)
    norm = (2.0 * np.pi * s) ** 0.25
    for j, _, t, phase in _level_images(fiber, twist, max_level):
        h = hermite_values(max_level, t)
        for l in range(max_level + 1):
            cols[:, l * s + j] += norm * h[l] * phase
    return cols


def landau_section_jet(
    fiber: FiberModel, twist: int, max_level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The level basis and its partial derivatives d/dz1 and d/dz2 on the grid.

    The values have the bits of landau_section_values.  d/dz1 of an image
    term brings down 2 pi i (j - d p); d/dz2 differentiates the Hermite
    factor through h_l' = sqrt(l/2) h_{l-1} - sqrt((l+1)/2) h_{l+1}.
    """
    s = abs(int(twist))
    values, d1, d2 = (
        np.zeros((fiber.npoints, s * (max_level + 1)), dtype=complex) for _ in range(3)
    )
    norm = (2.0 * np.pi * s) ** 0.25
    slope = norm * np.sqrt(2.0 * np.pi * s)
    for j, freq, t, phase in _level_images(fiber, twist, max_level):
        h = hermite_values(max_level + 1, t)
        for l in range(max_level + 1):
            term = norm * h[l] * phase
            values[:, l * s + j] += term
            d1[:, l * s + j] += 2j * np.pi * freq * term
            dh = -np.sqrt((l + 1.0) / 2.0) * h[l + 1]
            if l:
                dh += np.sqrt(l / 2.0) * h[l - 1]
            d2[:, l * s + j] += slope * dh * phase
    return values, d1, d2


def landau_basis(fiber: FiberModel, twist: int, max_level: int) -> SectionBasis:
    return SectionBasis(fiber, landau_section_values(fiber, twist, max_level))


def dolbeault_family(fiber: FiberModel, twist: int, levels: int) -> OperatorBlock:
    """The twisted operator as one rectangular block, which every base point shares.

    ``levels`` is the highest level retained on the larger side.  For
    twist > 0 the domain holds levels 0..levels and the codomain 0..levels-1;
    for twist < 0 the two sides swap roles; for twist = 0 the operator is the
    exact Fourier multiplier pi i (nu1 + i nu2) on the truncated box.
    """
    d = int(twist)
    if levels < 1:
        raise ModelError("at least one level transition is required")
    if d == 0:
        basis = fourier_basis(fiber)
        modes = fiber.modes()
        mult = np.pi * 1j * (modes[:, 0] + 1j * modes[:, 1])
        return OperatorBlock(basis, basis, np.diag(mult.astype(complex)))
    s = abs(d)
    big = landau_basis(fiber, d, levels)
    small = landau_basis(fiber, d, levels - 1)
    mat = np.zeros((small.size, big.size), dtype=complex) if d > 0 else np.zeros(
        (big.size, small.size), dtype=complex
    )
    if d > 0:
        for l in range(1, levels + 1):
            coef = 1j * np.sqrt(np.pi * d * l)
            for j in range(s):
                mat[(l - 1) * s + j, l * s + j] = coef
        return OperatorBlock(big, small, mat)
    for l in range(0, levels):
        coef = -1j * np.sqrt(np.pi * s * (l + 1))
        for j in range(s):
            mat[(l + 1) * s + j, l * s + j] = coef
    return OperatorBlock(small, big, mat)
