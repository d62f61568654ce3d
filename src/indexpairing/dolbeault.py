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

A block holds its level bases unsampled: a spectral count reads the ladder
matrix alone, and a realization samples only the columns it reads.  The
smaller basis is the leading columns of the larger, sampled by the larger
one's sampler with its image truncation.  Each image term is a Hermite
factor in z2 times a phase in z1, so the one sampler, ``landau_rows``,
evaluates both on the grid_size axis values for the requested columns, the
phases as roots of unity of the grid, and yields their products a block of
z1 rows of the grid at a time, where every sample still sums its image
terms in increasing p.  ``landau_sections`` gathers the blocks into whole
samples for a basis; the character of a flux line bundle reads its frame
and the frame's derivatives block by block.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .grids import FiberModel, ModelError
from .operators import OperatorBlock, SectionBasis, fourier_multiplier


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


def _twisted(fiber: FiberModel, twist: int) -> int:
    """The twist of a level basis on ``fiber``, refused where none exists."""
    if fiber.dim != 2:
        raise ModelError("the twisted realization lives on two-dimensional fibers")
    if twist == 0:
        raise ModelError("zero twist has no level basis; use the Fourier realization")
    return int(twist)


def _image_factors(fiber: FiberModel, twist: int, max_level: int):
    """The image terms of the level basis, one image shift p at a time, p increasing.

    An image term h_l(sqrt(2 pi |d|) (z2 - p + j/d)) exp(2 pi i (j - d p) z1)
    is a Hermite factor in z2 times a phase in z1, so both are sampled on
    the grid_size axis values alone.  Yields, per p, the z1-derivative
    factors 2 pi i (j - d p) (shape (|d|,)), the Hermite values of levels
    0..max_level + 1 ((max_level + 2, |d|, grid_size), over z2; the top
    level serves the z2-derivative) and the phases ((grid_size, |d|), over
    z1); the phase at z1 = k / n, n = grid_size, is the n-th root of unity
    at the exact integer (j - d p) k mod n, where a float argument would
    grow with the twist.  The image sum over p is truncated where the
    Gaussian tails of levels up to max_level drop below working precision.
    """
    d = _twisted(fiber, twist)
    scale = np.sqrt(2.0 * np.pi * abs(d))
    reach = (np.sqrt(2.0 * max_level + 1.0) + 9.0) / scale
    p_max = int(np.ceil(reach)) + 1
    n = fiber.grid_size
    # grid_points' axis values k / n, their roots exp(2 pi i k / n), offsets j/d
    ticks = np.arange(n)
    axis = ticks / n
    roots = np.exp(2j * np.pi * axis)
    j = np.arange(abs(d))
    offset = (j / d)[:, None]
    for p in range(-p_max, p_max + 1):
        # per j as Python complex scalars, the bits the per-term products had
        coef = np.array([2j * np.pi * int(f) for f in j - d * p])
        hermite = hermite_values(max_level + 1, scale * (axis - p + offset))
        yield coef, hermite, roots[np.outer(ticks, j - d * p) % n]


# the sampler forms the image products a block of z1 rows at a time, in work
# space of at most this many bytes (or of one row, if that is larger), which
# stays in cache: a few calls per image at small grids, and no work array the
# size of the samples at large ones; a block is also what a reader of the
# blocks holds at once
SAMPLE_BLOCK_BYTES = 1 << 16


def landau_rows(
    fiber: FiberModel, twist: int, max_level: int, columns: np.ndarray, jet: bool = False
):
    """The level basis of levels 0..max_level at ``columns``, where column
    l * |twist| + j holds B_{j,l}, sampled a block of z1 rows at a time.

    Yields, per block, the slice of the grid points it covers and the
    samples there (points, len(columns)); with ``jet``, also their partial
    derivatives d/dz1 and d/dz2: d/dz1 of an image term brings down
    2 pi i (j - d p); d/dz2 differentiates the Hermite factor through
    h_l' = sqrt(l/2) h_{l-1} - sqrt((l+1)/2) h_{l+1}.  Each sample sums its
    image terms in increasing p, so a sample has the same bits in every
    block size.
    """
    s, top, n = abs(_twisted(fiber, twist)), max_level + 1, fiber.grid_size
    j = np.asarray(columns) % s
    norm = (2.0 * np.pi * s) ** 0.25
    slope = norm * np.sqrt(2.0 * np.pi * s)
    falling = -np.sqrt(np.arange(1, top + 1) / 2.0)[:, None, None]
    rising = np.sqrt(np.arange(1, top) / 2.0)[:, None, None]
    images = []
    for coef, h, phase in _image_factors(fiber, twist, max_level):
        # a (levels, |d|, grid_size) factor over z2 holds column l * |d| + j
        # in its row l * |d| + j once flattened; taken at the columns, it is
        # laid out (grid_size, columns), as one z1 row.  Every gather is a
        # take, whose result is C-contiguous (phase[:, j] would be strided).
        z2_factors = [norm * h.reshape(-1, n).T.take(columns, axis=1)]
        if jet:
            dh = falling * h[1:]
            dh[1:] += rising * h[: top - 1]
            z2_factors.append(slope * dh.reshape(-1, n).T.take(columns, axis=1))
        images.append((coef[j], z2_factors, phase.take(j, axis=1)))
    # entry [a, b, c] of a block is the sample at the grid point
    # (a0 + a) * grid_size + b, at (z1, z2) = (a0 + a, b) / grid_size
    width, fields = len(j), 3 if jet else 1
    rows = min(n, max(1, SAMPLE_BLOCK_BYTES // max(1, n * width * 16)))
    work = np.empty((rows, n, width), dtype=complex)
    for a in range(0, n, rows):
        jets = [np.zeros((min(rows, n - a), n, width), dtype=complex) for _ in range(fields)]
        values, *derivatives = jets
        term = work[: len(values)]
        for coef, z2_factors, phase in images:
            z1_factor = phase[a : a + rows, None, :]
            np.multiply(z2_factors[0], z1_factor, out=term)
            values += term
            if jet:
                d1, d2 = derivatives
                np.multiply(coef, term, out=term)
                d1 += term
                np.multiply(z2_factors[1], z1_factor, out=term)
                d2 += term
        yield slice(a * n, (a + len(values)) * n), [f.reshape(len(values) * n, width) for f in jets]


def landau_sections(
    fiber: FiberModel, twist: int, max_level: int, columns: np.ndarray
) -> np.ndarray:
    """Grid samples (npoints, len(columns)) of the level basis of levels 0..max_level
    at ``columns``, gathered from the row blocks of ``landau_rows``."""
    samples = np.empty((fiber.npoints, len(columns)), dtype=complex)
    for points, (block,) in landau_rows(fiber, twist, max_level, columns):
        samples[points] = block
    return samples


def landau_basis(fiber: FiberModel, twist: int, max_level: int) -> SectionBasis:
    """The level basis of levels 0..max_level, sampled by column; column l |twist| + j
    has the axis-0 frequency j, to which its z1 frequencies j - twist p are congruent
    modulo every divisor of the twist."""
    s = abs(_twisted(fiber, twist))
    sample = partial(landau_sections, fiber, twist, max_level)
    return SectionBasis(fiber, s * (max_level + 1), sample, np.tile(np.arange(s), max_level + 1))


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
        modes = fiber.modes()
        return fourier_multiplier(fiber, np.pi * 1j * (modes[:, 0] + 1j * modes[:, 1]))
    s = abs(d)
    big = landau_basis(fiber, d, levels)
    # levels 0..levels-1 are the leading columns of the larger basis, which
    # carry its image truncation
    width = levels * s
    small = SectionBasis(fiber, width, big.sample, big.frequencies[:width])
    # the d < 0 block is the adjoint of the |d| ladder, written at its own
    # entries: mat.conj().T would turn every zero into 0 - 0j
    coef = 1j * np.sqrt(np.pi * s * np.arange(1, levels + 1).repeat(s))
    lower = np.arange(width)
    mat = np.zeros((small.size, big.size) if d > 0 else (big.size, small.size), dtype=complex)
    if d > 0:
        mat[lower, lower + s] = coef
        return OperatorBlock(big, small, mat)
    mat[lower + s, lower] = coef.conj()
    return OperatorBlock(small, big, mat)
