"""Flat torus fibers: equispaced grids, truncated Fourier lattices, spectral helpers.

A fiber is the torus [0,1)^r sampled on an equispaced tensor grid with n
points per dimension.  Band-limited data lives on the mode box {-N..N}^r.
Uniform-weight quadrature on the grid integrates trigonometric polynomials
of band <= n-1 exactly, so products of two band-N fields are integrated
exactly once n >= 2N+2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI_I = 2j * np.pi


class ModelError(ValueError):
    """Raised when a fiber or base model violates a structural precondition."""


@dataclass(frozen=True)
class FiberModel:
    """Torus fiber of dimension ``dim`` with Fourier cutoff and grid resolution.

    grid_size is the number of grid points per dimension and must be at
    least 2*fourier_cutoff + 2 so that quadrature is exact on products of
    band-limited fields.
    """

    dim: int
    fourier_cutoff: int
    grid_size: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ModelError("fiber dimension must be positive")
        if self.fourier_cutoff < 1:
            raise ModelError("fourier cutoff must be at least 1")
        if self.grid_size < 2 * self.fourier_cutoff + 2:
            raise ModelError(
                "grid must have at least 2N+2 points per dimension for "
                f"cutoff N={self.fourier_cutoff} (got {self.grid_size})"
            )

    @property
    def npoints(self) -> int:
        return self.grid_size**self.dim

    @property
    def nmodes(self) -> int:
        return (2 * self.fourier_cutoff + 1) ** self.dim

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.grid_size,) * self.dim

    def modes(self) -> np.ndarray:
        return mode_lattice(self.fourier_cutoff, self.dim)

    def points(self) -> np.ndarray:
        return grid_points(self.grid_size, self.dim)

    def eval_matrix(self) -> np.ndarray:
        return eval_matrix(self.grid_size, self.fourier_cutoff, self.dim)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def mode_lattice(N: int, r: int) -> np.ndarray:
    """Integer mode box {-N..N}^r in lexicographic order, shape ((2N+1)^r, r)."""
    axes = [np.arange(-N, N + 1)] * r
    mesh = np.meshgrid(*axes, indexing="ij")
    return _readonly(np.stack([m.ravel() for m in mesh], axis=-1))


@lru_cache(maxsize=None)
def grid_points(n: int, r: int) -> np.ndarray:
    """Grid points j/n in [0,1)^r, shape (n^r, r), row-major over axes."""
    axes = [np.arange(n) / n] * r
    mesh = np.meshgrid(*axes, indexing="ij")
    return _readonly(np.stack([m.ravel() for m in mesh], axis=-1))


@lru_cache(maxsize=None)
def eval_matrix(n: int, N: int, r: int) -> np.ndarray:
    """Matrix E[z, nu] = exp(2 pi i nu.z) evaluating box coefficients on the grid.

    Columns are orthonormal for the quadrature inner product: E^* E / n^r = I
    whenever n > 2N.
    """
    z = grid_points(n, r)
    nu = mode_lattice(N, r)
    return _readonly(np.exp(TWO_PI_I * (z @ nu.T)))


def spectral_gradient(field: np.ndarray, fiber: FiberModel, axes) -> list[np.ndarray]:
    """Partial derivatives d/dz_a of a grid field, one array per a in axes.

    The leading axis of field runs over grid points; trailing axes (matrix
    entries, say) are carried along and differentiated entry by entry.  The
    grid axes are moved last and made contiguous, one forward fftn serves
    every requested axis and each takes one inverse.  Each line transform is
    the same whatever the layout, so the values do not depend on the
    trailing shape or on which other axes are requested.  The unmatched
    Nyquist mode (n even) is dropped from the derivative; it is absent from
    all band-limited data anyway.
    """
    n, r = fiber.grid_size, fiber.dim
    field = np.asarray(field, dtype=complex)
    lead = field.ndim - 1
    grid_axes = tuple(range(lead, lead + r))
    shaped = field.reshape(fiber.grid_shape + field.shape[1:])
    # a C-ordered copy, never the caller's array: the transforms run in place
    spec = np.moveaxis(shaped, range(r), grid_axes).copy()
    np.fft.fftn(spec, axes=grid_axes, out=spec)
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        freqs[n // 2] = 0.0
    mult = TWO_PI_I * freqs
    out = []
    for a in axes:
        shape = [1] * spec.ndim
        shape[lead + a] = n
        d = spec * mult.reshape(shape)
        np.fft.ifftn(d, axes=grid_axes, out=d)
        out.append(np.moveaxis(d, grid_axes, range(r)).reshape(field.shape))
    return out


def band_limit(field: np.ndarray, fiber: FiberModel) -> np.ndarray:
    """Project a grid field onto the mode box (drop all higher harmonics).

    One FFT pair over the grid: the transform is kept where every axis
    frequency has |nu| <= fourier_cutoff, and zeroed elsewhere.
    """
    freqs = np.abs(np.fft.fftfreq(fiber.grid_size, d=1.0 / fiber.grid_size))
    keep = freqs <= fiber.fourier_cutoff
    mask = keep
    for _ in range(fiber.dim - 1):
        mask = np.logical_and.outer(mask, keep)
    spec = np.fft.fftn(np.asarray(field, dtype=complex).reshape(fiber.grid_shape))
    return np.fft.ifftn(spec * mask).reshape(np.shape(field))


def random_band_limited(rng: np.random.Generator, fiber: FiberModel, band: int) -> np.ndarray:
    """Seeded complex random trigonometric polynomial of band <= band, as a grid field.

    Evaluated by the cached evaluation matrix of the band's mode box.
    """
    if band > fiber.fourier_cutoff:
        raise ModelError("requested band exceeds the fiber cutoff")
    modes = mode_lattice(band, fiber.dim)
    coeff = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    # times the reciprocal, not divided: the seeded fields keep their last bits
    coeff *= 1.0 / np.sqrt(len(modes))
    return eval_matrix(fiber.grid_size, band, fiber.dim) @ coeff
