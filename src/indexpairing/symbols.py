"""Truncated symbol calculus on torus fibers.

A symbol is sampled on the grid-times-mode lattice of one fiber: one array
of shape (npoints, nmodes), which every base point shares, with a declared
order.  Every symbol here is scalar, as every section the workbench acts
on is.  Quantization uses the standard left ordering: the matrix element
of Op(a) between incoming mode nu and outgoing mode mu is the z-Fourier
coefficient of a(., nu) at frequency mu - nu, with outgoing rows beyond
the cutoff dropped.  It returns the operator block; the order stays with
the symbol, the only place that reads it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import FiberModel, ModelError
from .operators import OperatorBlock, fourier_basis

SMOOTHING_ORDER = float("-inf")
# ellipticity is certified on the modes with |xi| >= ELLIPTIC_RADIUS, where
# every sampled |a| must exceed ELLIPTIC_FLOOR
ELLIPTIC_RADIUS = 0.5
ELLIPTIC_FLOOR = 1e-12


class EllipticityError(ModelError):
    """Raised when a symbol fails to be invertible on the certified region."""


@dataclass
class SymbolData:
    """Sampled scalar symbol on one fiber, with declared order.

    ``values`` has shape (npoints, nmodes).
    """

    fiber: FiberModel
    order: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        fiber = self.fiber
        want = (fiber.npoints, fiber.nmodes)
        if self.values.shape != want:
            raise ModelError(f"symbol table has shape {self.values.shape}, expected {want}")


def certify_elliptic(fiber: FiberModel, values: np.ndarray) -> None:
    """Refuse a mode-only symbol that is not finite on a retained mode, or singular with |xi| >= ELLIPTIC_RADIUS.

    ``values`` holds one symbol value per mode of ``fiber``; a value is
    singular when its modulus is at most ELLIPTIC_FLOOR.  A NaN fails that
    comparison, so a value that is not finite is refused on its own, at
    every mode.  The error lists the offending lattice points.
    """
    modes = fiber.modes()
    outside = np.sqrt(np.sum(modes.astype(float) ** 2, axis=1)) >= ELLIPTIC_RADIUS
    bad = np.nonzero(~np.isfinite(values) | (outside & (np.abs(values) <= ELLIPTIC_FLOOR)))[0]
    if bad.size:
        listing = ", ".join(f"mode {tuple(int(c) for c in modes[i])}" for i in bad[:8])
        raise EllipticityError(f"symbol is singular or not finite on the lattice at: {listing}")


def _quantize_table(table: np.ndarray, fiber: FiberModel) -> np.ndarray:
    n, r, modes = fiber.grid_size, fiber.dim, fiber.modes()
    shaped = table.reshape(fiber.grid_shape + (fiber.nmodes,))
    hat = np.fft.fftn(shaped, axes=tuple(range(r))) / fiber.npoints
    mat = np.empty((fiber.nmodes, fiber.nmodes), dtype=complex)
    for col in range(fiber.nmodes):
        k = (modes - modes[col]) % n
        mat[:, col] = hat[tuple(k.T) + (col,)]
    return mat


def quantize(sym: SymbolData) -> OperatorBlock:
    """Left quantization of a sampled symbol on the truncated Fourier basis.

    Outgoing frequencies that leave the retained box are dropped, which is
    the only truncation this map performs.  A mode-only symbol quantizes to
    its diagonal multiplier only up to the rounding of the FFT, which leaves
    off-diagonal entries of about 1e-16 (up to 1.4e-16 on the symbol of
    S3-multiplier-invertible); ``operators.fourier_multiplier`` builds that
    block exactly.
    """
    basis = fourier_basis(sym.fiber)
    return OperatorBlock(basis, basis, _quantize_table(sym.values, sym.fiber))


def trace_symbol_formula(sym: SymbolData, weight: np.ndarray) -> complex:
    """Weighted trace computed from a smoothing symbol table.

    Sum over modes of the quadrature mean of w(z) a(z, nu), with w the
    mass-weighted cutoff field.  Only declared-smoothing symbols qualify;
    agreement with the kernel-side trace is limited by the lattice
    truncation.
    """
    if sym.order != SMOOTHING_ORDER:
        raise ModelError("the symbol-side trace needs a declared smoothing symbol")
    return complex(0j + np.sum(weight[:, None] * sym.values) / sym.fiber.npoints)
