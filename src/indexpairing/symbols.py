"""Truncated symbol calculus on torus fibers.

A symbol is sampled on the grid-times-mode lattice: one array of shape
(npoints, nmodes) for every base point.  Every symbol here is scalar, as
every section the workbench acts on is.  Quantization uses the standard left
ordering: the matrix element of Op(a) between incoming mode nu and outgoing
mode mu is the z-Fourier coefficient of a(., nu) at frequency mu - nu, with
outgoing rows beyond the cutoff dropped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import FiberModel, ModelError
from .groupoid import BaseModel
from .operators import LeafwiseOperatorFamily, OperatorBlock, fourier_basis
from .density import CutoffDensity, TransversalDensity

SMOOTHING_ORDER = float("-inf")
# ellipticity is certified on the modes with |xi| >= ELLIPTIC_RADIUS, where
# every sampled |a| must exceed ELLIPTIC_FLOOR
ELLIPTIC_RADIUS = 0.5
ELLIPTIC_FLOOR = 1e-12


class EllipticityError(ModelError):
    """Raised when a symbol fails to be invertible on the certified region."""


@dataclass
class SymbolData:
    """Sampled scalar symbol, the same over every base point, with declared order.

    ``values`` has shape (npoints, nmodes).
    """

    base: BaseModel
    order: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        fiber = self.base.fiber
        want = (fiber.npoints, fiber.nmodes)
        if self.values.shape != want:
            raise ModelError(f"symbol table has shape {self.values.shape}, expected {want}")

    def certify_elliptic(self) -> None:
        """Check invertibility for all retained modes with |xi| >= ELLIPTIC_RADIUS.

        Raises with the offending lattice points listed.
        """
        modes = self.base.fiber.modes()
        outside = np.sqrt(np.sum(modes.astype(float) ** 2, axis=1)) >= ELLIPTIC_RADIUS
        small = np.min(np.abs(self.values), axis=0)
        bad = np.nonzero(outside & (small <= ELLIPTIC_FLOOR))[0]
        if bad.size:
            listing = ", ".join(f"mode {tuple(int(c) for c in modes[i])}" for i in bad[:8])
            raise EllipticityError(f"symbol is singular on the lattice at: {listing}")


def multiplier_symbol(
    base: BaseModel, multiplier: Callable[[np.ndarray], np.ndarray], order: float
) -> SymbolData:
    """Symbol depending on the mode only; ``multiplier`` maps (nmodes, r) ints to values."""
    fiber = base.fiber
    row = np.asarray(multiplier(fiber.modes()), dtype=complex)
    return SymbolData(base, order, np.broadcast_to(row, (fiber.npoints, fiber.nmodes)).copy())


def _quantize_table(table: np.ndarray, fiber: FiberModel) -> np.ndarray:
    n, r, modes = fiber.grid_size, fiber.dim, fiber.modes()
    shaped = table.reshape(fiber.grid_shape + (fiber.nmodes,))
    hat = np.fft.fftn(shaped, axes=tuple(range(r))) / fiber.npoints
    mat = np.empty((fiber.nmodes, fiber.nmodes), dtype=complex)
    for col in range(fiber.nmodes):
        k = (modes - modes[col]) % n
        mat[:, col] = hat[tuple(k.T) + (col,)]
    return mat


def quantize(sym: SymbolData) -> LeafwiseOperatorFamily:
    """Left quantization of a sampled symbol on the truncated Fourier basis.

    Mode-only symbols quantize to exact diagonal multipliers.  Outgoing
    frequencies that leave the retained box are dropped, which is the only
    truncation this map performs.
    """
    fiber = sym.base.fiber
    basis = fourier_basis(fiber)
    block = OperatorBlock(basis, basis, _quantize_table(sym.values, fiber))
    return LeafwiseOperatorFamily(sym.base, block, sym.order)


def symbol_of(fam: LeafwiseOperatorFamily) -> SymbolData:
    """Sampled symbol of an operator family on Fourier bases.

    sigma(z, nu) = conj(e_nu(z)) * (P e_nu)(z).  Left-inverse of quantize on
    mode-only symbols for every retained mode, and on variable band-limited
    symbols for interior modes (outgoing-row truncation clips the edge).
    """
    block = fam.block
    if block.domain.key[0] != "fourier" or block.codomain.key[0] != "fourier":
        raise ModelError("symbol extraction requires Fourier-basis blocks")
    E = fam.base.fiber.eval_matrix()
    return SymbolData(fam.base, fam.order, np.conj(E) * (E @ block.matrix))


def trace_symbol_formula(
    sym: SymbolData,
    cutoff: CutoffDensity,
    dens: TransversalDensity,
) -> complex:
    """Weighted trace computed from a smoothing symbol table.

    Sum over base points of mass * sum over modes of the quadrature mean of
    c(z) a(z, nu).  Only declared-smoothing symbols qualify; agreement with
    the kernel-side trace is limited by the lattice truncation.
    """
    if sym.order != SMOOTHING_ORDER:
        raise ModelError("the symbol-side trace needs a declared smoothing symbol")
    total = 0.0 + 0.0j
    for x in range(len(sym.base)):
        weighted = cutoff.fields[x][:, None] * sym.values
        total += dens.mass(x) * np.sum(weighted) / sym.base.fiber.npoints
    return complex(total)
