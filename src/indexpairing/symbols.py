"""Truncated symbol calculus on torus fibers.

A symbol is sampled on the grid-times-mode lattice: per base point an array
of shape (npoints, nmodes) for scalar symbols, or (npoints, nmodes, rows,
cols) for matrix ones.  Quantization uses the standard left ordering: the
matrix element of Op(a) between incoming mode nu and outgoing mode mu is the
z-Fourier coefficient of a(., nu) at frequency mu - nu, with outgoing rows
beyond the cutoff dropped.
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


class EllipticityError(ModelError):
    """Raised when a symbol fails to be invertible on the certified region."""


@dataclass
class SymbolData:
    """Sampled symbol family with declared order.

    ``values[x]`` has shape (npoints, nmodes) or (npoints, nmodes, rows, cols).
    """

    base: BaseModel
    order: float
    values: list[np.ndarray]
    shape: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if len(self.values) != len(self.base):
            raise ModelError("one symbol table per base point is required")
        vals = []
        for x, v in enumerate(self.values):
            v = np.asarray(v, dtype=complex)
            fiber = self.base.fiber(x)
            want = (fiber.npoints, fiber.nmodes)
            if self.shape != (1, 1):
                want = want + self.shape
            if v.shape != want:
                raise ModelError(f"symbol table at point {x} has shape {v.shape}, expected {want}")
            vals.append(v)
        self.values = vals

    def is_matrix(self) -> bool:
        return self.shape != (1, 1)

    def certify_elliptic(self, radius: float, floor: float = 1e-12) -> None:
        """Check invertibility for all retained modes with |xi| >= radius.

        For matrix symbols the smallest singular value is used.  Raises with
        the offending lattice points listed.
        """
        bad: list[tuple[int, tuple]] = []
        for x, v in enumerate(self.values):
            modes = self.base.fiber(x).modes()
            outside = np.sqrt(np.sum(modes.astype(float) ** 2, axis=1)) >= radius
            if self.is_matrix():
                small = np.min(np.linalg.svd(v, compute_uv=False), axis=-1)
                small = np.min(small, axis=0)
            else:
                small = np.min(np.abs(v), axis=0)
            for idx in np.nonzero(outside & (small <= floor))[0]:
                bad.append((x, tuple(int(c) for c in modes[idx])))
        if bad:
            listing = ", ".join(f"point {x} mode {m}" for x, m in bad[:8])
            raise EllipticityError(f"symbol is singular on the lattice at: {listing}")


def multiplier_symbol(
    base: BaseModel, multiplier: Callable[[np.ndarray], np.ndarray], order: float
) -> SymbolData:
    """Symbol depending on the mode only; ``multiplier`` maps (nmodes, r) ints to values."""
    vals = []
    for x in range(len(base)):
        fiber = base.fiber(x)
        row = np.asarray(multiplier(fiber.modes()), dtype=complex)
        vals.append(np.broadcast_to(row, (fiber.npoints, fiber.nmodes)).copy())
    return SymbolData(base, order, vals)


def _quantize_scalar(table: np.ndarray, fiber: FiberModel) -> np.ndarray:
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
    blocks = []
    rows, cols = sym.shape
    for x in range(len(sym.base)):
        fiber = sym.base.fiber(x)
        if not sym.is_matrix():
            basis = fourier_basis(fiber)
            mat = _quantize_scalar(sym.values[x], fiber)
            blocks.append(OperatorBlock(basis, basis, mat))
            continue
        nm = fiber.nmodes
        mat = np.zeros((rows * nm, cols * nm), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                mat[i * nm : (i + 1) * nm, j * nm : (j + 1) * nm] = _quantize_scalar(
                    sym.values[x][:, :, i, j], fiber
                )
        blocks.append(
            OperatorBlock(fourier_basis(fiber, cols), fourier_basis(fiber, rows), mat)
        )
    return LeafwiseOperatorFamily(sym.base, blocks, sym.order)


def symbol_of(fam: LeafwiseOperatorFamily) -> SymbolData:
    """Sampled symbol of an operator family on Fourier bases.

    sigma(z, nu) = conj(e_nu(z)) * (P e_nu)(z).  Left-inverse of quantize on
    mode-only symbols for every retained mode, and on variable band-limited
    symbols for interior modes (outgoing-row truncation clips the edge).
    """
    vals = []
    shape = (1, 1)
    for x in range(len(fam.base)):
        block = fam.blocks[x]
        fiber = fam.base.fiber(x)
        if block.domain.key[0] != "fourier" or block.codomain.key[0] != "fourier":
            raise ModelError("symbol extraction requires Fourier-basis blocks")
        E = fiber.eval_matrix()
        nm = fiber.nmodes
        rows, cols = block.codomain.components, block.domain.components
        shape = (rows, cols)
        if shape == (1, 1):
            vals.append(np.conj(E) * (E @ block.matrix))
            continue
        tab = np.empty((fiber.npoints, nm, rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                sub = block.matrix[i * nm : (i + 1) * nm, j * nm : (j + 1) * nm]
                tab[:, :, i, j] = np.conj(E) * (E @ sub)
        vals.append(tab)
    return SymbolData(fam.base, fam.order, vals, shape=shape)


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
        fiber = sym.base.fiber(x)
        table = sym.values[x]
        if sym.is_matrix():
            table = np.trace(table, axis1=-2, axis2=-1)
        weighted = cutoff.fields[x][:, None] * table
        total += dens.mass(x) * np.sum(weighted) / fiber.npoints
    return complex(total)
