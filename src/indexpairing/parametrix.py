"""Parametrices, spectral index counts, and localized index idempotents.

The parametrix of an operator block is its pseudo-inverse Q with a
certified rank cut: the spectral way of inverting the symbol away from its
zero set.  Its remainders S0 = 1 - QD and S1 = 1 - DQ are the orthogonal
projectors onto kernel and cokernel, which is as smoothing as remainders
get.  The singular values give the certified rank, and the trailing
singular vectors give orthonormal frames V0 and V1 with S0 = V0 V0^H and
S1 = V1 V1^H, so Q is never formed: on the grid each projector is
W W^H / n, W = E V with E its basis, and its block count is certified on
W.  Every block the workbench ships is monomial in its bases, with at most
one nonzero entry in each row and each column: a Fourier multiplier is
diagonal, and the twisted Dolbeault operator maps each Landau section to a
multiple of one section a level down.  Its singular values are the moduli
of those entries and its frames are unit vectors; only a non-monomial
block takes one SVD.

The index idempotent is the standard graph construction over domain + range,

    P = [[S0^2,          S0 (1 + S0) Q],
         [S1 D,          1 - S1^2     ]].

The pseudo-inverse makes it block diagonal: Q maps onto the orthogonal
complement of the kernel, so S0 Q = 0; D maps into the complement of the
cokernel, so S1 D = 0; and both remainders are projectors.  Hence

    P = diag(S0, 1 - S1),   [P] - [e] = [S0] - [S1],

with e the identity on the range copy.  The idempotent is stored as the two
projectors S0 and S1 on the scalar grid sections of the one fiber, and every
consumer (trace, pairing, invariance gate, cache) works on them one at a
time.
A projector that commutes with translations along axis 0 is block
circulant (see ``operators``): its block count g is certified on its range,
and only its block row 0 is built and stored, a zero projector as None.
Localization truncates each projector at a fiber radius and restores
idempotency with the cubic correction flow on the g Fourier blocks of size
npoints/g; the flow commutes with P -> 1 - P, so the range block 1 - S1 is
corrected by flowing S1, and the flowed block row is stored once its trace
still counts the rank of the projector it was cut from.  The cut radius
belongs to the idempotent, not to either projector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import FiberModel, ModelError
from .operators import (
    OperatorBlock,
    SectionBasis,
    SmoothingKernel,
    block_count,
    certified_block_row,
    circulant_blocks,
    circulant_row,
    squared_tick_distances,
)


class ThresholdAmbiguityError(ModelError):
    """Raised when singular values sit too close to the rank threshold."""


class LocalizationError(ModelError):
    """Raised when the truncated idempotent cannot be corrected."""


class CorruptedCacheError(ModelError):
    """Raised when a cached coefficient file fails structural validation."""


# a singular value counts toward the rank above RANK_THRESHOLD * sigma_max,
# and none may lie within a factor RANK_WINDOW of that cut
RANK_THRESHOLD = 1e-8
RANK_WINDOW = 10.0
# McWeeny steps the localization flow may take before the cut counts as too tight
MAX_NEWTON_STEPS = 50
# the largest entry of P^2 - P a localized projector may keep after its flow
NEWTON_TOL = 1e-8
# an entry counts toward a kernel's reach above REACH_FLOOR times its largest
REACH_FLOOR = 1e-12


def certified_rank(singular: np.ndarray) -> int:
    """Numerical rank with an explicit no-mans-land around the threshold.

    Any singular value within a factor RANK_WINDOW of RANK_THRESHOLD *
    sigma_max makes the rank call unreliable; that asks for a finer model,
    not a guess.
    """
    if singular.size == 0:
        return 0
    top = float(singular[0])
    if top == 0.0:
        return 0
    cut = RANK_THRESHOLD * top
    near = (singular > cut / RANK_WINDOW) & (singular < cut * RANK_WINDOW)
    if np.any(near):
        vals = ", ".join(f"{v:.3e}" for v in singular[near][:6])
        raise ThresholdAmbiguityError(
            f"singular values [{vals}] are within a factor {RANK_WINDOW:g} of the "
            f"rank threshold {cut:.3e}; refine the truncation before trusting the rank"
        )
    return int(np.sum(singular > cut))


@dataclass
class IndexCount:
    """Kernel and cokernel dimensions of an operator."""

    kernel_dim: int
    cokernel_dim: int

    @property
    def index(self) -> int:
        return self.kernel_dim - self.cokernel_dim


def analytic_index(block: OperatorBlock) -> IndexCount:
    """Spectral kernel and cokernel counts of an operator: the widths of its parametrix frames."""
    return parametrix(block).count


@dataclass
class ParametrixData:
    """Orthonormal coefficient frames v0 of the kernel and v1 of the cokernel.

    v0 and v1 are the operator's right and left singular vectors past its
    certified rank: the ranges of the remainders 1 - QD and 1 - DQ of the
    pseudo-inverse Q, which are the projectors v0 v0^H and v1 v1^H.
    """

    v0: np.ndarray
    v1: np.ndarray

    @property
    def count(self) -> IndexCount:
        return IndexCount(self.v0.shape[1], self.v1.shape[1])


def parametrix(block: OperatorBlock) -> ParametrixData:
    """Kernel and cokernel frames of the pseudo-inverse parametrix.

    Every shipped block is monomial and reads its frames off its entries;
    only another block takes the SVD (``_singular_data``).
    """
    _, v0, v1 = _singular_data(block.matrix)
    return ParametrixData(v0, v1)


def _singular_data(M: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Certified rank of M and its trailing right and left singular vectors.

    A monomial M (at most one nonzero entry in each row and each column,
    all finite) has the moduli of its nonzero entries, sorted in descending
    order by a stable sort, as singular values; the right and left singular
    vectors past the certified rank are the unit vectors at the column and
    row indices outside the leading entries, in ascending order.  Any other
    M takes LAPACK's full SVD, so the trailing singular vectors span the
    kernel of a wide operator too.
    """
    live = M != 0
    per_row = live.sum(axis=1)
    if np.all(per_row <= 1) and np.all(live.sum(axis=0) <= 1):
        rows = np.flatnonzero(per_row)
        cols = live[rows].argmax(axis=1)
        moduli = np.abs(M[rows, cols])
        if np.all(np.isfinite(moduli)):
            order = np.argsort(-moduli, kind="stable")
            rank = certified_rank(moduli[order])
            lead = order[:rank]
            return rank, _unit_frame(M.shape[1], cols[lead]), _unit_frame(M.shape[0], rows[lead])
    U, sing, Vh = np.linalg.svd(M)
    rank = certified_rank(sing)
    return rank, Vh[rank:].conj().T, U[:, rank:].copy()


def _unit_frame(size: int, lead: np.ndarray) -> np.ndarray:
    """The (size, k) frame of unit vectors at the indices below size outside ``lead``, ascending."""
    outside = np.ones(size, dtype=bool)
    outside[lead] = False
    rest = np.flatnonzero(outside)
    frame = np.zeros((size, rest.size), dtype=complex)
    frame[rest, np.arange(rest.size)] = 1.0
    return frame


class IndexIdempotent:
    """Grid realization of the index idempotent P = diag(S0, 1 - S1) of an operator.

    ``skernel`` is the kernel projector S0 and ``cokernel`` the cokernel
    projector S1, both on scalar grid sections as certified block rows;
    ``radius`` is the fiber radius both were cut at (+inf when unlocalized).
    The index class is [S0] - [S1].
    """

    def __init__(self, skernel: SmoothingKernel, cokernel: SmoothingKernel, radius: float):
        self.skernel = skernel
        self.cokernel = cokernel
        self.radius = float(radius)

    @property
    def families(self) -> tuple[SmoothingKernel, SmoothingKernel]:
        return self.skernel, self.cokernel

    def arrays(self) -> list[np.ndarray]:
        """Cached form: [radius], then block row 0 of S0 and of S1.

        The radius is +inf for an unlocalized idempotent.  A zero operator
        is the empty (0, 0) array.
        """
        out = [np.array([self.radius])]
        for f in self.families:
            out.append(np.zeros((0, 0), dtype=complex) if f.row is None else f.row)
        return out

    @classmethod
    def from_arrays(cls, fiber: FiberModel, arrays: list[np.ndarray]) -> "IndexIdempotent":
        """Inverse of arrays(); raises CorruptedCacheError on any mismatch with fiber."""
        if len(arrays) != 3:
            raise CorruptedCacheError(f"expected 3 arrays, found {len(arrays)}")
        head = arrays[0]
        if head.shape != (1,) or head.dtype != np.float64 or not head[0] > 0:
            raise CorruptedCacheError(f"cut radius {head} is not a positive number")
        families = []
        for row in arrays[1:]:
            if row.dtype != np.complex128:
                raise CorruptedCacheError(f"block row dtype {row.dtype} is not complex128")
            try:
                families.append(SmoothingKernel(fiber, None if row.shape == (0, 0) else row))
            except ModelError as exc:
                raise CorruptedCacheError(str(exc)) from exc
        return cls(*families, head[0])

    @cached_property
    def effective_radius(self) -> float:
        """Largest fiber distance carrying an entry above REACH_FLOOR * max entry.

        The max entry is taken over both projectors, so a roundoff-sized one
        does not count its noise as reach.  A block row holds every entry of
        its matrix, so its rows of squared tick distances suffice.  Computed
        on first read, once per idempotent.
        """
        fiber = self.skernel.fiber
        mags = [np.abs(m) for f in self.families for m in f.mats]
        cut = REACH_FLOOR * max([float(m.max()) for m in mags] + [1e-300])
        reach = 0
        for m in mags:
            live = m > cut
            if np.any(live):
                reach = max(reach, int(squared_tick_distances(fiber, m.shape[0])[live].max()))
        return math.sqrt(reach) / fiber.grid_size


def _newton_flow(P: np.ndarray, tol: float) -> tuple[np.ndarray, float, int]:
    """McWeeny purification P -> 3 P^2 - 2 P^3 on the Fourier blocks (g, B, B) of P.

    The defect is the largest entry of P^2 - P, read on block row 0 in real
    space; every other block row of a block-circulant matrix repeats it.
    P^2 serves both the defect test and the next step.  A step forms the
    next P in a fresh P^2 P stack, scaled and subtracted in place (the
    operations of 3 P^2 - 2 P^3 in its order), and the next P^2 goes into
    the old P^2's buffer, so the flow holds P, P^2 and one more stack.
    """
    P2 = P @ P
    defect = _row_max(P2, P)
    steps = 0
    while defect > tol and steps < MAX_NEWTON_STEPS:
        nxt = P2 @ P
        nxt *= 2.0
        P2 *= 3.0
        P = np.subtract(P2, nxt, out=nxt)
        steps += 1
        np.matmul(P, P, out=P2)
        defect = _row_max(P2, P)
        if not np.isfinite(defect):
            break
    return P, defect, steps


def _row_max(P2: np.ndarray, P: np.ndarray) -> float:
    """max |P^2 - P| on block row 0: the difference, transformed back in place.

    The inverse FFT along the block axis gives the blocks C_m of block row 0;
    their largest entry does not depend on how they are laid out, and is
    read one block at a time.
    """
    diff = P2 - P
    np.fft.ifft(diff, axis=0, out=diff)
    return float(np.max([np.max(np.abs(block)) for block in diff]))


def index_idempotent(
    block: OperatorBlock,
    radius: float | None = None,
    newton_tol: float = NEWTON_TOL,
    data: ParametrixData | None = None,
) -> IndexIdempotent:
    """Index idempotent of an operator, optionally localized at a fiber radius.

    ``data`` is ``parametrix(block)``, computed here unless the caller has it.
    Each projector is stored as its certified block row
    (``certified_block_row``).  With no radius the construction is exact
    and the row is stored uncut.  With a radius, each projector is
    hard-truncated (``truncation_mask``) and idempotency restored by the
    cubic flow P -> 3 P^2 - 2 P^3, both on that block row; failure to reach
    newton_tol (NEWTON_TOL unless a caller asks for a tighter defect) within
    MAX_NEWTON_STEPS means the radius is too aggressive for the kernel decay
    and raises.  A projector of rank 0 is stored as None.
    """
    if data is None:
        data = parametrix(block)
    cut = np.inf if radius is None else radius
    rows = [
        _stored_row(basis, v, cut, newton_tol)
        for basis, v in ((block.domain, data.v0), (block.codomain, data.v1))
    ]
    # The flow smears tolerance-scale mass back outside the cut (each step
    # spreads the support), so the stored radius is the localization cut of
    # the construction rather than a hard zero; effective_radius measures the
    # true reach when that distinction matters.
    fiber = block.domain.fiber
    return IndexIdempotent(*(SmoothingKernel(fiber, row) for row in rows), cut)


def _stored_row(
    basis: SectionBasis, v: np.ndarray, radius: float, newton_tol: float
) -> np.ndarray | None:
    """Certified block row 0 of the projector onto the span of E v; None for rank 0.

    At radius +inf the row is stored uncut.  Cut at a finite radius, it is
    flowed back to a projector, whose trace g tr C_0 must still round to
    ``rank``: a cut too tight for the kernel decay can flow to a projector
    of another rank, even 0, whose defect passes.
    """
    rank = v.shape[1]
    if rank == 0:
        return None
    if radius == np.inf:
        return certified_block_row(basis, radius, v)
    # neither the cut row nor its blocks are held while the flow runs
    P, defect, steps = _newton_flow(
        circulant_blocks(certified_block_row(basis, radius, v)), newton_tol
    )
    if defect > newton_tol:
        raise LocalizationError(
            f"idempotent correction stalled at defect {defect:.3e} after "
            f"{steps} steps at radius {radius:g}; the cut is too tight for "
            "the kernel decay"
        )
    row = circulant_row(P)
    trace = block_count(row) * float(np.trace(row[:, : row.shape[0]]).real)
    if round(trace) != rank:
        raise LocalizationError(
            f"idempotent correction carried the rank-{rank} projector to trace "
            f"{trace:.6g} at radius {radius:g}; the cut is too tight for the "
            "kernel decay"
        )
    return row
