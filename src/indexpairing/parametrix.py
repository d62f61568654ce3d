"""Parametrices, spectral index counts, and localized index idempotents.

The parametrix of an operator block is its pseudo-inverse with a certified
rank cut: the spectral way of inverting the symbol away from its zero set.
The remainders S0 = 1 - QD and S1 = 1 - DQ come out as exact orthogonal
projectors onto kernel and cokernel, which is as smoothing as remainders get.

The index idempotent is the standard graph construction over domain + range,

    P = [[S0^2,          S0 (1 + S0) Q],
         [S1 D,          1 - S1^2     ]].

The pseudo-inverse makes it block diagonal: Q maps onto the orthogonal
complement of the kernel, so S0 Q = 0; D maps into the complement of the
cokernel, so S1 D = 0; and both remainders are projectors.  Hence

    P = diag(S0, 1 - S1),   [P] - [e] = [S0] - [S1],

with e the identity on the range copy.  The idempotent is stored as the two
projector families S0 and S1 on scalar grid sections, and every consumer
(trace, pairing, invariance gate, cache) works on them one at a time.
Localization truncates each family at a fiber radius and restores
idempotency with the cubic correction flow; the flow commutes with
P -> 1 - P, so the range block 1 - S1 is corrected by flowing S1.  A
truncated projector that commutes with translations along axis 0 is block
circulant (see ``operators``), and the flow runs on its g Fourier blocks of
size npoints/g, with g = 1 the dense case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ModelError
from .groupoid import BaseModel
from .operators import (
    LeafwiseOperatorFamily,
    OperatorBlock,
    SmoothingKernel,
    circulant_blocks,
    circulant_dense,
    circulant_order,
    circulant_row,
    fiber_distance_matrix,
    truncation_mask,
)
from .space import FiberedGSpace


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
    """Kernel and cokernel dimensions per base point."""

    kernel_dims: list[int]
    cokernel_dims: list[int]

    def index(self, x: int = 0) -> int:
        return self.kernel_dims[x] - self.cokernel_dims[x]


def analytic_index(
    fam: LeafwiseOperatorFamily, gspace: FiberedGSpace | None = None
) -> IndexCount:
    """Spectral kernel and cokernel counts of an operator family.

    With a groupoid action supplied, the counts are checked to be constant
    along arrows, which is what invariance of the family forces.
    """
    kers, coks = [], []
    for block in fam.blocks:
        sing = np.linalg.svd(block.matrix, compute_uv=False)
        rank = certified_rank(sing)
        kers.append(block.matrix.shape[1] - rank)
        coks.append(block.matrix.shape[0] - rank)
    if gspace is not None:
        for a in gspace.groupoid.arrows:
            if (kers[a.src], coks[a.src]) != (kers[a.tgt], coks[a.tgt]):
                raise ModelError(
                    f"kernel or cokernel count jumps along arrow {a.label!r}; "
                    "the family is not invariant"
                )
    return IndexCount(kers, coks)


@dataclass
class ParametrixData:
    r0: list[OperatorBlock]
    r1: list[OperatorBlock]


def parametrix(fam: LeafwiseOperatorFamily) -> ParametrixData:
    """Remainder projectors of the pseudo-inverse parametrix Q.

    Q inverts every certified singular direction, so R0 = 1 - QD and
    R1 = 1 - DQ are the orthogonal projectors onto kernel and cokernel;
    their matrix entries vanish outside those few directions by construction.
    A remainder whose certified dimension is 0 is set to exact zeros rather
    than the rounding noise of 1 - QD or 1 - DQ, so that the consumers can
    skip it.
    """
    r0, r1 = [], []
    for block in fam.blocks:
        M = block.matrix
        U, sing, Vh = np.linalg.svd(M, full_matrices=False)
        rank = certified_rank(sing)
        inv = np.zeros_like(sing)
        inv[:rank] = 1.0 / sing[:rank]
        Qm = (Vh.conj().T * inv) @ U.conj().T
        nc, nd = M.shape
        kernel = np.eye(nd) - Qm @ M if rank < nd else np.zeros((nd, nd), complex)
        cokernel = np.eye(nc) - M @ Qm if rank < nc else np.zeros((nc, nc), complex)
        r0.append(OperatorBlock(block.domain, block.domain, kernel))
        r1.append(OperatorBlock(block.codomain, block.codomain, cokernel))
    return ParametrixData(r0, r1)


class IndexIdempotent:
    """Grid realization of the index idempotent P = diag(S0, 1 - S1) of a family.

    ``skernel`` is the kernel projector family S0 and ``cokernel`` the
    cokernel projector family S1, both on scalar grid sections and cut at the
    same support radius; the index class is [S0] - [S1].
    """

    def __init__(self, base: BaseModel, skernel: SmoothingKernel, cokernel: SmoothingKernel):
        self.base = base
        self.skernel = skernel
        self.cokernel = cokernel

    @property
    def families(self) -> tuple[SmoothingKernel, SmoothingKernel]:
        return self.skernel, self.cokernel

    def arrays(self) -> list[np.ndarray]:
        """Cached form: [support radius], then S0 and S1 at each base point in turn.

        The radius is +inf for an unlocalized idempotent.
        """
        out = [np.array([self.skernel.support_radius])]
        for s0, s1 in zip(self.skernel.mats, self.cokernel.mats):
            out += [s0, s1]
        return out

    @classmethod
    def from_arrays(cls, base: BaseModel, arrays: list[np.ndarray]) -> "IndexIdempotent":
        """Inverse of arrays(); raises CorruptedCacheError on any mismatch with base."""
        if len(arrays) != 1 + 2 * len(base):
            raise CorruptedCacheError(
                f"expected {1 + 2 * len(base)} arrays, found {len(arrays)}"
            )
        head, mats = arrays[0], arrays[1:]
        if head.shape != (1,) or head.dtype != np.float64 or not head[0] > 0:
            raise CorruptedCacheError(f"support radius {head} is not a positive number")
        for i, m in enumerate(mats):
            size = base.fiber(i // 2).npoints
            if m.shape != (size, size) or m.dtype != np.complex128:
                raise CorruptedCacheError(
                    f"kernel matrix at point {i // 2} has shape {m.shape} and dtype "
                    f"{m.dtype}, expected {(size, size)} and complex128"
                )
        s0, s1 = (SmoothingKernel(base, mats[j::2], head[0]) for j in (0, 1))
        return cls(base, s0, s1)

    def idempotent_defect(self) -> float:
        return max(
            float(np.max(np.abs(m @ m - m))) for f in self.families for m in f.mats
        )

    def effective_radius(self) -> float:
        """Largest fiber distance carrying an entry above REACH_FLOOR * max entry.

        The max entry is taken over both families at each base point, so a
        roundoff-sized family does not count its noise as reach.
        """
        radius = 0.0
        for x in range(len(self.base)):
            dist = fiber_distance_matrix(self.base.fiber(x))
            mags = [np.abs(f.mats[x]) for f in self.families]
            cut = REACH_FLOOR * max(max(float(m.max()) for m in mags), 1e-300)
            for m in mags:
                live = m > cut
                if np.any(live):
                    radius = max(radius, float(dist[live].max()))
        return radius


def _newton_flow(P: np.ndarray, tol: float) -> tuple[np.ndarray, float, int]:
    """McWeeny purification P -> 3 P^2 - 2 P^3 on the Fourier blocks (g, B, B) of P.

    The defect is the largest entry of P^2 - P, read on block row 0 in real
    space; every other block row of a block-circulant matrix repeats it.
    P^2 serves both the defect test and the next step.
    """
    P2 = P @ P
    defect = _row_max(P2 - P)
    steps = 0
    while defect > tol and steps < MAX_NEWTON_STEPS:
        P = 3.0 * P2 - 2.0 * (P2 @ P)
        steps += 1
        P2 = P @ P
        defect = _row_max(P2 - P)
        if not np.isfinite(defect):
            break
    return P, defect, steps


def _row_max(blocks: np.ndarray) -> float:
    return float(np.max(np.abs(circulant_row(blocks))))


def index_idempotent(
    fam: LeafwiseOperatorFamily,
    radius: float | None = None,
    newton_tol: float = 1e-8,
) -> IndexIdempotent:
    """Index idempotent of a family, optionally localized at a fiber radius.

    With no radius the construction is exact.  With a radius, each projector
    family is hard-truncated (``truncation_mask``) and idempotency restored
    by the cubic flow P -> 3 P^2 - 2 P^3; failure to reach the tolerance
    within MAX_NEWTON_STEPS means the radius is too aggressive for the
    kernel decay and raises.
    """
    data = parametrix(fam)
    families = [
        SmoothingKernel(fam.base, [r.grid_matrix() for r in remainders])
        for remainders in (data.r0, data.r1)
    ]
    if radius is None:
        return IndexIdempotent(fam.base, *families)

    # The flow smears tolerance-scale mass back outside the cut (each step
    # spreads the support), so support_radius records the localization cut of
    # the construction rather than a hard zero; effective_radius measures the
    # true reach when that distinction matters.
    keep = [truncation_mask(fam.base.fiber(x), radius) for x in range(len(fam.base))]
    flowed = []
    for kern in families:
        mats = []
        for x, S in enumerate(kern.mats):
            # an exactly-zero family is a projector already
            if np.any(S):
                # in place: the uncut family is not used again
                S *= keep[x]
                g = circulant_order(S, fam.base.fiber(x).grid_size)
                width = S.shape[0] // g
                P, defect, steps = _newton_flow(circulant_blocks(S[:width], g), newton_tol)
                if defect > newton_tol:
                    raise LocalizationError(
                        f"idempotent correction stalled at defect {defect:.3e} after "
                        f"{steps} steps at radius {radius:g}; the cut is too tight for "
                        "the kernel decay"
                    )
                S = circulant_dense(circulant_row(P), g)
            mats.append(S)
        flowed.append(SmoothingKernel(fam.base, mats, radius))
    return IndexIdempotent(fam.base, *flowed)
