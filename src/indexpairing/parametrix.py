"""Parametrices, spectral index counts, and localized index idempotents.

The parametrix of an operator block is its pseudo-inverse with a certified
rank cut: the spectral way of inverting the symbol away from its zero set.
The remainders R0 = 1 - QD and R1 = 1 - DQ come out as exact projectors onto
kernel and cokernel, which is as smoothing as remainders get.

The index idempotent is the standard graph construction over domain + range,

    P = [[S0^2,          S0 (1 + S0) Q],
         [S1 D,          1 - S1^2     ]],      S0 = 1 - QD,  S1 = 1 - DQ,

realized on the grid as P = e + S with e the identity on the range copy and
S a two-component smoothing family.  Localization truncates S at a fiber
radius and restores idempotency with the cubic correction flow.
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
    fiber_distance_matrix,
)
from .space import FiberedGSpace


class ThresholdAmbiguityError(ModelError):
    """Raised when singular values sit too close to the rank threshold."""


class LocalizationError(ModelError):
    """Raised when the truncated idempotent cannot be corrected."""


class CorruptedCacheError(ModelError):
    """Raised when a cached coefficient file fails structural validation."""


def certified_rank(singular: np.ndarray, threshold: float = 1e-8, window: float = 10.0) -> int:
    """Numerical rank with an explicit no-mans-land around the threshold.

    Any singular value within a factor ``window`` of threshold * sigma_max
    makes the rank call unreliable; that asks for a finer model, not a guess.
    """
    if singular.size == 0:
        return 0
    top = float(singular[0])
    if top == 0.0:
        return 0
    cut = threshold * top
    near = (singular > cut / window) & (singular < cut * window)
    if np.any(near):
        vals = ", ".join(f"{v:.3e}" for v in singular[near][:6])
        raise ThresholdAmbiguityError(
            f"singular values [{vals}] are within a factor {window:g} of the "
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
    fam: LeafwiseOperatorFamily,
    gspace: FiberedGSpace | None = None,
    threshold: float = 1e-8,
) -> IndexCount:
    """Spectral kernel and cokernel counts of an operator family.

    With a groupoid action supplied, the counts are checked to be constant
    along arrows, which is what invariance of the family forces.
    """
    kers, coks = [], []
    for block in fam.blocks:
        sing = np.linalg.svd(block.matrix, compute_uv=False)
        rank = certified_rank(sing, threshold)
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
    q: LeafwiseOperatorFamily
    r0: list[OperatorBlock]
    r1: list[OperatorBlock]


def parametrix(fam: LeafwiseOperatorFamily, threshold: float = 1e-8) -> ParametrixData:
    """Pseudo-inverse parametrix with remainder projectors.

    Q inverts every certified singular direction, so R0 and R1 are the
    orthogonal projectors onto kernel and cokernel; their matrix entries
    vanish outside those few directions by construction.
    """
    qblocks, r0, r1 = [], [], []
    for block in fam.blocks:
        M = block.matrix
        U, sing, Vh = np.linalg.svd(M, full_matrices=False)
        rank = certified_rank(sing, threshold)
        inv = np.zeros_like(sing)
        inv[:rank] = 1.0 / sing[:rank]
        Qm = (Vh.conj().T * inv) @ U.conj().T
        qblocks.append(OperatorBlock(block.codomain, block.domain, Qm))
        nd, nc = M.shape[1], M.shape[0]
        r0.append(OperatorBlock(block.domain, block.domain, np.eye(nd) - Qm @ M))
        r1.append(OperatorBlock(block.codomain, block.codomain, np.eye(nc) - M @ Qm))
    order = -fam.order if np.isfinite(fam.order) else fam.order
    return ParametrixData(LeafwiseOperatorFamily(fam.base, qblocks, order), r0, r1)


class IndexIdempotent:
    """Grid realization P = e + S of the graph idempotent of a family.

    ``skernel`` is a two-component smoothing family (component 0 the domain
    copy, component 1 the range copy); ``e`` is the identity on component 1.
    """

    def __init__(self, base: BaseModel, skernel: SmoothingKernel):
        if skernel.blocks != 2:
            raise ModelError("the graph idempotent needs two components")
        self.base = base
        self.skernel = skernel

    def arrays(self) -> list[np.ndarray]:
        """Cached form: [support radius], then one kernel matrix per base point.

        The radius is +inf for an unlocalized idempotent.
        """
        return [np.array([self.skernel.support_radius])] + list(self.skernel.mats)

    @classmethod
    def from_arrays(cls, base: BaseModel, arrays: list[np.ndarray]) -> "IndexIdempotent":
        """Inverse of arrays(); raises CorruptedCacheError on any mismatch with base."""
        if len(arrays) != 1 + len(base):
            raise CorruptedCacheError(
                f"expected {1 + len(base)} arrays, found {len(arrays)}"
            )
        head, mats = arrays[0], arrays[1:]
        if head.shape != (1,) or head.dtype != np.float64 or not head[0] > 0:
            raise CorruptedCacheError(f"support radius {head} is not a positive number")
        for x, m in enumerate(mats):
            size = 2 * base.fiber(x).npoints
            if m.shape != (size, size):
                raise CorruptedCacheError(
                    f"kernel matrix at point {x} has shape {m.shape}, expected {(size, size)}"
                )
        return cls(base, SmoothingKernel(base, mats, blocks=2, support_radius=head[0]))

    def unit_matrix(self, x: int) -> np.ndarray:
        npts = self.base.fiber(x).npoints
        E = np.zeros((2 * npts, 2 * npts))
        E[npts:, npts:] = np.eye(npts)
        return E

    def full_matrix(self, x: int) -> np.ndarray:
        return self.unit_matrix(x) + self.skernel.mats[x]

    def idempotent_defect(self) -> float:
        worst = 0.0
        for x in range(len(self.base)):
            P = self.full_matrix(x)
            worst = max(worst, float(np.max(np.abs(P @ P - P))))
        return worst

    def effective_radius(self, floor: float = 1e-10) -> float:
        """Largest fiber distance carrying an entry above floor * max entry."""
        radius = 0.0
        for x in range(len(self.base)):
            npts = self.base.fiber(x).npoints
            dist = np.tile(fiber_distance_matrix(self.base.fiber(x)), (2, 2))
            mags = np.abs(self.skernel.mats[x])
            cut = floor * max(float(mags.max()), 1e-300)
            live = mags > cut
            if np.any(live):
                radius = max(radius, float(dist[live].max()))
        return radius


def _newton_flow(
    P: np.ndarray, max_steps: int, tol: float
) -> tuple[np.ndarray, float, int]:
    defect = float(np.max(np.abs(P @ P - P)))
    steps = 0
    while defect > tol and steps < max_steps:
        P2 = P @ P
        P = 3.0 * P2 - 2.0 * (P2 @ P)
        steps += 1
        defect = float(np.max(np.abs(P @ P - P)))
        if not np.isfinite(defect):
            break
    return P, defect, steps


def index_idempotent(
    fam: LeafwiseOperatorFamily,
    radius: float | None = None,
    threshold: float = 1e-8,
    max_newton: int = 50,
    newton_tol: float = 1e-8,
) -> IndexIdempotent:
    """Graph idempotent of a family, optionally localized at a fiber radius.

    With no radius the construction is exact.  With a radius, the smoothing
    part is hard-truncated and idempotency restored by the cubic flow
    P -> 3 P^2 - 2 P^3; failure to reach the tolerance within the step budget
    means the radius is too aggressive for the kernel decay and raises.
    """
    data = parametrix(fam, threshold)
    mats = []
    for x, block in enumerate(fam.blocks):
        M = block.matrix
        Qm = data.q.blocks[x].matrix
        S0 = data.r0[x].matrix
        S1 = data.r1[x].matrix
        nd, nc = M.shape[1], M.shape[0]
        pc = np.zeros((nd + nc, nd + nc), dtype=complex)
        pc[:nd, :nd] = S0 @ S0
        pc[:nd, nd:] = S0 @ (np.eye(nd) + S0) @ Qm
        pc[nd:, :nd] = S1 @ M
        pc[nd:, nd:] = np.eye(nc) - S1 @ S1
        pc[nd:, nd:] -= np.eye(nc)  # store the smoothing part only
        npts = fam.base.fiber(x).npoints
        Bd = block.domain.matrix
        Bc = block.codomain.matrix
        G = np.zeros((2 * npts, nd + nc), dtype=complex)
        G[:npts, :nd] = Bd
        G[npts:, nd:] = Bc
        mats.append(G @ pc @ G.conj().T / npts)
    skern = SmoothingKernel(fam.base, mats, blocks=2)
    idem = IndexIdempotent(fam.base, skern)
    if radius is None:
        return idem

    # The flow smears tolerance-scale mass back outside the cut (each step
    # spreads the support), so support_radius records the localization cut of
    # the construction rather than a hard zero; effective_radius measures the
    # true reach when that distinction matters.
    truncated = idem.skernel.truncate(radius)
    fixed = []
    for x in range(len(fam.base)):
        npts = fam.base.fiber(x).npoints
        S = truncated.mats[x]
        off = max(
            float(np.max(np.abs(S[:npts, npts:]))),
            float(np.max(np.abs(S[npts:, :npts]))),
            float(np.max(np.abs(S[npts:, npts:]))),
        )
        if off < 1e-14:
            # only the domain-block survives; flow it alone at half the cost
            T, defect, steps = _newton_flow(S[:npts, :npts], max_newton, newton_tol)
            S = S.copy()
            S[:npts, :npts] = T
        else:
            P = idem.unit_matrix(x) + S
            P, defect, steps = _newton_flow(P, max_newton, newton_tol)
            S = P - idem.unit_matrix(x)
        if defect > newton_tol:
            raise LocalizationError(
                f"idempotent correction stalled at defect {defect:.3e} after "
                f"{steps} steps at radius {radius:g}; the cut is too tight for "
                "the kernel decay"
            )
        fixed.append(S)
    return IndexIdempotent(fam.base, SmoothingKernel(fam.base, fixed, blocks=2, support_radius=radius))
