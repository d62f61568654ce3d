"""Parametrices, spectral index counts, and localized index idempotents.

The parametrix of an operator block is its pseudo-inverse Q with a
certified rank cut: the spectral way of inverting the symbol away from its
zero set.  Its remainders S0 = 1 - QD and S1 = 1 - DQ are the orthogonal
projectors onto kernel and cokernel, which is as smoothing as remainders
get.  Every block the workbench ships is monomial in its bases, with at
most one nonzero entry in each row and each column: a Fourier multiplier
is diagonal, and the twisted Dolbeault operator maps each Landau section to
a multiple of one section a level down.  Its singular values are the
moduli of those entries, which give the certified rank, and the remainders
are the diagonal projectors onto the domain columns and codomain rows
outside the leading entries, so Q is never formed: on the grid each
projector is W W^H / n, W the basis columns at those indices, and its
block count is certified on W.  A block that is not monomial, or has a
non-finite entry, is refused.

The index idempotent is the standard graph construction over domain + range,

    P = [[S0^2,          S0 (1 + S0) Q],
         [S1 D,          1 - S1^2     ]].

The pseudo-inverse makes it block diagonal: Q maps onto the orthogonal
complement of the kernel, so S0 Q = 0; D maps into the complement of the
cokernel, so S1 D = 0; and both remainders are projectors.  Hence

    P = diag(S0, 1 - S1),   [P] - [e] = [S0] - [S1],

with e the identity on the range copy.  The idempotent is held as the two
projectors S0 and S1 on the scalar grid sections of the one fiber, and every
consumer (trace, pairing, invariance gate, cache) works on them one at a
time.
A projector that commutes with translations along axis 0 is block
circulant (see ``operators``): its block count g is certified on its range,
and only its block row 0 is ever formed.  Each basis column is an
eigenvector of the translation with a known phase (J. Zak, Phys. Rev. 134,
A1602, 1964, for the Landau sections), so W W^H / n splits by the columns'
axis-0 frequencies into the frames Y_k of its g Fourier blocks Y_k Y_k^H,
and every nonzero projector is held as those frames (``ProjectorFrame``,
the smoothing kernel whose block row is formed from them), a zero one as
the zero kernel.  The cache stores the frames, the pairings read them, and
every block row is formed from frames by ``_frame_row`` alone: at
construction, only the uncut row a cut takes, and otherwise, cold or
cached, only where its entries are read.
Localization truncates each projector at a fiber radius and restores
idempotency on the g Fourier blocks of size npoints/g: each block is
replaced by its spectral projector onto the eigenvalues above 1/2, the
limit of the McWeeny flow P -> 3 P^2 - 2 P^3 (R. McWeeny, Rev. Mod.
Phys. 32, 335, 1960).  A block of a rank-r cut has rank r_k of its B
points (3 of 200 at flux 24), so orthogonal iteration on r_k vectors
reaches that projector at O(B^2 r_k) a step (H. Rutishauser, Numer. Math.
16, 205, 1970), where a flow step is two B^3 products.  A certificate
shows that exactly r_k eigenvalues lie above 1/2 and the rest below, so
taking the projector commutes with P -> 1 - P: the range block 1 - S1 is
corrected by correcting S1.  Each block's iteration starts from its uncut
frame, and the corrected projector is kept as its frames, whose widths are
those of the uncut ones.  The cut radius belongs to the idempotent, not
to either projector.
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
    certified_block_count,
    squared_tick_distances,
    truncation_mask,
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
# a cut Fourier block is refused when max |P_k - P_k^H| exceeds this times the
# largest entry of the blocks; a certified row's blocks carry at most about
# g * CIRCULANT_RTOL of it
CUT_HERMITIAN_RTOL = 1e-10
# orthogonal iteration on a Fourier block stops once |P_k Y - Y H|_F is at most
# this; the attained floor is 2.5e-15 at 512 points and rank 25
PROJECTOR_RESIDUAL_TOL = 1e-14
# orthogonal-iteration steps a Fourier block may take before the cut counts as too tight
MAX_PROJECTOR_STEPS = 200
# the bound on the largest entry of P^2 - P a localized projector may keep
NEWTON_TOL = 1e-8
# the bound on |Y^H Y - 1|_F of every frame Y held; sampled Landau frames reach
# 1.1e-13 (twist 200 on grid 64), and an undersampled basis 6.0e-7 and more
FRAME_ORTHONORMALITY_TOL = 1e-12
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
class ParametrixData:
    """Domain columns ``cols`` spanning the kernel and codomain rows ``rows`` spanning the cokernel.

    Both are ascending int64 indices into the operator's bases: those
    outside the certified leading entries of a monomial block.  The
    remainders 1 - QD and 1 - DQ of the pseudo-inverse Q are the diagonal
    projectors onto them, and their counts give the spectral index.
    """

    cols: np.ndarray
    rows: np.ndarray

    @property
    def index(self) -> int:
        return len(self.cols) - len(self.rows)


def analytic_index(block: OperatorBlock) -> ParametrixData:
    """Kernel columns and cokernel rows of the pseudo-inverse parametrix (``_singular_data``)."""
    return _singular_data(block.matrix)


def _singular_data(M: np.ndarray) -> ParametrixData:
    """The column and row indices outside the certified leading entries of a monomial M.

    A monomial M has at most one nonzero entry in each row and each
    column; the moduli of those entries, sorted in descending order by a
    stable sort, are its singular values, and the unit vectors at the
    columns and rows of the entries past the certified rank, with those of
    its zero columns and rows, are its trailing right and left singular
    vectors.  Raises ModelError for an M that is not monomial or has a
    non-finite entry.
    """
    live = M != 0
    per_row = live.sum(axis=1)
    if np.any(per_row > 1) or np.any(live.sum(axis=0) > 1):
        raise ModelError(
            "the operator block is not monomial: a row or a column holds two nonzero entries"
        )
    rows = np.flatnonzero(per_row)
    cols = live[rows].argmax(axis=1)
    moduli = np.abs(M[rows, cols])
    if not np.all(np.isfinite(moduli)):
        raise ModelError("the operator block has a non-finite entry")
    order = np.argsort(-moduli, kind="stable")
    lead = order[: certified_rank(moduli[order])]
    return ParametrixData(_outside(M.shape[1], cols[lead]), _outside(M.shape[0], rows[lead]))


def _outside(size: int, lead: np.ndarray) -> np.ndarray:
    """The indices below size outside ``lead``, ascending."""
    outside = np.ones(size, dtype=bool)
    outside[lead] = False
    return np.flatnonzero(outside)


class ProjectorFrame(SmoothingKernel):
    """A nonzero projector S on the scalar grid sections of one fiber, held as its frames.

    S is block circulant in g = ``order`` certified blocks of B = npoints/g
    points, and ``frame`` is [Y_0 .. Y_{g-1}] (B x rank), the frames of its
    g Fourier blocks Y_k Y_k^H, of widths ``ranks``: uncut, the basis columns
    split by frequency (``_class_frames``).  ``row``, the block row 0 of S
    that the smoothing-kernel operations read, is formed from the frames on
    first read (``_frame_row``).
    """

    def __init__(self, fiber: FiberModel, frame: np.ndarray, ranks):
        self.fiber = fiber
        self.frame = frame
        self.ranks = tuple(int(r) for r in ranks)

    @property
    def order(self) -> int:
        return len(self.ranks)

    @cached_property
    def row(self) -> np.ndarray:
        return _frame_row(self)

    def diagonal(self) -> np.ndarray:
        """The diagonal of S from the frames: that of C_0, the mean of the Fourier
        blocks, once per block, so the squared row norms of [Y_0 .. Y_{g-1}] over g."""
        F, g = self.frame, self.order
        return np.tile(np.sum(F.real**2 + F.imag**2, axis=1) / g, g)

    def grid_frame(self) -> np.ndarray:
        """F (npoints x rank) with S = F F^H / npoints.

        Row aB + i of F is B^(1/2) Y_k[i] exp(-2 pi i a k / g) on the columns
        of Y_k: the inverse DFT over the block index of the blocks Y_k Y_k^H.
        """
        g, (width, rank) = self.order, self.frame.shape
        block = np.repeat(np.arange(g), self.ranks)
        phase = np.exp(-2j * np.pi * np.outer(np.arange(g), block) / g)
        F = math.sqrt(width) * phase[:, None, :] * self.frame[None]
        return F.reshape(g * width, rank)

    def block_frames(self) -> list[np.ndarray]:
        """The frames Y_k of the Fourier blocks Y_k Y_k^H, k < g, each contiguous."""
        ends = np.cumsum(self.ranks)
        return [np.ascontiguousarray(self.frame[:, a:b]) for a, b in zip(ends - self.ranks, ends)]

    def arrays(self) -> list[np.ndarray]:
        """The frame, and [g, r_0 .. r_{g-1}] as int64."""
        return [self.frame, np.array([self.order, *self.ranks], dtype=np.int64)]

    @classmethod
    def from_arrays(cls, fiber: FiberModel, frame: np.ndarray, counts: np.ndarray):
        """Inverse of arrays(), the zero kernel for the empty frame and counts of a zero
        projector; raises CorruptedCacheError on any mismatch with fiber."""
        if frame.dtype != np.complex128:
            raise CorruptedCacheError(f"frame dtype {frame.dtype} is not complex128")
        if counts.dtype != np.int64 or counts.ndim != 1:
            raise CorruptedCacheError(
                f"block counts of dtype {counts.dtype} and shape {counts.shape} are not "
                "one int64 array"
            )
        if frame.shape == (0, 0) and counts.size == 0:
            return SmoothingKernel(fiber, None)
        if frame.ndim != 2 or not frame.shape[1] or not counts.size:
            raise CorruptedCacheError(
                f"frame of shape {frame.shape} with {counts.size} block counts is neither "
                "a projector nor the empty frame of a zero one"
            )
        g = int(counts[0])
        if g < 1 or fiber.grid_size % g:
            raise CorruptedCacheError(
                f"block count {g} does not divide the grid size {fiber.grid_size}"
            )
        if frame.shape[0] != fiber.npoints // g:
            raise CorruptedCacheError(
                f"frame has {frame.shape[0]} rows, not npoints/g = {fiber.npoints // g}"
            )
        ranks = counts[1:]
        if ranks.size != g or np.any(ranks < 0) or int(ranks.sum()) != frame.shape[1]:
            raise CorruptedCacheError(
                f"ranks {ranks.tolist()} of {g} blocks do not sum to the frame width "
                f"{frame.shape[1]}"
            )
        return cls(fiber, frame, ranks)


def _frame_defect(Y: np.ndarray) -> float:
    """|Y^H Y - 1|_F, the departure of the frame Y from orthonormal."""
    return float(np.linalg.norm(Y.conj().T @ Y - np.eye(Y.shape[1])))


def _orthonormal(frames: list[np.ndarray], error: type, hint: str = "") -> list[np.ndarray]:
    """``frames``; raises ``error``, with ``hint``, unless each departs from orthonormal by
    at most FRAME_ORTHONORMALITY_TOL (a NaN defect, which np.max keeps, is refused)."""
    defect = float(np.max([_frame_defect(Y) for Y in frames], initial=0.0))
    tol = FRAME_ORTHONORMALITY_TOL
    if not defect <= tol:
        raise error(f"a frame departs from orthonormal by {defect:.3e} > {tol:g}{hint}")
    return frames


def _frame_row(proj: ProjectorFrame) -> np.ndarray:
    """Block row 0 (B x gB) of a projector from its frames: its Fourier blocks Y_k Y_k^H,
    laid out (B, g, B) so that their inverse FFT over the block index, taken in place,
    reads as the row without a copy."""
    g, width = proj.order, proj.fiber.npoints // proj.order
    stack = np.empty((width, g, width), dtype=complex)
    blocks = stack.transpose(1, 0, 2)
    for P, Y in zip(blocks, proj.block_frames()):
        np.matmul(Y, Y.conj().T, out=P)
    np.fft.ifft(blocks, axis=0, out=blocks)
    return stack.reshape(width, g * width)


# Bump when the cached idempotent of unchanged inputs, or its layout
# (IndexIdempotent.arrays), would change.
_CACHE_FORMAT = 14


class IndexIdempotent:
    """Grid realization of the index idempotent P = diag(S0, 1 - S1) of an operator.

    ``skernel`` is the kernel projector S0 and ``cokernel`` the cokernel
    projector S1, each a ``ProjectorFrame`` or, at rank 0, the zero kernel
    ``SmoothingKernel(fiber, None)``; ``families`` is the pair.  ``radius``
    is the fiber radius both were cut at (+inf when unlocalized).  The
    index class is [S0] - [S1].
    """

    def __init__(
        self, fiber: FiberModel, s0: SmoothingKernel, s1: SmoothingKernel, radius: float
    ):
        self.fiber = fiber
        self.skernel = s0
        self.cokernel = s1
        self.radius = float(radius)

    @property
    def families(self) -> tuple[SmoothingKernel, SmoothingKernel]:
        return self.skernel, self.cokernel

    def arrays(self) -> list[np.ndarray]:
        """Cached form: [radius], then the frame and block counts of S0 and of S1.

        The radius is +inf for an unlocalized idempotent.  A zero projector
        is the empty (0, 0) frame and no counts.
        """
        out = [np.array([self.radius])]
        for kern in self.families:
            if isinstance(kern, ProjectorFrame):
                out += kern.arrays()
            else:
                out += [np.zeros((0, 0), dtype=complex), np.zeros(0, dtype=np.int64)]
        return out

    @classmethod
    def from_arrays(
        cls,
        fiber: FiberModel,
        arrays: list[np.ndarray],
        data: ParametrixData,
        radius: float | None,
    ) -> "IndexIdempotent":
        """Inverse of arrays(), fitted to the run that loads it.

        Raises CorruptedCacheError on any mismatch with fiber, or unless the
        radius is ``radius`` (+inf for None), the frame widths are the counts
        of the parametrix ``data`` and every frame is orthonormal within
        FRAME_ORTHONORMALITY_TOL, as at construction.
        """
        if len(arrays) != 5:
            raise CorruptedCacheError(f"expected 5 arrays, found {len(arrays)}")
        head = arrays[0]
        if head.shape != (1,) or head.dtype != np.float64 or not head[0] > 0:
            raise CorruptedCacheError(f"cut radius {head} is not a positive number")
        s0, s1 = (
            ProjectorFrame.from_arrays(fiber, frame, counts)
            for frame, counts in (arrays[1:3], arrays[3:5])
        )
        idem = cls(fiber, s0, s1, head[0])
        frames = [k for k in idem.families if isinstance(k, ProjectorFrame)]
        found = [idem.radius, *(sum(k.ranks) if k in frames else 0 for k in idem.families)]
        want = [math.inf if radius is None else radius, len(data.cols), len(data.rows)]
        if found != want:
            raise CorruptedCacheError(
                f"radius and frame widths {found} differ from localize and counts {want}"
            )
        _orthonormal([Y for k in frames for Y in k.block_frames()], CorruptedCacheError)
        return idem

    @cached_property
    def effective_radius(self) -> float:
        """Largest fiber distance carrying an entry above REACH_FLOOR * max entry.

        The max entry is taken over both projectors, so a roundoff-sized one
        does not count its noise as reach.  A block row holds every entry of
        its matrix, so its rows of squared tick distances suffice.  Computed
        on first read, once per idempotent.
        """
        fiber = self.fiber
        mags = [np.abs(m) for f in self.families for m in f.mats]
        cut = REACH_FLOOR * max([float(m.max()) for m in mags] + [1e-300])
        reach = 0
        for m in mags:
            live = m > cut
            if np.any(live):
                reach = max(reach, int(squared_tick_distances(fiber, m.shape[0])[live].max()))
        return math.sqrt(reach) / fiber.grid_size


def _spectral_projector(
    blocks: np.ndarray, starts: list[np.ndarray], radius: float
) -> tuple[float, list[np.ndarray]]:
    """The frames of the projectors of a cut projector's Fourier blocks onto their eigenvalues above 1/2.

    ``blocks`` (g, B, B) are the Fourier blocks of a block row cut from a
    projector whose blocks have the frames ``starts``; each is overwritten
    in place by its hermitian part.  Returns a bound on the largest entry
    of M^2 - M, M the block-circulant matrix whose block row is the row
    ``_frame_row`` forms from the returned frames, and those frames Y of
    the blocks Y Y^H.

    The blocks must be hermitian: max |P_k - P_k^H| at most
    CUT_HERMITIAN_RTOL times their largest entry, and each is then replaced
    by its hermitian part (P_k + P_k^H) / 2, which rounds to an exactly
    hermitian matrix.  Block k is asked for r_k = round(tr P_k) eigenvalues
    above 1/2, and r_k must be the width of its start frame.  Orthogonal
    iteration Y <- qr(P_k Y), started from that frame, runs until
    R = P_k Y - Y H, H = Y^H P_k Y, has |R|_F <= PROJECTOR_RESIDUAL_TOL,
    within MAX_PROJECTOR_STEPS steps.

    Certificate.  Complete Y to a unitary [Y, X].  In that basis P_k is
    diag(H, D) + E, with D = X^H P_k X the deflated block and E the
    hermitian matrix with off-diagonal blocks X^H R and its adjoint, so
    |E|_2 = |X^H R|_2 <= |R|_F.  By Weyl's inequality every eigenvalue of
    P_k lies within |R|_F of the corresponding one of diag(H, D).  So if
    every Ritz value (eigenvalue of H) lies in (1/2 + |R|_F, 3/2 - |R|_F)
    and |D|_F + |R|_F < 1/2, then P_k has exactly r_k eigenvalues above
    1/2, all below 3/2, and the rest lie in (-1/2, 1/2): the McWeeny flow
    P -> 3 P^2 - 2 P^3 converges from P_k, and to the projector onto the
    first r_k.  The Ritz bounds are checked as two Cholesky factorizations
    of r_k x r_k matrices, which succeed exactly for positive definite
    ones, and
    |D|_F^2 = |P_k|_F^2 - 2 |P_k Y|_F^2 + |H|_F^2 costs no block product.
    Both slacks add |1 - Y^H Y|_F, the departure of the computed frame from
    an orthonormal one, which FRAME_ORTHONORMALITY_TOL bounds.

    Defect.  P_k is replaced by Y Y^H.  With G = Y^H Y, Y G Y^H - Y Y^H has
    entries y_i (G - 1) y_j^H, at most rho^2 |G - 1|_2 for rho the largest
    row norm of Y, and the inverse FFT averages the blocks, so the exact
    M = ifft(Y Y^H) has |M^2 - M| <= rho^2 eps, eps = max_k |G - 1|_F plus
    the rounding of G.  The stored row differs from M by at most
    delta = gamma_m rho^2 (1 + eps) in every entry, which covers the
    complex dot products of Y Y^H (gamma_{r+2}) and a direct inverse DFT of
    g values (gamma_{g+3} of their largest modulus), m = r + g + 5, with
    gamma_m = m u / (1 - m u).  The rows of M have norm at most
    rho (1 + eps)^(1/2) and the columns of the rounding at most
    n^(1/2) delta, n = g B, so

        |M~^2 - M~| <= rho^2 eps + delta (1 + 2 rho ((1 + eps) n)^(1/2)) + n delta^2.
    """
    g, width, _ = blocks.shape
    scale = skew = 0.0
    for P in blocks:
        herm = P.conj().T
        scale = max(scale, float(np.max(np.abs(P))))
        skew = max(skew, float(np.max(np.abs(P - herm))))
        np.add(P, herm, out=P)
        P *= 0.5
    if skew > CUT_HERMITIAN_RTOL * scale:
        raise LocalizationError(
            f"the cut Fourier blocks depart from hermitian by {skew:.3e}, above "
            f"{CUT_HERMITIAN_RTOL:g} of their largest entry {scale:.3e}, at radius {radius:g}"
        )
    counts = [round(float(np.trace(P).real)) for P in blocks]
    sizes = [Y.shape[1] for Y in starts]
    rank = sum(sizes)
    if counts != sizes:
        raise LocalizationError(
            f"idempotent correction carried the rank-{rank} projector to trace "
            f"{sum(counts)} (block traces {counts}, class sizes {sizes}) at radius "
            f"{radius:g}; the cut is too tight for the kernel decay"
        )
    eps = rho2 = 0.0
    frames = []
    for k, (P, r, Y) in enumerate(zip(blocks, counts, starts)):
        for _ in range(MAX_PROJECTOR_STEPS):
            Z = P @ Y
            H = Y.conj().T @ Z
            residual = float(np.linalg.norm(Z - Y @ H))
            if residual <= PROJECTOR_RESIDUAL_TOL:
                break
            Y = np.linalg.qr(Z)[0]
        else:
            raise LocalizationError(
                f"orthogonal iteration on Fourier block {k} stalled at residual "
                f"{residual:.3e} after {MAX_PROJECTOR_STEPS} steps at radius "
                f"{radius:g}; the cut is too tight for the kernel decay"
            )
        loss = _frame_defect(Y)
        slack = residual + loss
        deflated = math.sqrt(
            max(float(np.vdot(P, P).real - 2.0 * np.vdot(Z, Z).real + np.vdot(H, H).real), 0.0)
        )
        ritz = (H + H.conj().T) / 2
        lift = np.eye(r) * (0.5 + slack)
        if loss > FRAME_ORTHONORMALITY_TOL or deflated + slack >= 0.5 or not (
            _positive_definite(ritz - lift) and _positive_definite(2.0 * np.eye(r) - lift - ritz)
        ):
            raise LocalizationError(
                f"cannot certify that idempotent correction carried the rank-{rank} "
                f"projector to trace {rank} at radius {radius:g}: Fourier block {k} "
                f"need not have exactly {r} eigenvalues above 1/2 (deflated norm "
                f"{deflated:.3e}, residual {residual:.3e}, frame defect {loss:.3e}); "
                "the cut is too tight for the kernel decay"
            )
        eps = max(eps, loss + r * _gamma(width + 2) * (1 + loss))
        rho2 = max(rho2, float(np.max(np.sum(np.abs(Y) ** 2, axis=1))))
        frames.append(Y)
    n = g * width
    delta = _gamma(max(counts) + g + 5) * rho2 * (1 + eps)
    bound = rho2 * eps + delta * (1 + 2 * math.sqrt(rho2 * (1 + eps) * n)) + n * delta * delta
    return bound, frames


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u), u the unit roundoff: the relative error of m roundings."""
    mu = m * np.finfo(float).eps / 2
    return mu / (1 - mu)


def _positive_definite(m: np.ndarray) -> bool:
    """Whether the hermitian matrix m is positive definite: its Cholesky factorization succeeds."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def index_idempotent(
    block: OperatorBlock,
    radius: float | None = None,
    newton_tol: float = NEWTON_TOL,
    data: ParametrixData | None = None,
) -> IndexIdempotent:
    """Index idempotent of an operator, optionally localized at a fiber radius.

    ``data`` is ``analytic_index(block)``, computed here unless the caller has it.
    Each projector's block count is certified on the basis columns at the
    parametrix's indices (``certified_block_count``), whatever the radius,
    and the columns split by frequency into its frames (``_class_frames``).
    With no radius the construction is exact, and the projector is held as
    those frames.  With a radius, each projector is hard-truncated
    (``truncation_mask``) and replaced by the spectral projector of the cut
    onto its eigenvalues above 1/2, found by orthogonal iteration on each
    Fourier block from its uncut frame (``_spectral_projector``).  A cut
    whose blocks are not hermitian, whose rounded block traces miss the
    frame widths, whose iteration takes more than MAX_PROJECTOR_STEPS,
    whose eigenvalues above 1/2 are not certified, or whose defect bound
    exceeds newton_tol (NEWTON_TOL unless a caller asks for a tighter
    defect) is too aggressive for the kernel decay and raises.  A
    projector of rank 0 is held as the zero kernel.
    """
    if data is None:
        data = analytic_index(block)
    cut = np.inf if radius is None else radius
    projectors = [
        _stored_projector(basis, indices, cut, newton_tol)
        for basis, indices in ((block.domain, data.cols), (block.codomain, data.rows))
    ]
    # The spectral projector of the cut puts tolerance-scale mass back
    # outside it, so the stored radius is the localization cut of the
    # construction rather than a hard zero; effective_radius measures the
    # true reach when that distinction matters.
    return IndexIdempotent(block.domain.fiber, *projectors, cut)


def _class_frames(W: np.ndarray, frequencies: np.ndarray, g: int) -> list[np.ndarray]:
    """The frames Y_k = (g / n)^(1/2) W[:B, f = -k mod g] of the Fourier blocks of
    W W^H / n, n = len(W), for the columns' axis-0 frequencies f; refused, naming
    the grid and the twist, beyond FRAME_ORTHONORMALITY_TOL of orthonormal."""
    classes = -frequencies % g
    scale = math.sqrt(g / len(W))
    frames = [scale * W[: len(W) // g, classes == k] for k in range(g)]
    hint = ": the grid undersamples the basis; raise fiber.grid or lower operator.twist"
    return _orthonormal(frames, ModelError, hint)


def _stored_projector(
    basis: SectionBasis, indices: np.ndarray, radius: float, newton_tol: float
) -> SmoothingKernel:
    """The certified projector onto the basis columns W at ``indices``, as its frames;
    the zero kernel for rank 0.

    W is gathered once, g certified on it and its frames split from it.  Cut
    at a finite radius, the block row the frames form is cut and transformed
    back to Fourier blocks in its own (g, B, B) stack, and the projector
    brought back to one of rank ``rank`` and held as its new frames; no
    other row is formed.  The trace g tr C_0 = sum_k tr(Y_k^H Y_k) of its
    row needs no gate: each frame Y_k held has passed |Y_k^H Y_k - 1|_F <=
    FRAME_ORTHONORMALITY_TOL (``_class_frames``, ``_spectral_projector``)
    and their widths r_k sum to ``rank``, so the trace is within
    sum_k r_k^(1/2) 1e-12 <= (g rank)^(1/2) 1e-12 of ``rank``, far below
    the 1/2 at which it would round to another count.
    """
    rank = len(indices)
    if rank == 0:
        return SmoothingKernel(basis.fiber, None)
    fiber = basis.fiber
    W = basis.columns(indices)
    frequencies = basis.frequencies[indices]
    g = certified_block_count(fiber, W, frequencies)
    frames = _class_frames(W, frequencies, g)
    del W
    ranks = [Y.shape[1] for Y in frames]
    if radius != np.inf:
        width = fiber.npoints // g
        # the uncut row, cut and transformed back in place; its blocks are a view
        row = _frame_row(ProjectorFrame(fiber, np.hstack(frames), ranks))
        row *= truncation_mask(fiber, radius, width)
        blocks = row.reshape(width, g, width).transpose(1, 0, 2)
        np.fft.fft(blocks, axis=0, out=blocks)
        defect, frames = _spectral_projector(blocks, frames, radius)
        del row, blocks
        if defect > newton_tol:
            raise LocalizationError(
                f"idempotent correction keeps a defect bound {defect:.3e} above "
                f"{newton_tol:g} at radius {radius:g}"
            )
    return ProjectorFrame(fiber, np.hstack(frames), ranks)
