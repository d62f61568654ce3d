"""Operators on fiber sections: spectral bases, operator blocks, smoothing kernels.

Conventions
-----------
Sections are scalar grid vectors of length npoints.  The inner product is
the quadrature one, (1/n^r) sum conj(f) g.  A SectionBasis holds an
(npoints, nbasis) evaluation matrix with quadrature-orthonormal columns;
operators between bases are plain matrices on coefficients.

Smoothing operators are stored as operator matrices M acting by f -> M f on
scalar grid sections, one npoints x npoints matrix per base point.  A family
with several bundle components is carried as several such families (the
index idempotent holds its kernel and cokernel projectors apart), so no
kernel needs a block layout.  The Schwartz kernel against the quadrature
measure is k(z, w) = npoints * M[z, w]; all trace and pairing formulas below
are written directly in terms of M so that no npoints factors float around.

Grid points are numbered with axis 0 slowest, so a translation by
grid_size/g ticks along axis 0 shifts every index by npoints/g.  A matrix
that commutes with it is block circulant in g x g blocks of size npoints/g:
block (a, b) is C_{b-a mod g}, and the block row [C_0 .. C_{g-1}] determines
it.  A length-g FFT over the block index turns products of such matrices
into g independent products of size npoints/g (``circulant_blocks``); the
dense matrix is the case g = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import CutoffDensity, TransversalDensity
from .forms import InvarianceError
from .grids import FiberModel, ModelError
from .groupoid import BaseModel
from .space import FiberedGSpace


class SupportMismatchError(ModelError):
    """Raised when kernel supports and requested operations are incompatible."""


@dataclass(frozen=True)
class SectionBasis:
    """Quadrature-orthonormal family of sections on one fiber.

    ``key`` names the basis; bases with equal keys are interchangeable.
    """

    fiber: FiberModel
    matrix: np.ndarray
    key: tuple

    def __post_init__(self):
        if self.matrix.shape[0] != self.fiber.npoints:
            raise ModelError("basis rows must match the fiber grid")

    @property
    def size(self) -> int:
        return self.matrix.shape[1]

    def gram_defect(self) -> float:
        G = self.matrix.conj().T @ self.matrix / self.fiber.npoints
        return float(np.max(np.abs(G - np.eye(self.size))))

    def project(self, fieldvec: np.ndarray) -> np.ndarray:
        return self.matrix.conj().T @ fieldvec / self.fiber.npoints

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return self.matrix @ coeffs


def fourier_basis(fiber: FiberModel) -> SectionBasis:
    return SectionBasis(
        fiber,
        fiber.eval_matrix(),
        key=("fourier", fiber.grid_size, fiber.fourier_cutoff, fiber.dim),
    )


@dataclass
class OperatorBlock:
    """Matrix of an operator from one section basis to another."""

    domain: SectionBasis
    codomain: SectionBasis
    matrix: np.ndarray

    def __post_init__(self):
        expect = (self.codomain.size, self.domain.size)
        if self.matrix.shape != expect:
            raise ModelError(f"operator matrix shape {self.matrix.shape} != {expect}")

    def apply(self, fieldvec: np.ndarray) -> np.ndarray:
        return self.codomain.synthesize(self.matrix @ self.domain.project(fieldvec))

    def grid_matrix(self) -> np.ndarray:
        """Operator matrix on grid vectors (codomain grid x domain grid)."""
        n = self.domain.fiber.npoints
        if not np.any(self.matrix):
            return np.zeros((self.codomain.matrix.shape[0], n), dtype=complex)
        return self.codomain.matrix @ self.matrix @ self.domain.matrix.conj().T / n


@dataclass
class LeafwiseOperatorFamily:
    """One operator block per base point, with a declared order."""

    base: BaseModel
    blocks: list[OperatorBlock]
    order: float

    def __post_init__(self):
        if len(self.blocks) != len(self.base):
            raise ModelError("one operator block per base point is required")


def transport_matrix(
    gspace: FiberedGSpace, a, domain: SectionBasis, codomain: SectionBasis
) -> np.ndarray:
    """Matrix of section transport along an arrow, domain over s(a) to codomain over t(a).

    Computed by moving the domain basis columns with the grid permutation and
    projecting onto the codomain basis.  Unitary whenever the transported
    columns stay inside the codomain span.
    """
    moved = domain.matrix[gspace.permutation(a), :]
    return codomain.matrix.conj().T @ moved / domain.fiber.npoints


def family_invariance_defect(
    gspace: FiberedGSpace, fam: LeafwiseOperatorFamily
) -> float:
    """Max over arrows of |U_a P_s - P_t U_a| on the section bases."""
    worst = 0.0
    for a in gspace.groupoid.arrows:
        Ps, Pt = fam.blocks[a.src], fam.blocks[a.tgt]
        U_dom = transport_matrix(gspace, a, Ps.domain, Pt.domain)
        U_cod = transport_matrix(gspace, a, Ps.codomain, Pt.codomain)
        defect = U_cod @ Ps.matrix - Pt.matrix @ U_dom
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def _axis_sum(fiber: FiberModel, table: np.ndarray) -> np.ndarray:
    """sum over axes of table[z_axis, w_axis] for every pair of grid points.

    Each axis coordinate takes grid_size values, so a per-axis quantity is
    tabulated on grid_size^2 coordinate pairs, gathered per axis and summed
    in axis order.
    """
    n = fiber.grid_size
    ticks = np.unravel_index(np.arange(fiber.npoints), (n,) * fiber.dim)
    out = table[np.ix_(ticks[0], ticks[0])]
    for axis_ticks in ticks[1:]:
        out += table[np.ix_(axis_ticks, axis_ticks)]
    return out


def fiber_distance_matrix(fiber: FiberModel) -> np.ndarray:
    """Pairwise periodic Euclidean distances between grid points."""
    n = fiber.grid_size
    coords = np.arange(n) / n
    gap = np.abs(coords[:, None] - coords[None, :])
    return np.sqrt(_axis_sum(fiber, np.minimum(gap, 1.0 - gap) ** 2))


# a squared tick distance within this relative distance below (radius *
# grid_size)^2 counts as a tie, so a radius whose product with the grid size
# rounds just above an integer drops that integer's pairs too
TRUNCATION_RTOL = 1e-12


def truncation_mask(fiber: FiberModel, radius: float) -> np.ndarray:
    """True where the periodic distance between grid points is below radius.

    Decided on integer squared tick distances, so the mask commutes with
    every grid translation: pairs at exactly the radius are dropped at every
    base point of the grid, where a float comparison of distances would
    keep some ties and drop others.
    """
    n = fiber.grid_size
    ticks = np.arange(n)
    gap = np.abs(ticks[:, None] - ticks[None, :])
    sq = _axis_sum(fiber, np.minimum(gap, n - gap) ** 2)
    return sq < (radius * n) ** 2 * (1.0 - TRUNCATION_RTOL)


# an entry may differ from the expansion of block row 0 by this much relative
# to the largest entry of that row and still count as block circulant; grid
# matrices assembled from a section basis carry about 2e-14 of rounding
CIRCULANT_RTOL = 1e-12


def circulant_order(m: np.ndarray, grid_size: int) -> int:
    """Largest g dividing grid_size with the N x N grid matrix m block circulant in g blocks.

    That is, m[i + N/g, j + N/g] = m[i, j] with indices mod N: m commutes
    with the translation by grid_size/g ticks along axis 0, a translation
    of the grid because g divides grid_size.  Every entry is compared with
    the expansion of block row 0, one block row at a time, to CIRCULANT_RTOL
    times the largest entry of block row 0; one row is compared first, so a
    wrong candidate is rejected in O(N).  Returns 1 for no structure.
    """
    for g in range(grid_size, 1, -1):
        if grid_size % g == 0 and _is_block_circulant(m, g):
            return g
    return 1


def _is_block_circulant(m: np.ndarray, g: int) -> bool:
    size = m.shape[0]
    width = size // g
    row = m[:width].reshape(width, g, width)
    tol = CIRCULANT_RTOL * float(np.max(np.abs(row)))
    if np.max(np.abs(m[width] - np.roll(m[0], width))) > tol:
        return False
    for a in range(1, g):
        # block (a, b) of the expansion is C_{b-a mod g}
        here = m[a * width : (a + 1) * width].reshape(width, g, width)
        if np.max(np.abs(here[:, a:] - row[:, : g - a])) > tol:
            return False
        if np.max(np.abs(here[:, :a] - row[:, g - a :])) > tol:
            return False
    return True


def circulant_blocks(row: np.ndarray, g: int) -> np.ndarray:
    """Fourier blocks (g, B, B), sum_m C_m exp(-2 pi i m k / g), of block row [C_0 .. C_{g-1}].

    The block row is the B x gB top of the matrix.  The blocks of a product
    of block-circulant matrices are the blockwise products of theirs.
    """
    width = row.shape[0]
    return np.fft.fft(row.reshape(width, g, width), axis=1).transpose(1, 0, 2)


def circulant_row(blocks: np.ndarray) -> np.ndarray:
    """Block row 0 (B x gB) of the matrix with Fourier blocks (g, B, B)."""
    g, width, _ = blocks.shape
    return np.fft.ifft(blocks, axis=0).transpose(1, 0, 2).reshape(width, g * width)


def circulant_column(row: np.ndarray, g: int) -> np.ndarray:
    """Block column 0 (gB x B) of the block-circulant matrix with block row 0 ``row``."""
    width = row.shape[0]
    # block (a, 0) is C_{-a mod g}
    blocks = row.reshape(width, g, width)[:, -np.arange(g) % g]
    return blocks.transpose(1, 0, 2).reshape(g * width, width)


def circulant_dense(row: np.ndarray, g: int) -> np.ndarray:
    """The block-circulant gB x gB matrix with block row 0 ``row``."""
    width = row.shape[0]
    blocks = row.reshape(width, g, width)
    out = np.empty((g, width, g, width), dtype=row.dtype)
    for a in range(g):
        # block (a, b) is C_{b-a mod g}
        out[a, :, a:] = blocks[:, : g - a]
        out[a, :, :a] = blocks[:, g - a :]
    return out.reshape(g * width, g * width)


class SmoothingKernel:
    """Family of finite-rank-style integral operators on grid sections.

    ``mats[x]`` acts on scalar grid vectors over base point x by plain matrix
    multiplication.  ``support_radius`` is the fiber distance beyond which
    kernel entries vanish (infinity when not localized).
    """

    def __init__(
        self,
        base: BaseModel,
        mats: list[np.ndarray],
        support_radius: float = np.inf,
    ):
        self.base = base
        self.mats = [np.asarray(m, dtype=complex) for m in mats]
        self.support_radius = float(support_radius)
        for x, m in enumerate(self.mats):
            dim = base.fiber(x).npoints
            if m.shape != (dim, dim):
                raise ModelError(f"kernel matrix at point {x} has shape {m.shape}")

    def __sub__(self, other: "SmoothingKernel") -> "SmoothingKernel":
        self._check(other)
        return SmoothingKernel(
            self.base,
            [a - b for a, b in zip(self.mats, other.mats)],
            max(self.support_radius, other.support_radius),
        )

    def compose(self, other: "SmoothingKernel") -> "SmoothingKernel":
        self._check(other)
        radius = self.support_radius + other.support_radius
        return SmoothingKernel(
            self.base,
            [a @ b for a, b in zip(self.mats, other.mats)],
            radius,
        )

    def _check(self, other: "SmoothingKernel") -> None:
        if self.base is not other.base and len(self.base) != len(other.base):
            raise ModelError("kernel bases differ")

    def norm(self) -> float:
        """Lower bound of the largest operator norm across base points.

        Power steps on M^H M from the column of largest norm.  Every estimate
        taken (that column norm, |M^H y| / |y| and |M x| for unit x) is at
        most |M|_2, so a tolerance scaled by this value is never looser than
        one scaled by the exact norm.  On a hermitian projector the first
        step already gives 1.  Costs O(n^2) per base point, where the exact
        norm needs an SVD.
        """
        return max(_norm_lower_bound(m) for m in self.mats)

    def _moved(self, gspace: FiberedGSpace, a) -> np.ndarray:
        perm = gspace.permutation(gspace.groupoid.inverse(a))
        return self.mats[a.tgt][np.ix_(perm, perm)]

    def invariance_defect(self, gspace: FiberedGSpace) -> float:
        """Strict equivariance defect for untwisted (plain pullback) transport."""
        worst = 0.0
        for a in _moving_arrows(gspace):
            moved = self._moved(gspace, a)
            worst = max(worst, float(np.max(np.abs(self.mats[a.src] - moved))))
        return worst

    def twisted_invariance_defect(self, gspace: FiberedGSpace) -> float:
        """Equivariance defect modulo a unimodular character.

        Bundle actions may twist kernels by phases chi(z) conj(chi(w)); traces
        and cyclic chain sums are blind to such phases.  This checks the
        phase-free data: entry magnitudes, the operator diagonal, and closed
        two-cycles k(z, w) k(w, z).
        """
        worst = 0.0
        for a in _moving_arrows(gspace):
            here = self.mats[a.src]
            moved = self._moved(gspace, a)
            worst = max(worst, float(np.max(np.abs(np.abs(here) - np.abs(moved)))))
            worst = max(worst, float(np.max(np.abs(np.diag(here) - np.diag(moved)))))
            cyc = here * here.T - moved * moved.T
            worst = max(worst, float(np.max(np.abs(cyc))))
        return worst


# power steps per norm bound: each is two O(n^2) products, and on the random
# invariant kernels of the trace checks eight come within 2 % of the exact norm
NORM_POWER_STEPS = 8


def _norm_lower_bound(m: np.ndarray) -> float:
    """max(column norms, power-step estimates on M^H M), each <= |M|_2."""
    col_sq = np.einsum("ij,ij->j", m.real, m.real) + np.einsum("ij,ij->j", m.imag, m.imag)
    j = int(np.argmax(col_sq))
    best = float(np.sqrt(col_sq[j]))
    y = m[:, j]
    for _ in range(NORM_POWER_STEPS):
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            break
        # (y^H M)^H = M^H y, without forming the conjugate transpose of M
        xh = y.conj() @ m
        nx = float(np.linalg.norm(xh))
        best = max(best, nx / ny)
        if nx == 0.0:
            break
        y = m @ (xh.conj() / nx)
        best = max(best, float(np.linalg.norm(y)))
    return best


def _moving_arrows(gspace: FiberedGSpace):
    """Arrows other than units; FiberedGSpace makes every unit act as the identity."""
    units = gspace.groupoid.units
    return [a for a in gspace.groupoid.arrows if a != units[a.src]]


def require_invariant(
    gspace: FiberedGSpace, invariance_tol: float, what: str, *kerns: SmoothingKernel
) -> None:
    """The invariance gate over one or more families.

    The largest twisted defect must be at most invariance_tol times the
    largest norm, which is the gate on the block-diagonal family they form.
    A zero defect passes for any scale, so the scale is only computed for a
    nonzero one.
    """
    defect = max(k.twisted_invariance_defect(gspace) for k in kerns)
    if defect == 0.0:
        return
    scale = max(max(k.norm() for k in kerns), 1e-30)
    if defect > invariance_tol * scale:
        raise InvarianceError(f"{what} is only defined for invariant kernel families")


def average_kernel(
    gspace: FiberedGSpace, cutoff: CutoffDensity, kern: SmoothingKernel
) -> SmoothingKernel:
    """Cutoff-weighted diagonal average of a kernel family onto the invariants.

    out_x(z, w) = sum over arrows a from x of c(action_a z) k_{t(a)}(action_a z, action_a w).

    Exactly invariant for any input and fixes invariant inputs.
    """
    out = []
    for x in range(len(gspace.base)):
        acc = np.zeros_like(kern.mats[x])
        for a in gspace.groupoid.arrows_from(x):
            weight = gspace.eval_after_action(a, cutoff.fields[a.tgt])
            acc += weight[:, None] * kern._moved(gspace, a)
        out.append(acc)
    return SmoothingKernel(gspace.base, out, kern.support_radius)


TRACE_INVARIANCE_TOL = 1e-8  # trace_tau's gate, relative to the kernel norm


def trace_tau(kern: SmoothingKernel, cutoff: CutoffDensity, dens: TransversalDensity) -> complex:
    """Cutoff-weighted trace of an invariant smoothing family.

    tau(K) = sum over base points of mass * sum_z c(z) M_x[z, z].
    Independent of the cutoff choice, and tracial, for invariant kernels over
    orbit-constant mass; both properties fail without invariance, hence the
    check.
    """
    require_invariant(dens.gspace, TRACE_INVARIANCE_TOL, "trace", kern)
    return _weighted_diag_trace(kern, cutoff, dens)


def _weighted_diag_trace(
    kern: SmoothingKernel,
    cutoff: CutoffDensity,
    dens: TransversalDensity,
    fields: list[np.ndarray] | None = None,
) -> complex:
    """sum over base points of mass * sum_z c(z) [f(z)] M_x[z, z]."""
    total = 0.0 + 0.0j
    for x in range(len(kern.base)):
        weight = cutoff.fields[x] if fields is None else cutoff.fields[x] * fields[x]
        total += dens.mass(x) * np.sum(weight * np.diag(kern.mats[x]))
    return complex(total)


def random_invariant_kernel(
    rng: np.random.Generator,
    gspace: FiberedGSpace,
    cutoff: CutoffDensity,
    band: int,
) -> SmoothingKernel:
    """Seeded invariant smoothing family built from band-limited separable pieces."""
    base = gspace.base
    mats = []
    for x in range(len(base)):
        fiber = base.fiber(x)
        E = fiber.eval_matrix()
        keep = np.max(np.abs(fiber.modes()), axis=1) <= band
        E = E[:, keep]
        nb = E.shape[1]
        C = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
        mats.append(E @ (C / nb) @ E.conj().T / fiber.npoints)
    rough = SmoothingKernel(base, mats)
    return average_kernel(gspace, cutoff, rough)
