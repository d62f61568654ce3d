"""Operators on fiber sections: spectral bases, operator blocks, smoothing kernels.

Everything here lives on one fiber.  Every base point carries the same fiber
and the same invariant operator, so the base enters only through the cutoff
and the transverse masses, which the weighted traces receive as one
mass-weighted field formed by the scenario driver.

Conventions
-----------
Sections are scalar grid vectors of length npoints.  The inner product is
the quadrature one, (1/n^r) sum conj(f) g.  A SectionBasis holds its fiber,
its size nbasis, a sampler of any columns of its (npoints, nbasis)
evaluation matrix, whose columns are quadrature-orthonormal, and the axis-0
frequency of each column; operators between bases are plain matrices on
coefficients.  So an operator is assembled without sampling its bases: a
spectral count reads the coefficient matrix alone, and a grid realization
(the idempotent) samples only the columns that frame its projectors.

Smoothing operators are operator matrices M acting by f -> M f on scalar
grid sections, one npoints x npoints matrix.  An operator with several
bundle components is carried as several such kernels (the index idempotent
holds its kernel and cokernel projectors apart, each a kernel whose block
row is formed from its frames, ``parametrix.ProjectorFrame``, or the zero
kernel).  The Schwartz
kernel against the quadrature measure is k(z, w) = npoints * M[z, w]; all
trace and pairing formulas below are written directly in terms of M so that
no npoints factors float around.

Grid points are numbered with axis 0 slowest, so a translation by
grid_size/g ticks along axis 0 shifts every index by npoints/g.  A matrix
that commutes with it is block circulant in g x g blocks of size npoints/g:
block (a, b) is C_{b-a mod g}, and the block row [C_0 .. C_{g-1}] determines
it.  A ``SmoothingKernel`` stores each matrix as that block row, whose shape
(npoints/g, npoints) fixes g; the dense matrix is the case g = 1.  A
length-g FFT over the block index turns products of such matrices into g
independent products of size npoints/g, its Fourier blocks.  A basis
column of axis-0 frequency f is an eigenvector of the translation, with
the phase exp(2 pi i f / g), on which ``certified_block_count`` certifies g.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .forms import INVARIANCE_TOL, InvarianceError
from .grids import FiberModel, ModelError
from .space import FiberedGSpace


class SupportMismatchError(ModelError):
    """Raised when kernel supports and requested operations are incompatible."""


@dataclass(frozen=True)
class SectionBasis:
    """Quadrature-orthonormal family of ``size`` sections on one fiber.

    ``sample(indices)`` returns the (npoints, len(indices)) grid samples of
    the sections at ``indices``, each time it is called; ``columns`` refuses
    an index outside [0, size) and checks the samples' shape.
    ``frequencies`` (int64, an array, so left out of comparisons and
    hashes) holds each section's axis-0 frequency f: the translation by
    grid_size/g ticks along axis 0 multiplies it by exp(2 pi i f / g) at
    every certified g.
    """

    fiber: FiberModel
    size: int
    sample: Callable[[np.ndarray], np.ndarray]
    frequencies: np.ndarray = field(compare=False)

    def columns(self, indices: np.ndarray) -> np.ndarray:
        index = np.asarray(indices)
        outside = index[(index < 0) | (index >= self.size)]
        if outside.size:
            raise ModelError(f"basis column {outside[0]} is outside [0, {self.size})")
        samples = self.sample(indices)
        if samples.shape != (self.fiber.npoints, len(indices)):
            raise ModelError(
                f"basis samples have shape {samples.shape}, "
                f"not (npoints, len(indices)) = {(self.fiber.npoints, len(indices))}"
            )
        return samples


def fourier_basis(fiber: FiberModel) -> SectionBasis:
    """The retained Fourier modes, each of frequency k_1 along axis 0."""
    sample = lambda cols: fiber.eval_matrix().take(cols, axis=1)
    return SectionBasis(fiber, fiber.nmodes, sample, fiber.modes()[:, 0])


def fourier_multiplier(fiber: FiberModel, values: np.ndarray) -> OperatorBlock:
    """The Fourier multiplier by ``values``, one per retained mode: a diagonal block."""
    basis = fourier_basis(fiber)
    return OperatorBlock(basis, basis, np.diag(np.asarray(values, dtype=complex)))


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

    def grid_matrix(self) -> np.ndarray:
        """The operator matrix on grid vectors."""
        domain, codomain = (b.columns(np.arange(b.size)) for b in (self.domain, self.codomain))
        return codomain @ self.matrix @ domain.conj().T / self.domain.fiber.npoints


def _axis_sum(fiber: FiberModel, table: np.ndarray, rows: int, axes=None) -> np.ndarray:
    """sum over ``axes`` (all by default) of table[z_axis, w_axis], z among the first
    ``rows`` grid points.

    Each axis coordinate takes grid_size values, so a per-axis quantity is
    tabulated on grid_size^2 coordinate pairs.  The first rows points lie
    in the leading axis-0 ticks (all of them, and no others, when rows is
    npoints/g with g dividing grid_size), so the tables of those ticks and
    of the other axes broadcast over the (z, w) grid axes and are added in
    axis order.
    """
    n, r = fiber.grid_size, fiber.dim
    lead = -(-rows // n ** (r - 1))
    out = None
    for axis in range(r) if axes is None else axes:
        shape = [1] * (2 * r)
        shape[axis], shape[r + axis] = (lead if axis == 0 else n), n
        view = (table[:lead] if axis == 0 else table).reshape(shape)
        out = view if out is None else out + view
    grid = np.broadcast_to(out, (lead,) + (n,) * (2 * r - 1))
    return grid.reshape(-1, fiber.npoints)[:rows]


def squared_tick_distances(fiber: FiberModel, rows: int) -> np.ndarray:
    """Periodic squared distances, in grid ticks, from the first ``rows`` grid points to every one.

    Integers (int32), so every comparison with them commutes with the grid
    translations; a distance is the square root of one over grid_size.
    """
    n = fiber.grid_size
    ticks = np.arange(n, dtype=np.int32)
    gap = np.abs(ticks[:, None] - ticks[None, :])
    return _axis_sum(fiber, np.minimum(gap, n - gap) ** 2, rows)


# a squared tick distance within this relative distance below (radius *
# grid_size)^2 counts as a tie, so a radius whose product with the grid size
# rounds just above an integer drops that integer's pairs too
TRUNCATION_RTOL = 1e-12


def truncation_mask(fiber: FiberModel, radius: float, rows: int) -> np.ndarray:
    """Rows [0, rows) of the mask, True where the periodic distance is below radius.

    Decided on integer squared tick distances, so the mask commutes with
    every grid translation: pairs at exactly the radius are dropped at every
    base point of the grid, where a float comparison of distances would
    keep some ties and drop others.
    """
    sq = squared_tick_distances(fiber, rows)
    return sq < (radius * fiber.grid_size) ** 2 * (1.0 - TRUNCATION_RTOL)


# g blocks are accepted when the bound of ``certified_block_count`` on every
# entry of S - Pi^a S Pi^-a is at most this much relative to the largest
# diagonal entry of block row 0; grid matrices assembled from a section basis
# carry about 2e-14 of rounding
CIRCULANT_RTOL = 1e-12
# relative slack below the diagonal of S read from the frame's row norms, far
# above the rounding between them and the diagonal of the product W W^H (about
# rank times the unit roundoff)
ENTRY_BOUND_MARGIN = 1e-6


def certified_block_count(fiber: FiberModel, W: np.ndarray, frequencies: np.ndarray) -> int:
    """The block count g of S = W W^H / n, n = npoints, certified on its frame W (n x rank).

    g is the largest divisor of grid_size whose translation Pi, by
    grid_size/g ticks along axis 0, is certified to commute with S.  For
    a = 1 .. g/2 write U = Pi^a W = W T + F with the phases
    T = diag(exp(2 pi i f a / g)) of the columns' axis-0 ``frequencies`` f.
    Since W W^H - U U^H = W (1 - T T^H) W^H - W T F^H - F T^H W^H - F F^H
    for any T, and T is unitary, |S - Pi^a S Pi^-a| <= psi (2 rho + psi) / n
    with rho and psi the largest row norms of W and F.  A wrong frequency
    only raises psi, so it refuses g and never certifies a wrong one.  g is
    accepted when, for every a (a and g - a give the same entries), the
    bound is at most CIRCULANT_RTOL (1 - ENTRY_BOUND_MARGIN) d, with
    d = max_{i<B} |W_i|^2 / n, B = n / g, the largest diagonal entry of
    block row 0.  For every W and radius this is at least as strict as
    refusing g above CIRCULANT_RTOL (1 + ENTRY_BOUND_MARGIN) rho^2 / n and
    accepting it within CIRCULANT_RTOL of the largest entry of block row 0
    of S cut at the radius: S is positive semidefinite, so |S_ij| <=
    sqrt(S_ii S_jj) and d <= rho^2 / n; the cut keeps every pair at
    distance 0, so its row 0 holds S_ii for i < B; and the margin covers
    the rounding between the row's GEMM diagonal and d.  The truncation
    mask commutes with Pi, so every entry of the cut S is then that close
    to the expansion of its block row 0.  The row split by frequency
    (``parametrix.ProjectorFrame``) has the blocks W_0 T^-a W_0^H / n,
    W_0 = W[:B], where S has W_0 (W_0 T^a + F[:B])^H / n: each entry differs
    by at most rho psi / n, inside the accepted line.
    """
    n = fiber.npoints
    norms = np.sum(np.abs(W) ** 2, axis=1)
    rho = float(np.sqrt(np.max(norms)))
    for g in (g for g in range(fiber.grid_size, 0, -1) if fiber.grid_size % g == 0):
        width = n // g
        accept = CIRCULANT_RTOL * float(np.max(norms[:width])) / n * (1.0 - ENTRY_BOUND_MARGIN)
        for a in range(1, g // 2 + 1):
            U = np.roll(W, -a * width, axis=0)
            U -= W * np.exp(2j * np.pi * (frequencies * a % g) / g)
            psi = _max_row_norm(U)
            if psi * (2 * rho + psi) / n > accept:
                break
        else:
            return g


def _max_row_norm(m: np.ndarray) -> float:
    return float(np.sqrt(np.max(np.sum(np.abs(m) ** 2, axis=1))))


def block_count(row: np.ndarray) -> int:
    """The block count g of a block row [C_0 .. C_{g-1}], the B x gB top of its matrix."""
    return row.shape[1] // row.shape[0]


class SmoothingKernel:
    """Smoothing operator on the grid sections of one fiber.

    The operator acts on scalar grid vectors by a matrix M, stored as its
    block row 0 ``row`` of shape (npoints/g, npoints), which fixes the block
    count g; g = 1 stores M itself, and ``row = None`` marks M = 0.  The g
    blocks come from the translation by grid_size/g ticks along axis 0, so g
    must divide grid_size.
    """

    def __init__(self, fiber: FiberModel, row: np.ndarray | None):
        self.fiber = fiber
        self.row = None if row is None else np.asarray(row, dtype=complex)
        if self.row is None:
            return
        n = fiber.npoints
        shape = self.row.shape
        if len(shape) != 2 or shape[1] != n or not shape[0] or n % shape[0]:
            raise ModelError(f"kernel block row has shape {shape}, not (npoints/g, {n})")
        if fiber.grid_size % self.order:
            raise ModelError(
                f"block count {self.order} does not divide the grid size {fiber.grid_size}"
            )

    @property
    def order(self) -> int:
        """The block count g of a nonzero M."""
        return block_count(self.row)

    @property
    def mats(self) -> list[np.ndarray]:
        """The stored arrays: the block row of a nonzero operator."""
        return [] if self.row is None else [self.row]

    def diagonal(self) -> np.ndarray | None:
        """The diagonal of M: that of C_0, once per block; None for M = 0."""
        if self.row is None:
            return None
        return np.tile(np.diag(self.row[:, : self.row.shape[0]]), self.order)

    def norm(self) -> float:
        """Lower bound of the operator norm, O(n^2) where the exact norm needs an SVD.

        The DFT over the block index block-diagonalizes M unitarily, so |M|_2
        is the largest norm of its Fourier blocks sum_m C_m exp(-2 pi i m k / g),
        formed one at a time (C_0 itself for g = 1).  Power steps on each from
        its column of largest norm give estimates at most |M|_2, so a tolerance
        scaled by this value is never looser than one scaled by the exact norm.
        """
        if self.row is None:
            return 0.0
        g, C = self.order, self.row.reshape(len(self.row), self.order, -1)
        phase = np.exp(-2j * np.pi * np.arange(g) / g)
        blocks = (sum((C[:, m] * phase[m * k % g] for m in range(1, g)), C[:, 0]) for k in range(g))
        return max(_norm_lower_bound(block) for block in blocks)

    def twisted_invariance_defect(self, space: FiberedGSpace) -> float:
        """Equivariance defect modulo a unimodular character.

        Bundle actions may twist kernels by phases chi(z) conj(chi(w)); traces
        and cyclic chain sums are blind to such phases.  This checks the
        phase-free data: entry magnitudes, the operator diagonal, and closed
        two-cycles k(z, w) k(w, z), each read from the block row with the
        float a scan of the whole matrices gives.
        """
        elements = space.moving_elements()
        if not elements or self.row is None:
            return 0.0
        perms = [space.permutation(-g) for g in elements]
        diag = self.diagonal()
        worst = max(float(np.max(np.abs(diag - diag[perm]))) for perm in perms)
        worst = max(worst, _moved_defect(np.abs(self.row), perms))
        # block b of block row 0 of M o M^T is C_b o C_{-b}^T, transposed by a view as in M * M.T
        order, C = self.order, self.row.reshape(len(self.row), self.order, -1)
        cycles = np.empty_like(C)
        for b in range(order):
            np.multiply(C[:, b], C[:, -b % order].T, out=cycles[:, b])
        return max(worst, _moved_defect(cycles.reshape(self.row.shape), perms))


def _moved_defect(field: np.ndarray, perms: list[np.ndarray]) -> float:
    """max |F - F[p, p]| over the translations p, F block circulant with block row ``field``.

    F[p, p] is block circulant too, so block row 0 holds every entry of the
    difference.  F[aB + i, c] = field[i, c - aB mod n], so the leading rows
    that p sends into one block a are one gather of rows, then of columns:
    at most two runs, one for g = 1, where it is field[p][:, p].
    """
    width, n = field.shape
    worst = 0.0
    for perm in perms:
        lead = perm[:width] // width * width
        cuts = [0, *np.flatnonzero(np.diff(lead)) + 1, width]
        for start, stop in zip(cuts, cuts[1:]):
            rows = field.take(perm[start:stop] - lead[start], axis=0)
            moved = rows.take((perm - lead[start]) % n, axis=1)
            np.subtract(field[start:stop], moved, out=moved)
            worst = max(worst, float(np.max(np.abs(moved))))
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


def require_invariant(space: FiberedGSpace, what: str, *kerns: SmoothingKernel) -> None:
    """The invariance gate over one or more families.

    The largest twisted defect must be at most the pinned INVARIANCE_TOL
    times the largest norm, which is the gate on the block-diagonal family
    they form.
    A zero defect passes for any scale, so the scale is only computed for a
    nonzero one.
    """
    defect = max(k.twisted_invariance_defect(space) for k in kerns)
    if defect == 0.0:
        return
    scale = max(max(k.norm() for k in kerns), 1e-30)
    if defect > INVARIANCE_TOL * scale:
        raise InvarianceError(f"{what} is only defined for invariant kernel families")


def average_kernel(
    space: FiberedGSpace, cutoff: np.ndarray, kern: SmoothingKernel
) -> SmoothingKernel:
    """Cutoff-weighted diagonal average onto the invariants of a kernel stored whole (g = 1).

    out(z, w) = sum over g of c(z - g shift) k(z - g shift, w - g shift).

    Exactly invariant for any input, and fixes invariant inputs.  The sum
    starts from the identity term, and each other term gathers rows, then
    columns.
    """
    here = kern.row
    acc = cutoff[:, None] * here
    # adding 0.0 makes a zero part +0.0, as in a sum started from zeros
    acc += 0.0
    for g in range(1, space.order):
        weight = space.transport(-g, cutoff)
        perm = space.permutation(-g)
        acc += weight[:, None] * here.take(perm, axis=0).take(perm, axis=1)
    return SmoothingKernel(kern.fiber, acc)


def trace_tau(kern: SmoothingKernel, space: FiberedGSpace, weight: np.ndarray) -> complex:
    """Cutoff-weighted trace of an invariant smoothing family.

    tau(K) = sum_z w(z) M[z, z], with w the mass-weighted cutoff field: the
    sum over base points x of mass(x) c(z).  Independent of the cutoff
    choice, and tracial, for invariant kernels over orbit-constant mass;
    both properties fail without invariance, hence the check.
    """
    require_invariant(space, "trace", kern)
    return _weighted_diag_trace(kern.diagonal(), weight)


def _weighted_diag_trace(diagonal: np.ndarray | None, weight: np.ndarray) -> complex:
    """sum_z w(z) M[z, z] for one weight field w on the fiber, from the diagonal of M.

    A zero operator, whose diagonal is None, is skipped: adding its exact
    zeros would change no bit.
    """
    if diagonal is None:
        return 0j
    # adding 0j makes a zero part +0.0, whatever sign the sum left on it
    return complex(0j + np.sum(weight * diagonal))


def random_invariant_kernel(
    rng: np.random.Generator,
    space: FiberedGSpace,
    cutoff: np.ndarray,
    band: int,
) -> SmoothingKernel:
    """Seeded invariant smoothing family built from band-limited separable pieces."""
    fiber = space.fiber
    E = fiber.eval_matrix()
    keep = np.max(np.abs(fiber.modes()), axis=1) <= band
    E = E[:, keep]
    nb = E.shape[1]
    C = rng.normal(size=(nb, nb)) + 1j * rng.normal(size=(nb, nb))
    rough = SmoothingKernel(fiber, E @ (C / nb) @ E.conj().T / fiber.npoints)
    return average_kernel(space, cutoff, rough)
