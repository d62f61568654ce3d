"""Operators on fiber sections: spectral bases, operator blocks, smoothing kernels.

Conventions
-----------
Sections are grid vectors of length npoints (per bundle component).  The
inner product is the quadrature one, (1/n^r) sum conj(f) g.  A SectionBasis
holds an (npoints, nbasis) evaluation matrix with quadrature-orthonormal
columns; operators between bases are plain matrices on coefficients.

Smoothing operators are stored as operator matrices M acting by f -> M f on
scalar grid sections, one npoints x npoints matrix per base point.  A family
with several bundle components is carried as several such families (the
index idempotent holds its kernel and cokernel projectors apart), so no
kernel needs a block layout.  The Schwartz kernel against the quadrature
measure is k(z, w) = npoints * M[z, w]; all trace and pairing formulas below
are written directly in terms of M so that no npoints factors float around.
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

    Sections with ``components`` bundle components are grid vectors of length
    components * npoints in block-major layout.  ``key`` identifies the basis
    for compatibility checks when composing operators; bases with equal keys
    are interchangeable.
    """

    fiber: FiberModel
    matrix: np.ndarray
    key: tuple
    components: int = 1

    def __post_init__(self):
        if self.matrix.shape[0] != self.components * self.fiber.npoints:
            raise ModelError("basis rows must match the fiber grid times components")

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


def fourier_basis(fiber: FiberModel, components: int = 1) -> SectionBasis:
    E = fiber.eval_matrix()
    if components > 1:
        E = np.kron(np.eye(components), E)
    return SectionBasis(
        fiber,
        E,
        key=("fourier", fiber.grid_size, fiber.fourier_cutoff, fiber.dim, components),
        components=components,
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

    def compose(self, other: "OperatorBlock") -> "OperatorBlock":
        """self after other."""
        if other.codomain.key != self.domain.key:
            raise ModelError("operator bases are not compatible for composition")
        return OperatorBlock(other.domain, self.codomain, self.matrix @ other.matrix)

    def grid_matrix(self) -> np.ndarray:
        """Operator matrix on grid vectors (codomain grid x domain grid)."""
        n = self.domain.fiber.npoints
        if not np.any(self.matrix):
            return np.zeros((self.codomain.matrix.shape[0], n), dtype=complex)
        return self.codomain.matrix @ self.matrix @ self.domain.matrix.conj().T / n

    @classmethod
    def identity(cls, basis: SectionBasis) -> "OperatorBlock":
        return cls(basis, basis, np.eye(basis.size, dtype=complex))


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
    n = domain.fiber.grid_size
    npts = domain.fiber.npoints
    perm = gspace.fiber_map(a).grid_permutation(n)
    bidx = np.concatenate([perm + b * npts for b in range(domain.components)])
    moved = domain.matrix[bidx, :]
    return codomain.matrix.conj().T @ moved / npts


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


def fiber_distance_matrix(fiber: FiberModel) -> np.ndarray:
    """Pairwise periodic Euclidean distances between grid points.

    Each axis coordinate takes grid_size values, so the wrapped squared
    distances are tabulated on their grid_size^2 differences, gathered per
    axis and summed in axis order.
    """
    n = fiber.grid_size
    coords = np.arange(n) / n
    gap = np.abs(coords[:, None] - coords[None, :])
    table = np.minimum(gap, 1.0 - gap) ** 2
    ticks = np.unravel_index(np.arange(fiber.npoints), (n,) * fiber.dim)
    sq = table[np.ix_(ticks[0], ticks[0])]
    for axis_ticks in ticks[1:]:
        sq += table[np.ix_(axis_ticks, axis_ticks)]
    return np.sqrt(sq)


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

    def __add__(self, other: "SmoothingKernel") -> "SmoothingKernel":
        self._check(other)
        return SmoothingKernel(
            self.base,
            [a + b for a, b in zip(self.mats, other.mats)],
            max(self.support_radius, other.support_radius),
        )

    def __sub__(self, other: "SmoothingKernel") -> "SmoothingKernel":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "SmoothingKernel":
        return SmoothingKernel(
            self.base, [factor * m for m in self.mats], self.support_radius
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
        n = gspace.base.fiber(a.src).grid_size
        perm = gspace.point_action(a).grid_permutation(n)
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

    def truncate(self, radius: float) -> "SmoothingKernel":
        """Zero all entries at fiber distance beyond the radius."""
        out = [
            m * (fiber_distance_matrix(self.base.fiber(x)) <= radius)
            for x, m in enumerate(self.mats)
        ]
        return SmoothingKernel(self.base, out, radius)


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
        n = gspace.base.fiber(x).grid_size
        acc = np.zeros_like(kern.mats[x])
        for a in gspace.groupoid.arrows_from(x):
            perm = gspace.point_action(a).grid_permutation(n)
            acc += cutoff.fields[a.tgt][perm][:, None] * kern._moved(gspace, a)
        out.append(acc)
    return SmoothingKernel(gspace.base, out, kern.support_radius)


def trace_tau(
    kern: SmoothingKernel,
    cutoff: CutoffDensity,
    dens: TransversalDensity,
    invariance_tol: float = 1e-8,
) -> complex:
    """Cutoff-weighted trace of an invariant smoothing family.

    tau(K) = sum over base points of mass * sum_z c(z) M_x[z, z].
    Independent of the cutoff choice, and tracial, for invariant kernels over
    orbit-constant mass; both properties fail without invariance, hence the
    check.
    """
    require_invariant(dens.gspace, invariance_tol, "trace", kern)
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
