"""Characteristic forms on the leafwise cotangent model.

Differential forms live on two sites here.  The fiber site is the torus grid
already used by forms.py; derivatives are spectral and components follow the
sorted-subset convention.  The frequency site is a closed disc of fixed radius
in each cotangent plane, discretized in polar coordinates with Gauss-Legendre
radial nodes and an equispaced angular grid, so that radial derivatives are
exact on polynomials below the node count and angular derivatives are exact on
trigonometric polynomials below the angular band.

The exterior calculus itself, scalar or matrix-valued on either site, is
forms.exterior_d and forms.exterior_wedge; this module supplies the disc's
gradient and builds on the two functions the two factors of a product
symbol class.  On the fiber that is the Chern character of a projector
field, one component array per even degree; on the disc it is one number,
the charge: the integral of the degree-2 character of a projector field
relative to its rim value (the Thom/Bott step of the index formula).  The
two model projector families used by the scenarios are a flux-twisted line
bundle frame on the fiber and the graph projector of a nonvanishing scalar
symbol on the disc.  The flux bundle's character is read off its frame and
the frame's closed-form derivatives (twist_character), in O(npoints * m)
memory for rank m = |twist| and with no spectral derivative; the m x m
projector field and its spectral character serve the property checks and
the tests.  No genus factor is formed: every scenario runs on
two-dimensional fibers, where the A-hat genus is identically 1 because its
components sit in degrees divisible by four.

Normalization is fixed once: curvature enters the Chern character through the
scale 1/(2*pi*i).  Any further orientation constant belongs to the index
integrand, not here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .dolbeault import landau_sections
from .forms import exterior_d, exterior_wedge
from .grids import FiberModel, ModelError, spectral_gradient
from .symbols import EllipticityError

CH_CURVATURE_SCALE = 1.0 / (2.0j * np.pi)
IDEMPOTENT_TOL = 1e-10
# derivatives of the graph projector's radial ramp that vanish at both ends
GRAPH_FLATNESS = 8
# Gauss-Legendre radial and equispaced angular nodes of the frequency disc
# that the scenarios and the class checks integrate the symbol class on
DISC_RADIAL_NODES = 48
DISC_ANGULAR_NODES = 48


def smoothstep_poly(u):
    """Polynomial ramp from 0 at u=0 to 1 at u=1, clamped outside [0, 1].

    The ramp is the upper half, j = F + 1 .. 2F + 1, of the Bernstein basis
    C(2F + 1, j) u^j (1-u)^(2F+1-j) of degree 2F + 1, F = GRAPH_FLATNESS.
    Its derivative is proportional to u^F (1-u)^F, so the first F
    derivatives vanish at both ends, which keeps projector families built
    from the ramp smooth across gluing radii.  It is evaluated on [0, 1/2]
    and reflected through m(u) + m(1-u) = 1; every term is nonnegative
    there, so no sum cancels.
    """
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    lower = np.minimum(u, 1.0 - u)
    upper = 1.0 - lower
    degree = 2 * GRAPH_FLATNESS + 1
    out = np.zeros_like(u)
    # the smallest terms first
    for j in range(degree, GRAPH_FLATNESS, -1):
        out += math.comb(degree, j) * lower**j * upper ** (degree - j)
    return np.where(u <= 0.5, out, 1.0 - out)


# ---------------------------------------------------------------------------
# The frequency disc


@dataclass(frozen=True)
class DiscModel:
    """Closed disc of given radius with a polar tensor quadrature.

    Radial nodes are Gauss-Legendre points mapped to (0, radius); the angular
    grid is equispaced.  Node ordering is C-order over (radial, angular), so
    flat fields have shape (nnodes,) with nnodes = nradial * nangular.
    """

    radius: float
    nradial: int = DISC_RADIAL_NODES
    nangular: int = DISC_ANGULAR_NODES

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ModelError("disc radius must be positive")
        if self.nradial < 4 or self.nangular < 4:
            raise ModelError("disc needs at least 4 nodes per direction")

    @property
    def nnodes(self) -> int:
        return self.nradial * self.nangular

    @cached_property
    def _radial_rule(self) -> tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(self.nradial)
        nodes = 0.5 * self.radius * (x + 1.0)
        weights = 0.5 * self.radius * w
        return nodes, weights

    @property
    def radial_nodes(self) -> np.ndarray:
        return self._radial_rule[0]

    @property
    def radial_weights(self) -> np.ndarray:
        return self._radial_rule[1]

    @cached_property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.nangular) / self.nangular

    @cached_property
    def rho(self) -> np.ndarray:
        """Radial coordinate per flat node."""
        return np.repeat(self.radial_nodes, self.nangular)

    @cached_property
    def theta(self) -> np.ndarray:
        """Angular coordinate per flat node."""
        return np.tile(self.angles, self.nradial)

    @cached_property
    def points(self) -> np.ndarray:
        """Cartesian node coordinates, shape (nnodes, 2)."""
        return np.column_stack((self.rho * np.cos(self.theta), self.rho * np.sin(self.theta)))

    @cached_property
    def weights(self) -> np.ndarray:
        """Plane-measure quadrature weights (rho dr dtheta), flat ordering."""
        ang = 2.0 * np.pi / self.nangular
        return np.repeat(self.radial_weights * self.radial_nodes * ang, self.nangular)

    @cached_property
    def _radial_diff(self) -> np.ndarray:
        x = self.radial_nodes
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        # barycentric weights, rescaled to dodge overflow
        bary = 1.0 / diff.prod(axis=1)
        bary /= np.abs(bary).max()
        D = (bary[None, :] / bary[:, None]) / diff
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        return D

    def gradient(self, field: np.ndarray, axes) -> list[np.ndarray]:
        """Cartesian partial derivatives along frequency axes 0 and 1.

        Accepts flat fields of shape (nnodes, ...) and returns one array per
        entry of axes.  Differentiation is barycentric in the radial
        direction and spectral in the angle; both are taken once and serve
        both axes.
        """
        if any(a not in (0, 1) for a in axes):
            raise ModelError(f"disc axes must be 0 or 1, got {tuple(axes)}")
        f = np.asarray(field, dtype=complex)
        shaped = f.reshape(self.nradial, self.nangular, -1)
        fr = (self._radial_diff @ shaped.reshape(self.nradial, -1)).reshape(shaped.shape)
        freqs = np.fft.fftfreq(self.nangular, d=1.0 / self.nangular)
        if self.nangular % 2 == 0:
            freqs[self.nangular // 2] = 0.0
        ft = np.fft.ifft(np.fft.fft(shaped, axis=1) * (1j * freqs)[None, :, None], axis=1)
        cos = np.cos(self.angles)[None, :, None]
        sin = np.sin(self.angles)[None, :, None]
        inv_rho = (1.0 / self.radial_nodes)[:, None, None]
        out = []
        for a in axes:
            d = cos * fr - sin * inv_rho * ft if a == 0 else sin * fr + cos * inv_rho * ft
            out.append(d.reshape(f.shape))
        return out

    def integrate(self, field: np.ndarray) -> complex:
        """Quadrature integral of a flat scalar field over the disc."""
        f = np.asarray(field)
        return complex(np.sum(self.weights * f))


# ---------------------------------------------------------------------------
# Chern character of a projector field


def _projected_curvature(p: np.ndarray, dp: np.ndarray, dim: int) -> np.ndarray:
    """Curvature 2-form p (dp ^ dp) p of the projected connection."""
    p = p[:, None]
    F = exterior_wedge(dp, 1, dp, 1, dim, np.matmul)
    return p @ F @ p


def _chern_scalars(p: np.ndarray, dim: int, grad) -> dict[int, np.ndarray]:
    """Trace scalars of the Chern character by form degree for one site.

    Input is a pointwise projector field (n, m, m) and the site's gradient
    grad(block, axes=axes); the result maps the even degree 2j to component
    arrays (n, ncomp) of tr(p F^j) * scale^j / j!.
    """
    p = np.asarray(p, dtype=complex)
    defect = float(np.abs(p @ p - p).max())
    if defect > IDEMPOTENT_TOL:
        raise ModelError(f"field is not a projector: |p^2 - p| = {defect:.3e}")
    n = p.shape[0]
    out = {0: np.trace(p, axis1=-2, axis2=-1).reshape(n, 1)}
    if dim < 2:
        return out
    dp = exterior_d(p[:, None], 0, dim, grad)
    F = power = _projected_curvature(p, dp, dim)
    for j in range(1, dim // 2 + 1):
        if j > 1:
            power = exterior_wedge(power, 2 * j - 2, F, 2, dim, np.matmul)
        sandwich = (p[:, None] * power.swapaxes(-1, -2)).sum(axis=(-2, -1))
        out[2 * j] = CH_CURVATURE_SCALE**j / math.factorial(j) * sandwich
    return out


# ---------------------------------------------------------------------------
# The two factors of a product symbol class


def chern_character_fiber(fiber: FiberModel, projector: np.ndarray) -> dict[int, np.ndarray]:
    """Chern character of a projector field on the fiber site, by degree.

    projector is one (npoints, m, m) field; the result maps each even
    degree to its component array (npoints, ncomp).
    """
    return _chern_scalars(projector, fiber.dim, partial(spectral_gradient, fiber=fiber))


def disc_charge(disc: DiscModel, projector: np.ndarray) -> complex:
    """Disc integral of the degree-2 character of a 2 x 2 projector field
    minus that of its rim value.

    The rim value of a graph projector is the constant diag(0, 1); the
    difference is the compactly supported class that symbols of elliptic
    operators produce, and its integral is the Bott charge of the symbol.
    A constant projector has dp = 0, so the rim's character vanishes and
    only the projector's own is integrated.
    """
    return disc.integrate(_chern_scalars(projector, 2, disc.gradient)[2][:, 0])


# ---------------------------------------------------------------------------
# Model projector families


def _flux_frame(fiber: FiberModel, twist: int):
    """Sections whose conjugates frame a flux line bundle, with their derivatives.

    The lowest magnetic level; for unit flux a second level is included
    because a single section vanishes somewhere and the frame would
    degenerate.  Returns the section values V, their partial derivatives
    along the two fiber axes and the density sum_i |V_i|^2.
    """
    max_level = 0 if abs(twist) >= 2 else 1
    columns = np.arange(abs(twist) * (max_level + 1))
    V, d1, d2 = landau_sections(fiber, twist, max_level, columns, jet=True)
    density = np.sum(np.abs(V) ** 2, axis=1)
    if density.min() < 1e-6 * density.max():
        raise ModelError("magnetic frame degenerates on the grid")
    return V, (d1, d2), density


def twist_projector(fiber: FiberModel, twist: int) -> np.ndarray:
    """Rank-one projector field representing a flux line bundle on the fiber.

    p = conj(V) V^T / |V|^2 for the sections V of _flux_frame.  twist 0
    returns the constant rank-one projector.
    """
    if fiber.dim != 2:
        raise ModelError("flux projectors need a two-dimensional fiber")
    if twist == 0:
        return np.ones((fiber.npoints, 1, 1), dtype=complex)
    V, _, density = _flux_frame(fiber, twist)
    p = np.einsum("ni,nj->nij", np.conj(V), V)
    p /= density[:, None, None]
    return p


def twist_character(fiber: FiberModel, twist: int) -> dict[int, np.ndarray]:
    """Chern character of the flux line bundle of twist_projector, from its frame.

    That projector is p = w w* for the unit frame w = conj(V)/sqrt(rho),
    rho = sum_i |V_i|^2, so tr p = |w|^2 and tr(p dp^dp) = dw* ^ dw (the
    Berry curvature of the frame).  Both are read off the sampled sections
    and their closed-form derivatives,
    dw = conj(dV)/sqrt(rho) - w d(rho)/(2 rho), d(rho) = 2 Re sum_i conj(V_i) dV_i,
    with no m x m field and no spectral derivative, in O(npoints * m)
    memory.  ch_0 sums the diagonal of p as twist_projector forms it, so it
    has the bits of tr p.  The frame is gated on max |(|w|^2 - 1)|; since
    p^2 - p = (|w|^2 - 1) p, that gate is at least as strict as the
    projector's.  Twist 0 is the constant bundle: the constant projector 1,
    with tr p = 1 and no curvature.
    """
    if fiber.dim != 2:
        raise ModelError("flux projectors need a two-dimensional fiber")
    n = fiber.npoints
    if twist == 0:
        return {0: np.ones((n, 1), dtype=complex), 2: np.zeros((n, 1), dtype=complex)}
    V, dV, density = _flux_frame(fiber, twist)
    ch0 = (np.einsum("ni,ni->ni", np.conj(V), V) / density[:, None]).sum(axis=1)
    root = np.sqrt(density)[:, None]
    w = np.conj(V) / root
    defect = float(np.abs(np.sum(np.abs(w) ** 2, axis=1) - 1.0).max())
    if defect > IDEMPOTENT_TOL:
        raise ModelError(f"frame is not a unit frame: ||w|^2 - 1| = {defect:.3e}")
    # d(rho) / (2 rho) per axis
    half_log = [np.sum(np.conj(V) * d, axis=1).real / density for d in dV]
    dw = [np.conj(d) / root - w * h[:, None] for d, h in zip(dV, half_log)]
    berry = np.sum(np.conj(dw[0]) * dw[1] - np.conj(dw[1]) * dw[0], axis=1)
    return {0: ch0.reshape(n, 1), 2: (CH_CURVATURE_SCALE * berry).reshape(n, 1)}


def graph_symbol_projector(disc: DiscModel, values: np.ndarray) -> np.ndarray:
    """Graph projector of a nonvanishing scalar symbol on the disc.

    values holds the symbol samples on the disc nodes.  The projector
    interpolates from the constant diag(1, 0) at the center to the constant
    diag(0, 1) at the rim through the unit phase of the symbol, flat to
    order GRAPH_FLATNESS at both ends so the field extends smoothly over the
    compactified plane; the integral of the degree-2 character of the
    difference class equals the winding of the symbol along the rim.
    """
    a = np.asarray(values, dtype=complex)
    if a.shape != (disc.nnodes,):
        raise ModelError("symbol samples must be one value per disc node")
    if not np.all(np.isfinite(a)):
        raise EllipticityError("symbol is not finite on the frequency disc")
    mag = np.abs(a)
    if mag.min() <= 0.0 or mag.min() < 1e-12 * mag.max():
        raise EllipticityError("symbol vanishes on the frequency disc")
    phase = a / mag
    u = (disc.rho / disc.radius) ** 2
    alpha = 0.5 * np.pi * smoothstep_poly(u)
    c = np.cos(alpha)
    s = np.sin(alpha)
    p = np.empty((disc.nnodes, 2, 2), dtype=complex)
    p[:, 0, 0] = c * c
    p[:, 0, 1] = c * s * np.conj(phase)
    p[:, 1, 0] = c * s * phase
    p[:, 1, 1] = s * s
    return p
