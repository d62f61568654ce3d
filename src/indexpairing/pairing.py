"""Pairing of near-diagonal cochains with localized index idempotents.

The analytic side of the index formula pairs an invariant degree-2k cochain
with the index idempotent P = diag(S0, 1 - S1) of an elliptic family (see
``parametrix``) through the chain quadrature

    sum over tuples  c(z_0) phi(z_0, .., z_{2k}) k_P(z_0,z_1) .. k_P(z_{2k},z_0)

minus the same chain over the bare unit e.  Two cochain flavors feed it:
slot-product ``ASCochain`` terms, and the difference-profile cochains defined
here.  Band-limited slot products cannot vanish away from the diagonal, so
the practical degree-2 representatives are products of odd periodic profiles
of the leg differences z_{i+1} - z_i, exactly linear near zero.

The chain is always contracted against the full alternation of the cochain.
Alternation changes no germ class, but it turns the two contract properties
into exact matrix identities: pairing with a tuple coboundary vanishes, and
the value is stable under idempotent homotopies.  Both follow from P^2 = P
and trace cyclicity alone, with no smallness assumptions.  The alternation
of any cochain vanishes on tuples with two equal points, so every chain term
that carries a unit factor drops out for k >= 1.  Since P is block diagonal,
its chain splits over the blocks, and the pairing is the chain of S0 minus
the chain of S1 at every k (at k = 0 this is the trace of P - e).

The alternated chain carries the weight (-1)^k (2k)!/k!, the combinatorial
factor that scales the 2k-simplex chain of an idempotent to the degree-2k
component of its Chern character.  It is a universal constant, not a fitted
calibration: at k = 0 it is one and the pairing is the plain cutoff trace,
and at k = 1 it is -2 and the pairing of a flux-localized idempotent
reproduces the curvature integral of its symbol class to the localization
defect (measured at the 1e-9 scale on the dimension-two torus at flux 32).

At k = 1 the six alternation terms are the cyclic rotations of two triple
products, with the diagonal cutoff weight D = diag(c) in front.  For a
profile cochain with leg masks W0, W1 the even terms are the rotation sum

    S(K) = tr(D XYZ) + tr(D ZXY) + tr(D YZX)

of (X, Y, Z) = (K o W0, K o W1, K), and transposing each odd term turns
the odd sum into S(K^T), so the chain is (S(K) - S(K^T)) / 6.  Every
kernel it pairs is a projector, hermitian, and the masks are real, so
S(K^T) is the conjugate of S(K) and the chain is 2i Im S(K) / 6; a kernel
that fails an O(n^2) check of its hermitian defect is refused before any
product.  A projector of rank r is Z = V V^H with its frame V, n x r, so
with u = Y V and <A, B> = sum conj(A) o B trace cyclicity gives

    S(K) = <V, D X u> + <V, X Y D V> + <V, X D u>,

five products of n x n by n x r and O(n r) sums.

Each trace of an elementary term w d0 (x) d1 (x) d2 reads a
middle field m between its cyclic neighbours p and q:
tr(D diag(p) K diag(m) K diag(q) K).  So the term is w / 6 times
the sum over slots s of t(c d_{s-1}, d_s, d_{s+1}) - t(c d_{s+1}, d_s,
d_{s-1}), t(a, m, b) = tr(diag(a) K diag(m) K diag(b) K).  A projector of
rank r is K = F F^H / n for its grid frame F (``ProjectorFrame``), so
trace cyclicity gives t(a, m, b) = tr(G_a G_m G_b) with the r x r Gram
matrices G_f = F^H diag(f) F / n: one n r^2 product per distinct field,
six for the coboundary of a degree-1 elementary cochain (fields 1, f0
and f1, and each times c).

The leg masks are functions of z - w, so they commute with every grid
translation.  When K is stored as g blocks (``SmoothingKernel``), with g
dividing grid_size so that the blocks come from a grid translation, so are
the masks, K o W0 and K o W1; the masks are built as their block row 0
only, and the profile chain works on the g Fourier blocks of size n/g,
one block at a time.  Block k of the projector is Y_k Y_k^H for its frame
Y_k of r_k columns (``ProjectorFrame.block_frames``), cut or not, so
block k takes the five products above with r_k columns (3 of 200 at
flux 24), where two products of whole blocks took 2 B^3.  The cutoff weight
is not translation invariant, but tr(D M) of
a block-circulant M only reads the diagonal of C_0, the mean of the
Fourier blocks, so D enters through the sums of c over the orbits of the
translation: exact for any cutoff.

Both cochain flavors live on the fiber, so a chain differs between base
points only through the cutoff weight, in which it is real-linear: every
chain, at k = 0 and k = 1, is contracted once against the one weight
field: the sum over base points of mass times the cutoff field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charclass import smoothstep_poly
from .cochains import ASCochain
from .forms import FoliatedForm, subset_position
from .grids import FiberModel, ModelError
from .operators import (
    SupportMismatchError,
    _axis_sum,
    _weighted_diag_trace,
    block_count,
    require_invariant,
)
from .parametrix import IndexIdempotent, ProjectorFrame
from .space import FiberedGSpace

__all__ = [
    "TransitionProfile",
    "ProfileCochain",
    "pair_cocycle",
]


@dataclass(frozen=True)
class TransitionProfile:
    """Odd 1-periodic profile, exactly linear with slope 1 near zero.

    s(t) = t for |t| <= linear_radius; beyond that the value is rolled off
    by a window flat to order GRAPH_FLATNESS (the ramp
    ``charclass.smoothstep_poly``) and vanishes for |t| in
    [support_radius, 1/2].
    With support_radius = 1/2 the profile is global (nonzero all the way to
    the wrap); smaller values give compactly supported legs.
    """

    linear_radius: float = 0.45
    support_radius: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.linear_radius < self.support_radius <= 0.5:
            raise ModelError(
                "profile needs 0 < linear_radius < support_radius <= 1/2, got "
                f"{self.linear_radius:g} and {self.support_radius:g}"
            )

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        # nearest-integer reduction keeps the wrap exact on [-1/2, 1/2]
        tt = t - np.round(t)
        u = (np.abs(tt) - self.linear_radius) / (
            self.support_radius - self.linear_radius
        )
        window = 1.0 - smoothstep_poly(u)
        return tt * window


class ProfileCochain:
    """Degree-2 cochain built from two difference profiles along fiber axes.

    The value on a triple (z_0, z_1, z_2) is the product over the two
    consecutive legs i of profile_i((z_{i+1} - z_i)[axis_i]).  Near the
    diagonal both profiles are exactly linear, so the cochain is a closed
    germ representative there and its leafwise realization is a
    constant-coefficient 2-form.

    ``germ_radius`` is the separation scale the cochain can be trusted at:
    the smallest linear radius over the legs.  Every edge of the chain tuple
    is a kernel entry, so the pairing reads leg values out to the kernel
    reach, and only the exactly-linear region carries the closed-germ
    identity.  Compact support does not widen the trust region: a rolled-off
    leg vanishes on far tuples but stops being a cocycle where the roll-off
    lives, and pairings that read the roll-off drift with the localization
    scale instead of representing the class (measured at the 1e-4 scale on
    the dimension-two torus at flux 32 against a 1e-9 drift when the reach
    stays linear).
    """

    degree = 2

    def __init__(self, fiber: FiberModel, legs) -> None:
        legs = tuple((int(axis), prof) for axis, prof in legs)
        if len(legs) != 2:
            raise ModelError(f"difference cochains need exactly two legs, got {len(legs)}")
        for axis, prof in legs:
            if not isinstance(prof, TransitionProfile):
                raise ModelError("every leg needs a TransitionProfile")
            if not 0 <= axis < fiber.dim:
                raise ModelError(f"leg axis {axis} outside fiber dimension {fiber.dim}")
        self.fiber = fiber
        self.legs = legs
        self.germ_radius = min(p.linear_radius for _, p in legs)

    def leg_mask(self, i: int, rows: int) -> np.ndarray:
        """Rows [0, rows) of W[z, w] = profile_i((w - z)[axis_i]) on the fiber.

        The axis coordinate takes grid_size values, so the profile is
        evaluated on their grid_size^2 differences and broadcast from there.
        """
        axis, prof = self.legs[i]
        coords = np.arange(self.fiber.grid_size) / self.fiber.grid_size
        table = prof(coords[None, :] - coords[:, None])
        return _axis_sum(self.fiber, table, rows, axes=(axis,))

    def van_est_form(self) -> FoliatedForm:
        """Leafwise realization on the fiber: the product of unit slopes times dz_a0 ^ dz_a1.

        Exact, not a quadrature: both profiles have derivative exactly 1 at
        zero and vanishing value there, so the whole 2-jet reduces to the
        single constant-coefficient component, zero when the axes agree.
        """
        (a0, _), (a1, _) = self.legs
        form = FoliatedForm.zero(self.fiber, 2)
        if a0 != a1:
            pos = subset_position(self.fiber.dim, 2)[(min(a0, a1), max(a0, a1))]
            form.field[:, pos] = 1.0 if a0 < a1 else -1.0
        return form


# the profile chain's even rotations need K = K^H; a kernel with
# max|K - K^H| > HERMITIAN_RTOL * max|K| is refused
HERMITIAN_RTOL = 1e-14
# how far a kernel reach may pass the cochain germ radius, here and at load
GERM_SLACK = 1e-9


def pair_cocycle(
    idem: IndexIdempotent,
    phi,
    space: FiberedGSpace,
    weight: np.ndarray,
) -> complex:
    """Pair an even-degree cochain with the index idempotent P = diag(S0, 1 - S1).

    Quadrature realization of the cyclic chain of the cochain against P,
    minus the chain against the bare unit, contracted on the alternation of
    the cochain and scaled by the Chern weight (-1)^k (2k)!/k! (see the
    module docstring): the chain of S0 minus the chain of S1.  k = 0
    reduces to the cutoff trace against the scalar field; k = 1 contracts
    difference masks or slot products against triple kernel products.
    Chains beyond k = 1 need (2k+1)-fold kernel products the desk budget
    does not cover.

    Both projectors must pass the invariance gate at the pinned
    INVARIANCE_TOL.  The kernel reach (the idempotent's cut radius, or the
    effective radius when unlocalized) must not exceed the cochain's germ
    radius: past that scale the cochain stops representing its class and
    the pairing would read untrusted values.

    Each projector is a ``ProjectorFrame`` or the zero kernel, whose chain
    is exactly zero.  A frame's block row, formed once at construction, is
    formed on a cached idempotent only where entries are read: by the gate
    when a group element moves the fiber (no defect is possible
    otherwise), by the reach of an unlocalized idempotent against a finite
    germ radius (no reach passes an infinite one), and by the profile
    chain's hermitian test and masks.  The k = 0 trace reads the diagonal,
    the elementary chain the Gram matrices, and the profile chain the
    Fourier block factors, of each projector's frame.
    """
    if phi.degree % 2:
        raise ModelError("only even-degree cochains pair with idempotents")
    k = phi.degree // 2
    if k > 1:
        raise ModelError("chains beyond one cochain level are not modeled")
    if space.moving_elements():
        require_invariant(space, "pairing", *idem.families)
    if math.isfinite(phi.germ_radius):
        reach = idem.effective_radius if math.isinf(idem.radius) else idem.radius
        if reach > phi.germ_radius + GERM_SLACK:
            raise SupportMismatchError(
                f"kernel reach {reach:.4g} exceeds the cochain germ radius "
                f"{phi.germ_radius:.4g}; localize the idempotent below the germ "
                "scale or widen the cochain"
            )

    # one contraction covers the base (see the module docstring)
    if k == 0:
        field = weight * phi.evaluate_batch(np.arange(idem.fiber.npoints)[:, None])
        trace0, trace1 = (_weighted_diag_trace(kern.diagonal(), field) for kern in idem.families)
        return trace0 - trace1

    chern = (-1) ** k * math.factorial(2 * k) // math.factorial(k)

    def contract(proj: ProjectorFrame) -> complex:
        if isinstance(phi, ProfileCochain):
            return _weighted_profile_chain(phi, weight, proj)
        return _weighted_elementary_chain(phi, weight, proj.grid_frame())

    # the zero kernel (S1 of every positive flux) has an exactly zero chain
    v0, v1 = (contract(p) if isinstance(p, ProjectorFrame) else 0j for p in idem.families)
    # adding 0j makes a zero part +0.0, whatever sign the chains left on it
    return chern * (0j + (v0 - v1))


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B: every product of both k = 1 chains, countable in one place."""
    return A @ B


def _hermitian_defect(row: np.ndarray) -> float:
    """max |M - M^H| of the block-circulant M with block row 0 ``row``.

    Block b of block row 0 of M^H is C_{-b}^H, so each C_b is compared with
    it, one B x B block at a time.
    """
    width, g = row.shape[0], block_count(row)
    C = row.reshape(width, g, width)
    return max(float(np.max(np.abs(C[:, b] - C[:, -b % g].conj().T))) for b in range(g))


def _is_hermitian(row: np.ndarray) -> bool:
    """Whether the block-circulant matrix with block row 0 ``row`` is hermitian.

    Its hermitian defect and its largest entry are both taken on block row 0.
    """
    return _hermitian_defect(row) <= HERMITIAN_RTOL * float(np.max(np.abs(row)))


def _weighted_profile_chain(phi: ProfileCochain, cw: np.ndarray, proj: ProjectorFrame) -> complex:
    """The k = 1 chain against the two legs of phi, weighted by the cutoff cw,
    of the projector held as the frame ``proj``.

    The legs' masks are block circulant in every g dividing grid_size (they
    depend on w - z only), so only block row 0 of each mask is built, and
    only while its product with the kernel is formed; that product is
    transformed in place.  The masks are real (profile values), so a
    hermitian K takes the even rotations alone, the odd ones being their
    conjugate.  The hermitian test reads block
    row 0 alone; a K that fails it raises ModelError before any product.
    Each Fourier block of K is V V^H for its frame V of r_k columns, so with
    the blocks x and y of the masked kernels, u = y V and D = diag(orbit
    means of cw), the rotations are <V, D x u>, <V, x y D V> and <V, x D u>
    for <A, B> = sum conj(A) o B: five products of B x B by B x r_k.
    """
    row = proj.row
    if not _is_hermitian(row):
        raise ModelError(
            "the profile chain pairs only a hermitian kernel: this one departs from "
            f"hermitian by more than {HERMITIAN_RTOL:g} of its largest entry"
        )
    width, g = row.shape[0], block_count(row)
    D = cw.reshape(g, width).sum(axis=0)[:, None] / g
    masked = [(row * phi.leg_mask(i, width)).reshape(width, g, width) for i in (0, 1)]
    X, Y = (np.fft.fft(M, axis=1, out=M).transpose(1, 0, 2) for M in masked)
    traces = np.empty(g, dtype=complex)
    for k, (x, y, V) in enumerate(zip(X, Y, proj.block_frames())):
        u = _product(y, V)
        traces[k] = (
            np.vdot(V, D * _product(x, u))
            + np.vdot(V, _product(x, _product(y, D * V)))
            + np.vdot(V, _product(x, D * u))
        )
    return 2j * complex(np.sum(traces)).imag / 6.0


def _weighted_elementary_chain(phi: ASCochain, cw: np.ndarray, F: np.ndarray) -> complex:
    """The k = 1 chain against the slot products of phi, weighted by the cutoff
    cw, of the projector K = F F^H / n with grid frame F (n x r).

    One Gram matrix G_f = F^H diag(f) F / n per distinct field f, keyed by
    its bytes, and tr(G_a G_m G_b) for each of its r x r triple traces.
    """
    Fh = F.conj().T / len(F)
    grams: dict[bytes, np.ndarray] = {}

    def gram(f: np.ndarray) -> np.ndarray:
        key = f.tobytes()
        if key not in grams:
            grams[key] = _product(Fh, f[:, None] * F)
        return grams[key]

    def triple(a: np.ndarray, m: np.ndarray, b: np.ndarray) -> complex:
        return np.einsum("ij,jk,ki->", gram(a), gram(m), gram(b))

    total = 0.0 + 0.0j
    for term in phi.terms:
        d = term.factors
        for s in range(3):
            p, m, q = d[s - 1], d[s], d[(s + 1) % 3]
            total += term.weight * (triple(cw * p, m, q) - triple(cw * q, m, p))
    return complex(total) / 6.0
