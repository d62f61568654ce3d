"""Numerical evaluation of the localized index integrand.

The topological side of the verification integrates a cocycle class against
the Chern character of the operator symbol over the compactified cotangent
model, weighted by the cutoff and the transversal masses.  The genus factor
of the index formula is left out: on the two-dimensional fibers every
scenario runs, the A-hat genus is identically 1.  Both operator families the
workbench ships (twisted antiholomorphic derivatives and scalar Fourier
multipliers) have product symbols: a fiber character wedged with a
difference class on the frequency disc.  Once the disc is integrated, a
symbol class is its fiber character by degree and one disc charge, and the
class integral contracts the cocycle form with the fiber character of the
complementary degree.  This module builds those classes and carries the two
quotient routes: replacing the cutoff by a fundamental-domain indicator for
free actions, and orbit-summed pointwise indices for families over an
identified base.

There is exactly one calibrated constant.  ORIENTATION_SIGN fixes the
relative orientation of the fiber and the frequency disc in the top-degree
selection; it was frozen against the unit-flux reference operator (analytic
index +1) and every other configuration is a prediction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charclass import DiscModel, disc_charge, graph_symbol_projector, twist_character
from .density import CutoffDensity, TransversalDensity
from .dolbeault import dolbeault_family
from .forms import (
    FoliatedForm,
    InvarianceError,
    d_leafwise,
    exterior_wedge,
    form_invariance_defect,
)
from .grids import FiberModel, ModelError
from .operators import OperatorBlock
from .parametrix import analytic_index
from .space import FiberedGSpace

# Relative orientation of fiber volume and frequency-disc volume in the
# top-degree selection.  Calibrated once: the unit-flux reference operator
# has analytic index +1 while the raw integrand evaluates to the product of
# a fiber charge -1 and a disc charge +1.  Everything else is predicted.
ORIENTATION_SIGN = -1.0
# Landau levels of the operator realized on a free quotient
QUOTIENT_LEVELS = 4
REDUCTION_INVARIANT_TOL = 1e-8  # free_action_reduction's gates, relative to the form scale


class NonFreeActionError(ModelError):
    """Raised when a quotient route requires a free action and the action is not."""


def dolbeault_symbol_values(disc: DiscModel) -> np.ndarray:
    """Principal symbol samples of the antiholomorphic derivative."""
    return disc.points[:, 0] + 1j * disc.points[:, 1]


@dataclass(frozen=True)
class SymbolClass:
    """Difference class of a product symbol after the disc integral.

    fiber maps each even degree to the fiber part of the character, one
    component array (npoints, ncomp) on the fiber every base point carries,
    and charge is the disc charge of the frequency part.
    """

    fiber: dict[int, np.ndarray]
    charge: complex


def _unit_form(fiber: FiberModel) -> FoliatedForm:
    """The constant 0-form 1 on the fiber."""
    return FoliatedForm(fiber, 0, np.ones((fiber.npoints, 1)), invariant=True)


def symbol_class_dolbeault(fiber: FiberModel, disc: DiscModel, twist: int) -> SymbolClass:
    """Difference class of the twisted antiholomorphic symbol.

    The frequency part is the graph projector of xi1 + i*xi2 relative to its
    rim value; the fiber part is the full character of the flux bundle the
    operator acts on.  Twist 0 degenerates to the plain scalar symbol.
    """
    charge = disc_charge(disc, graph_symbol_projector(disc, dolbeault_symbol_values(disc)))
    return SymbolClass(twist_character(fiber, twist), charge)


def symbol_class_multiplier(fiber: FiberModel, disc: DiscModel, symbol_fn) -> SymbolClass:
    """Difference class of a scalar Fourier multiplier symbol.

    symbol_fn(xi1, xi2) is sampled on the disc nodes and must not vanish
    there; the class then measures the winding of the symbol.
    """
    values = np.asarray(symbol_fn(disc.points[:, 0], disc.points[:, 1]), dtype=complex)
    charge = disc_charge(disc, graph_symbol_projector(disc, values))
    return SymbolClass({0: np.ones((fiber.npoints, 1), dtype=complex)}, charge)


def _check_cochain_form(
    space: FiberedGSpace, alpha: FoliatedForm, invariant_tol: float
) -> int:
    """Validate evenness, closedness and invariance; return the cochain level k."""
    if alpha.degree % 2 != 0:
        raise ModelError(
            f"realized cochain has odd degree {alpha.degree}; pairings are even"
        )
    scale = max(alpha.max_abs(), 1.0)
    if alpha.degree < alpha.fiber.dim:
        defect = d_leafwise(alpha).max_abs()
        if defect > invariant_tol * scale:
            raise ModelError(f"cochain form is not closed: d defect {defect:.3e}")
    defect = form_invariance_defect(space, alpha)
    if defect > invariant_tol * scale:
        raise InvarianceError(f"cochain form is not invariant: defect {defect:.3e}")
    return alpha.degree // 2


def _class_integral(
    space: FiberedGSpace,
    weight: np.ndarray,
    alpha: FoliatedForm,
    sclass: SymbolClass,
    invariant_tol: float,
) -> complex:
    """ORIENTATION_SIGN * (2*pi*i)^(-k) times the weighted integral of alpha ^ ch.

    ``weight`` is one mass-weighted field on the fiber: of the cutoff, or of
    the indicators of a fundamental domain.  Only the top component of
    alpha ^ ch_fiber meets the disc charge; without a fiber character of
    the complementary degree the integrand is zero.
    """
    k = _check_cochain_form(space, alpha, invariant_tol)
    r, q = alpha.fiber.dim, alpha.degree
    top = sclass.fiber.get(r - q)
    # adding to 0j makes a zero part +0.0, whatever sign the mean left on it
    total = 0j
    if top is not None:
        density = exterior_wedge(alpha.field, q, top, r - q, r, np.multiply)
        total += np.mean(weight * (density[:, 0] * sclass.charge))
    return complex(ORIENTATION_SIGN * (2.0j * np.pi) ** (-k) * total)


def topological_index(
    space: FiberedGSpace,
    cutoff: CutoffDensity,
    dens: TransversalDensity,
    alpha: FoliatedForm,
    sclass: SymbolClass,
    invariant_tol: float = 1e-8,
) -> complex:
    """Localized characteristic-class integral for one cocycle class.

    alpha is the realized cochain form (even degree 2k); the value is
    ORIENTATION_SIGN * (2*pi*i)^(-k) times the cutoff-weighted integral of
    alpha ^ ch(symbol) over fibers and frequency discs, summed over the base
    with the transversal masses.
    """
    return _class_integral(space, dens.weight(cutoff.fields), alpha, sclass, invariant_tol)


def _assert_unimodular(dens: TransversalDensity) -> None:
    for a in dens.gspace.groupoid.arrows:
        if abs(dens.modular(a) - 1.0) > 1e-12:
            raise ModelError(
                "quotient routes need an invariant transversal density; "
                f"arrow {a.label!r} rescales mass by {dens.modular(a):.6g}"
            )


def fundamental_domain_indicator(space: FiberedGSpace) -> list[np.ndarray]:
    """Indicator fields of orbit representatives on the total space.

    Grid point z over x has the key x * npoints + z, and it represents its
    orbit exactly when no point of the orbit has a smaller key.  Requires the
    action to be free away from units; otherwise the fixed fiber points are
    reported.  The indicators form an exact partition of unity over each
    orbit, so they can replace the smooth cutoff.
    """
    base, gpd = space.base, space.groupoid
    fiber = base.fiber
    indicators = []
    for x in range(len(base)):
        keys = x * fiber.npoints + np.arange(fiber.npoints)
        least = keys
        for a in gpd.arrows_from(x):
            perm = space.permutation(gpd.inverse(a))
            if a.tgt == x and a != gpd.units[x]:
                fixed = np.flatnonzero(perm == np.arange(fiber.npoints))
                if fixed.size:
                    raise NonFreeActionError(
                        f"arrow {a.label!r} fixes {fixed.size} fiber points, first at "
                        f"coordinates {np.array2string(fiber.points()[fixed[:4]], precision=4)}"
                    )
            least = np.minimum(least, a.tgt * fiber.npoints + perm)
        indicators.append((least == keys).astype(float))
    return indicators


def free_action_reduction(
    space: FiberedGSpace,
    cutoff: CutoffDensity,
    dens: TransversalDensity,
    alpha: FoliatedForm,
    sclass: SymbolClass,
) -> complex:
    """Same integral evaluated over a fundamental domain of a free action.

    The smooth cutoff is replaced by the indicator of orbit representatives;
    for an invariant integrand and an invariant density the two evaluations
    agree exactly, which is the discrete form of the quotient reduction.
    """
    _assert_unimodular(dens)
    weight = dens.weight(fundamental_domain_indicator(space))
    return _class_integral(space, weight, alpha, sclass, REDUCTION_INVARIANT_TOL)


def half_shift_quotient_index(fiber: FiberModel, twist: int, order: int = 2) -> int:
    """Analytic index of the operator descended to the quotient by a free Z/order.

    A free translation of order m identifies the torus with a quotient torus
    of area 1/m; flux descends only when m divides it, and divides by m.  The
    descended operator is realized directly on a unit torus of the same grid
    with flux twist/m, and its spectral index is returned.  The default
    order is the half shift.
    """
    if twist % order != 0:
        raise ModelError(
            f"flux {twist} does not descend to the quotient by Z/{order}; "
            f"it must be a multiple of {order}"
        )
    return analytic_index(dolbeault_family(fiber, twist // order, QUOTIENT_LEVELS)).index


@dataclass
class FamilyIndexResult:
    """Pointwise spectral indices of a family against the class integral."""

    per_point: list[int]
    orbit_sum: float
    topological: complex
    difference: float


def family_index_orbifold(
    space: FiberedGSpace,
    block: OperatorBlock,
    cutoff: CutoffDensity,
    dens: TransversalDensity,
    sclass: SymbolClass,
) -> FamilyIndexResult:
    """Family index over an identified base versus the class integral.

    The kernel and cokernel counts of ``block``, the operator every base
    point carries, give the index at every point.  The orbit sum weights one
    representative per base orbit by its mass, which the unimodularity gate
    has made constant along the orbit; the topological value integrates the
    symbol class with the trivial cocycle.  Both land on the same number when
    the formula holds.
    """
    base = space.base
    per_point = [analytic_index(block).index] * len(base)
    _assert_unimodular(dens)
    # one representative per base orbit: its least member
    orbit_sum = 0.0
    for x in range(len(base)):
        members = {a.tgt for a in space.groupoid.arrows_from(x)}
        if x != min(members):
            continue
        orbit_sum += dens.masses[x] * per_point[x]
    topo = topological_index(space, cutoff, dens, _unit_form(base.fiber), sclass)
    return FamilyIndexResult(
        per_point=per_point,
        orbit_sum=float(orbit_sum),
        topological=topo,
        difference=abs(orbit_sum - topo),
    )
