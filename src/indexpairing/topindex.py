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
free actions, and the pointwise index of a family over an identified base.

There is exactly one calibrated constant.  ORIENTATION_SIGN fixes the
relative orientation of the fiber and the frequency disc in the top-degree
selection; it was frozen against the unit-flux reference operator (analytic
index +1) and every other configuration is a prediction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charclass import DiscModel, disc_charge, graph_symbol_projector, twist_character
from .dolbeault import dolbeault_family
from .forms import (
    INVARIANCE_TOL,
    FoliatedForm,
    InvarianceError,
    d_leafwise,
    exterior_wedge,
    form_invariance_defect,
)
from .grids import FiberModel, ModelError, _readonly
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


@lru_cache(maxsize=None)
def _dolbeault_disc_charge(disc: DiscModel) -> complex:
    """Disc charge of the graph projector of xi1 + i*xi2, once per disc per process.

    It depends on the disc quadrature alone, and equal (frozen) discs share
    one entry: the same radius and node counts give the same charge.
    """
    return disc_charge(disc, graph_symbol_projector(disc, dolbeault_symbol_values(disc)))


@lru_cache(maxsize=None)
def _flux_character(fiber: FiberModel, twist: int) -> tuple[tuple[int, np.ndarray], ...]:
    """Fiber character of the flux bundle of ``twist``, once per fiber and twist
    per process, as (degree, read-only component array) pairs.

    It depends on the fiber and the twist alone, so a later run of the same
    fiber and twist in the same process samples no Landau section for it; a
    fresh process computes it once.  A refused frame raises on every call:
    an exception is never memoized.
    """
    return tuple((k, _readonly(v)) for k, v in twist_character(fiber, twist).items())


def symbol_class_dolbeault(fiber: FiberModel, disc: DiscModel, twist: int) -> SymbolClass:
    """Difference class of the twisted antiholomorphic symbol.

    The frequency part is the graph projector of xi1 + i*xi2 relative to its
    rim value; the fiber part is the full character of the flux bundle the
    operator acts on.  Twist 0 degenerates to the plain scalar symbol.
    """
    return SymbolClass(dict(_flux_character(fiber, twist)), _dolbeault_disc_charge(disc))


def symbol_class_multiplier(fiber: FiberModel, disc: DiscModel, symbol_fn) -> SymbolClass:
    """Difference class of a scalar Fourier multiplier symbol.

    symbol_fn(xi1, xi2) is sampled on the disc nodes and must not vanish
    there; the class then measures the winding of the symbol.
    """
    values = np.asarray(symbol_fn(disc.points[:, 0], disc.points[:, 1]), dtype=complex)
    charge = disc_charge(disc, graph_symbol_projector(disc, values))
    return SymbolClass({0: np.ones((fiber.npoints, 1), dtype=complex)}, charge)


def _check_cochain_form(space: FiberedGSpace, alpha: FoliatedForm) -> int:
    """Check that alpha is even, closed and invariant (INVARIANCE_TOL); return k."""
    if alpha.degree % 2 != 0:
        raise ModelError(
            f"realized cochain has odd degree {alpha.degree}; pairings are even"
        )
    scale = max(alpha.max_abs(), 1.0)
    if alpha.degree < alpha.fiber.dim:
        defect = d_leafwise(alpha).max_abs()
        if defect > INVARIANCE_TOL * scale:
            raise ModelError(f"cochain form is not closed: d defect {defect:.3e}")
    defect = form_invariance_defect(space, alpha)
    if defect > INVARIANCE_TOL * scale:
        raise InvarianceError(f"cochain form is not invariant: defect {defect:.3e}")
    return alpha.degree // 2


def topological_index(
    space: FiberedGSpace,
    weight: np.ndarray,
    alpha: FoliatedForm,
    sclass: SymbolClass,
) -> complex:
    """Localized characteristic-class integral for one cocycle class.

    alpha is the realized cochain form, of even degree 2k, closed and
    invariant to INVARIANCE_TOL times its scale; the value is
    ORIENTATION_SIGN * (2*pi*i)^(-k) times the integral of alpha ^ ch(symbol)
    over the fiber and the frequency disc, weighted by ``weight``: one
    mass-weighted field on the fiber, of the cutoff or of the indicator of a
    fundamental domain.  Only the top component of alpha ^ ch_fiber meets
    the disc charge; without a fiber character of the complementary degree
    the integrand is zero.
    """
    k = _check_cochain_form(space, alpha)
    r, q = alpha.fiber.dim, alpha.degree
    top = sclass.fiber.get(r - q)
    total = 0.0
    if top is not None:
        density = exterior_wedge(alpha.field, q, top, r - q, r, np.multiply)
        total = np.mean(weight * (density[:, 0] * sclass.charge))
    # adding the scaled value to 0j makes a zero part +0.0, whatever sign the
    # mean and the scale left on it
    return complex(0j + ORIENTATION_SIGN * (2.0j * np.pi) ** (-k) * total)


def fundamental_domain_indicator(space: FiberedGSpace) -> np.ndarray:
    """Indicator field of orbit representatives on the fiber.

    Grid point z represents its orbit exactly when no point of the orbit has
    a smaller index.  Requires the action to be free; otherwise the fixed
    fiber points of the first group element that has any are reported.  The
    indicator is an exact partition of unity over each orbit, so it can
    replace the smooth cutoff.
    """
    fiber = space.fiber
    keys = np.arange(fiber.npoints)
    least = keys
    for g in range(1, space.order):
        perm = space.permutation(-g)
        fixed = np.flatnonzero(perm == keys)
        if fixed.size:
            raise NonFreeActionError(
                f"group element {g} fixes {fixed.size} fiber points, first at "
                f"coordinates {np.array2string(fiber.points()[fixed[:4]], precision=4)}"
            )
        least = np.minimum(least, perm)
    return (least == keys).astype(float)


def free_action_reduction(
    space: FiberedGSpace,
    weight: np.ndarray,
    alpha: FoliatedForm,
    sclass: SymbolClass,
) -> complex:
    """Same integral evaluated over a fundamental domain of a free action.

    The weight is summed over each orbit onto its representative: the
    cutoff's translates add up to 1, so this is the total mass on a
    fundamental domain.  For an invariant integrand the two evaluations
    agree exactly, which is the discrete form of the quotient reduction.
    """
    orbit_weight = sum(space.transport(g, weight) for g in range(space.order))
    reduced = fundamental_domain_indicator(space) * orbit_weight
    return topological_index(space, reduced, alpha, sclass)


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


def family_index_orbifold(
    space: FiberedGSpace,
    block: OperatorBlock,
    weight: np.ndarray,
    sclass: SymbolClass,
) -> tuple[int, complex]:
    """Family index over an identified base, and its class integral.

    The kernel and cokernel counts of ``block``, the operator every base
    point carries, give the index at every point; the class integral of
    the symbol with the trivial cocycle is weighted by ``weight``.  The
    scenario driver sums the index over one representative per base orbit,
    weighted by its mass, and both land on the same number when the formula
    holds.
    """
    index = analytic_index(block).index
    return index, topological_index(space, weight, _unit_form(space.fiber), sclass)
