"""Leafwise differential forms: exterior calculus, invariant projection, integration.

A leafwise q-form lives on the fiber, the same over every base point, as
one array of shape (npoints, ncomp) where ncomp = C(r, q) and components
are indexed by sorted coordinate subsets in lexicographic order.  All
derivatives are spectral, so d is exact on band-limited data and the grid
sum of any exact top component vanishes to round-off (the derivative has
no zero mode).  The base enters only the quadratures, through one
mass-weighted cutoff field that the scenario driver forms.

exterior_d and exterior_wedge hold that component convention for every site
and value type: they act on arrays (n, ncomp, ...) given a gradient and a
product, so the fiber grid, the frequency disc of charclass.py and
matrix-valued curvature forms share one sign bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .grids import FiberModel, ModelError, spectral_gradient
from .space import FiberedGSpace


class DegreeError(ModelError):
    """Raised when a form degree is outside the valid range for an operation."""


class InvarianceError(ModelError):
    """Raised when an operation requires an invariant input and the flag is unset."""


# every invariance gate, and the closedness gate of a cochain form: the
# largest defect allowed, relative to the kernel norm or the form scale
INVARIANCE_TOL = 1e-8


@lru_cache(maxsize=None)
def index_subsets(r: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Sorted coordinate subsets of size q in lexicographic order."""
    return tuple(combinations(range(r), q))


@lru_cache(maxsize=None)
def subset_position(r: int, q: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(index_subsets(r, q))}


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of the shuffle sorting left+right, both inputs sorted and disjoint."""
    inversions = sum(1 for i in left for j in right if i > j)
    return -1 if inversions % 2 else 1


@dataclass
class FoliatedForm:
    """A leafwise q-form on the fiber, the same over every base point.

    ``field`` holds its components, one (npoints, ncomp) array.
    """

    fiber: FiberModel
    degree: int
    field: np.ndarray
    invariant: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= self.fiber.dim:
            raise DegreeError(
                f"degree {self.degree} invalid for fiber dimension {self.fiber.dim}"
            )
        self.field = np.asarray(self.field, dtype=complex)
        want = (self.fiber.npoints, self.ncomp)
        if self.field.shape != want:
            raise DegreeError(f"component array shape {self.field.shape} is not {want}")

    @property
    def ncomp(self) -> int:
        return len(index_subsets(self.fiber.dim, self.degree))

    @classmethod
    def zero(cls, fiber: FiberModel, degree: int) -> "FoliatedForm":
        ncomp = len(index_subsets(fiber.dim, degree))
        return cls(fiber, degree, np.zeros((fiber.npoints, ncomp)), invariant=True)

    def __add__(self, other: "FoliatedForm") -> "FoliatedForm":
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        return FoliatedForm(
            self.fiber,
            self.degree,
            self.field + other.field,
            invariant=self.invariant and other.invariant,
        )

    def __sub__(self, other: "FoliatedForm") -> "FoliatedForm":
        return self + other.scaled(-1)

    def scaled(self, factor: complex) -> "FoliatedForm":
        return replace(self, field=factor * self.field)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.field)))


def exterior_d(field: np.ndarray, degree: int, dim: int, grad) -> np.ndarray:
    """Exterior derivative of a component array of shape (n, ncomp, ...).

    grad(block, axes=axes) returns the partial derivatives of an (n, ...)
    block along each of the site's coordinates in axes; trailing axes
    (matrix entries) ride along.  Each component is differentiated once,
    along the axes its terms need, and the terms are summed into zeros in
    (K, j) order, which fixes the bits of the sums (and turns -0.0 into
    +0.0).
    """
    if degree >= dim:
        raise DegreeError("cannot differentiate a top-degree form")
    partials = {}
    for c, I in enumerate(index_subsets(dim, degree)):
        axes = tuple(j for j in range(dim) if j not in I)
        partials.update(zip(((I, j) for j in axes), grad(field[:, c], axes=axes)))
    out_subs = index_subsets(dim, degree + 1)
    out = np.zeros((field.shape[0], len(out_subs)) + field.shape[2:], dtype=complex)
    for kk, K in enumerate(out_subs):
        for j in K:
            rest = tuple(i for i in K if i != j)
            sgn = merge_sign((j,), rest)
            out[:, kk] += sgn * partials.pop((rest, j))
    return out


def exterior_wedge(
    f1: np.ndarray, q1: int, f2: np.ndarray, q2: int, dim: int, mul
) -> np.ndarray:
    """Wedge of component arrays of shape (n, ncomp, ...).

    mul multiplies one component of each factor: np.multiply for scalar
    forms, np.matmul for matrix-valued ones.
    """
    q = q1 + q2
    if q > dim:
        raise DegreeError("wedge exceeds the top degree")
    pos2 = subset_position(dim, q2)
    out_subs = index_subsets(dim, q)
    out_pos = subset_position(dim, q)
    out = np.zeros((f1.shape[0], len(out_subs)) + f1.shape[2:], dtype=complex)
    for i1, I in enumerate(index_subsets(dim, q1)):
        iset = set(I)
        for K in out_subs:
            if not iset <= set(K):
                continue
            J = tuple(j for j in K if j not in iset)
            sgn = merge_sign(I, J)
            out[:, out_pos[K]] += sgn * mul(f1[:, i1], f2[:, pos2[J]])
    return out


def d_leafwise(form: FoliatedForm) -> FoliatedForm:
    """Spectral exterior derivative along the fibers."""
    grad = partial(spectral_gradient, fiber=form.fiber)
    field = exterior_d(form.field, form.degree, form.fiber.dim, grad)
    return FoliatedForm(form.fiber, form.degree + 1, field, invariant=form.invariant)


def form_invariance_defect(space: FiberedGSpace, form: FoliatedForm) -> float:
    """Largest transport mismatch |f - f o (g shift)| of the form over g != 0.

    The elements that move the fiber, up to m/2, give the same float as
    every g (``FiberedGSpace.moving_elements``).
    """
    f = form.field
    return max(
        (float(np.max(np.abs(f - space.transport(g, f)))) for g in space.moving_elements()),
        default=0.0,
    )


def invariant_project_form(
    space: FiberedGSpace, cutoff: np.ndarray, form: FoliatedForm
) -> FoliatedForm:
    """Cutoff-weighted average onto the invariant forms.

    P form = sum over g of (c o g) times the pullback of the form by g.
    Exactly invariant for any input, and fixes invariant inputs (partition
    identity).
    """
    acc = np.zeros_like(form.field)
    for g in range(space.order):
        weight = space.transport(-g, cutoff).real
        acc += weight[:, None] * space.transport(-g, form.field)
    return FoliatedForm(form.fiber, form.degree, acc, invariant=True)


def integrate_invariant(form: FoliatedForm, weight: np.ndarray) -> complex:
    """Quadrature of a top-degree invariant form against one weight field.

    Value = mean_z w(z) * top component, with w the mass-weighted cutoff
    field.  Independent of the cutoff choice and zero on derivatives of
    invariant forms, provided the transverse mass is orbit-constant.
    """
    if form.degree != form.fiber.dim:
        raise DegreeError("integration requires a top-degree form")
    if not form.invariant:
        raise InvarianceError("integration requires the invariance flag")
    return complex(0j + np.mean(weight * form.field[:, 0]))
