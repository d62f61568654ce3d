"""Leafwise differential forms: exterior calculus, invariant projection, integration.

A leafwise q-form is stored per base point as an array of shape
(npoints, ncomp) where ncomp = C(r, q) and components are indexed by sorted
coordinate subsets in lexicographic order.  All derivatives are spectral, so
d is exact on band-limited data and the grid sum of any exact top component
vanishes to round-off (the derivative has no zero mode).

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

from .density import CutoffDensity, TransversalDensity
from .grids import ModelError, spectral_gradient
from .groupoid import BaseModel
from .space import FiberedGSpace


class DegreeError(ModelError):
    """Raised when a form degree is outside the valid range for an operation."""


class InvarianceError(ModelError):
    """Raised when an operation requires an invariant input and the flag is unset."""


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
    """Family of leafwise q-forms over the base."""

    degree: int
    fiber_dim: int
    fields: list[np.ndarray]
    invariant: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= self.fiber_dim:
            raise DegreeError(
                f"degree {self.degree} invalid for fiber dimension {self.fiber_dim}"
            )
        ncomp = self.ncomp
        self.fields = [np.asarray(f, dtype=complex) for f in self.fields]
        for f in self.fields:
            if f.ndim != 2 or f.shape[1] != ncomp:
                raise DegreeError(
                    f"component array shape {f.shape} does not match ncomp={ncomp}"
                )

    @property
    def ncomp(self) -> int:
        return len(index_subsets(self.fiber_dim, self.degree))

    @classmethod
    def zero(cls, base: BaseModel, degree: int) -> "FoliatedForm":
        r = base.fiber.dim
        ncomp = len(index_subsets(r, degree))
        fields = [np.zeros((base.fiber.npoints, ncomp), dtype=complex) for _ in range(len(base))]
        return cls(degree, r, fields, invariant=True)

    def __add__(self, other: "FoliatedForm") -> "FoliatedForm":
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        return FoliatedForm(
            self.degree,
            self.fiber_dim,
            [a + b for a, b in zip(self.fields, other.fields)],
            invariant=self.invariant and other.invariant,
        )

    def __sub__(self, other: "FoliatedForm") -> "FoliatedForm":
        return self + other.scaled(-1)

    def scaled(self, factor: complex) -> "FoliatedForm":
        return replace(self, fields=[factor * f for f in self.fields])

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(f))) if f.size else 0.0 for f in self.fields)


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


def d_leafwise(form: FoliatedForm, base: BaseModel) -> FoliatedForm:
    """Spectral exterior derivative along the fibers."""
    r, q = form.fiber_dim, form.degree
    grad = partial(spectral_gradient, fiber=base.fiber)
    out_fields = [exterior_d(f, q, r, grad) for f in form.fields]
    return FoliatedForm(q + 1, r, out_fields, invariant=form.invariant)


def form_invariance_defect(gspace: FiberedGSpace, form: FoliatedForm) -> float:
    """Max over arrows of the transport mismatch of the family."""
    worst = 0.0
    for a in gspace.groupoid.arrows:
        moved = gspace.transport(a, form.fields[a.src])
        worst = max(worst, float(np.max(np.abs(form.fields[a.tgt] - moved))))
    return worst


def invariant_project_form(
    gspace: FiberedGSpace, cutoff: CutoffDensity, form: FoliatedForm
) -> FoliatedForm:
    """Cutoff-weighted average onto the invariant forms.

    (P form)_x = sum over arrows a from x of (c o action_a) * action_a-pullback
    of the target component.  Fixes invariant inputs exactly (partition
    identity) and always lands in the invariants.
    """
    out_fields = []
    for x in range(len(gspace.base)):
        acc = np.zeros_like(form.fields[x])
        for a in gspace.groupoid.arrows_from(x):
            weight = gspace.eval_after_action(a, cutoff.fields[a.tgt]).real
            acc += weight[:, None] * gspace.eval_after_action(a, form.fields[a.tgt])
        out_fields.append(acc)
    return FoliatedForm(form.degree, form.fiber_dim, out_fields, invariant=True)


def integrate_invariant(
    form: FoliatedForm, cutoff: CutoffDensity, dens: TransversalDensity
) -> complex:
    """Quadrature of a top-degree invariant form against the cutoff and masses.

    Value = sum over base points of mass * mean_z c(z) * top component.
    Independent of the cutoff choice and zero on derivatives of invariant
    forms, provided the transverse mass is orbit-constant.
    """
    if form.degree != form.fiber_dim:
        raise DegreeError("integration requires a top-degree form")
    if not form.invariant:
        raise InvarianceError("integration requires the invariance flag")
    gspace = dens.gspace
    total = 0.0 + 0.0j
    for x in range(len(gspace.base)):
        weighted = cutoff.fields[x] * form.fields[x][:, 0]
        total += dens.masses[x] * np.mean(weighted)
    return complex(total)
