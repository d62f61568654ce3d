"""Alexander-Spanier style cochains, their differential, and the form realization.

A degree-k cochain is a finite sum of elementary tensors (f_0, ..., f_k),
each factor one scalar field on the fiber, evaluated on (k+1)-tuples of
fiber points as the product f_0(z_0) ... f_k(z_k).  Like the operators, a
cochain lives on the fiber: it is the same over every base point.  Only
tuples whose points lie within the germ radius of each other matter to the
pairing downstream; the cochain itself stores the radius.

The realization map lam sends f_0 (x) ... (x) f_k to f_0 df_1 ^ ... ^ df_k.
It intertwines the tuple differential with the leafwise exterior derivative
and transport by group elements, which is what the chain-map and equivariance
tests check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .forms import DegreeError, FoliatedForm, exterior_d, exterior_wedge, index_subsets
from .grids import FiberModel, ModelError, band_limit, spectral_gradient


@dataclass(frozen=True)
class ASTerm:
    weight: complex
    factors: tuple  # k+1 scalar fields on the fiber


class ASCochain:
    """Finite sum of elementary tensors of band-limited scalar fields."""

    def __init__(
        self,
        fiber: FiberModel,
        degree: int,
        terms: list[ASTerm],
        germ_radius: float,
        check_band: bool = True,
    ):
        if degree < 0:
            raise DegreeError("cochain degree must be nonnegative")
        self.fiber = fiber
        self.degree = degree
        if germ_radius <= 0:
            raise ModelError("germ radius must be positive")
        self.germ_radius = float(germ_radius)
        self.terms = []
        for t in terms:
            if len(t.factors) != degree + 1:
                raise DegreeError("every term needs degree+1 factors")
            fields = tuple(np.asarray(f, dtype=complex).reshape(-1) for f in t.factors)
            for f in fields:
                if f.shape != (fiber.npoints,):
                    raise ModelError("factor field size must match the fiber")
                if check_band and np.max(np.abs(f - band_limit(f, fiber))) > 1e-10:
                    raise ModelError("cochain factors must be band-limited to the cutoff")
            self.terms.append(ASTerm(t.weight, fields))

    @classmethod
    def elementary(
        cls, fiber: FiberModel, factors: list[np.ndarray], germ_radius: float
    ) -> "ASCochain":
        return cls(fiber, len(factors) - 1, [ASTerm(1.0, tuple(factors))], germ_radius)

    @classmethod
    def unit(cls, fiber: FiberModel, germ_radius: float) -> "ASCochain":
        """The constant degree-0 cochain with value 1."""
        return cls.elementary(fiber, [np.ones(fiber.npoints)], germ_radius=germ_radius)

    def evaluate_batch(self, tuples: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of index tuples, shape (m, k+1)."""
        tuples = np.asarray(tuples, dtype=int)
        out = np.zeros(len(tuples), dtype=complex)
        for t in self.terms:
            prod = np.full(len(tuples), t.weight, dtype=complex)
            for slot, f in enumerate(t.factors):
                prod *= f[tuples[:, slot]]
            out += prod
        return out

    def van_est_form(self) -> FoliatedForm:
        """The leafwise form sum of f_0 df_1 ^ ... ^ df_k on the fiber.

        Each distinct factor, keyed by its bytes, is differentiated once.
        """
        r, k = self.fiber.dim, self.degree
        if k > r:
            raise DegreeError(
                f"degree {k} cochains realize to zero beyond the fiber dimension {r}"
            )
        grad = partial(spectral_gradient, fiber=self.fiber)
        derivatives: dict[bytes, np.ndarray] = {}
        total = np.zeros((self.fiber.npoints, len(index_subsets(r, k))), dtype=complex)
        for t in self.terms:
            form = t.weight * t.factors[0].reshape(-1, 1)
            for q, f in enumerate(t.factors[1:]):
                key = f.tobytes()
                if key not in derivatives:
                    derivatives[key] = exterior_d(f.reshape(-1, 1), 0, r, grad)
                form = exterior_wedge(form, q, derivatives[key], 1, r, np.multiply)
            total = total + form
        return FoliatedForm(self.fiber, k, total)


def d_as(phi: ASCochain) -> ASCochain:
    """Tuple differential: alternating sum over omitted arguments.

    On an elementary tensor this inserts the constant factor 1 at each slot i
    with sign (-1)^i; the result is again a finite sum of elementary tensors.
    """
    ones = np.ones(phi.fiber.npoints, dtype=complex)
    new_terms = []
    for t in phi.terms:
        for i in range(phi.degree + 2):
            sign = -1.0 if i % 2 else 1.0
            factors = t.factors[:i] + (ones,) + t.factors[i:]
            new_terms.append(ASTerm(sign * t.weight, factors))
    return ASCochain(
        phi.fiber, phi.degree + 1, new_terms, phi.germ_radius, check_band=False
    )
