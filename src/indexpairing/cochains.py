"""Alexander-Spanier style cochains, their differential, and the form realization.

A degree-k cochain is a finite sum of elementary tensors (f_0, ..., f_k),
each factor a scalar field family over the base, evaluated on (k+1)-tuples of
fiber points as the product f_0(z_0) ... f_k(z_k).  Only tuples whose points
lie within the germ radius of each other matter to the pairing downstream;
the cochain itself stores the radius.

The realization map lam sends f_0 (x) ... (x) f_k to f_0 df_1 ^ ... ^ df_k.
It intertwines the tuple differential with the leafwise exterior derivative
and transport along arrows, which is what the chain-map and equivariance
tests check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import DegreeError, FoliatedForm, d_leafwise, wedge
from .grids import ModelError, band_limit
from .groupoid import BaseModel

ScalarFamily = list  # one complex grid field per base point


@dataclass(frozen=True)
class ASTerm:
    weight: complex
    factors: tuple  # k+1 scalar families


class ASCochain:
    """Finite sum of elementary tensors of band-limited scalar families."""

    def __init__(
        self,
        base: BaseModel,
        degree: int,
        terms: list[ASTerm],
        germ_radius: float,
        check_band: bool = True,
    ):
        if degree < 0:
            raise DegreeError("cochain degree must be nonnegative")
        self.base = base
        self.degree = degree
        self.terms = list(terms)
        if germ_radius <= 0:
            raise ModelError("germ radius must be positive")
        self.germ_radius = float(germ_radius)
        for t in self.terms:
            if len(t.factors) != degree + 1:
                raise DegreeError("every term needs degree+1 factors")
            for fam in t.factors:
                if len(fam) != len(base):
                    raise ModelError("factor family size must match the base")
                if check_band:
                    for f in fam:
                        f = np.asarray(f, dtype=complex).reshape(-1)
                        if np.max(np.abs(f - band_limit(f, base.fiber))) > 1e-10:
                            raise ModelError(
                                "cochain factors must be band-limited to the cutoff"
                            )

    @classmethod
    def elementary(
        cls,
        base: BaseModel,
        factors: list[ScalarFamily],
        germ_radius: float,
    ) -> "ASCochain":
        fams = tuple(
            [np.asarray(f, dtype=complex).reshape(-1) for f in fam] for fam in factors
        )
        return cls(base, len(factors) - 1, [ASTerm(1.0, fams)], germ_radius)

    @classmethod
    def unit(cls, base: BaseModel, germ_radius: float) -> "ASCochain":
        """The constant degree-0 cochain with value 1."""
        ones = [np.ones(base.fiber.npoints, dtype=complex) for _ in range(len(base))]
        return cls.elementary(base, [ones], germ_radius=germ_radius)

    def evaluate_batch(self, x: int, tuples: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of index tuples, shape (m, k+1)."""
        tuples = np.asarray(tuples, dtype=int)
        out = np.zeros(len(tuples), dtype=complex)
        for t in self.terms:
            prod = np.full(len(tuples), t.weight, dtype=complex)
            for slot in range(self.degree + 1):
                prod *= np.asarray(t.factors[slot][x])[tuples[:, slot]]
            out += prod
        return out


def d_as(phi: ASCochain) -> ASCochain:
    """Tuple differential: alternating sum over omitted arguments.

    On an elementary tensor this inserts the constant factor 1 at each slot i
    with sign (-1)^i; the result is again a finite sum of elementary tensors.
    """
    base = phi.base
    ones = [np.ones(base.fiber.npoints, dtype=complex) for _ in range(len(base))]
    new_terms = []
    for t in phi.terms:
        for i in range(phi.degree + 2):
            sign = -1.0 if i % 2 else 1.0
            factors = t.factors[:i] + (ones,) + t.factors[i:]
            new_terms.append(ASTerm(sign * t.weight, factors))
    return ASCochain(
        base, phi.degree + 1, new_terms, phi.germ_radius, check_band=False
    )


def van_est_realize(phi: ASCochain) -> FoliatedForm:
    """Realize a cochain as the leafwise form sum of f_0 df_1 ^ ... ^ df_k."""
    base = phi.base
    r = base.fiber.dim
    k = phi.degree
    if k > r:
        raise DegreeError(
            f"degree {k} cochains realize to zero beyond the fiber dimension {r}"
        )
    total = FoliatedForm.zero(base, k)
    for t in phi.terms:
        form = FoliatedForm.from_scalar(base, list(t.factors[0])).scaled(t.weight)
        for slot in range(1, k + 1):
            df = d_leafwise(
                FoliatedForm.from_scalar(base, list(t.factors[slot])), base
            )
            form = wedge(form, df)
        total = total + form
    total.invariant = False
    return total
