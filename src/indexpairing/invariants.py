"""Property checks of the calculus behind the three index routes.

Each check builds its own small space, runs one identity of the theory over
a few seeded random inputs, and returns (worst defect, tolerance).
Every check runs over one base point of unit mass, so its weight field is
the cutoff field itself.  ``INVARIANT_CHECKS`` maps the report name of each
check to its function.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np

from .charclass import (
    DiscModel,
    chern_character_fiber,
    twist_projector,
)
from .cochains import ASCochain, d_as
from .density import compute_cutoff
from .dolbeault import dolbeault_family
from .forms import (
    FoliatedForm,
    d_leafwise,
    exterior_d,
    index_subsets,
    integrate_invariant,
    invariant_project_form,
)
from .grids import FiberModel, random_band_limited, spectral_gradient
from .operators import SmoothingKernel, random_invariant_kernel, trace_tau
from .pairing import pair_cocycle
from .parametrix import index_idempotent
from .space import FiberedGSpace
from .symbols import SMOOTHING_ORDER, SymbolData, quantize, trace_symbol_formula
from .topindex import (
    _unit_form,
    free_action_reduction,
    symbol_class_dolbeault,
    topological_index,
)

__all__ = ["INVARIANT_CHECKS"]


def _inv_space(n=16, N=5):
    return FiberedGSpace(FiberModel(2, N, n), 2, [Fraction(1, 2), Fraction(1, 2)])


def _inv_trivial(n=16, N=5):
    return FiberedGSpace.trivial(FiberModel(2, N, n))


def _random_one_form(rng, fiber, band):
    cols = [random_band_limited(rng, fiber, band) for _ in index_subsets(fiber.dim, 1)]
    return FoliatedForm(fiber, 1, np.stack(cols, axis=1))


def _check_trace_commutator():
    space = _inv_space()
    cutoff = compute_cutoff(space)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        k1 = random_invariant_kernel(rng, space, cutoff, band=2)
        k2 = random_invariant_kernel(rng, space, cutoff, band=2)
        A, B = k1.row, k2.row
        lhs = trace_tau(SmoothingKernel(space.fiber, A @ B - B @ A), space, cutoff)
        scale = max(k1.norm() * k2.norm(), 1e-30)
        worst = max(worst, abs(lhs) / scale)
    return worst, 1e-9


def _check_trace_cutoff_independence():
    space = _inv_space()
    c1 = compute_cutoff(space)
    rng = np.random.default_rng(7)
    npts = space.fiber.npoints
    c2 = compute_cutoff(space, 1.0 + 0.5 * rng.random(npts))
    worst = 0.0
    for seed in range(10):
        k = random_invariant_kernel(
            np.random.default_rng(2000 + seed), space, c1, band=2
        )
        worst = max(worst, abs(trace_tau(k, space, c1) - trace_tau(k, space, c2)))
    return worst, 1e-9


def _check_symbol_trace_formula():
    space = _inv_trivial(n=12, N=5)
    cutoff = compute_cutoff(space)
    fiber = space.fiber
    modes = fiber.modes()
    xipart = np.exp(-2.0 * np.sum(modes.astype(float) ** 2, axis=1))
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        zpart = 1.0 + 0.3 * np.real(
            random_band_limited(rng, fiber, band=1)
        )
        table = zpart[:, None] * xipart[None, :]
        sym = SymbolData(fiber, SMOOTHING_ORDER, table)
        kern = SmoothingKernel(fiber, quantize(sym).grid_matrix())
        lhs = trace_symbol_formula(sym, cutoff)
        rhs = trace_tau(kern, space, cutoff)
        worst = max(worst, abs(lhs - rhs))
    return worst, 1e-8


def _check_stokes():
    space = _inv_space()
    cutoff = compute_cutoff(space)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        beta = invariant_project_form(
            space, cutoff, _random_one_form(rng, space.fiber, band=3)
        )
        dbeta = d_leafwise(beta)
        worst = max(worst, abs(integrate_invariant(dbeta, cutoff)))
    return worst, 1e-9


def _check_vanest_chain_map():
    fiber = _inv_trivial().fiber
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        factors = [random_band_limited(rng, fiber, 2) for _ in range(2)]
        phi = ASCochain.elementary(fiber, factors, germ_radius=2.0)
        defect = (d_as(phi).van_est_form() - d_leafwise(phi.van_est_form())).max_abs()
        worst = max(worst, defect)
    return worst, 1e-10


def _check_coboundary_pairing():
    space = _inv_trivial(n=20, N=8)
    cutoff = compute_cutoff(space)
    idem = index_idempotent(dolbeault_family(space.fiber, 2, levels=2))
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(6000 + seed)
        factors = [random_band_limited(rng, space.fiber, 2) for _ in range(2)]
        psi = ASCochain.elementary(space.fiber, factors, germ_radius=2.0)
        worst = max(worst, abs(pair_cocycle(idem, d_as(psi), space, cutoff)))
    return worst, 1e-8


def _check_chern_closed():
    # flux bundles 1 and -2 on the two torus factors of a four-dimensional
    # fiber, so that ch_2 is checked too, not only the constant tr p
    n = 6
    fib2 = FiberModel(2, 2, n)
    p1, p2 = twist_projector(fib2, 1), twist_projector(fib2, -2)
    m = p1.shape[1] * p2.shape[1]
    kron = np.einsum("aij,bkl->abikjl", p1, p2).reshape(n**4, m, m)
    fiber = FiberModel(4, 2, n)
    grad = partial(spectral_gradient, fiber=fiber)
    ch = chern_character_fiber(fiber, kron)
    defect = max(
        float(np.abs(exterior_d(form, j, fiber.dim, grad)).max())
        for j, form in ch.items()
        if j < fiber.dim
    )
    return defect, 1e-8


def _check_topindex_cutoff_choice():
    space = _inv_space(n=20, N=8)
    disc = DiscModel(9.0)
    sclass = symbol_class_dolbeault(space.fiber, disc, 2)
    alpha = _unit_form(space.fiber)
    c1 = compute_cutoff(space)
    rng = np.random.default_rng(11)
    c2 = compute_cutoff(space, 1.0 + 0.4 * rng.random(space.fiber.npoints))
    v1 = topological_index(space, c1, alpha, sclass)
    v2 = topological_index(space, c2, alpha, sclass)
    return abs(v1 - v2), 1e-8


def _check_free_reduction_agreement():
    space = _inv_space(n=20, N=8)
    cutoff = compute_cutoff(space)
    disc = DiscModel(9.0)
    sclass = symbol_class_dolbeault(space.fiber, disc, 2)
    alpha = _unit_form(space.fiber)
    topo = topological_index(space, cutoff, alpha, sclass)
    red = free_action_reduction(space, cutoff, alpha, sclass)
    return abs(topo - red), 1e-8


INVARIANT_CHECKS = {
    "trace-commutator": _check_trace_commutator,
    "trace-cutoff-independence": _check_trace_cutoff_independence,
    "symbol-trace-formula": _check_symbol_trace_formula,
    "stokes-invariant-integration": _check_stokes,
    "vanest-chain-map": _check_vanest_chain_map,
    "coboundary-pairing": _check_coboundary_pairing,
    "chern-character-closed": _check_chern_closed,
    "topindex-cutoff-choice": _check_topindex_cutoff_choice,
    "free-reduction-agreement": _check_free_reduction_agreement,
}
