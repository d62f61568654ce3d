"""Localized class integrals, quotient reductions, orbifold families."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from indexpairing.charclass import DiscModel
from indexpairing.density import CutoffDensity, TransversalDensity, compute_cutoff
from indexpairing.dolbeault import dolbeault_family
from indexpairing.forms import FoliatedForm, InvarianceError
from indexpairing.grids import FiberModel, ModelError, grid_points, random_band_limited
from indexpairing.groupoid import BaseModel, CyclicGroupoid
from indexpairing.parametrix import analytic_index
from indexpairing.space import FiberedGSpace
from indexpairing.topindex import (
    FamilyIndexResult,
    NonFreeActionError,
    family_index_orbifold,
    free_action_reduction,
    fundamental_domain_indicator,
    half_shift_quotient_index,
    symbol_class_dolbeault,
    symbol_class_multiplier,
    topological_index,
)
from oracles import volume_form


def trivial_space(n=20, N=8):
    base = BaseModel(FiberModel(2, N, n), 1)
    return FiberedGSpace.trivial(CyclicGroupoid(base, 1))


def half_shift_space(n=20, N=8):
    """Free Z/2: the diagonal half-period shift on the torus fiber."""
    base = BaseModel(FiberModel(2, N, n), 1)
    return FiberedGSpace(CyclicGroupoid(base, 2), [Fraction(1, 2), Fraction(1, 2)])


def four_point_space(n=18, N=3):
    """Z/2 identifying the base points pairwise, trivial on fibers."""
    fib = FiberModel(2, N, n)
    base = BaseModel(fib, 4)
    return FiberedGSpace.trivial(CyclicGroupoid(base, 2, [1, 0, 3, 2]))


def unit_alpha(space):
    fiber = space.base.fiber
    return FoliatedForm(fiber, 0, np.ones((fiber.npoints, 1)), invariant=True)


def test_flux_predictions_match_spectral_index():
    space = trivial_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    for d in (-2, -1, 0, 1, 2):
        sclass = symbol_class_dolbeault(space.base.fiber, disc, d)
        topo = topological_index(space, cutoff, dens, alpha, sclass)
        ana = analytic_index(dolbeault_family(space.base.fiber, d, 4)).index
        assert abs(topo - ana) < 1e-6
        assert abs(topo.imag) < 1e-9


def test_symbol_class_peak_memory_is_at_most_four_projector_fields():
    # the flux-24 space: one (n, m, m) field is 1600 points of 24 x 24
    fiber = trivial_space(n=40, N=19).base.fiber
    field_bytes = 1600 * 24 * 24 * 16
    tracemalloc.start()
    try:
        symbol_class_dolbeault(fiber, DiscModel(20.0, 48, 48), 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * field_bytes, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("n,twist", [(20, 16), (20, 24), (20, 48), (32, 40), (32, 64)])
def test_class_integral_resolves_high_flux(n, twist):
    # twist / n^2 from 0.04 to 0.12: the spectral derivative of the m x m
    # projector aliased here, and missed the index by 1.9e-6 up to 0.90
    space = trivial_space(n=n, N=n // 2 - 1)
    fiber = space.base.fiber
    sclass = symbol_class_dolbeault(fiber, DiscModel(float(n // 2), 48, 48), twist)
    assert abs(sclass.fiber[2][:, 0].mean() + twist) <= 1e-12
    topo = topological_index(
        space, compute_cutoff(space), TransversalDensity.uniform(space), unit_alpha(space), sclass
    )
    ana = analytic_index(dolbeault_family(fiber, twist, 2)).index
    assert ana == twist
    assert abs(topo - ana) <= 1e-8


def test_value_independent_of_cutoff_choice():
    space = half_shift_space()
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.base.fiber, disc, 2)
    rng = np.random.default_rng(5)
    seeds = [1.0 + 0.8 * np.abs(np.real(random_band_limited(rng, space.base.fiber, 3)))]
    c1 = compute_cutoff(space)
    c2 = compute_cutoff(space, seeds)
    assert np.abs(c1.fields[0] - c2.fields[0]).max() > 1e-3  # genuinely different
    v1 = topological_index(space, c1, dens, alpha, sclass)
    v2 = topological_index(space, c2, dens, alpha, sclass)
    assert abs(v1 - v2) < 1e-9


def test_cochain_level_one_value():
    # a constant fiber volume form plays the role of a realized 2-cochain
    space = trivial_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    sclass = symbol_class_dolbeault(space.base.fiber, disc, 1)
    vol = volume_form(space.base.fiber)
    got = topological_index(space, cutoff, dens, vol, sclass)
    # one fiber integral of the volume, one disc charge, one 1/(2 pi i)
    want = -1.0 / (2.0j * np.pi)
    assert abs(got - want) < 1e-9


def test_rejects_bad_cochain_forms():
    space = four_point_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(4.0, 24, 24)
    sclass = symbol_class_dolbeault(space.base.fiber, disc, 1)
    fiber = space.base.fiber
    pts = grid_points(fiber.grid_size, 2)
    odd = FoliatedForm(fiber, 1, np.ones((fiber.npoints, 2)))
    with pytest.raises(ModelError):
        topological_index(space, cutoff, dens, odd, sclass)
    wobble = np.cos(2 * np.pi * pts[:, 0]).reshape(-1, 1)
    not_closed = FoliatedForm(fiber, 0, wobble)
    with pytest.raises(ModelError):
        topological_index(space, cutoff, dens, not_closed, sclass)
    # a top form is closed, and the half shift in z1 flips its wobble
    shifted = FiberedGSpace(space.groupoid, [Fraction(1, 2), 0])
    moved = FoliatedForm(fiber, 2, wobble)
    with pytest.raises(InvarianceError, match="not invariant"):
        topological_index(shifted, compute_cutoff(shifted), dens, moved, sclass)


def test_free_reduction_equals_cutoff_integral():
    space = half_shift_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.base.fiber, disc, 2)
    topo = topological_index(space, cutoff, dens, alpha, sclass)
    red = free_action_reduction(space, cutoff, dens, alpha, sclass)
    assert abs(topo - red) < 1e-10
    # the half-shift halves the full-torus charge
    assert abs(topo - 1.0) < 1e-6


def test_fundamental_domain_partitions_orbits():
    space = half_shift_space(n=12, N=3)
    ind = fundamental_domain_indicator(space)[0]
    npts = space.base.fiber.npoints
    assert ind.sum() == npts / 2
    perm = space.permutation(space.groupoid.arrows[1])
    assert np.abs(ind + ind[np.argsort(perm)] - 1.0).max() == 0.0


def walk_indicator(space):
    """Orbit representatives by a visited walk: the first unvisited grid point
    in (base point, grid index) order represents its orbit, and marks every
    image under the pointwise action, computed from the shifts directly."""
    base, gpd = space.base, space.groupoid
    indicators = [np.zeros(base.fiber.npoints) for x in range(len(base))]
    visited = [np.zeros(base.fiber.npoints, dtype=bool) for x in range(len(base))]
    for x in range(len(base)):
        fiber = base.fiber
        n = fiber.grid_size
        images = {}
        for a in gpd.arrows_from(x):
            shift = np.array([float(t) for t in space.fiber_map(a).shift])
            ticks = np.rint(((fiber.points() - shift) % 1.0) * n).astype(int) % n
            images[a.label] = ticks @ (n ** np.arange(fiber.dim - 1, -1, -1))
        for z in range(fiber.npoints):
            if visited[x][z]:
                continue
            indicators[x][z] = 1.0
            for a in gpd.arrows_from(x):
                visited[a.tgt][images[a.label][z]] = True
    return indicators


def test_fundamental_domain_matches_walk_oracle():
    """Least-key representatives equal the walk's, over several orbits."""
    # Z/4 swapping the base points pairwise, with fiber shifts g * (1/4, 1/2)
    base = BaseModel(FiberModel(2, 3, 8), 4)
    gpd = CyclicGroupoid(base, 4, [1, 0, 3, 2])
    shifted = FiberedGSpace(gpd, [Fraction(1, 4), Fraction(1, 2)])
    for space in (half_shift_space(n=12, N=3), shifted):
        got = fundamental_domain_indicator(space)
        want = walk_indicator(space)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # one representative per orbit of size |group|
        order = len(space.groupoid.arrows_from(0))
        assert sum(g.sum() for g in got) == sum(f.size for f in got) / order


def test_reduction_rejects_non_free_action():
    # the nontrivial arrow is no unit, yet its shift is zero: every point is fixed
    base = BaseModel(FiberModel(2, 3, 12), 1)
    space = FiberedGSpace(CyclicGroupoid(base, 2), [0, 0])
    with pytest.raises(NonFreeActionError, match="fixes 144 fiber points"):
        fundamental_domain_indicator(space)


def test_quotient_operator_index_matches():
    fiber = FiberModel(2, 8, 20)
    assert half_shift_quotient_index(fiber, 2) == 1
    assert half_shift_quotient_index(fiber, 4) == 2
    assert half_shift_quotient_index(fiber, -2) == -1
    with pytest.raises(ModelError):
        half_shift_quotient_index(fiber, 3)


def test_three_route_agreement_on_half_shift():
    space = half_shift_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.base.fiber, disc, 2)
    topo = topological_index(space, cutoff, dens, alpha, sclass)
    red = free_action_reduction(space, cutoff, dens, alpha, sclass)
    quot = half_shift_quotient_index(space.base.fiber, 2)
    assert abs(topo - quot) < 1e-6
    assert abs(red - quot) < 1e-6


def test_multiplier_class_of_invertible_symbol_vanishes():
    space = trivial_space(n=18, N=8)
    cutoff = compute_cutoff(space)
    dens = TransversalDensity.uniform(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_multiplier(
        space.base.fiber, disc, lambda x1, x2: np.sqrt(1.0 + x1**2 + x2**2)
    )
    topo = topological_index(space, cutoff, dens, alpha, sclass)
    assert abs(topo) < 1e-9


def test_orbifold_family_both_sides():
    space = four_point_space()
    cutoff = compute_cutoff(space)
    dens = TransversalDensity(space, [0.5] * 4)
    disc = DiscModel(4.0, 48, 48)
    twist = 3
    block = dolbeault_family(space.base.fiber, twist, 4)
    sclass = symbol_class_dolbeault(space.base.fiber, disc, twist)
    res = family_index_orbifold(space, block, cutoff, dens, sclass)
    assert isinstance(res, FamilyIndexResult)
    assert res.per_point == [twist] * 4
    assert abs(res.orbit_sum - twist) < 1e-12
    assert abs(res.topological - twist) < 1e-6
    assert res.difference < 1e-6
    lopsided = TransversalDensity(space, [0.5, 1.0, 0.5, 1.0])
    with pytest.raises(ModelError, match="invariant transversal density"):
        family_index_orbifold(space, block, cutoff, lopsided, sclass)
