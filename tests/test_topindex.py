"""Localized class integrals, quotient reductions, orbifold families."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import indexpairing.topindex as topindex
from indexpairing.charclass import DiscModel, disc_charge, graph_symbol_projector
from indexpairing.density import compute_cutoff
from indexpairing.dolbeault import dolbeault_family
from indexpairing.forms import FoliatedForm, InvarianceError
from indexpairing.grids import FiberModel, ModelError, grid_points, random_band_limited
from indexpairing.harness import _orbit_sum
from indexpairing.parametrix import analytic_index
from indexpairing.space import FiberedGSpace
from indexpairing.topindex import (
    NonFreeActionError,
    dolbeault_symbol_values,
    family_index_orbifold,
    free_action_reduction,
    fundamental_domain_indicator,
    half_shift_quotient_index,
    symbol_class_dolbeault,
    symbol_class_multiplier,
    topological_index,
)
from oracles import mass_weighted_sum, same_bits, volume_form


def trivial_space(n=20, N=8):
    return FiberedGSpace.trivial(FiberModel(2, N, n))


def half_shift_space(n=20, N=8):
    """Free Z/2: the diagonal half-period shift on the torus fiber."""
    return FiberedGSpace(FiberModel(2, N, n), 2, [Fraction(1, 2), Fraction(1, 2)])


def still_space(n=18, N=3):
    """Z/2 fixing the fiber, as over a base whose points it swaps pairwise."""
    return FiberedGSpace.trivial(FiberModel(2, N, n), 2)


def unit_alpha(space):
    fiber = space.fiber
    return FoliatedForm(fiber, 0, np.ones((fiber.npoints, 1)), invariant=True)


def test_flux_predictions_match_spectral_index():
    space = trivial_space()
    cutoff = compute_cutoff(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    for d in (-2, -1, 0, 1, 2):
        sclass = symbol_class_dolbeault(space.fiber, disc, d)
        topo = topological_index(space, cutoff, alpha, sclass)
        ana = analytic_index(dolbeault_family(space.fiber, d, 4)).index
        assert abs(topo - ana) < 1e-6
        assert abs(topo.imag) < 1e-9


def test_symbol_class_peak_memory_is_at_most_four_projector_fields():
    # the flux-24 space: one (n, m, m) field is 1600 points of 24 x 24
    fiber = trivial_space(n=40, N=19).fiber
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
    fiber = space.fiber
    sclass = symbol_class_dolbeault(fiber, DiscModel(float(n // 2), 48, 48), twist)
    assert abs(sclass.fiber[2][:, 0].mean() + twist) <= 1e-12
    topo = topological_index(space, compute_cutoff(space), unit_alpha(space), sclass)
    ana = analytic_index(dolbeault_family(fiber, twist, 2)).index
    assert ana == twist
    assert abs(topo - ana) <= 1e-8


def test_value_independent_of_cutoff_choice():
    space = half_shift_space()
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.fiber, disc, 2)
    rng = np.random.default_rng(5)
    seed = 1.0 + 0.8 * np.abs(np.real(random_band_limited(rng, space.fiber, 3)))
    c1 = compute_cutoff(space)
    c2 = compute_cutoff(space, seed)
    assert np.abs(c1 - c2).max() > 1e-3  # genuinely different
    v1 = topological_index(space, c1, alpha, sclass)
    v2 = topological_index(space, c2, alpha, sclass)
    assert abs(v1 - v2) < 1e-9


def test_cochain_level_one_value():
    # a constant fiber volume form plays the role of a realized 2-cochain
    space = trivial_space()
    cutoff = compute_cutoff(space)
    disc = DiscModel(9.0, 48, 48)
    sclass = symbol_class_dolbeault(space.fiber, disc, 1)
    vol = volume_form(space.fiber)
    got = topological_index(space, cutoff, vol, sclass)
    # one fiber integral of the volume, one disc charge, one 1/(2 pi i)
    want = -1.0 / (2.0j * np.pi)
    assert abs(got - want) < 1e-9


def test_rejects_bad_cochain_forms():
    space = still_space()
    cutoff = compute_cutoff(space)
    disc = DiscModel(4.0, 24, 24)
    sclass = symbol_class_dolbeault(space.fiber, disc, 1)
    fiber = space.fiber
    pts = grid_points(fiber.grid_size, 2)
    odd = FoliatedForm(fiber, 1, np.ones((fiber.npoints, 2)))
    with pytest.raises(ModelError):
        topological_index(space, cutoff, odd, sclass)
    wobble = np.cos(2 * np.pi * pts[:, 0]).reshape(-1, 1)
    not_closed = FoliatedForm(fiber, 0, wobble)
    with pytest.raises(ModelError):
        topological_index(space, cutoff, not_closed, sclass)
    # a top form is closed, and the half shift in z1 flips its wobble
    shifted = FiberedGSpace(fiber, 2, [Fraction(1, 2), 0])
    moved = FoliatedForm(fiber, 2, wobble)
    with pytest.raises(InvarianceError, match="not invariant"):
        topological_index(shifted, compute_cutoff(shifted), moved, sclass)


def test_free_reduction_equals_cutoff_integral():
    space = half_shift_space()
    cutoff = compute_cutoff(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.fiber, disc, 2)
    topo = topological_index(space, cutoff, alpha, sclass)
    red = free_action_reduction(space, cutoff, alpha, sclass)
    assert abs(topo - red) < 1e-10
    # the half-shift halves the full-torus charge
    assert abs(topo - 1.0) < 1e-6


def test_free_reduction_folds_any_weight_field():
    # the reduction sums the weight over each orbit onto its representative,
    # so a seeded cutoff, and masses on it, give the cutoff integral too
    space = half_shift_space()
    rng = np.random.default_rng(19)
    seed = 1.0 + 0.8 * np.abs(np.real(random_band_limited(rng, space.fiber, 3)))
    weight = 2.5 * compute_cutoff(space, seed)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.fiber, DiscModel(9.0, 48, 48), 2)
    red = free_action_reduction(space, weight, alpha, sclass)
    assert abs(red - topological_index(space, weight, alpha, sclass)) < 1e-10
    assert abs(red - 2.5) < 1e-6


def test_fundamental_domain_partitions_orbits():
    space = half_shift_space(n=12, N=3)
    ind = fundamental_domain_indicator(space)
    npts = space.fiber.npoints
    assert ind.sum() == npts / 2
    perm = space.permutation(1)
    assert np.abs(ind + ind[np.argsort(perm)] - 1.0).max() == 0.0


def walk_indicator(space):
    """Orbit representatives by a visited walk: the first unvisited grid point
    represents its orbit, and marks every image under the pointwise action,
    computed from the shifts directly."""
    fiber = space.fiber
    n = fiber.grid_size
    images = []
    for g in range(space.order):
        shift = np.array([float(t) for t in space.shift(g)])
        ticks = np.rint(((fiber.points() - shift) % 1.0) * n).astype(int) % n
        images.append(ticks @ (n ** np.arange(fiber.dim - 1, -1, -1)))
    indicator = np.zeros(fiber.npoints)
    visited = np.zeros(fiber.npoints, dtype=bool)
    for z in range(fiber.npoints):
        if visited[z]:
            continue
        indicator[z] = 1.0
        for image in images:
            visited[image[z]] = True
    return indicator


def test_fundamental_domain_matches_walk_oracle():
    """Least-index representatives equal the walk's, over several orbits."""
    quarter = FiberedGSpace(FiberModel(2, 3, 8), 4, [Fraction(1, 4), Fraction(1, 2)])
    for space in (half_shift_space(n=12, N=3), quarter):
        got = fundamental_domain_indicator(space)
        assert np.array_equal(got, walk_indicator(space))
        # one representative per orbit of size |group|
        assert got.sum() == got.size / space.order


def test_reduction_rejects_non_free_action():
    # the nontrivial element has a zero shift: every point is fixed
    space = FiberedGSpace(FiberModel(2, 3, 12), 2, [0, 0])
    with pytest.raises(NonFreeActionError, match="element 1 fixes 144 fiber points"):
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
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_dolbeault(space.fiber, disc, 2)
    topo = topological_index(space, cutoff, alpha, sclass)
    red = free_action_reduction(space, cutoff, alpha, sclass)
    quot = half_shift_quotient_index(space.fiber, 2)
    assert abs(topo - quot) < 1e-6
    assert abs(red - quot) < 1e-6


def test_multiplier_class_of_invertible_symbol_vanishes():
    space = trivial_space(n=18, N=8)
    cutoff = compute_cutoff(space)
    disc = DiscModel(9.0, 48, 48)
    alpha = unit_alpha(space)
    sclass = symbol_class_multiplier(
        space.fiber, disc, lambda x1, x2: np.sqrt(1.0 + x1**2 + x2**2)
    )
    topo = topological_index(space, cutoff, alpha, sclass)
    assert abs(topo) < 1e-9


def test_orbifold_family_both_sides():
    space = still_space()
    cutoff = compute_cutoff(space)
    masses = [0.5] * 4
    disc = DiscModel(4.0, 48, 48)
    twist = 3
    block = dolbeault_family(space.fiber, twist, 4)
    sclass = symbol_class_dolbeault(space.fiber, disc, twist)
    index, topological = family_index_orbifold(
        space, block, mass_weighted_sum(masses, [cutoff] * 4), sclass
    )
    assert index == twist
    orbit_sum = _orbit_sum([1, 0, 3, 2], masses, index)
    assert abs(orbit_sum - twist) < 1e-12
    assert abs(topological - twist) < 1e-6
    assert abs(orbit_sum - topological) < 1e-6


def fresh_dolbeault_charge(disc):
    return disc_charge(disc, graph_symbol_projector(disc, dolbeault_symbol_values(disc)))


def test_equal_discs_share_one_dolbeault_charge(monkeypatch):
    # the charge is memoized per disc for the life of the process: an equal
    # disc reads the entry, and a disc that differs in its radius, its radial
    # count or its angular count computes its own
    calls = []

    def counting(disc, projector):
        calls.append(disc)
        return disc_charge(disc, projector)

    monkeypatch.setattr(topindex, "disc_charge", counting)
    topindex._dolbeault_disc_charge.cache_clear()
    fiber = FiberModel(2, 3, 8)
    first = symbol_class_dolbeault(fiber, DiscModel(9.0, 48, 48), 1).charge
    again = symbol_class_dolbeault(fiber, DiscModel(9.0, 48, 48), -2).charge
    assert calls == [DiscModel(9.0, 48, 48)]
    assert same_bits(first, again) and same_bits(first, fresh_dolbeault_charge(DiscModel(9.0, 48, 48)))
    others = [DiscModel(8.0, 48, 48), DiscModel(9.0, 40, 48), DiscModel(9.0, 48, 40)]
    for disc in others:
        charge = symbol_class_dolbeault(fiber, disc, 1).charge
        assert calls[-1] == disc
        assert same_bits(charge, fresh_dolbeault_charge(disc))
    assert len(calls) == 4
    assert topindex._dolbeault_disc_charge.cache_info().currsize == 4
