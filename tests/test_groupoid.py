"""Structure checks for the group action on the fiber and the cutoff field."""
from fractions import Fraction

import numpy as np
import pytest

from indexpairing.density import CoverageError, compute_cutoff
from indexpairing.forms import FoliatedForm, form_invariance_defect
from indexpairing.grids import FiberModel, ModelError, grid_points
from indexpairing.operators import SmoothingKernel
from indexpairing.scenario import ScenarioError, load_scenario, _validate
import indexpairing.space as space_module
from indexpairing.space import FiberedGSpace
from oracles import (
    cutoff_per_arrow,
    form_invariance_defect_per_arrow,
    partition_defect,
    twisted_invariance_defect_per_arrow,
)


def torus_fiber(n=8, N=3, dim=2):
    return FiberModel(dim=dim, fourier_cutoff=N, grid_size=n)


def half_shift_space(n=8, N=3):
    """Z/2 acting on a torus fiber by the half-period shift in z_2."""
    return FiberedGSpace(torus_fiber(n, N, dim=2), 2, [0, Fraction(1, 2)])


def translate(shift, points):
    """Pointwise oracle: the points translated by ``shift``, reduced mod 1."""
    return (points + np.array([float(t) for t in shift])) % 1.0


def test_fiber_model_rejects_coarse_grids():
    with pytest.raises(ModelError):
        FiberModel(dim=2, fourier_cutoff=4, grid_size=9)
    FiberModel(dim=2, fourier_cutoff=4, grid_size=10)


def base_doc(points, weights=None, values=None, action="trivial"):
    """A small scenario over ``points`` base points."""
    group = {"group": {"cyclic": 2}, "base_points": points, "base_action": action}
    if weights is not None:
        group["base_weights"] = weights
    doc = {
        "name": "base",
        "groupoid": group,
        "fiber": {"kind": "torus", "dim": 2, "fourier_cutoff": 3, "grid": 8},
        "operator": {"builtin": "dolbeault", "twist": 1, "levels": 1},
        "seed": 1,
    }
    if values is not None:
        doc["density"] = {"values": values}
    return doc


def test_base_is_refused_at_load():
    """No base point, a mass list of the wrong length, a nonpositive mass and a
    product of weight and value that underflows to 0 are refused at load."""
    cases = (
        (base_doc(0), "groupoid.base_points"),
        (base_doc(2, values=[1.0]), "density.values"),
        (base_doc(2, weights=[1.0, 0.0]), "groupoid.base_weights"),
        (base_doc(2, weights=[1e-200, 1.0], values=[1e-200, 1.0]), "base point 0 the mass 0.0"),
        (base_doc(2, weights=[1e200, 1.0], values=[1e200, 1.0]), "base point 0 the mass inf"),
    )
    for doc, fragment in cases:
        with pytest.raises(ScenarioError, match=fragment):
            _validate(doc)
    assert _validate(base_doc(2, [2, 1.5])).masses == [2.0, 1.5]


def test_group_action_laws_brute_force():
    """Transport by 0 is the identity, and transport by g1 then by g2 is
    transport by g1 + g2 mod m, over every pair of group elements."""
    n = 60
    f = np.sin(2 * np.pi * grid_points(n, 2)[:, 0]) + grid_points(n, 2)[:, 1]
    for m in range(1, 7):
        space = FiberedGSpace(torus_fiber(n, 3, 2), m, [Fraction(1, m), Fraction(-2, m)])
        assert np.array_equal(space.transport(0, f), f)
        for g1 in range(m):
            assert np.array_equal(space.transport(-g1, space.transport(g1, f)), f)
            for g2 in range(m):
                two_step = space.transport(g2, space.transport(g1, f))
                assert np.array_equal(space.transport(g1 + g2, f), two_step)


def test_translation_compose_and_inverse_element():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = [Fraction(int(rng.integers(-8, 16)), 8) for _ in range(2)]
        space = FiberedGSpace(torus_fiber(8, 3, 2), 8, theta)
        g1, g2 = (int(g) for g in rng.integers(-8, 16, 2))
        # shifts are reduced mod 1 exactly
        assert all(0 <= t < 1 for t in space.shift(g1))
        z = rng.random((5, 2))
        # the translation of g1 + g2 applies one element's after the other's
        two_step = translate(space.shift(g1), translate(space.shift(g2), z))
        assert np.allclose(translate(space.shift(g1 + g2), z), two_step)
    # the inverse element translates by the negated shift
    space = FiberedGSpace(torus_fiber(8, 3, 1), 4, [Fraction(1, 4)])
    assert space.shift(-1) == (Fraction(-1, 4) % 1,)
    p, q = space.permutation(1), space.permutation(-1)
    assert np.array_equal(p[q], np.arange(8))


def test_grid_permutation_matches_pointwise_map():
    cases = (
        (8, 2, 8, [Fraction(3, 8), Fraction(1, 2)]),
        (6, 3, 6, [Fraction(5, 6), 0, Fraction(-1, 3)]),
    )
    for n, r, order, shift in cases:
        space = FiberedGSpace(torus_fiber(n, 2, r), order, shift)
        pts = grid_points(n, r)
        for g in range(order):
            p = space.permutation(g)
            assert np.array_equal(np.sort(p), np.arange(n**r))
            assert np.allclose(pts[p], translate(space.shift(g), pts), atol=1e-15)
    # a non grid fraction is refused
    shifted = FiberedGSpace(torus_fiber(8, 3, 2), 3, [Fraction(1, 3), 0])
    with pytest.raises(ModelError):
        shifted.permutation(1)


def test_grid_permutations_are_shared_and_read_only():
    # one array per translation and grid size, equal to a freshly built one
    space = FiberedGSpace(torus_fiber(8, 3, 2), 8, [Fraction(1, 4), Fraction(1, 8)])
    for g in range(-8, 9):
        p = space.permutation(g)
        assert p is space.permutation(g) and not p.flags.writeable
        with pytest.raises(ValueError):
            p[0] = p[1]
        fresh = space_module._grid_permutation.__wrapped__(space.shift(g), 8)
        assert np.array_equal(p, fresh)
    # an equal translation of another space shares the array; another grid size does not
    half = FiberedGSpace(torus_fiber(8, 3, 2), 2, [2, Fraction(3, 2)])
    assert half.permutation(1) is space.permutation(4)
    coarse = FiberedGSpace(torus_fiber(6, 2, 2), 2, [2, Fraction(3, 2)])
    fresh = space_module._grid_permutation.__wrapped__(coarse.shift(1), 6)
    assert coarse.permutation(1) is not half.permutation(1)
    assert np.array_equal(coarse.permutation(1), fresh)


def test_transport_is_composition():
    n = 8
    space = FiberedGSpace(torus_fiber(n, 3, 2), 8, [Fraction(1, 4), Fraction(1, 8)])
    pts = grid_points(n, 2)
    f = np.cos(2 * np.pi * pts[:, 0]) + np.sin(2 * np.pi * pts[:, 1]) ** 2
    moved = translate(space.shift(1), pts)
    expect = np.cos(2 * np.pi * moved[:, 0]) + np.sin(2 * np.pi * moved[:, 1]) ** 2
    assert np.allclose(space.transport(1, f), expect, atol=1e-12)
    # trailing component axes ride along; a field off the grid is refused
    stacked = np.stack([f, 2 * f], axis=1)
    assert np.array_equal(space.transport(1, stacked)[:, 1], 2 * space.transport(1, f))
    with pytest.raises(ModelError):
        space.transport(1, f.reshape(n, n))


def test_fibered_space_rejects_non_functorial_maps():
    """Z/m acts by a shift theta only when m * theta is an integer vector."""
    fiber = torus_fiber(8, 3, dim=1)
    FiberedGSpace(fiber, 4, [Fraction(3, 4)])
    with pytest.raises(ModelError, match="not functorial"):
        FiberedGSpace(fiber, 4, [Fraction(1, 8)])
    with pytest.raises(ModelError, match="one entry per fiber dimension"):
        FiberedGSpace(fiber, 4, [Fraction(1, 4), 0])
    # order 1: only whole shifts, which are the identity
    FiberedGSpace(fiber, 1, [1])
    with pytest.raises(ModelError, match="not functorial"):
        FiberedGSpace(fiber, 1, [Fraction(1, 2)])


def test_transport_is_covariant():
    """Transport by the generator twice is transport by the unit of Z/2."""
    fiber = torus_fiber(8, 3, 1)
    # the generator squared is the unit, so a quarter shift is not an action of Z/2
    with pytest.raises(ModelError):
        FiberedGSpace(fiber, 2, [Fraction(1, 4)])
    space = FiberedGSpace(fiber, 2, [Fraction(1, 2)])
    f = np.random.default_rng(3).random(8)
    two_step = space.transport(1, space.transport(1, f))
    assert np.array_equal(two_step, space.transport(0, f))
    assert np.array_equal(two_step, f)


def test_cutoff_partition_identity_uniform_and_seeded():
    space = half_shift_space(8, 3)
    uniform = compute_cutoff(space)
    assert partition_defect(space, [0], [uniform]) <= 1e-14
    assert np.allclose(uniform, 0.5)

    seed = np.exp(np.random.default_rng(11).normal(size=64))
    seeded = compute_cutoff(space, seed)
    assert partition_defect(space, [0], [seeded]) <= 1e-12
    assert seeded.min() > 0
    assert not np.allclose(seeded, 0.5)

    with pytest.raises(CoverageError, match="does not cover"):
        compute_cutoff(space, np.zeros(64))
    with pytest.raises(CoverageError, match="nonnegative"):
        compute_cutoff(space, -seed)
    with pytest.raises(CoverageError, match="63 values"):
        compute_cutoff(space, seed[:63])


def test_cutoff_partition_identity_multipoint():
    """Z/4 rotating a 4 point base with translation fiber maps: the per-point
    cutoff of the oracle keeps the partition identity for any per-point seeds,
    and with one seed at every point each field is the library's cutoff."""
    space = FiberedGSpace(torus_fiber(8, 3, 1), 4, [Fraction(1, 4)])
    rotation = [1, 2, 3, 0]
    rng = np.random.default_rng(5)
    seeds = [np.exp(rng.normal(size=8)) for _ in range(4)]
    assert partition_defect(space, rotation, cutoff_per_arrow(space, rotation, seeds)) <= 1e-12
    for sigma in (rotation, [0, 1, 2, 3], [1, 0, 3, 2]):
        for field in cutoff_per_arrow(space, sigma, [seeds[0]] * 4):
            assert np.array_equal(field, compute_cutoff(space, seeds[0]))


def test_modular_ratio_refused_at_load():
    """A pair swap that moves mass is refused with the ratio of the first pair."""
    for weights, ratio in (([0.5, 2.0], "4"), ([2.0, 0.5], "0.25")):
        doc = base_doc(2, weights, action="pair-swap")
        with pytest.raises(ScenarioError, match=rf"pair \(0, 1\) rescales mass by {ratio}$"):
            _validate(doc)
    # an invariant mass loads, and the trivial base action keeps any mass
    assert _validate(base_doc(2, [0.5, 0.5], [2.0, 2.0], "pair-swap")).masses == [1.0, 1.0]
    assert _validate(base_doc(2, [0.5, 2.0])).base_permutation == [0, 1]
    assert load_scenario("S5-orbifold-family").base_permutation == [1, 0, 3, 2]


def test_moving_elements_skip_the_unit_and_the_fixing_elements():
    """The gates check one g = 1 .. m/2 per distinct translation that moves the fiber."""
    fiber = torus_fiber(8, 3, 2)
    cases = (
        (1, [0, 0], []),
        (2, [Fraction(1, 2), 0], [1]),
        (4, [Fraction(1, 2), 0], [1]),
        (4, [Fraction(1, 4), Fraction(1, 2)], [1, 2]),
        (6, [Fraction(1, 3), Fraction(1, 2)], [1, 2, 3]),
        (6, [Fraction(1, 2), 0], [1]),
        (4, [0, 0], []),
    )
    for order, shift, want in cases:
        assert FiberedGSpace(fiber, order, shift).moving_elements() == want
    # transport by the inverse element is transport by its residue
    space = FiberedGSpace(fiber, 4, [Fraction(1, 4), Fraction(1, 2)])
    f = np.random.default_rng(2).random(64)
    for g in range(4):
        assert np.array_equal(space.transport(-g, f), space.transport(4 - g, f))


def test_budget_edge_action_checks_one_translation():
    # Z/64 shifting by (1/2, 1/2), as at the groupoid budget edge: every odd
    # g makes the same translation and every even g none, so the gates check
    # g = 1 alone and still give the float of the loop over every g != 0
    fiber = torus_fiber(16, 7)
    space = FiberedGSpace(fiber, 64, [Fraction(1, 2), Fraction(1, 2)])
    assert space.moving_elements() == [1]
    rng = np.random.default_rng(64)
    npts = fiber.npoints

    def noise(cols):
        return rng.standard_normal((npts, cols)) + 1j * rng.standard_normal((npts, cols))

    kern = SmoothingKernel(fiber, noise(npts))
    got = kern.twisted_invariance_defect(space)
    assert got > 1.0 and got == twisted_invariance_defect_per_arrow(kern, space)
    form = FoliatedForm(fiber, 1, noise(2))
    got = form_invariance_defect(space, form)
    assert got > 1.0 and got == form_invariance_defect_per_arrow(space, form)
