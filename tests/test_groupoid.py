"""Structure checks for the base, group, groupoid and fibered action layers."""
from fractions import Fraction

import numpy as np
import pytest

from indexpairing.density import (
    CoverageError,
    CutoffDensity,
    TransversalDensity,
    compute_cutoff,
)
from indexpairing.grids import FiberModel, ModelError
from indexpairing.groupoid import Arrow, BaseModel, BasePoint, FiniteGroup, action_groupoid
from indexpairing.space import AffineTorusMap, FiberedGSpace


def torus_fiber(n=8, N=3, dim=2):
    return FiberModel(kind="torus", dim=dim, fourier_cutoff=N, grid_size=n)


def one_point_base(n=8, N=3, dim=2, weight=1.0):
    return BaseModel([BasePoint("pt", weight, torus_fiber(n, N, dim))])


def half_shift_space(n=8, N=3):
    """Z/2 acting on a single torus fiber by the half-period shift in z_2."""
    base = one_point_base(n, N, dim=2)
    group = FiniteGroup.cyclic(2)
    gpd = action_groupoid(group, base, act=lambda g, x: x)
    ident = AffineTorusMap.identity(2)
    shift = AffineTorusMap.translation([0, Fraction(1, 2)])
    return FiberedGSpace(gpd, {(0, 0): ident, (1, 0): shift})


def translate(m, points):
    """Pointwise oracle: the translated points, reduced mod 1."""
    return (points + np.array([float(t) for t in m.shift])) % 1.0


def test_fiber_model_rejects_coarse_grids():
    with pytest.raises(ModelError):
        FiberModel(kind="torus", dim=2, fourier_cutoff=4, grid_size=9)
    FiberModel(kind="torus", dim=2, fourier_cutoff=4, grid_size=10)


def test_cyclic_group_tables():
    g = FiniteGroup.cyclic(3)
    assert g.identity == 0
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2
    # a broken table is rejected
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ModelError):
        FiniteGroup(bad)


def test_action_groupoid_structure():
    """Z/3 rotating a three point base: sources, targets, composition."""
    fib = torus_fiber(8, 3, 1)
    base = BaseModel([BasePoint(f"p{i}", 1.0, fib) for i in range(3)])
    group = FiniteGroup.cyclic(3)
    gpd = action_groupoid(group, base, act=lambda g, x: (x + g) % 3)
    assert len(gpd.arrows) == 9
    a = gpd.by_label[(1, 0)]  # rotate once starting at p0
    b = gpd.by_label[(1, 1)]
    c = gpd.compose(a, b)
    assert c.label == (2, 0)
    assert (c.src, c.tgt) == (0, 2)
    inv = gpd.inverse(a)
    assert inv.label == (2, 1)
    # units sit at each point
    assert [u.src for u in gpd.units] == [0, 1, 2]


def test_action_groupoid_rejects_bad_action():
    fib = torus_fiber(8, 3, 1)
    base = BaseModel([BasePoint(f"p{i}", 1.0, fib) for i in range(3)])
    group = FiniteGroup.cyclic(3)
    with pytest.raises(ModelError):
        # not a homomorphism: every non identity element moves by one step
        action_groupoid(group, base, act=lambda g, x: x if g == 0 else (x + 1) % 3)


def test_translation_compose_and_inverse_arrow():
    rng = np.random.default_rng(7)
    for _ in range(20):
        th1 = [Fraction(int(rng.integers(-8, 16)), 8) for _ in range(2)]
        th2 = [Fraction(int(rng.integers(-8, 16)), 8) for _ in range(2)]
        m1 = AffineTorusMap.translation(th1)
        m2 = AffineTorusMap.translation(th2)
        # shifts are reduced mod 1 exactly
        assert all(0 <= t < 1 for t in m1.shift)
        z = rng.random((5, 2))
        # composite applies the inner map first
        comp = m1.after(m2)
        assert np.allclose(translate(comp, z), translate(m1, translate(m2, z)))
        assert comp == m2.after(m1)
        assert m1.after(AffineTorusMap.translation([-t for t in th1])) == AffineTorusMap.identity(2)
    # the map of an inverse arrow is the negated shift
    fib = torus_fiber(8, 3, 1)
    gpd = action_groupoid(
        FiniteGroup.cyclic(4), BaseModel([BasePoint("pt", 1.0, fib)]), act=lambda g, x: x
    )
    maps = {a.label: AffineTorusMap.translation([Fraction(a.label[0], 4)]) for a in gpd.arrows}
    space = FiberedGSpace(gpd, maps)
    a = gpd.by_label[(1, 0)]
    assert space.maps[gpd.inverse(a).label] == AffineTorusMap.translation([Fraction(-1, 4)])
    p, q = space.permutation(a), space.permutation(gpd.inverse(a))
    assert np.array_equal(p[q], np.arange(8))


def test_grid_permutation_matches_pointwise_map():
    from indexpairing.grids import grid_points

    cases = ((8, 2, [Fraction(3, 8), Fraction(1, 2)]), (6, 3, [Fraction(5, 6), 0, Fraction(-1, 3)]))
    for n, r, shift in cases:
        m = AffineTorusMap.translation(shift)
        pts = grid_points(n, r)
        p = m.grid_permutation(n)
        assert np.array_equal(np.sort(p), np.arange(n**r))
        assert np.allclose(pts[p], translate(m, pts), atol=1e-15)
    # a non grid fraction is refused
    shifted = AffineTorusMap.translation([Fraction(1, 3), 0])
    with pytest.raises(ModelError):
        shifted.grid_permutation(8)


def test_transport_is_composition():
    n = 8
    from indexpairing.grids import grid_points

    base = one_point_base(n, 3, dim=2)
    gpd = action_groupoid(FiniteGroup.cyclic(8), base, act=lambda g, x: x)
    step = [Fraction(1, 4), Fraction(1, 8)]
    maps = {a.label: AffineTorusMap.translation([a.label[0] * t for t in step]) for a in gpd.arrows}
    space = FiberedGSpace(gpd, maps)
    a = gpd.by_label[(1, 0)]
    pts = grid_points(n, 2)
    f = np.cos(2 * np.pi * pts[:, 0]) + np.sin(2 * np.pi * pts[:, 1]) ** 2
    moved = translate(space.maps[a.label], pts)
    expect = np.cos(2 * np.pi * moved[:, 0]) + np.sin(2 * np.pi * moved[:, 1]) ** 2
    assert np.allclose(space.transport(a, f), expect, atol=1e-12)
    # trailing component axes ride along; a field off the grid is refused
    stacked = np.stack([f, 2 * f], axis=1)
    assert np.array_equal(space.transport(a, stacked)[:, 1], 2 * space.transport(a, f))
    with pytest.raises(ModelError):
        space.transport(a, f.reshape(n, n))


def test_fibered_space_rejects_non_functorial_maps():
    base = one_point_base(8, 3, dim=1)
    group = FiniteGroup.cyclic(4)
    gpd = action_groupoid(group, base, act=lambda g, x: x)
    ident = AffineTorusMap.identity(1)
    quarter = AffineTorusMap.translation([Fraction(1, 4)])
    half = AffineTorusMap.translation([Fraction(1, 2)])
    good = {(0, 0): ident, (1, 0): quarter, (2, 0): half, (3, 0): quarter.after(half)}
    FiberedGSpace(gpd, good)
    bad = dict(good)
    bad[(2, 0)] = quarter  # squares no longer match
    with pytest.raises(ModelError):
        FiberedGSpace(gpd, bad)


def test_transport_is_covariant():
    """Transport along a composite equals transport in two stages."""
    fib = torus_fiber(8, 3, 1)
    base = BaseModel([BasePoint(f"p{i}", 1.0, fib) for i in range(2)])
    group = FiniteGroup.cyclic(2)
    gpd = action_groupoid(group, base, act=lambda g, x: (x + g) % 2)
    quarter = AffineTorusMap.translation([Fraction(1, 4)])
    maps = {}
    for a in gpd.arrows:
        g, x = a.label
        maps[a.label] = AffineTorusMap.identity(1) if g == 0 else quarter
    # functoriality requires (swap then swap) = identity: quarter after quarter
    # is a half shift, not the identity, so adjust the group to Z/4 downstairs
    with pytest.raises(ModelError):
        FiberedGSpace(gpd, maps)
    half_maps = {
        a.label: (
            AffineTorusMap.identity(1)
            if a.label[0] == 0
            else AffineTorusMap.translation([Fraction(1, 2)])
        )
        for a in gpd.arrows
    }
    space = FiberedGSpace(gpd, half_maps)
    rng = np.random.default_rng(3)
    f = rng.random(8)
    a1 = gpd.by_label[(1, 0)]
    a2 = gpd.by_label[(1, 1)]
    comp = gpd.compose(a1, a2)
    two_step = space.transport(a2, space.transport(a1, f))
    one_step = space.transport(comp, f)
    assert np.allclose(two_step, one_step)


def test_cutoff_partition_identity_uniform_and_seeded():
    space = half_shift_space(8, 3)
    uniform = compute_cutoff(space)
    assert uniform.partition_defect() <= 1e-14
    assert np.allclose(uniform.fields[0], 0.5)

    rng = np.random.default_rng(11)
    seeds = [np.exp(rng.normal(size=64))]
    seeded = compute_cutoff(space, seeds)
    assert seeded.partition_defect() <= 1e-12
    assert seeded.fields[0].min() > 0
    assert not np.allclose(seeded.fields[0], 0.5)

    with pytest.raises(CoverageError):
        compute_cutoff(space, [np.zeros(64)])


def test_cutoff_partition_identity_multipoint():
    """Z/4 rotating a 4 point base with translation fiber maps."""
    fib = torus_fiber(8, 3, 1)
    base = BaseModel([BasePoint(f"p{i}", 1.0, fib) for i in range(4)])
    group = FiniteGroup.cyclic(4)
    gpd = action_groupoid(group, base, act=lambda g, x: (x + g) % 4)
    maps = {}
    for a in gpd.arrows:
        g, x = a.label
        maps[a.label] = AffineTorusMap.translation([Fraction(g, 4)])
    space = FiberedGSpace(gpd, maps)
    rng = np.random.default_rng(5)
    seeds = [np.exp(rng.normal(size=8)) for _ in range(4)]
    cut = compute_cutoff(space, seeds)
    assert cut.partition_defect() <= 1e-12


def test_modular_cocycle_ratio_and_loops():
    fib = torus_fiber(8, 3, 1)
    base = BaseModel(
        [BasePoint("a", 1.0, fib), BasePoint("b", 1.0, fib)]
    )
    group = FiniteGroup.cyclic(2)
    gpd = action_groupoid(group, base, act=lambda g, x: (x + g) % 2)
    space = FiberedGSpace.trivial(gpd)
    dens = TransversalDensity(space, [0.5, 2.0])
    hop = gpd.by_label[(1, 0)]
    assert dens.modular(hop) == pytest.approx(4.0)
    assert dens.modular(gpd.inverse(hop)) == pytest.approx(0.25)
    # any loop multiplies to 1
    loop = gpd.compose(hop, gpd.inverse(hop))
    assert dens.modular(loop) == pytest.approx(1.0)


def test_base_weight_enters_modular_ratio():
    fib = torus_fiber(8, 3, 1)
    base = BaseModel([BasePoint("a", 2.0, fib), BasePoint("b", 1.0, fib)])
    group = FiniteGroup.cyclic(2)
    gpd = action_groupoid(group, base, act=lambda g, x: (x + g) % 2)
    space = FiberedGSpace.trivial(gpd)
    dens = TransversalDensity(space, [1.0, 2.0])
    hop = gpd.by_label[(1, 0)]
    assert dens.modular(hop) == pytest.approx(1.0)
