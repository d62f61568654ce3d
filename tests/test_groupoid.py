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
from indexpairing.groupoid import Arrow, BaseModel, CyclicGroupoid
from indexpairing.space import AffineTorusMap, FiberedGSpace
from oracles import partition_defect


def torus_fiber(n=8, N=3, dim=2):
    return FiberModel(dim=dim, fourier_cutoff=N, grid_size=n)


def one_point_base(n=8, N=3, dim=2):
    return BaseModel(torus_fiber(n, N, dim), 1)


def half_shift_space(n=8, N=3):
    """Z/2 acting on a single torus fiber by the half-period shift in z_2."""
    base = one_point_base(n, N, dim=2)
    return FiberedGSpace(CyclicGroupoid(base, 2), [0, Fraction(1, 2)])


def translate(m, points):
    """Pointwise oracle: the translated points, reduced mod 1."""
    return (points + np.array([float(t) for t in m.shift])) % 1.0


def test_fiber_model_rejects_coarse_grids():
    with pytest.raises(ModelError):
        FiberModel(dim=2, fourier_cutoff=4, grid_size=9)
    FiberModel(dim=2, fourier_cutoff=4, grid_size=10)


def test_base_model_rejects_malformed_points():
    fib = torus_fiber()
    with pytest.raises(ModelError, match="at least one point"):
        BaseModel(fib, 0)
    base = BaseModel(fib, 2)
    assert (len(base), base.fiber) == (2, fib)
    space = FiberedGSpace.trivial(CyclicGroupoid(base, 1))
    for masses, fragment in (([1.0], "one mass per base point"), ([1.0, 0.0], "positive")):
        with pytest.raises(ModelError, match=fragment):
            TransversalDensity(space, masses)
    assert TransversalDensity(space, [2, 1.5]).masses == [2.0, 1.5]


def pair_swap(bp):
    return [x ^ 1 for x in range(bp)]


def rotation(bp):
    return [(x + 1) % bp for x in range(bp)]


def oracle_groupoids():
    """Z/m for m in 1..6 through the identity, a pair-swap and a rotation,
    each over a base on which sigma^m = id."""
    for m in range(1, 7):
        yield m, list(range(3))
        if m % 2 == 0:
            yield m, pair_swap(4)
        yield m, rotation(m)


def oracle_compose(gpd, a1, a2):
    """"a1 then a2" by the law of Z/m, looked up by brute force."""
    assert a1.tgt == a2.src
    label = ((a1.label[0] + a2.label[0]) % gpd.order, a1.src)
    (out,) = [a for a in gpd.arrows if a.label == label]
    return out


def test_cyclic_groupoid_laws_brute_force():
    """Units, inverses, closure, associativity and covariant transport of the
    computed labels, checked over every composable pair and triple."""
    from indexpairing.grids import grid_points

    n = 60
    for m, sigma in oracle_groupoids():
        bp = len(sigma)
        base = BaseModel(torus_fiber(n, 3, 2), bp)
        gpd = CyclicGroupoid(base, m, sigma)
        space = FiberedGSpace(gpd, [Fraction(1, m), Fraction(-2, m)])
        assert [a.label for a in gpd.arrows] == [(g, x) for g in range(m) for x in range(bp)]
        f = np.sin(2 * np.pi * grid_points(n, 2)[:, 0]) + grid_points(n, 2)[:, 1]
        for x in range(bp):
            # sources, targets and the order of arrows_from
            image = x
            for g, a in enumerate(gpd.arrows_from(x)):
                assert (a.label, a.src, a.tgt) == ((g, x), x, image)
                image = sigma[image]
            u = gpd.units[x]
            assert (u.label, u.src, u.tgt) == ((0, x), x, x)
            assert np.array_equal(space.transport(u, f), f)
        for a1 in gpd.arrows:
            inv = gpd.inverse(a1)
            assert (inv.src, inv.tgt) == (a1.tgt, a1.src)
            assert oracle_compose(gpd, a1, inv) == gpd.units[a1.src]
            assert oracle_compose(gpd, inv, a1) == gpd.units[a1.tgt]
            assert oracle_compose(gpd, gpd.units[a1.src], a1) == a1
            assert oracle_compose(gpd, a1, gpd.units[a1.tgt]) == a1
            for a2 in gpd.arrows_from(a1.tgt):
                c12 = oracle_compose(gpd, a1, a2)
                assert (c12.src, c12.tgt) == (a1.src, a2.tgt)
                two_step = space.transport(a2, space.transport(a1, f))
                assert np.array_equal(space.transport(c12, f), two_step)
                for a3 in gpd.arrows_from(a2.tgt):
                    lhs = oracle_compose(gpd, c12, a3)
                    assert lhs == oracle_compose(gpd, a1, oracle_compose(gpd, a2, a3))


def test_action_groupoid_structure():
    """Z/3 rotating a three point base: sources, targets, inverse, units."""
    fib = torus_fiber(8, 3, 1)
    base = BaseModel(fib, 3)
    gpd = CyclicGroupoid(base, 3, rotation(3))
    assert len(gpd.arrows) == 9
    a = gpd.arrows_from(0)[1]  # rotate once starting at p0
    assert (a.label, a.src, a.tgt) == ((1, 0), 0, 1)
    c = gpd.arrows_from(0)[2]
    assert (c.label, c.src, c.tgt) == ((2, 0), 0, 2)
    assert gpd.inverse(a) == Arrow((2, 1), 1, 0)
    # units sit at each point
    assert [u.src for u in gpd.units] == [0, 1, 2]


def test_action_groupoid_rejects_bad_action():
    fib = torus_fiber(8, 3, 1)
    base = BaseModel(fib, 3)
    with pytest.raises(ModelError, match="to the power 2 is not the identity"):
        CyclicGroupoid(base, 2, rotation(3))
    with pytest.raises(ModelError, match="does not permute"):
        CyclicGroupoid(base, 3, [1, 1, 0])
    with pytest.raises(ModelError, match="does not permute"):
        CyclicGroupoid(base, 3, [1, 2])


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
        # the translation by the summed shift applies one map after the other
        comp = AffineTorusMap.translation([s + t for s, t in zip(th1, th2)])
        assert np.allclose(translate(comp, z), translate(m1, translate(m2, z)))
    # the map of an inverse arrow is the negated shift
    fib = torus_fiber(8, 3, 1)
    gpd = CyclicGroupoid(BaseModel(fib, 1), 4)
    space = FiberedGSpace(gpd, [Fraction(1, 4)])
    a = gpd.arrows_from(0)[1]
    assert space.fiber_map(gpd.inverse(a)) == AffineTorusMap.translation([Fraction(-1, 4)])
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
    space = FiberedGSpace(CyclicGroupoid(base, 8), [Fraction(1, 4), Fraction(1, 8)])
    a = space.groupoid.arrows_from(0)[1]
    pts = grid_points(n, 2)
    f = np.cos(2 * np.pi * pts[:, 0]) + np.sin(2 * np.pi * pts[:, 1]) ** 2
    moved = translate(space.fiber_map(a), pts)
    expect = np.cos(2 * np.pi * moved[:, 0]) + np.sin(2 * np.pi * moved[:, 1]) ** 2
    assert np.allclose(space.transport(a, f), expect, atol=1e-12)
    # trailing component axes ride along; a field off the grid is refused
    stacked = np.stack([f, 2 * f], axis=1)
    assert np.array_equal(space.transport(a, stacked)[:, 1], 2 * space.transport(a, f))
    with pytest.raises(ModelError):
        space.transport(a, f.reshape(n, n))


def test_fibered_space_rejects_non_functorial_maps():
    """Z/m acts by a shift theta only when m * theta is an integer vector."""
    gpd = CyclicGroupoid(one_point_base(8, 3, dim=1), 4)
    FiberedGSpace(gpd, [Fraction(3, 4)])
    with pytest.raises(ModelError, match="not functorial"):
        FiberedGSpace(gpd, [Fraction(1, 8)])
    with pytest.raises(ModelError, match="one entry per fiber dimension"):
        FiberedGSpace(gpd, [Fraction(1, 4), 0])
    # order 1: only whole shifts, which are the identity
    FiberedGSpace(CyclicGroupoid(one_point_base(8, 3, dim=1), 1), [1])
    with pytest.raises(ModelError, match="not functorial"):
        FiberedGSpace(CyclicGroupoid(one_point_base(8, 3, dim=1), 1), [Fraction(1, 2)])


def test_transport_is_covariant():
    """Transport along a composite equals transport in two stages."""
    fib = torus_fiber(8, 3, 1)
    base = BaseModel(fib, 2)
    gpd = CyclicGroupoid(base, 2, pair_swap(2))
    # (swap then swap) is the unit, so a quarter shift is not an action of Z/2
    with pytest.raises(ModelError):
        FiberedGSpace(gpd, [Fraction(1, 4)])
    space = FiberedGSpace(gpd, [Fraction(1, 2)])
    rng = np.random.default_rng(3)
    f = rng.random(8)
    a1 = gpd.arrows_from(0)[1]
    a2 = gpd.arrows_from(1)[1]
    comp = oracle_compose(gpd, a1, a2)
    assert comp == gpd.units[0]
    two_step = space.transport(a2, space.transport(a1, f))
    one_step = space.transport(comp, f)
    assert np.allclose(two_step, one_step)


def test_cutoff_partition_identity_uniform_and_seeded():
    space = half_shift_space(8, 3)
    uniform = compute_cutoff(space)
    assert partition_defect(uniform) <= 1e-14
    assert np.allclose(uniform.fields[0], 0.5)

    rng = np.random.default_rng(11)
    seeds = [np.exp(rng.normal(size=64))]
    seeded = compute_cutoff(space, seeds)
    assert partition_defect(seeded) <= 1e-12
    assert seeded.fields[0].min() > 0
    assert not np.allclose(seeded.fields[0], 0.5)

    with pytest.raises(CoverageError):
        compute_cutoff(space, [np.zeros(64)])


def test_cutoff_partition_identity_multipoint():
    """Z/4 rotating a 4 point base with translation fiber maps."""
    fib = torus_fiber(8, 3, 1)
    base = BaseModel(fib, 4)
    space = FiberedGSpace(CyclicGroupoid(base, 4, rotation(4)), [Fraction(1, 4)])
    rng = np.random.default_rng(5)
    seeds = [np.exp(rng.normal(size=8)) for _ in range(4)]
    cut = compute_cutoff(space, seeds)
    assert partition_defect(cut) <= 1e-12


def test_modular_cocycle_ratio_and_loops():
    fib = torus_fiber(8, 3, 1)
    base = BaseModel(fib, 2)
    gpd = CyclicGroupoid(base, 2, pair_swap(2))
    space = FiberedGSpace.trivial(gpd)
    dens = TransversalDensity(space, [0.5, 2.0])
    hop = gpd.arrows_from(0)[1]
    assert dens.modular(hop) == pytest.approx(4.0)
    assert dens.modular(gpd.inverse(hop)) == pytest.approx(0.25)
    # any loop multiplies to 1
    loop = oracle_compose(gpd, hop, gpd.inverse(hop))
    assert dens.modular(loop) == pytest.approx(1.0)
