"""Tuple cochains, their differential, the derivative-wedge realization map."""
from fractions import Fraction

import numpy as np
import pytest

from indexpairing.cochains import ASCochain, d_as, van_est_realize
from indexpairing.density import compute_cutoff
from indexpairing.forms import DegreeError, d_leafwise
from indexpairing.grids import FiberModel, ModelError, grid_points, random_band_limited
from indexpairing.groupoid import BaseModel, CyclicGroupoid
from indexpairing.space import FiberedGSpace
from oracles import invariant_project_cochain, transport_cochain


def circle_base(n=16, N=5):
    return BaseModel(FiberModel(1, N, n), 1)


def torus_base(n=8, N=3):
    return BaseModel(FiberModel(2, N, n), 1)


def half_shift_space(n=8, N=3):
    base = torus_base(n, N)
    return FiberedGSpace(CyclicGroupoid(base, 2), [Fraction(1, 2), 0])


def elementary(base, rng, k, band=1):
    factors = []
    for _ in range(k + 1):
        factors.append(
            [random_band_limited(rng, base.fiber, band) for x in range(len(base))]
        )
    return ASCochain.elementary(base, factors, germ_radius=2.0)


def sample_tuples(rng, npoints, k, count=40):
    return rng.integers(npoints, size=(count, k + 1))


def test_d_as_degree_zero_difference():
    base = circle_base()
    rng = np.random.default_rng(1)
    f = random_band_limited(rng, base.fiber, 2)
    phi = ASCochain.elementary(base, [[f]], germ_radius=2.0)
    dphi = d_as(phi)
    tuples = sample_tuples(rng, 16, 1)
    vals = dphi.evaluate_batch(0, tuples)
    expect = f[tuples[:, 1]] - f[tuples[:, 0]]
    assert np.allclose(vals, expect, atol=1e-14)


def test_d_as_of_constant_vanishes():
    base = circle_base()
    phi = ASCochain.unit(base, germ_radius=2.0)
    dphi = d_as(phi)
    rng = np.random.default_rng(2)
    tuples = sample_tuples(rng, 16, 1)
    assert np.allclose(dphi.evaluate_batch(0, tuples), 0.0)


def test_d_as_squared_vanishes_on_sampled_tuples():
    base = torus_base()
    rng = np.random.default_rng(3)
    phi = elementary(base, rng, 1, band=2)
    dd = d_as(d_as(phi))
    tuples = sample_tuples(rng, 64, 3, count=200)
    assert np.max(np.abs(dd.evaluate_batch(0, tuples))) <= 1e-13


def test_germ_radius_validation():
    base = torus_base(n=8)
    with pytest.raises(ModelError):
        ASCochain.unit(base, germ_radius=-0.1)


def test_band_limit_enforced():
    base = circle_base(n=16, N=5)
    pts = grid_points(16, 1)
    rough = np.sign(np.sin(2 * np.pi * pts[:, 0]) + 0.3)
    with pytest.raises(ModelError):
        ASCochain.elementary(base, [[rough]], germ_radius=2.0)


def test_van_est_degree_zero_identity():
    base = circle_base()
    rng = np.random.default_rng(5)
    f = random_band_limited(rng, base.fiber, 2)
    out = van_est_realize(ASCochain.elementary(base, [[f]], germ_radius=2.0))
    assert np.allclose(out.fields[0][:, 0], f)


def test_van_est_circle_oracle():
    """(1, sin) realizes to the derivative of sin in grid coordinates."""
    base = circle_base()
    pts = grid_points(16, 1)
    ones = np.ones(16, dtype=complex)
    s = np.sin(2 * np.pi * pts[:, 0])
    out = van_est_realize(ASCochain.elementary(base, [[ones], [s]], germ_radius=2.0))
    assert out.degree == 1
    expect = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0])
    assert np.allclose(out.fields[0][:, 0], expect, atol=1e-10)


def test_van_est_constants_realize_to_zero():
    base = torus_base()
    ones = [np.ones(64, dtype=complex)]
    twos = [2 * np.ones(64, dtype=complex)]
    out = van_est_realize(ASCochain.elementary(base, [ones, twos, twos], germ_radius=2.0))
    assert out.max_abs() == 0.0


def test_van_est_rejects_degrees_beyond_fiber():
    base = circle_base()
    ones = [np.ones(16, dtype=complex)]
    with pytest.raises(DegreeError):
        van_est_realize(ASCochain.elementary(base, [ones, ones, ones], germ_radius=2.0))


def test_van_est_chain_map():
    """Realization intertwines the tuple differential with the leafwise one."""
    rng = np.random.default_rng(7)
    base = torus_base(n=8, N=3)
    worst = 0.0
    for k in (0, 1):
        for _ in range(10):
            phi = elementary(base, rng, k, band=1)
            lhs = van_est_realize(d_as(phi))
            rhs = d_leafwise(van_est_realize(phi), base)
            worst = max(worst, (lhs - rhs).max_abs())
    assert worst <= 1e-10


def test_van_est_equivariance():
    """Transport along an arrow commutes with the realization map."""
    space = half_shift_space()
    rng = np.random.default_rng(9)
    a = space.groupoid.arrows_from(0)[1]
    for k in (0, 1):
        phi = elementary(space.base, rng, k, band=2)
        lhs = space.transport(a, van_est_realize(phi).fields[a.src])
        rhs = van_est_realize(transport_cochain(space, a, phi)).fields[a.tgt]
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_invariant_project_cochain_invariance_and_fixing():
    space = half_shift_space()
    rng = np.random.default_rng(11)
    cut = compute_cutoff(space, [np.exp(np.real(random_band_limited(rng, space.base.fiber, 2)))])
    phi = elementary(space.base, rng, 1, band=2)
    proj = invariant_project_cochain(space, cut, phi)
    # invariance on tuples: value at x on a tuple equals value at t(a) on the
    # pointwise moved tuple
    a = space.groupoid.arrows_from(0)[1]
    perm = space.permutation(space.groupoid.inverse(a))
    tuples = sample_tuples(rng, 64, 1, count=100)
    lhs = proj.evaluate_batch(a.src, tuples)
    rhs = proj.evaluate_batch(a.tgt, perm[tuples])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # projecting an already invariant cochain changes nothing
    again = invariant_project_cochain(space, cut, proj)
    vals1 = proj.evaluate_batch(0, tuples)
    vals2 = again.evaluate_batch(0, tuples)
    assert np.max(np.abs(vals1 - vals2)) <= 1e-12
