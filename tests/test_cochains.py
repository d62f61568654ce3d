"""Tuple cochains, their differential, the derivative-wedge realization map."""
from fractions import Fraction

import numpy as np
import pytest

import indexpairing.cochains as cochains
from indexpairing.cochains import ASCochain, ASTerm, d_as
from indexpairing.density import compute_cutoff
from indexpairing.forms import DegreeError, FoliatedForm, d_leafwise
from indexpairing.grids import (
    FiberModel,
    ModelError,
    band_limit,
    grid_points,
    random_band_limited,
    spectral_gradient,
)
from indexpairing.space import FiberedGSpace
from oracles import (
    band_limit_dense,
    invariant_project_cochain,
    same_bits,
    transport_cochain,
    van_est_form_per_term,
)


def circle_fiber(n=16, N=5):
    return FiberModel(1, N, n)


def torus_fiber(n=8, N=3):
    return FiberModel(2, N, n)


def half_shift_space(n=8, N=3):
    return FiberedGSpace(torus_fiber(n, N), 2, [Fraction(1, 2), 0])


def elementary(fiber, rng, k, band=1):
    factors = [random_band_limited(rng, fiber, band) for _ in range(k + 1)]
    return ASCochain.elementary(fiber, factors, germ_radius=2.0)


def sample_tuples(rng, npoints, k, count=40):
    return rng.integers(npoints, size=(count, k + 1))


def test_d_as_degree_zero_difference():
    fiber = circle_fiber()
    rng = np.random.default_rng(1)
    f = random_band_limited(rng, fiber, 2)
    phi = ASCochain.elementary(fiber, [f], germ_radius=2.0)
    dphi = d_as(phi)
    tuples = sample_tuples(rng, 16, 1)
    vals = dphi.evaluate_batch(tuples)
    expect = f[tuples[:, 1]] - f[tuples[:, 0]]
    assert np.allclose(vals, expect, atol=1e-14)


def test_d_as_of_constant_vanishes():
    fiber = circle_fiber()
    phi = ASCochain.unit(fiber, germ_radius=2.0)
    dphi = d_as(phi)
    rng = np.random.default_rng(2)
    tuples = sample_tuples(rng, 16, 1)
    assert np.allclose(dphi.evaluate_batch(tuples), 0.0)


def test_d_as_squared_vanishes_on_sampled_tuples():
    fiber = torus_fiber()
    rng = np.random.default_rng(3)
    phi = elementary(fiber, rng, 1, band=2)
    dd = d_as(d_as(phi))
    tuples = sample_tuples(rng, 64, 3, count=200)
    assert np.max(np.abs(dd.evaluate_batch(tuples))) <= 1e-13


def test_germ_radius_validation():
    fiber = torus_fiber(n=8)
    with pytest.raises(ModelError):
        ASCochain.unit(fiber, germ_radius=-0.1)


def band_residual(field, fiber, project):
    return float(np.max(np.abs(field - project(field, fiber))))


def test_band_limit_enforced():
    fiber = circle_fiber(n=16, N=5)
    pts = grid_points(16, 1)
    rough = np.sign(np.sin(2 * np.pi * pts[:, 0]) + 0.3)
    with pytest.raises(ModelError):
        ASCochain.elementary(fiber, [rough], germ_radius=2.0)
    # the FFT projection measures the sawtooth's residual as the dense one does
    residuals = [band_residual(rough, fiber, p) for p in (band_limit, band_limit_dense)]
    assert abs(residuals[0] - residuals[1]) <= 1e-13


@pytest.mark.parametrize("dim,N,n", [(1, 5, 12), (1, 5, 13), (2, 4, 10), (2, 4, 11)])
def test_band_gate_is_no_looser_than_the_dense_projection(dim, N, n):
    # the gate reads max |f - band_limit(f)| against 1e-10: band-limited
    # fields pass, and one harmonic just past the box at amplitude 1e-9 is
    # refused, the FFT and the dense projection measuring the same residual
    fiber = FiberModel(dim, N, n)
    rng = np.random.default_rng(41)
    for band in (1, N):
        smooth = random_band_limited(rng, fiber, band)
        ASCochain.elementary(fiber, [smooth], germ_radius=2.0)
        assert band_residual(smooth, fiber, band_limit) <= 1e-13
    leak = 1e-9 * np.exp(2j * np.pi * (N + 1) * fiber.points()[:, -1])
    leaky = smooth + leak
    residuals = [band_residual(leaky, fiber, p) for p in (band_limit, band_limit_dense)]
    assert abs(residuals[0] - residuals[1]) <= 1e-13
    assert residuals[0] >= 0.9e-9
    with pytest.raises(ModelError, match="band-limited"):
        ASCochain.elementary(fiber, [leaky], germ_radius=2.0)


def test_cochain_holds_one_complex_field_per_slot():
    # real fields on the grid shape are cast once to flat complex fields,
    # and the cochain reads them on every tuple with no base point
    fiber = torus_fiber()
    rng = np.random.default_rng(13)
    grids = [
        random_band_limited(rng, fiber, 1).real.reshape(fiber.grid_shape)
        for _ in range(3)
    ]
    phi = ASCochain(fiber, 2, [ASTerm(0.5j, tuple(grids))], germ_radius=2.0)
    (term,) = phi.terms
    assert len(term.factors) == 3
    for f, g in zip(term.factors, grids):
        assert f.dtype == complex and f.shape == (fiber.npoints,)
        assert np.array_equal(f, g.reshape(-1))
    tuples = sample_tuples(rng, fiber.npoints, 2)
    flat = [g.reshape(-1) for g in grids]
    expect = 0.5j * flat[0][tuples[:, 0]] * flat[1][tuples[:, 1]] * flat[2][tuples[:, 2]]
    assert np.max(np.abs(phi.evaluate_batch(tuples) - expect)) <= 1e-15


def test_cochain_factor_count_and_size_checked():
    fiber = torus_fiber()
    ones = np.ones(fiber.npoints)
    with pytest.raises(DegreeError, match="nonnegative"):
        ASCochain(fiber, -1, [], germ_radius=2.0)
    with pytest.raises(DegreeError, match="degree\\+1 factors"):
        ASCochain(fiber, 1, [ASTerm(1.0, (ones,))], germ_radius=2.0)
    with pytest.raises(ModelError, match="match the fiber"):
        ASCochain.elementary(fiber, [ones, np.ones(fiber.npoints - 1)], germ_radius=2.0)


def test_d_as_inserts_one_ones_field():
    # the differential of a degree-1 term is three terms, each with the one
    # ones-field inserted at its slot, and reads the alternating sum
    fiber = torus_fiber()
    rng = np.random.default_rng(17)
    phi = elementary(fiber, rng, 1, band=2)
    dphi = d_as(phi)
    assert dphi.degree == 2 and len(dphi.terms) == 3
    inserted = [t.factors[i] for i, t in enumerate(dphi.terms)]
    assert all(np.shares_memory(f, inserted[0]) for f in inserted)
    assert np.array_equal(inserted[0], np.ones(fiber.npoints, dtype=complex))
    assert [t.weight for t in dphi.terms] == [1.0, -1.0, 1.0]
    tuples = sample_tuples(rng, fiber.npoints, 2)
    expect = (
        phi.evaluate_batch(tuples[:, [1, 2]])
        - phi.evaluate_batch(tuples[:, [0, 2]])
        + phi.evaluate_batch(tuples[:, [0, 1]])
    )
    assert np.max(np.abs(dphi.evaluate_batch(tuples) - expect)) <= 1e-14


def test_van_est_form_is_one_field_on_the_fiber():
    fiber = torus_fiber()
    rng = np.random.default_rng(19)
    phi = elementary(fiber, rng, 1, band=2)
    form = phi.van_est_form()
    assert (form.fiber, form.degree, form.field.shape) == (fiber, 1, (fiber.npoints, 2))
    f0, f1 = phi.terms[0].factors
    df1 = spectral_gradient(f1, fiber, (0, 1))
    assert all(np.allclose(form.field[:, j], f0 * df1[j], atol=1e-12) for j in (0, 1))
    # one array, not one per base point
    with pytest.raises(DegreeError):
        FoliatedForm(fiber, 1, [form.field] * 3)


def test_van_est_degree_zero_identity():
    fiber = circle_fiber()
    rng = np.random.default_rng(5)
    f = random_band_limited(rng, fiber, 2)
    out = ASCochain.elementary(fiber, [f], germ_radius=2.0).van_est_form()
    assert np.allclose(out.field[:, 0], f)


def test_van_est_circle_oracle():
    """(1, sin) realizes to the derivative of sin in grid coordinates."""
    fiber = circle_fiber()
    pts = grid_points(16, 1)
    ones = np.ones(16, dtype=complex)
    s = np.sin(2 * np.pi * pts[:, 0])
    out = ASCochain.elementary(fiber, [ones, s], germ_radius=2.0).van_est_form()
    assert out.degree == 1
    expect = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0])
    assert np.allclose(out.field[:, 0], expect, atol=1e-10)


def test_van_est_constants_realize_to_zero():
    fiber = torus_fiber()
    ones = np.ones(64, dtype=complex)
    twos = 2 * np.ones(64, dtype=complex)
    phi = ASCochain.elementary(fiber, [ones, twos, twos], germ_radius=2.0)
    out = phi.van_est_form()
    assert out.max_abs() == 0.0


def test_van_est_rejects_degrees_beyond_fiber():
    fiber = circle_fiber()
    ones = np.ones(16, dtype=complex)
    phi = ASCochain.elementary(fiber, [ones, ones, ones], germ_radius=2.0)
    with pytest.raises(DegreeError):
        phi.van_est_form()


def test_van_est_chain_map():
    """Realization intertwines the tuple differential with the leafwise one."""
    rng = np.random.default_rng(7)
    fiber = torus_fiber(n=8, N=3)
    worst = 0.0
    for k in (0, 1):
        for _ in range(10):
            phi = elementary(fiber, rng, k, band=1)
            lhs = d_as(phi).van_est_form()
            rhs = d_leafwise(phi.van_est_form())
            worst = max(worst, (lhs - rhs).max_abs())
    assert worst <= 1e-10


def test_van_est_form_differentiates_each_distinct_factor_once(monkeypatch):
    # d_as of (f0, f1) is (1, f0, f1) - (f0, 1, f1) + (f0, f1, 1): the
    # differentiated slots hold f0, f1 and the ones field, three distinct
    # fields in six slots; a second term repeats f1
    rng = np.random.default_rng(13)
    fiber = torus_fiber()
    f0, f1, f2 = (random_band_limited(rng, fiber, 2) for _ in range(3))
    phi = ASCochain(fiber, 1, [ASTerm(1.0, (f0, f1)), ASTerm(0.5j, (f2, f1))], germ_radius=2.0)
    dphi = d_as(phi)
    calls = []
    counted = cochains.exterior_d

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(cochains, "exterior_d", counting)
    form = dphi.van_est_form()
    assert len(calls) == 4
    monkeypatch.undo()
    expect = van_est_form_per_term(dphi)
    assert (form.degree, form.fiber) == (expect.degree, expect.fiber)
    assert same_bits(form.field, expect.field)
    assert same_bits(phi.van_est_form().field, van_est_form_per_term(phi).field)


def test_van_est_equivariance():
    """Transport by a group element commutes with the realization map."""
    space = half_shift_space()
    rng = np.random.default_rng(9)
    for k in (0, 1):
        phi = elementary(space.fiber, rng, k, band=2)
        lhs = space.transport(1, phi.van_est_form().field)
        rhs = transport_cochain(space, 1, phi).van_est_form().field
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_invariant_project_cochain_invariance_and_fixing():
    space = half_shift_space()
    rng = np.random.default_rng(11)
    cut = compute_cutoff(space, np.exp(np.real(random_band_limited(rng, space.fiber, 2))))
    phi = elementary(space.fiber, rng, 1, band=2)
    proj = invariant_project_cochain(space, cut, phi)
    # invariance on tuples: the value on a tuple equals the value on the
    # pointwise moved tuple
    perm = space.permutation(-1)
    tuples = sample_tuples(rng, 64, 1, count=100)
    lhs = proj.evaluate_batch(tuples)
    rhs = proj.evaluate_batch(perm[tuples])
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    # projecting an already invariant cochain changes nothing
    again = invariant_project_cochain(space, cut, proj)
    vals1 = proj.evaluate_batch(tuples)
    vals2 = again.evaluate_batch(tuples)
    assert np.max(np.abs(vals1 - vals2)) <= 1e-12
