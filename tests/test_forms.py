"""Exterior calculus, invariant projection and integration of leafwise forms."""
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from indexpairing.density import compute_cutoff
from indexpairing.forms import (
    DegreeError,
    FoliatedForm,
    InvarianceError,
    d_leafwise,
    exterior_d,
    form_invariance_defect,
    index_subsets,
    integrate_invariant,
    invariant_project_form,
)
from indexpairing.grids import FiberModel, grid_points, random_band_limited, spectral_gradient
from indexpairing.space import FiberedGSpace
from oracles import (
    exterior_d_per_axis,
    form_invariance_defect_per_arrow,
    same_bits,
    scalar_form,
    spectral_derivative,
    volume_form,
    wedge,
)


def torus_fiber(n=8, N=3, dim=2):
    return FiberModel(dim, N, n)


def trivial_space(n=8, N=3, dim=2):
    return FiberedGSpace.trivial(torus_fiber(n, N, dim))


def half_shift_space(n=8, N=3):
    """Z/2 acting on T^2 by the half-period shift in the first coordinate."""
    return FiberedGSpace(torus_fiber(n, N, 2), 2, [Fraction(1, 2), 0])


def random_form(rng, fiber, degree, band=2):
    cols = [random_band_limited(rng, fiber, band) for _ in index_subsets(fiber.dim, degree)]
    return FoliatedForm(fiber, degree, np.stack(cols, axis=1))


def test_d_of_constant_is_zero():
    const = scalar_form(torus_fiber(), np.ones(64))
    out = d_leafwise(const)
    assert out.max_abs() == 0.0


def test_d_matches_spectral_oracle():
    fiber = torus_fiber(n=8, N=3)
    pts = grid_points(8, 2)
    f = np.sin(2 * np.pi * pts[:, 0])
    out = d_leafwise(scalar_form(fiber, f))
    expect = 2 * np.pi * np.cos(2 * np.pi * pts[:, 0])
    assert np.allclose(out.field[:, 0], expect, atol=1e-10)
    assert np.allclose(out.field[:, 1], 0, atol=1e-12)
    # an (npoints, m, m) block differentiates entry by entry
    rng = np.random.default_rng(4)
    block = np.stack(
        [random_band_limited(rng, fiber, 3) for _ in range(4)], axis=1
    ).reshape(-1, 2, 2)
    got = spectral_gradient(block, fiber, (0, 1))
    for i in range(2):
        for j in range(2):
            entry = spectral_gradient(block[:, i, j], fiber, (0, 1))
            assert all(same_bits(g[:, i, j], e) for g, e in zip(got, entry))


def _signed_zero_field(rng, fiber, trailing):
    """Random grid field whose first trailing entry is the constant -1.

    The derivatives of that entry are exact zeros, some of them -0.0, where
    a change of summation order or of the zero start shows in the sign bits.
    """
    shape = (fiber.npoints,) + trailing
    field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    field.reshape(fiber.npoints, -1)[:, 0] = -1.0
    return field


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("trailing", [(), (3, 3)])
def test_spectral_gradient_is_bitwise_the_per_axis_derivative(n, dim, trailing):
    fiber = FiberModel(dim, 3, n)
    field = _signed_zero_field(np.random.default_rng(n * dim), fiber, trailing)
    want = [spectral_derivative(field, a, fiber) for a in range(dim)]
    before = field.copy()
    got = spectral_gradient(field, fiber, tuple(range(dim)))
    assert all(same_bits(g, w) for g, w in zip(got, want))
    assert same_bits(field, before), "the transforms run in place on a copy"
    # one axis alone, or the axes out of order, give the same bits
    for axes in [(dim - 1,), tuple(reversed(range(dim)))]:
        got = spectral_gradient(field, fiber, axes)
        assert all(same_bits(g, want[a]) for g, a in zip(got, axes))


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("trailing", [(), (2, 2)])
def test_exterior_d_is_bitwise_the_per_axis_sum(dim, degree, trailing):
    fiber = FiberModel(dim, 3, 8)
    ncomp = len(index_subsets(dim, degree))
    field = _signed_zero_field(np.random.default_rng(dim + 7 * degree), fiber, (ncomp,) + trailing)
    got = exterior_d(field, degree, dim, partial(spectral_gradient, fiber=fiber))
    want = exterior_d_per_axis(field, degree, dim, partial(spectral_derivative, fiber=fiber))
    assert same_bits(got, want)


def test_d_squared_vanishes():
    rng = np.random.default_rng(2)
    fiber = torus_fiber(n=12, N=5, dim=3)
    for q in (0, 1):
        form = random_form(rng, fiber, q, band=2)
        dd = d_leafwise(d_leafwise(form))
        assert dd.max_abs() <= 1e-10 * max(form.max_abs(), 1.0)


def test_d_rejects_top_degree():
    fiber = torus_fiber()
    with pytest.raises(DegreeError):
        d_leafwise(volume_form(fiber))


def test_wedge_graded_commutativity_and_leibniz():
    rng = np.random.default_rng(4)
    fiber = torus_fiber(n=12, N=5, dim=3)
    for p, q in [(0, 1), (1, 1), (1, 2)]:
        a = random_form(rng, fiber, p, band=1)
        b = random_form(rng, fiber, q, band=1)
        ab = wedge(a, b)
        ba = wedge(b, a)
        sign = (-1) ** (p * q)
        assert (ab - ba.scaled(sign)).max_abs() <= 1e-12
        if p + q < 3:
            lhs = d_leafwise(ab)
            rhs = wedge(d_leafwise(a), b) + wedge(a, d_leafwise(b)).scaled(
                (-1) ** p
            )
            assert (lhs - rhs).max_abs() <= 1e-9


def test_transport_is_chain_map_with_d():
    """Transport by a translation commutes with the derivative."""
    rng = np.random.default_rng(9)
    fiber = torus_fiber(n=16, N=7)
    space = FiberedGSpace(fiber, 8, [Fraction(1, 4), Fraction(1, 8)])
    for q in (0, 1):
        form = random_form(rng, fiber, q, band=2)
        lhs = space.transport(1, d_leafwise(form).field)
        moved = FoliatedForm(fiber, q, space.transport(1, form.field))
        rhs = d_leafwise(moved).field
        assert np.max(np.abs(lhs)) > 1.0
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


@pytest.mark.parametrize("order", (2, 3, 4, 6))
@pytest.mark.parametrize("seeded", (False, True))
def test_form_gate_is_the_per_arrow_maximum(order, seeded):
    """The moving group elements up to m/2 give the float of every g != 0."""
    rng = np.random.default_rng(10 * order + seeded)
    fiber = FiberModel(2, 3, 12)
    seed = np.exp(np.real(random_band_limited(rng, fiber, 2))) if seeded else None
    for shift in ([Fraction(1, order), Fraction(5 % order, order)], [0, 0]):
        space = FiberedGSpace(fiber, order, shift)
        cut = compute_cutoff(space, seed)
        for q in (0, 1, 2):
            form = random_form(rng, fiber, q)
            assert (form_invariance_defect(space, form) > 0.0) == any(shift)
            # the averaged form leaves at most rounding for the gate to find
            for f in (form, invariant_project_form(space, cut, form)):
                got = form_invariance_defect(space, f)
                assert got == form_invariance_defect_per_arrow(space, f)


def test_invariant_projection_kills_odd_modes():
    """Half-period shift average of sin(2 pi z1) dz1 vanishes."""
    space = half_shift_space()
    cut = compute_cutoff(space)
    pts = grid_points(8, 2)
    field = np.zeros((64, 2), dtype=complex)
    field[:, 0] = np.sin(2 * np.pi * pts[:, 0])
    form = FoliatedForm(space.fiber, 1, field)
    proj = invariant_project_form(space, cut, form)
    assert proj.max_abs() <= 1e-12
    assert proj.invariant


def test_invariant_projection_fixes_invariants_and_is_idempotent():
    space = half_shift_space()
    rng = np.random.default_rng(21)
    seed = np.exp(np.real(random_band_limited(rng, space.fiber, 2)))
    cut = compute_cutoff(space, seed)
    form = random_form(rng, space.fiber, 1, band=3)
    proj = invariant_project_form(space, cut, form)
    assert form_invariance_defect(space, proj) <= 1e-11
    again = invariant_project_form(space, cut, proj)
    assert (again - proj).max_abs() <= 1e-12
    const = volume_form(space.fiber)
    fixed = invariant_project_form(space, cut, const)
    assert (fixed - const).max_abs() <= 1e-12


def test_projection_commutes_with_d():
    space = half_shift_space()
    rng = np.random.default_rng(23)
    cut = compute_cutoff(space)
    form = random_form(rng, space.fiber, 0, band=2)
    lhs = d_leafwise(invariant_project_form(space, cut, form))
    rhs = invariant_project_form(space, cut, d_leafwise(form))
    assert (lhs - rhs).max_abs() <= 1e-10


def test_integrate_volume_is_total_mass():
    space = trivial_space()
    cut = compute_cutoff(space)
    val = integrate_invariant(volume_form(space.fiber), cut)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_integrate_rejects_bad_inputs():
    space = trivial_space()
    cut = compute_cutoff(space)
    with pytest.raises(DegreeError):
        integrate_invariant(scalar_form(space.fiber, np.ones(64)), cut)
    vol = volume_form(space.fiber)
    vol.invariant = False
    with pytest.raises(InvarianceError):
        integrate_invariant(vol, cut)


def test_integral_of_exact_invariant_form_vanishes():
    space = half_shift_space(n=10, N=4)
    rng = np.random.default_rng(31)
    cut = compute_cutoff(space, np.exp(np.real(random_band_limited(rng, space.fiber, 2))))
    for _ in range(5):
        beta = invariant_project_form(
            space, cut, random_form(rng, space.fiber, 1, band=3)
        )
        dbeta = d_leafwise(beta)
        val = integrate_invariant(dbeta, cut)
        assert abs(val) <= 1e-11


def test_integral_independent_of_cutoff():
    space = half_shift_space(n=10, N=4)
    rng = np.random.default_rng(37)
    cut1 = compute_cutoff(space)
    cut2 = compute_cutoff(
        space, np.exp(np.real(random_band_limited(rng, space.fiber, 2)))
    )
    alpha = invariant_project_form(
        space, cut1, random_form(rng, space.fiber, 2, band=3)
    )
    v1 = integrate_invariant(alpha, cut1)
    v2 = integrate_invariant(alpha, cut2)
    assert v1 == pytest.approx(v2, abs=1e-11)
