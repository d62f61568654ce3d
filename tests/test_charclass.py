"""Characteristic forms: disc calculus, matrix calculus, model projectors."""
import tracemalloc
from functools import partial

import numpy as np
import pytest

from indexpairing.charclass import (
    DiscModel,
    chern_character_fiber,
    disc_charge,
    graph_symbol_projector,
    smoothstep_poly,
    twist_character,
    twist_projector,
)
from indexpairing import dolbeault
from indexpairing.charclass import CH_CURVATURE_SCALE, _chern_scalars, _projected_curvature
from indexpairing.forms import DegreeError, exterior_d, exterior_wedge
from indexpairing.grids import FiberModel, ModelError, random_band_limited, spectral_gradient
from indexpairing.symbols import EllipticityError
from indexpairing.topindex import dolbeault_symbol_values
from oracles import (
    chern_scalars_whole,
    disc_derivative,
    same_bits,
    smoothstep_exact,
    spectral_derivative,
    twist_character_whole,
)

# Orientation facts of the model projectors, frozen from the conventions in
# charclass (symbol phase on the lower off-diagonal, conjugated magnetic
# frame): the clutching (Bott) projector, the graph projector of xi1 + i*xi2,
# carries charge +1, the graph projector of a symbol of winding k carries
# charge +k, and the fiber twist projector of flux d integrates to -d.
BOTT_CHARGE = 1.0
TWIST_CHARGE_PER_FLUX = -1.0


def char_difference(ch1, ch2):
    """Largest pointwise deviation between two characters given by degree."""
    assert sorted(ch1) == sorted(ch2)
    return max(float(np.abs(ch1[deg] - ch2[deg]).max()) for deg in ch1)


def bott_projector(disc):
    return graph_symbol_projector(disc, dolbeault_symbol_values(disc))


def torus_fiber(n=26, N=8, dim=2):
    return FiberModel(dim, N, n)


def fiber_charge_of(ch):
    """Grid mean of the degree-2 character: its integral over the unit torus."""
    return ch[2][:, 0].mean()


def test_smoothstep_ramp_shape():
    u = np.linspace(0.0, 1.0, 401)
    m = smoothstep_poly(u)
    assert m[0] == 0.0
    assert abs(m[-1] - 1.0) < 1e-14
    assert np.all(np.diff(m) >= -1e-15)
    # flat to high order at both ends, and clamped outside the unit interval
    assert abs(smoothstep_poly(1e-2)) < 1e-13
    assert abs(smoothstep_poly(1.0 - 1e-2) - 1.0) < 1e-13
    assert abs(smoothstep_poly(0.5) - 0.5) < 1e-15
    assert smoothstep_poly(-3.0) == 0.0
    assert abs(smoothstep_poly(4.0) - 1.0) < 1e-14


def test_smoothstep_matches_the_exact_ramp():
    # a grid across [0, 1], the floats next to 1/2, random points and
    # points near both ends
    u = np.concatenate(
        [
            np.linspace(0.0, 1.0, 1001),
            np.nextafter(0.5, [0.0, 1.0]),
            np.random.default_rng(8).random(200),
            [1e-3, 1e-2, 0.3, 0.7, 1.0 - 1e-2],
        ]
    )
    got = smoothstep_poly(u)
    want = np.array([smoothstep_exact(x) for x in u])
    # in units of the last place of the exact value; at 0 both are exactly 0
    ulps = np.abs(got - want) / np.spacing(np.maximum(want, np.finfo(float).tiny))
    assert np.max(ulps) <= 8


def test_disc_quadrature_exact_on_polynomials():
    disc = DiscModel(3.0, 24, 16)
    R = disc.radius
    one = disc.integrate(np.ones(disc.nnodes))
    assert abs(one - np.pi * R**2) < 1e-12 * R**2
    quad = disc.integrate(disc.points[:, 0] ** 2 + disc.points[:, 1] ** 2)
    assert abs(quad - np.pi * R**4 / 2) < 1e-12 * R**4
    # odd moments vanish by angular symmetry
    assert abs(disc.integrate(disc.points[:, 0])) < 1e-12 * R**3


def test_disc_derivative_exact_on_polynomials():
    disc = DiscModel(9.0, 48, 48)
    x1, x2 = disc.points[:, 0], disc.points[:, 1]
    f = x1**2 * x2 - 2 * x2**3 + 3 * x1
    d0, d1 = disc.gradient(f, (0, 1))
    scale = np.abs(f).max()
    assert np.abs(d0 - (2 * x1 * x2 + 3)).max() < 1e-10 * scale
    assert np.abs(d1 - (x1**2 - 6 * x2**2)).max() < 1e-10 * scale


def test_disc_d_squared_vanishes_and_wedge_anticommutes():
    disc = DiscModel(4.0, 32, 24)
    x1, x2 = disc.points[:, 0], disc.points[:, 1]
    f = (x1**3 * x2 - x2**2 + 0.5 * x1)[:, None]
    ddf = exterior_d(exterior_d(f, 0, 2, disc.gradient), 1, 2, disc.gradient)
    assert np.abs(ddf).max() < 1e-9 * max(np.abs(f).max(), 1.0)
    a = exterior_d(f, 0, 2, disc.gradient)
    b = exterior_d((x1 * x2 + x2**3)[:, None], 0, 2, disc.gradient)
    comm = exterior_wedge(a, 1, b, 1, 2, np.multiply) + exterior_wedge(b, 1, a, 1, 2, np.multiply)
    assert np.abs(comm).max() < 1e-9 * (np.abs(a).max() * np.abs(b).max())
    with pytest.raises(DegreeError):
        exterior_d(exterior_wedge(a, 1, b, 1, 2, np.multiply), 2, 2, disc.gradient)


def test_bott_projector_unit_charge():
    disc = DiscModel(9.0, 48, 48)
    p = bott_projector(disc)
    assert np.abs(np.einsum("nij,njk->nik", p, p) - p).max() < 1e-12
    # the difference class has rank 0: p has the rank of its rim value
    assert np.abs(np.trace(p, axis1=1, axis2=2) - 1.0).max() < 1e-12
    assert abs(disc_charge(disc, p) - BOTT_CHARGE) < 1e-9


def test_graph_projector_charge_is_winding():
    disc = DiscModel(9.0, 48, 48)
    for k in (0, 1, -2):
        a = (1.0 + disc.rho**2) * np.exp(1j * k * disc.theta)
        charge = disc_charge(disc, graph_symbol_projector(disc, a))
        assert abs(charge - BOTT_CHARGE * k) < 1e-9


def test_graph_projector_rejects_vanishing_symbol():
    disc = DiscModel(3.0, 16, 16)
    values = disc.points[:, 0] + 1j * disc.points[:, 1]  # vanishes at the origin side
    values[0] = 0.0
    with pytest.raises(EllipticityError):
        graph_symbol_projector(disc, values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_graph_projector_rejects_non_finite_samples(bad):
    # a NaN fails every comparison of the vanishing test, so it is refused on its own
    disc = DiscModel(3.0, 16, 16)
    values = 1.0 + disc.points[:, 0] ** 2 + 0j
    values[5] = bad
    with pytest.raises(EllipticityError, match="not finite"):
        graph_symbol_projector(disc, values)


def test_chern_rejects_non_idempotent_field():
    disc = DiscModel(3.0, 16, 16)
    p = bott_projector(disc) * 1.1
    with pytest.raises(ModelError):
        disc_charge(disc, p)
    fiber = torus_fiber(n=18, N=8)
    with pytest.raises(ModelError):
        chern_character_fiber(fiber, twist_projector(fiber, 1) * 1.1)


def test_twist_projector_charges():
    fiber = torus_fiber()
    assert np.abs(twist_projector(fiber, 0) - 1.0).max() == 0.0
    for d in (1, 2, -3):
        p = twist_projector(fiber, d)
        assert np.abs(np.einsum("nij,njk->nik", p, p) - p).max() < 1e-12
        ch = chern_character_fiber(fiber, p)
        assert sorted(ch) == [0, 2]
        assert np.abs(ch[0] - 1.0).max() < 1e-12
        got = fiber_charge_of(ch)
        assert abs(got - TWIST_CHARGE_PER_FLUX * d) < 1e-9
    with pytest.raises(ModelError):
        twist_projector(FiberModel(1, 4, 12), 1)


def test_chern_additive_on_direct_sums():
    fiber = torus_fiber()
    p1 = twist_projector(fiber, 1)
    p2 = twist_projector(fiber, -2)
    m1, m2 = p1.shape[1], p2.shape[1]
    psum = np.zeros((fiber.npoints, m1 + m2, m1 + m2), dtype=complex)
    psum[:, :m1, :m1] = p1
    psum[:, m1:, m1:] = p2
    ch_sum = chern_character_fiber(fiber, psum)
    ch1, ch2 = (chern_character_fiber(fiber, p) for p in (p1, p2))
    ch_split = {deg: ch1[deg] + ch2[deg] for deg in ch1}
    # the degree-0 parts, ranks 2 and 1 + 1, are compared too
    assert char_difference(ch_sum, ch_split) < 1e-10


def test_chern_multiplicative_on_products():
    # two flux bundles on the two torus factors of a four-dimensional fiber
    n = 12
    fib4 = FiberModel(4, 2, n)
    fib2 = FiberModel(2, 2, n)
    p1 = twist_projector(fib2, 1)
    p2 = twist_projector(fib2, -2)
    m1, m2 = p1.shape[1], p2.shape[1]
    kron = np.einsum("aij,bkl->abikjl", p1, p2).reshape(n**4, m1 * m2, m1 * m2)
    ch = chern_character_fiber(fib4, kron)
    lift1 = np.repeat(p1, n**2, axis=0)
    lift2 = np.tile(p2, (n**2, 1, 1))
    ch1 = chern_character_fiber(fib4, lift1)
    ch2 = chern_character_fiber(fib4, lift2)
    prod = {
        q: sum(
            exterior_wedge(ch1[j], j, ch2[q - j], q - j, 4, np.multiply)
            for j in ch1
            if q - j in ch2
        )
        for q in ch
    }
    assert char_difference(ch, prod) < 1e-9
    # Top part integrates to the product of the factor charges.  The charge
    # itself converges with the grid (sharp values are pinned at n=26 above);
    # the product identity and closedness hold to round-off at any n.
    top = ch[4][:, 0].mean()
    want = (TWIST_CHARGE_PER_FLUX * 1) * (TWIST_CHARGE_PER_FLUX * -2)
    assert abs(top - want) < 2e-4
    dch2 = exterior_d(ch[2], 2, 4, partial(spectral_gradient, fiber=fib4))
    assert np.abs(dch2).max() < 1e-9


def test_curvature_satisfies_structure_and_bianchi():
    # R = d(gam) + gam ^ gam for a band-limited matrix connection 1-form;
    # the Bianchi identity checks the matrix-valued exterior_d and
    # exterior_wedge in dimension four
    rng = np.random.default_rng(7)
    fiber = FiberModel(4, 2, 12)
    gam = np.empty((fiber.npoints, 4, 2, 2), dtype=complex)
    for k in range(4):
        for i in range(2):
            for j in range(2):
                gam[:, k, i, j] = random_band_limited(rng, fiber, 1)
    grad = partial(spectral_gradient, fiber=fiber)
    R = exterior_d(gam, 1, 4, grad) + exterior_wedge(gam, 1, gam, 1, 4, np.matmul)
    dR = exterior_d(R, 2, 4, grad)
    comm = exterior_wedge(R, 2, gam, 1, 4, np.matmul) - exterior_wedge(gam, 1, R, 2, 4, np.matmul)
    assert np.abs(dR - comm).max() < 1e-6


def test_projected_curvature_matches_einsum_sandwich():
    # reference: the curvature p (dp ^ dp) p written as a three-operand einsum
    fiber = torus_fiber(n=16, N=6)
    p = twist_projector(fiber, 1)
    grad = partial(spectral_gradient, fiber=fiber)
    dp = exterior_d(p[:, None], 0, 2, grad)
    want = np.einsum("nij,ncjk,nkl->ncil", p, exterior_wedge(dp, 1, dp, 1, 2, np.matmul), p)
    got = _projected_curvature(p, dp, 2)
    assert np.abs(got - want).max() <= 1e-13
    # and the degree-2 Chern trace tr(p F) written as an einsum
    trace = CH_CURVATURE_SCALE * np.einsum("nij,ncji->nc", p, want)
    assert np.abs(_chern_scalars(p, 2, grad)[2] - trace).max() <= 1e-13


@pytest.mark.parametrize("trailing", [(), (2, 2)])
def test_disc_gradient_is_bitwise_the_per_axis_derivative(trailing):
    disc = DiscModel(9.0, 24, 16)
    rng = np.random.default_rng(11)
    shape = (disc.nnodes,) + trailing
    field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    field.reshape(disc.nnodes, -1)[:, 0] = -1.0
    want = [disc_derivative(disc, field, a) for a in (0, 1)]
    for axes in [(0, 1), (1,), (1, 0)]:
        got = disc.gradient(field, axes)
        assert all(same_bits(g, want[a]) for g, a in zip(got, axes))
    with pytest.raises(ModelError):
        disc.gradient(field, (2,))


def _oracle_case(site):
    """(p, dim, grad, per-axis oracle diff) of one field."""
    if site == "graph":
        disc = DiscModel(9.0, 48, 48)
        return bott_projector(disc), 2, disc.gradient, partial(disc_derivative, disc)
    if site == "flux24":
        # 1600 points of 24 x 24
        fiber, dim = FiberModel(2, 19, 40), 2
        p = twist_projector(fiber, 24)
    else:
        # the product of test_chern_multiplicative_on_products: 20736 points
        # of 4 x 4, and the j = 2 term
        n = 12
        fiber, dim, fib2 = FiberModel(4, 2, n), 4, FiberModel(2, 2, n)
        p1, p2 = twist_projector(fib2, 1), twist_projector(fib2, -2)
        p = np.einsum("aij,bkl->abikjl", p1, p2).reshape(n**4, 4, 4)
    return p, dim, partial(spectral_gradient, fiber=fiber), partial(spectral_derivative, fiber=fiber)


@pytest.mark.parametrize("site", ["flux24", "dim4-product", "graph"])
def test_chern_scalars_are_bitwise_the_whole_field_oracle(site):
    p, dim, grad, diff = _oracle_case(site)
    got = _chern_scalars(p, dim, grad)
    want = chern_scalars_whole(p, dim, diff)
    assert sorted(got) == sorted(want) == list(range(0, dim + 1, 2))
    assert all(same_bits(got[k], want[k]) for k in want)


def test_projector_gate_sees_a_bad_last_point():
    p, dim, grad, diff = _oracle_case("flux24")
    p[-1] *= 1.0 + 1e-6
    with pytest.raises(ModelError) as got:
        _chern_scalars(p, dim, grad)
    with pytest.raises(ModelError) as want:
        chern_scalars_whole(p, dim, diff)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# The flux-bundle character from its frame


@pytest.mark.parametrize("twist", [1, -1, 2, -2, 3, 24])
def test_twist_character_degree_zero_is_bitwise_the_projector_trace(twist):
    fiber = FiberModel(2, 19, 40)
    want = np.trace(twist_projector(fiber, twist), axis1=-2, axis2=-1).reshape(-1, 1)
    assert same_bits(twist_character(fiber, twist)[0], want)


@pytest.mark.parametrize("twist,n", [(1, 56), (-1, 56), (2, 40), (-2, 40), (3, 40), (24, 40)])
def test_twist_character_matches_the_projector_character_where_both_resolve(twist, n):
    fiber = FiberModel(2, n // 2 - 1, n)
    got = twist_character(fiber, twist)
    want = chern_character_fiber(fiber, twist_projector(fiber, twist))
    assert sorted(got) == sorted(want) == [0, 2]
    assert np.abs(got[2] - want[2]).max() <= 1e-11
    assert abs(fiber_charge_of(got) - TWIST_CHARGE_PER_FLUX * twist) <= 1e-12


def test_twist_character_of_zero_twist_is_the_constant_projector_character():
    fiber = torus_fiber()
    got = twist_character(fiber, 0)
    want = chern_character_fiber(fiber, twist_projector(fiber, 0))
    assert sorted(got) == sorted(want)
    assert all(same_bits(got[k], want[k]) for k in want)
    with pytest.raises(ModelError):
        twist_character(FiberModel(1, 4, 12), 2)


@pytest.mark.parametrize("point", [7, 26 * 26 - 1])
def test_degenerate_frame_raises_the_projector_error(point, monkeypatch):
    # a zero sample makes the density vanish at one point, in the first or
    # the last of the one-row blocks: the character refuses the frame before
    # it divides by that density, with the projector's message
    fiber = torus_fiber()
    rows = dolbeault.landau_rows
    monkeypatch.setattr(dolbeault, "SAMPLE_BLOCK_BYTES", 1)

    def vanishing_at_one_point(*args, **kwargs):
        for points, block in rows(*args, **kwargs):
            if points.start <= point < points.stop:
                block[0][point - points.start] = 0.0
            yield points, block

    monkeypatch.setattr(dolbeault, "landau_rows", vanishing_at_one_point)
    with pytest.raises(ModelError) as want:
        twist_projector(fiber, 3)
    with pytest.raises(ModelError) as got:
        twist_character(fiber, 3)
    assert str(got.value) == str(want.value) == "magnetic frame degenerates on the grid"


# block sizes of one z1 row, of several rows with a shorter last block,
# and of the whole grid
BLOCK_BYTES = {"one-row": lambda row: 1, "rows": lambda row: 3 * row, "grid": lambda row: 1 << 40}


@pytest.mark.parametrize("blocks", sorted(BLOCK_BYTES))
@pytest.mark.parametrize(
    "twist,n", [(1, 40), (-1, 40), (2, 40), (-2, 40), (3, 40), (24, 40), (200, 64)]
)
def test_streamed_twist_character_is_bitwise_the_whole_grid_one(twist, n, blocks, monkeypatch):
    fiber = FiberModel(2, n // 2 - 1, n)
    want = twist_character_whole(fiber, twist)
    width = abs(twist) * (2 if abs(twist) == 1 else 1)
    monkeypatch.setattr(dolbeault, "SAMPLE_BLOCK_BYTES", BLOCK_BYTES[blocks](n * width * 16))
    got = twist_character(fiber, twist)
    assert sorted(got) == sorted(want) == [0, 2]
    assert all(same_bits(got[k], want[k]) for k in want)


def test_twist_character_holds_no_array_the_size_of_the_samples():
    # twist 200 on grid 64: the whole-grid character peaked at 100 MiB, for
    # an output of 2 x 4096 complex values; the streamed one holds a few
    # row blocks of 200 KiB and the sampler's per-image factors
    fiber = FiberModel(2, 31, 64)
    tracemalloc.start()
    try:
        twist_character(fiber, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
