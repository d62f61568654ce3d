from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from indexpairing.charclass import DiscModel
from indexpairing.cochains import ASCochain, ASTerm, d_as
from indexpairing.density import compute_cutoff
from indexpairing.dolbeault import dolbeault_family
from indexpairing.forms import FoliatedForm, InvarianceError, integrate_invariant
from indexpairing.grids import FiberModel, ModelError, grid_points, random_band_limited
from indexpairing.operators import SmoothingKernel, SupportMismatchError, trace_tau
from indexpairing import pairing, parametrix
from indexpairing.pairing import (
    ProfileCochain,
    TransitionProfile,
    _weighted_elementary_chain,
    _weighted_profile_chain,
    pair_cocycle,
)
from indexpairing.parametrix import IndexIdempotent, ProjectorFrame, index_idempotent
from indexpairing.space import FiberedGSpace
from indexpairing.symbols import SMOOTHING_ORDER, SymbolData, trace_symbol_formula
from indexpairing.topindex import free_action_reduction, symbol_class_dolbeault, topological_index
from oracles import (
    dense_elementary_chain,
    fourier_coefficients,
    mass_weighted_sum,
    profile_chain_whole_stack,
    to_elementary,
)


def trivial_space(n=20, N=8):
    return FiberedGSpace.trivial(FiberModel(2, N, n))


def half_shift_space(n=20, N=8):
    return FiberedGSpace(FiberModel(2, N, n), 2, [Fraction(1, 2), Fraction(1, 2)])


def elementary_one_cochain(rng, fiber, band=2, germ=2.0):
    fields = [random_band_limited(rng, fiber, band=band) for _ in range(2)]
    return ASCochain.elementary(fiber, fields, germ_radius=germ)


def profile_values(phi, x, tuples):
    """Pointwise values of a profile cochain: the product of its leg profiles."""
    fiber = phi.fiber
    pts = grid_points(fiber.grid_size, fiber.dim)
    tuples = np.asarray(tuples, dtype=int)
    assert tuples.ndim == 2 and tuples.shape[1] == phi.degree + 1
    out = np.ones(len(tuples))
    for i, (axis, prof) in enumerate(phi.legs):
        out = out * prof(pts[tuples[:, i + 1], axis] - pts[tuples[:, i], axis])
    return out


def test_profile_linear_region_is_exact():
    p = TransitionProfile(linear_radius=0.45)
    t = np.array([0.0, 0.1, -0.3, 0.45, -0.45])
    assert np.array_equal(p(t), t)
    assert p(0.5) == 0.0


def test_profile_is_odd_and_periodic():
    p = TransitionProfile(linear_radius=0.3)
    t = np.linspace(-0.5, 0.5, 173)
    assert np.max(np.abs(p(t) + p(-t))) == 0.0
    # t + 1.0 is inexact at the last bit; the window slope amplifies it
    assert np.max(np.abs(p(t + 1.0) - p(t))) <= 5e-15


def test_profile_compact_support():
    p = TransitionProfile(linear_radius=0.10, support_radius=0.22)
    t = np.linspace(0.22, 0.5, 57)
    assert np.max(np.abs(p(t))) == 0.0
    assert p(0.08) == 0.08


def test_profile_validation():
    with pytest.raises(ModelError):
        TransitionProfile(linear_radius=0.5)
    with pytest.raises(ModelError):
        TransitionProfile(linear_radius=0.3, support_radius=0.2)
    with pytest.raises(ModelError):
        TransitionProfile(linear_radius=0.0)


def test_profile_fourier_reconstruction():
    p = TransitionProfile(linear_radius=0.2)
    band = 16
    coef = fourier_coefficients(p, band)
    t = np.linspace(0.0, 1.0, 511, endpoint=False)
    modes = np.arange(-band, band + 1)
    recon = (coef[None, :] * np.exp(2j * np.pi * np.outer(t, modes))).sum(axis=1)
    assert np.max(np.abs(recon - p(t))) <= 2e-5


def test_profile_cochain_evaluates_leg_products():
    saw = TransitionProfile(linear_radius=0.45)
    phi = ProfileCochain(FiberModel(2, 3, 12), [(0, saw), (1, saw)])
    assert phi.degree == 2
    assert phi.germ_radius == 0.45
    pts = np.stack(
        np.meshgrid(*([np.arange(12) / 12.0] * 2), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    tuples = np.array([[0, 13, 27], [5, 5, 5], [3, 40, 100]])
    vals = profile_values(phi, 0, tuples)
    for row, val in zip(tuples, vals):
        h1 = pts[row[1], 0] - pts[row[0], 0]
        h2 = pts[row[2], 1] - pts[row[1], 1]
        assert abs(val - float(saw(h1) * saw(h2))) <= 1e-15
    assert vals[1] == 0.0


def test_profile_cochain_masks_are_antisymmetric():
    saw = TransitionProfile(linear_radius=0.4)
    for n in (10, 20):
        phi = ProfileCochain(FiberModel(2, 3, n), [(0, saw), (1, saw)])
        pts = grid_points(n, 2)
        for leg in range(2):
            W = phi.leg_mask(leg, 0, n * n)
            assert np.max(np.abs(W + W.T)) == 0.0
            assert np.max(np.abs(np.diag(W))) == 0.0
            # the gathered mask is the profile of every pointwise difference,
            # bitwise (the profile of the differences reduced mod 1 is not)
            coords = pts[:, leg]
            assert np.array_equal(W, saw(coords[None, :] - coords[:, None]))


def test_profile_cochain_validation():
    fiber = FiberModel(2, 3, 10)
    saw = TransitionProfile()
    with pytest.raises(ModelError):
        ProfileCochain(fiber, [(0, saw)])
    with pytest.raises(ModelError):
        ProfileCochain(fiber, [])
    with pytest.raises(ModelError, match="exactly two legs, got 4"):
        ProfileCochain(fiber, [(0, saw), (1, saw)] * 2)
    with pytest.raises(ModelError):
        ProfileCochain(fiber, [(2, saw), (0, saw)])
    compact = TransitionProfile(linear_radius=0.1, support_radius=0.2)
    mixed = ProfileCochain(fiber, [(0, compact), (1, TransitionProfile(0.45))])
    assert mixed.germ_radius == 0.1


def test_van_est_form_is_constant_signed_volume():
    fiber = FiberModel(2, 4, 12)
    saw = TransitionProfile()

    def form(legs):
        return ProfileCochain(fiber, legs).van_est_form()

    aligned = form([(0, saw), (1, saw)])
    flipped = form([(1, saw), (0, saw)])
    repeated = form([(0, saw), (0, saw)])
    assert aligned.degree == 2 and aligned.ncomp == 1
    assert np.all(aligned.field == 1.0)
    assert np.all(flipped.field == -1.0)
    assert np.all(repeated.field == 0.0)


def test_to_elementary_matches_profile_values():
    fiber = FiberModel(2, 16, 34)
    soft = TransitionProfile(linear_radius=0.2)
    phi = ProfileCochain(fiber, [(0, soft), (1, soft)])
    elem = to_elementary(phi)
    rng = np.random.default_rng(3)
    tuples = rng.integers(0, 34 * 34, size=(40, 3))
    direct = profile_values(phi, 0, tuples)
    expanded = elem.evaluate_batch(tuples)
    assert np.max(np.abs(direct - expanded)) <= 2e-4

    gap = (elem.van_est_form() - phi.van_est_form()).max_abs()
    assert gap <= 2e-3


def test_pairing_unit_recovers_analytic_index():
    space = trivial_space(n=20, N=8)
    cutoff = compute_cutoff(space)
    unit = ASCochain.unit(space.fiber, germ_radius=2.0)
    for d in (1, -2):
        idem = index_idempotent(dolbeault_family(space.fiber, d, levels=2))
        value = pair_cocycle(idem, unit, space, cutoff)
        assert abs(value - d) <= 1e-9


def test_pairing_of_zero_idempotent_vanishes():
    space = trivial_space(n=12, N=4)
    cutoff = compute_cutoff(space)
    fiber = space.fiber
    zero = SmoothingKernel(fiber, None)
    idem = IndexIdempotent(fiber, zero, zero, np.inf)
    unit = ASCochain.unit(space.fiber, germ_radius=2.0)
    assert pair_cocycle(idem, unit, space, cutoff) == 0
    saw = TransitionProfile()
    phi = ProfileCochain(fiber, [(0, saw), (1, saw)])
    assert pair_cocycle(idem, phi, space, cutoff) == 0


def test_pairing_kills_coboundaries_trivial_group():
    space = trivial_space(n=20, N=8)
    cutoff = compute_cutoff(space)
    idem = index_idempotent(dolbeault_family(space.fiber, 2, levels=2))
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = elementary_one_cochain(rng, space.fiber)
        value = pair_cocycle(idem, d_as(psi), space, cutoff)
        assert abs(value) <= 1e-10


def test_pairing_kills_coboundaries_shift_group():
    space = half_shift_space(n=20, N=8)
    cutoff = compute_cutoff(space)
    idem = index_idempotent(dolbeault_family(space.fiber, 2, levels=2))
    rng = np.random.default_rng(23)
    for _ in range(3):
        fields = []
        for _ in range(2):
            f = random_band_limited(rng, space.fiber, band=2)
            fields.append(f + space.transport(-1, f))
        psi = ASCochain.elementary(space.fiber, fields, germ_radius=2.0)
        value = pair_cocycle(idem, d_as(psi), space, cutoff)
        assert abs(value) <= 1e-8


# Truncating at radius 0.45 with flux 8 leaves a kernel tail of order 1e-3;
# the localized idempotent sits that far from the exact one, and the pairing,
# stationary on the idempotent variety, moves at the squared-tail scale.  The
# k = 0 pairing below is the trace, which the localized projector keeps at
# the rank (measured 0.0).  Stronger flux localizes harder: the flux-16
# k = 1 comparison lands at 9.8e-7 and the flux-32 acceptance run at 2.4e-9.


def test_pairing_homotopy_stability_k0():
    space = trivial_space(n=24, N=8)
    cutoff = compute_cutoff(space)
    block = dolbeault_family(space.fiber, 8, levels=2)
    exact = index_idempotent(block)
    localized = index_idempotent(block, radius=0.45)
    unit = ASCochain.unit(space.fiber, germ_radius=2.0)
    a = pair_cocycle(exact, unit, space, cutoff)
    b = pair_cocycle(localized, unit, space, cutoff)
    assert abs(a - 8) <= 1e-9
    assert abs(a - b) <= 2e-6


def test_pairing_homotopy_stability_k1():
    # both truncation radii stay inside the sawtooth linear region, so the
    # chain identity holds on every tuple the kernels produce and the two
    # localized idempotents pair to the same class value
    space = trivial_space(n=32, N=15)
    cutoff = compute_cutoff(space)
    block = dolbeault_family(space.fiber, 16, levels=2)
    saw = TransitionProfile(linear_radius=0.45)
    phi = ProfileCochain(space.fiber, [(0, saw), (1, saw)])
    a = pair_cocycle(index_idempotent(block, radius=0.45), phi, space, cutoff)
    b = pair_cocycle(index_idempotent(block, radius=0.36), phi, space, cutoff)
    assert abs(a - b) <= 5e-6


def test_pairing_matches_volume_class_value():
    # flux 16 localizes the index kernel mostly inside the sawtooth linear
    # region, so the chain quadrature reproduces the transverse volume
    # pairing -1/(2 pi i) independently of the flux.  The residual is the
    # kernel mass beyond the linear radius, about exp(-pi * |flux| * lr^2):
    # measured 1.5e-5 here and 1.0e-9 at flux 32, stable under grid, band,
    # flow tolerance, and truncation radius changes.  At flux -16 the whole
    # value comes from the cokernel family S1.
    space = trivial_space(n=32, N=15)
    cutoff = compute_cutoff(space)
    saw = TransitionProfile(linear_radius=0.45)
    phi = ProfileCochain(space.fiber, [(0, saw), (1, saw)])
    for flux in (16, -16):
        idem = index_idempotent(dolbeault_family(space.fiber, flux, levels=2), radius=0.45)
        value = pair_cocycle(idem, phi, space, cutoff)
        assert abs(value - (-1.0 / (2.0j * np.pi))) <= 5e-5


def test_profile_pairing_contracts_the_chain_once_for_every_base_point(monkeypatch):
    # three points with masses 0.5, 1 and 2 and cutoff fields that differ
    # from point to point, as the per-point oracle holds them: for a profile
    # and for an elementary 2-cochain the chain runs once per nonzero
    # projector (S1 of flux 8 is zero) against the one weight field, and its
    # value is the mass-weighted sum of the values each point's cutoff gives
    masses = (0.5, 1.0, 2.0)
    fiber = FiberModel(2, 8, 24)
    idem = index_idempotent(dolbeault_family(fiber, 8, levels=2), radius=0.45)
    saw = TransitionProfile(linear_radius=0.45)
    rng = np.random.default_rng(47)
    factors = [random_band_limited(rng, fiber, band=2) for _ in range(3)]
    cochains = {
        "_weighted_profile_chain": ProfileCochain(fiber, [(0, saw), (1, saw)]),
        "_weighted_elementary_chain": ASCochain.elementary(fiber, factors, germ_radius=2.0),
    }
    pts = grid_points(fiber.grid_size, 2)
    fields = [1.0 + 0.5 * np.cos(2 * np.pi * (x + 1) * pts[:, x % 2]) for x in range(3)]
    calls = []

    def counted(inner):
        def chain(*args):
            calls.append(inner.__name__)
            return inner(*args)

        return chain

    for name in cochains:
        monkeypatch.setattr(pairing, name, counted(getattr(pairing, name)))

    space = FiberedGSpace.trivial(fiber)

    def pair(phi, weight):
        return pair_cocycle(idem, phi, space, weight)

    for name, phi in cochains.items():
        calls.clear()
        value = pair(phi, mass_weighted_sum(masses, fields))
        assert calls == [name]
        singles = [pair(phi, c) for c in fields]
        assert calls == [name] * 4
        want = sum(m * v for m, v in zip(masses, singles))
        # the elementary cochain is no coboundary: its chain does not vanish
        assert abs(want) > 1e-3
        assert abs(value - want) <= 1e-14 * abs(want), name


def test_degree_zero_pairing_evaluates_the_cochain_once(monkeypatch):
    # a degree-0 cochain is one field on the fiber: it is evaluated once for
    # the weight field of a three-point base, and the pairing is the
    # mass-weighted sum of the values each point's cutoff gives
    masses = (0.5, 1.0, 2.0)
    fiber = FiberModel(2, 4, 12)
    idem = index_idempotent(dolbeault_family(fiber, 2, levels=2))
    rng = np.random.default_rng(53)
    phi = ASCochain.elementary(fiber, [random_band_limited(rng, fiber, band=2)], 2.0)
    pts = grid_points(fiber.grid_size, 2)
    fields = [1.0 + 0.5 * np.sin(2 * np.pi * (x + 1) * pts[:, x % 2]) for x in range(3)]
    calls = []
    evaluate = phi.evaluate_batch

    def counted(tuples):
        calls.append(len(tuples))
        return evaluate(tuples)

    monkeypatch.setattr(phi, "evaluate_batch", counted)

    space = FiberedGSpace.trivial(fiber)
    value = pair_cocycle(idem, phi, space, mass_weighted_sum(masses, fields))
    assert calls == [fiber.npoints]
    want = sum(m * pair_cocycle(idem, phi, space, c) for m, c in zip(masses, fields))
    assert abs(want) > 1e-3
    assert abs(value - want) <= 1e-14 * abs(want)


def _weighted_quadratures(fiber):
    """name -> quadrature(space, weight) of every route that weighs by the base.

    The half shift moves the fiber, so the trace and the class integral pass
    their invariance gates, and acts freely, as the reduction needs.
    """
    s0 = index_idempotent(dolbeault_family(fiber, 2, levels=2)).skernel
    modes = fiber.modes().astype(float)
    table = np.exp(-np.sum(modes**2, axis=1))[None, :] * np.ones((fiber.npoints, 1))
    sym = SymbolData(fiber, SMOOTHING_ORDER, table)
    pts = grid_points(fiber.grid_size, 2)
    wave = 1.0 + 0.3 * np.cos(2 * np.pi * (pts[:, 0] + pts[:, 1]))
    top = FoliatedForm(fiber, 2, wave.reshape(-1, 1), invariant=True)
    unit = FoliatedForm(fiber, 0, np.ones((fiber.npoints, 1)), invariant=True)
    sclass = symbol_class_dolbeault(fiber, DiscModel(5.0, 24, 24), 2)
    return {
        "trace_tau": lambda sp, w: trace_tau(s0, sp, w),
        "trace_symbol_formula": lambda sp, w: trace_symbol_formula(sym, w),
        "integrate_invariant": lambda sp, w: integrate_invariant(top, w),
        "topological_index": lambda sp, w: topological_index(sp, w, unit, sclass),
        "free_action_reduction": lambda sp, w: free_action_reduction(sp, w, unit, sclass),
    }


@pytest.mark.parametrize(
    "name",
    [
        "trace_tau",
        "trace_symbol_formula",
        "integrate_invariant",
        "topological_index",
        "free_action_reduction",
    ],
)
def test_weighted_quadratures_are_linear_in_the_weight_field(name):
    # three fields with coefficients 0.5, 1 and 2, as three base points
    # with distinct cutoff fields and masses would give, under the half
    # shift: every quadrature reads one weight field, linearly, so the
    # weighted sum of the fields gives the weighted sum of the values
    coefficients = (0.5, 1.0, 2.0)
    fiber = FiberModel(2, 4, 12)
    space = FiberedGSpace(fiber, 2, [Fraction(1, 2), Fraction(1, 2)])
    pts = grid_points(fiber.grid_size, 2)
    fields = [1.0 + 0.5 * np.cos(2 * np.pi * (x + 1) * pts[:, x % 2]) for x in range(3)]
    quadrature = _weighted_quadratures(fiber)[name]
    got = quadrature(space, mass_weighted_sum(coefficients, fields))
    want = sum(a * quadrature(space, f) for a, f in zip(coefficients, fields))
    assert abs(want) > 1e-3
    assert abs(got - want) <= 1e-14 * abs(want)
    assert quadrature(space, np.zeros(fiber.npoints)) == 0


@pytest.mark.parametrize("radius", [None, 0.45])
def test_elementary_pairing_of_a_frame_matches_the_dense_path(radius):
    # the elementary chain reads the Gram matrices of the projector's frame
    # (8 blocks of 72, cut or not, here); the chain of the dense
    # expansion of its block row pairs alike, with the Chern weight -2
    space = trivial_space(n=24, N=8)
    cutoff = compute_cutoff(space)
    fiber = space.fiber
    idem = index_idempotent(dolbeault_family(fiber, 8, levels=2), radius=radius)
    assert idem.skernel.order == 8 and idem.cokernel.row is None
    rng = np.random.default_rng(43)
    factors = [random_band_limited(rng, fiber, band=2) for _ in range(3)]
    phi = ASCochain.elementary(fiber, factors, germ_radius=2.0)
    got = pair_cocycle(idem, phi, space, cutoff)
    want = -2 * dense_elementary_chain(phi, cutoff, idem.skernel.row)
    assert abs(want) > 1e-3
    assert abs(got - want) <= 1e-13 * abs(want)


def test_pairing_rejects_bad_inputs():
    space = trivial_space(n=12, N=4)
    cutoff = compute_cutoff(space)
    idem = index_idempotent(dolbeault_family(space.fiber, 1, levels=1))
    fiber = space.fiber
    ones = np.ones(fiber.npoints, dtype=complex)
    with pytest.raises(ModelError):
        pair_cocycle(idem, ASCochain.elementary(fiber, [ones, ones], germ_radius=2.0), space, cutoff
        )
    quartic = ASCochain.elementary(fiber, [ones] * 5, germ_radius=2.0)
    with pytest.raises(ModelError):
        pair_cocycle(idem, quartic, space, cutoff)


def test_pairing_support_gate(monkeypatch):
    space = trivial_space(n=12, N=4)
    cutoff = compute_cutoff(space)
    idem = index_idempotent(dolbeault_family(space.fiber, 1, levels=1))
    distances = []
    inner = parametrix.squared_tick_distances

    def counted(fiber, rows):
        distances.append(rows)
        return inner(fiber, rows)

    monkeypatch.setattr(parametrix, "squared_tick_distances", counted)
    tight = ASCochain.unit(space.fiber, germ_radius=3.0 / 12)  # three grid steps
    with pytest.raises(SupportMismatchError):
        pair_cocycle(idem, tight, space, cutoff)
    # compact legs do not widen the trust region: the unlocalized kernel
    # reaches their roll-off, where the cochain stops being a cocycle
    compact = TransitionProfile(linear_radius=0.1, support_radius=0.2)
    phi = ProfileCochain(space.fiber, [(0, compact), (1, compact)])
    with pytest.raises(SupportMismatchError):
        pair_cocycle(idem, phi, space, cutoff)
    wide = ASCochain.unit(space.fiber, germ_radius=2.0)
    pair_cocycle(idem, wide, space, cutoff)
    # the reach of the unlocalized kernel is measured once, on its one
    # nonzero projector, for all three pairings
    assert distances == [space.fiber.npoints]


def test_pairing_rejects_noninvariant_kernels():
    space = half_shift_space(n=12, N=4)
    cutoff = compute_cutoff(space)
    rng = np.random.default_rng(5)
    fiber = space.fiber
    npts = fiber.npoints
    raw = rng.standard_normal((npts, 3)) + 1j * rng.standard_normal((npts, 3))
    # an invariant (zero) kernel and a non-invariant cokernel projector: the
    # gate has to look at both
    zero = SmoothingKernel(fiber, None)
    idem = IndexIdempotent(fiber, zero, ProjectorFrame(fiber, raw, [3]), np.inf)
    unit = ASCochain.unit(space.fiber, germ_radius=2.0)
    with pytest.raises(InvarianceError):
        pair_cocycle(idem, unit, space, cutoff)


# ---------------------------------------------------------------------------
# the six-term alternation sums, one dense product per permutation, as oracles
# for the rotation-sum chain contractions

# cycle edges of a 3-tuple chain: (slot pair) -> (edge index, aligned flag)
_EDGE_OF = {
    (0, 1): (0, True),
    (1, 0): (0, False),
    (1, 2): (1, True),
    (2, 1): (1, False),
    (2, 0): (2, True),
    (0, 2): (2, False),
}


def _parity(sigma):
    sign = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sign = -sign
    return sign


def six_term_profile_chain(masks, cw, K):
    total = 0.0 + 0.0j
    for sigma in permutations(range(3)):
        sign = _parity(sigma)
        edge_masks = [None, None, None]
        for leg in range(2):
            edge, aligned = _EDGE_OF[(sigma[leg], sigma[leg + 1])]
            W = masks[leg] if aligned else masks[leg].T
            if edge_masks[edge] is None:
                edge_masks[edge] = W
            else:
                edge_masks[edge] = edge_masks[edge] * W
        mats = [K if W is None else K * W for W in edge_masks]
        A = cw[:, None] * mats[0]
        total += sign * np.einsum("ij,ji->", A @ mats[1], mats[2])
    return complex(total) / 6.0


def six_term_elementary_chain(phi, cw, K):
    total = 0.0 + 0.0j
    for term in phi.terms:
        fields = term.factors
        for sigma in permutations(range(3)):
            sign = _parity(sigma)
            inv = np.argsort(sigma)
            d0, d1, d2 = (fields[inv[i]] for i in range(3))
            A = ((cw * d0)[:, None] * K) * d1[None, :]
            B = K * d2[None, :]
            total += term.weight * sign * np.einsum("ij,ji->", A @ B, K)
    return complex(total) / 6.0


def _frame_inputs(rng, npts, rank):
    """Non-constant cutoff weight and a complex frame F of ``rank`` columns with K = F F^H / npts."""
    cw = rng.uniform(0.2, 1.8, npts)
    F = rng.standard_normal((npts, rank)) + 1j * rng.standard_normal((npts, rank))
    return cw, F, F @ F.conj().T / npts


def _chain_inputs(rng, npts):
    """Non-constant cutoff weight and a general complex kernel.

    A constant weight makes every weighted trace cyclic, which would hide a
    weight put on the wrong factor of a rotation.
    """
    cw = rng.uniform(0.2, 1.8, npts)
    return cw, rng.standard_normal((npts, npts)) + 1j * rng.standard_normal((npts, npts))


class FixedMasks:
    """Stands in for a profile cochain whose legs have the given full masks.

    The masks need not be block circulant, so only kernels of circulant
    order 1 may be paired with it.
    """

    def __init__(self, masks):
        self.masks = masks

    def leg_mask(self, i, start, stop):
        return self.masks[i][start:stop]


@pytest.fixture
def chain_products(monkeypatch):
    """The shape of the right operand of every product either k = 1 chain takes, with
    the operand's identity and the rows of the left one."""
    calls = []
    inner = pairing._product

    def counted(A, B):
        calls.append((B.shape, id(B), A.shape[0]))
        return inner(A, B)

    monkeypatch.setattr(pairing, "_product", counted)
    return calls


def rows_per_operand(calls):
    """(shape, rows taken) of each distinct right operand, in order of first use: the
    streamed profile chain multiplies each of its operands by every row block of a
    masked kernel, so the rows of one operand sum to the block size B."""
    rows = {}
    for shape, key, taken in calls:
        rows[key] = (shape, rows.get(key, (shape, 0))[1] + taken)
    return list(rows.values())


@pytest.mark.parametrize("which", ["general", "hermitian"])
def test_profile_chain_matches_six_term_oracle(which, chain_products):
    fiber = FiberModel(2, 3, 8)
    npts = fiber.npoints
    rng = np.random.default_rng(31)
    cw, general = _chain_inputs(rng, npts)
    # one block: the frame F / npts^(1/2) holds K = F F^H / npts, hermitian;
    # the general kernel is held as the row of a frame it does not come from
    _, F, hermitian = _frame_inputs(rng, npts, 7)
    K = general if which == "general" else hermitian
    proj = ProjectorFrame(fiber, F / np.sqrt(npts), [7])
    proj.row = K
    saw = TransitionProfile(linear_radius=0.3)
    phi = ProfileCochain(fiber, [(0, saw), (1, saw)])
    profile_masks = [phi.leg_mask(i, 0, npts) for i in (0, 1)]
    # the rotation identity needs no antisymmetry of the masks
    general_masks = [rng.standard_normal((npts, npts)) for _ in range(2)]
    general = FixedMasks(general_masks)
    for cochain, masks in ((phi, profile_masks), (general, general_masks)):
        want = six_term_profile_chain(masks, cw, K)
        # the four-product form kept in the oracles holds for any kernel
        oracle = profile_chain_whole_stack(cochain, cw, K)
        assert abs(oracle - want) <= 1e-13 * abs(want)
        chain_products.clear()
        if which == "general":
            # the library pairs only a hermitian kernel
            with pytest.raises(ModelError, match="hermitian"):
                _weighted_profile_chain(cochain, cw, proj)
            assert chain_products == []
            continue
        got = _weighted_profile_chain(cochain, cw, proj)
        assert abs(got - want) <= 1e-12 * abs(want)
        # the even rotations of the one block: five products by F's 7 columns,
        # each taken over the 8 row blocks of one 8-point tick
        assert rows_per_operand(chain_products) == [((npts, 7), npts)] * 5
        assert [taken for _, _, taken in chain_products] == [8] * 5 * 8


def test_profile_chain_refuses_a_kernel_moved_off_hermitian(chain_products):
    fiber = FiberModel(2, 3, 8)
    npts = fiber.npoints
    rng = np.random.default_rng(37)
    cw, F, K = _frame_inputs(rng, npts, 7)
    moved = K.copy()
    moved[0, 1] += 1e-9 * np.max(np.abs(K))
    saw = TransitionProfile(linear_radius=0.3)
    phi = ProfileCochain(fiber, [(0, saw), (1, saw)])
    with pytest.raises(ModelError, match="hermitian"):
        proj = ProjectorFrame(fiber, F / np.sqrt(npts), [7])
        proj.row = moved
        _weighted_profile_chain(phi, cw, proj)
    assert chain_products == []
    # the even rotations alone would drop the real part this perturbation makes
    masks = [phi.leg_mask(i, 0, npts) for i in (0, 1)]
    want = six_term_profile_chain(masks, cw, moved)
    assert abs(want.real) > 1e-13 * abs(want)


@pytest.mark.parametrize("radius", [0.45, None], ids=["cut", "uncut"])
def test_profile_chain_takes_five_thin_products_per_fourier_block(radius, chain_products):
    # the flux-8 kernel projector on grid 24 has 8 Fourier blocks of 72
    # points, each of rank 1: cut or uncut, each block is read through its
    # own frame column
    fiber = FiberModel(2, 8, 24)
    proj = index_idempotent(dolbeault_family(fiber, 8, levels=2), radius=radius).skernel
    cw = np.random.default_rng(43).uniform(0.2, 1.8, fiber.npoints)
    saw = TransitionProfile(linear_radius=0.45)
    phi = ProfileCochain(fiber, [(0, saw), (1, saw)])
    _weighted_profile_chain(phi, cw, proj)
    width = fiber.npoints // proj.order
    assert proj.order == 8 and proj.ranks == (1,) * 8
    # over the 3 row blocks of one 24-point tick
    assert rows_per_operand(chain_products) == [((width, 1), width)] * 40
    assert len(chain_products) == 40 * 3


@pytest.mark.parametrize("rank", [5, 64])
def test_elementary_chain_matches_six_term_oracle(rank, chain_products):
    fiber = FiberModel(2, 3, 8)
    npts = fiber.npoints
    rng = np.random.default_rng(41)
    cw, F, K = _frame_inputs(rng, npts, rank)
    terms = []
    for weight in (1.0, 0.3 - 0.7j):
        fields = tuple(random_band_limited(rng, fiber, band=2) for _ in range(3))
        terms.append(ASTerm(weight, fields))
    f, g, h = terms[0].factors
    psi = elementary_one_cochain(rng, fiber)
    # equal by value, distinct array objects
    f2, g2, h2 = (field.copy() for field in (f, g, h))
    # input -> (terms, slot fields distinct by value): one Gram product per
    # field and one per field times the weight
    inputs = {
        "general": (terms, 6),
        "coboundary": (d_as(psi).terms, 3),
        "equal copies": ([terms[0], ASTerm(0.3 - 0.7j, (g2, f2, h2))], 3),
        # (g, f, g) alternates to zero, so a misread slot leaves a
        # remainder of the chain's size
        "repeated field": ([terms[0], ASTerm(0.3 - 0.7j, (g, f, g2))], 3),
    }
    for name, (phi_terms, distinct) in inputs.items():
        phi = ASCochain(fiber, 2, phi_terms, germ_radius=2.0)
        want = six_term_elementary_chain(phi, cw, K)
        chain_products.clear()
        got = _weighted_elementary_chain(phi, cw, F)
        assert abs(got - want) <= 1e-13 * abs(want), name
        assert len(chain_products) == 2 * distinct, name
