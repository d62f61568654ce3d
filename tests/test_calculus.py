"""Section bases, quantization, kernel traces and their invariance gates."""
from fractions import Fraction

import numpy as np
import pytest

from indexpairing.density import compute_cutoff
from indexpairing.dolbeault import dolbeault_family
from indexpairing.forms import InvarianceError
from indexpairing.grids import (
    FiberModel,
    ModelError,
    band_limit,
    grid_points,
    mode_lattice,
    random_band_limited,
)
from oracles import (
    apply_block,
    average_kernel_ix,
    band_limit_dense,
    dense_kernel,
    eval_modes_at,
    family_invariance_defect,
    fiber_distances,
    gram_defect,
    invariance_defect,
    kernel_norm_dense,
    multiplier_symbol,
    same_bits,
    symbol_of,
    transport_matrix,
    twisted_invariance_defect_dense,
    twisted_invariance_defect_per_arrow,
)
from indexpairing.operators import (
    OperatorBlock,
    SmoothingKernel,
    average_kernel,
    fourier_basis,
    random_invariant_kernel,
    require_invariant,
    squared_tick_distances,
    trace_tau,
    truncation_mask,
)
from indexpairing.harness import _build_operator
from indexpairing.scenario import _symbol_expression, load_scenario
from indexpairing.space import FiberedGSpace
from indexpairing.symbols import (
    EllipticityError,
    SMOOTHING_ORDER,
    SymbolData,
    certify_elliptic,
    quantize,
    trace_symbol_formula,
)


def trivial_space(n=12, N=3, dim=2):
    return FiberedGSpace.trivial(FiberModel(dim, N, n))


def diagonal_shift_space(n=12, N=3):
    """Z/3 acting on T^2 by the diagonal third-period shift."""
    return FiberedGSpace(FiberModel(2, N, n), 3, [Fraction(1, 3)] * 2)


def half_shift_space(n=12, N=3):
    return FiberedGSpace(FiberModel(2, N, n), 2, [Fraction(1, 2), 0])


def test_fourier_basis_is_orthonormal():
    basis = fourier_basis(FiberModel(2, 3, 12))
    assert gram_defect(basis) <= 1e-12


@pytest.mark.parametrize("dim,N,n", [(1, 5, 12), (1, 5, 13), (2, 4, 10), (2, 4, 11)])
def test_band_limit_by_fft_matches_the_dense_projection(dim, N, n):
    # odd and even grids, the even ones at the smallest size 2N + 2, where
    # the Nyquist mode sits at N + 1 and is dropped
    fiber = FiberModel(dim, N, n)
    rng = np.random.default_rng(n)
    rough = rng.normal(size=fiber.npoints) + 1j * rng.normal(size=fiber.npoints)
    assert np.max(np.abs(band_limit(rough, fiber) - band_limit_dense(rough, fiber))) <= 1e-13
    shaped = rough.real.reshape(fiber.grid_shape)
    projected = band_limit(shaped, fiber)
    assert projected.shape == fiber.grid_shape
    assert np.max(np.abs(projected - band_limit_dense(shaped, fiber))) <= 1e-13


def test_identity_block_band_limits():
    fiber = FiberModel(2, 3, 12)
    basis = fourier_basis(fiber)
    rng = np.random.default_rng(7)
    f = random_band_limited(rng, fiber, band=3)
    out = apply_block(OperatorBlock(basis, basis, np.eye(basis.size)), f)
    assert np.max(np.abs(out - f)) <= 1e-12


@pytest.mark.parametrize("dim, band, n", [(1, 3, 9), (2, 1, 8), (2, 2, 12), (3, 2, 6)])
def test_seeded_fields_are_bitwise_the_pointwise_evaluation(dim, band, n):
    # the cached evaluation matrix of the band gives the bits of the
    # exponentials formed at the grid points on every call
    fiber = FiberModel(dim, band, n)
    modes = mode_lattice(band, dim)
    rng = np.random.default_rng(dim * 100 + band)
    coeff = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    coeff *= 1.0 / np.sqrt(len(modes))
    want = eval_modes_at(coeff, modes, fiber.points())
    got = random_band_limited(np.random.default_rng(dim * 100 + band), fiber, band)
    assert got.tobytes() == want.tobytes()


def test_quantize_mode_only_symbol_is_exact_diagonal():
    fiber = FiberModel(2, 3, 12)
    sym = multiplier_symbol(fiber, lambda modes: 1.0 + modes[:, 0] ** 2, order=2.0)
    mat = quantize(sym).matrix
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) <= 1e-14
    modes = fiber.modes()
    assert np.max(np.abs(np.diag(mat) - (1.0 + modes[:, 0] ** 2))) <= 1e-12


def test_multiplier_blocks_are_their_diagonal():
    """The dolbeault twist-0 block and the S3 multiplier block are np.diag of
    their values on the modes, bit for bit, and agree with the FFT
    quantization of the mode-only symbol to 1e-15 of the largest value."""
    scn = load_scenario("S3-multiplier-invertible")
    fiber = FiberModel(2, 8, 20)
    fn = _symbol_expression(scn.operator["symbol"])
    cases = (
        (dolbeault_family(fiber, 0, 2), lambda m: np.pi * 1j * (m[:, 0] + 1j * m[:, 1])),
        (
            _build_operator(scn, fiber)[0],
            lambda m: fn(m[:, 0].astype(float), m[:, 1].astype(float)),
        ),
    )
    for block, multiplier in cases:
        values = np.asarray(multiplier(fiber.modes()), dtype=complex)
        assert same_bits(block.matrix, np.diag(values))
        quantized = quantize(multiplier_symbol(fiber, multiplier, order=1.0)).matrix
        gap = np.max(np.abs(block.matrix - quantized))
        assert gap <= 1e-15 * np.max(np.abs(values))


def test_quantize_oscillating_symbol_is_mode_shift():
    """exp(2 pi i z1) quantizes to the raising shift with edge rows dropped."""
    fiber = FiberModel(2, 3, 12)
    pts = grid_points(12, 2)
    table = np.exp(2j * np.pi * pts[:, 0])[:, None] * np.ones(fiber.nmodes)
    sym = SymbolData(fiber, 0.0, table)
    mat = quantize(sym).matrix
    modes = fiber.modes()
    lookup = {tuple(m): i for i, m in enumerate(modes)}
    expected = np.zeros_like(mat)
    for col, nu in enumerate(modes):
        target = (nu[0] + 1, nu[1])
        if target in lookup:
            expected[lookup[target], col] = 1.0
    assert np.max(np.abs(mat - expected)) <= 1e-13


def test_quantize_symbol_roundtrip_on_interior_modes():
    fiber = FiberModel(2, 5, 16)
    rng = np.random.default_rng(3)
    zpart = random_band_limited(rng, fiber, band=2)
    modes = fiber.modes()
    xipart = np.exp(-0.25 * np.sum(modes.astype(float) ** 2, axis=1))
    table = zpart[:, None] * xipart[None, :]
    sym = SymbolData(fiber, 0.0, table)
    back = symbol_of(quantize(sym), sym.order)
    interior = np.max(np.abs(modes), axis=1) <= 5 - 2
    diff = np.abs(back.values - table)
    assert np.max(diff[:, interior]) <= 1e-10
    # the clipped edge is a real effect, not a accuracy loss to hide
    assert np.max(diff) > 1e-6


def test_quantized_multiplication_acts_by_truncated_product():
    fiber = FiberModel(2, 5, 16)
    rng = np.random.default_rng(11)
    f = random_band_limited(rng, fiber, band=1)
    g = random_band_limited(rng, fiber, band=4)
    table = f[:, None] * np.ones(fiber.nmodes)
    out = apply_block(quantize(SymbolData(fiber, 0.0, table)), g)
    expected = band_limit(f * g, fiber)
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_trace_tau_rank_one_kernel():
    space = trivial_space()
    cutoff = compute_cutoff(space)
    fiber = space.fiber
    rng = np.random.default_rng(5)
    f = random_band_limited(rng, fiber, band=3)
    kern = SmoothingKernel(fiber, np.outer(f, np.conj(f)) / fiber.npoints)
    value = trace_tau(kern, space, cutoff)
    expected = np.mean(np.abs(f) ** 2)
    assert abs(value - expected) <= 1e-12


def test_trace_tau_rejects_non_invariant_kernels():
    space = diagonal_shift_space()
    cutoff = compute_cutoff(space)
    fiber = space.fiber
    pts = grid_points(fiber.grid_size, 2)
    h = 1.0 + np.cos(2 * np.pi * pts[:, 0])  # not third-shift invariant
    kern = SmoothingKernel(fiber, np.diag(h).astype(complex) / fiber.npoints)
    with pytest.raises(InvarianceError):
        trace_tau(kern, space, cutoff)


def test_kernel_norm_is_a_lower_bound_exact_on_projectors():
    space = half_shift_space()
    fiber = space.fiber
    npts = fiber.npoints
    rng = np.random.default_rng(31)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    kernels = [
        SmoothingKernel(fiber, cplx(npts, npts)),
        SmoothingKernel(fiber, cplx(npts, 3) @ cplx(3, npts)),
        random_invariant_kernel(rng, space, compute_cutoff(space), band=2),
    ]
    for kern in kernels:
        exact = max(np.linalg.norm(m, 2) for m in kern.mats)
        bound = kern.norm()
        assert bound <= exact * (1 + 1e-12)
        # the start column alone is within sqrt(n) of the norm
        assert bound >= exact / np.sqrt(npts)
    q, _ = np.linalg.qr(cplx(npts, 5))
    assert abs(SmoothingKernel(fiber, q @ q.conj().T).norm() - 1.0) <= 1e-12
    assert SmoothingKernel(fiber, np.zeros((npts, npts))).norm() == 0.0


def test_invariance_gate_skips_the_scale_at_zero_defect(monkeypatch):
    rng = np.random.default_rng(37)
    npts = 144
    raw = rng.standard_normal((npts, npts)) / npts
    half = half_shift_space()
    with pytest.raises(InvarianceError):
        require_invariant(half, "trace", SmoothingKernel(half.fiber, raw))

    def no_norm(self):
        raise AssertionError("norm computed for a zero defect")

    # on a trivial group only units act, every kernel is invariant, and the
    # gate does no matrix work
    monkeypatch.setattr(SmoothingKernel, "norm", no_norm)
    space = trivial_space()
    kern = SmoothingKernel(space.fiber, raw)
    require_invariant(space, "trace", kern, kern)
    trace_tau(kern, space, compute_cutoff(space))


def test_gate_per_group_element_equals_the_per_arrow_defect(monkeypatch):
    # Z/4 with fiber shifts g * (1/4, 1/2): the gate checks g = 1, 2, where
    # every g != 0 gives the same max
    fiber = FiberModel(2, 3, 8)
    space = FiberedGSpace(fiber, 4, [Fraction(1, 4), Fraction(1, 2)])
    rng = np.random.default_rng(43)
    invariant = random_invariant_kernel(rng, space, compute_cutoff(space), band=2)
    raw = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    rough = SmoothingKernel(fiber, raw)
    # diag cos(2 pi z1) moves to -sin under g = 1 and to -cos under g = 2,
    # so its largest defect, 2, comes from g = 2 alone
    wave = SmoothingKernel(fiber, np.diag(np.cos(2 * np.pi * grid_points(8, 2)[:, 0])))
    assert invariant.twisted_invariance_defect(space) <= 1e-12
    assert rough.twisted_invariance_defect(space) > 1.0
    assert abs(wave.twisted_invariance_defect(space) - 2.0) <= 1e-12
    still = FiberedGSpace.trivial(fiber, 4)
    for kern in (invariant, rough, wave):
        assert kern.twisted_invariance_defect(space) == twisted_invariance_defect_per_arrow(
            kern, space
        )
        assert twisted_invariance_defect_per_arrow(kern, still) == 0.0

    def no_permutation(self, g):
        raise AssertionError("kernel moved under a trivial fiber action")

    # a trivial fiber action moves no kernel, so the gate gathers none
    monkeypatch.setattr(FiberedGSpace, "permutation", no_permutation)
    assert all(k.twisted_invariance_defect(still) == 0.0 for k in (invariant, rough, wave))


def quarter_shift_space():
    """Z/4 on the 8-point grid by (1/4, 1/2): its elements 1 and 2 move the fiber apart."""
    return FiberedGSpace(FiberModel(2, 3, 8), 4, [Fraction(1, 4), Fraction(1, 2)])


@pytest.mark.parametrize(
    "make_space", [trivial_space, half_shift_space, diagonal_shift_space, quarter_shift_space]
)
def test_gate_and_scale_are_the_dense_gate_on_whole_kernels(make_space):
    # the spaces and kinds of kernel the gate tests here run, each stored
    # whole (g = 1): the block-row gate and its scale take the dense floats
    space = make_space()
    fiber = space.fiber
    npts = fiber.npoints
    rng = np.random.default_rng(59)
    raw = rng.standard_normal((npts, npts)) + 1j * rng.standard_normal((npts, npts))
    q, _ = np.linalg.qr(raw[:, :5])
    invariant = random_invariant_kernel(rng, space, compute_cutoff(space), band=2).row
    wave = np.diag(np.cos(2 * np.pi * grid_points(fiber.grid_size, 2)[:, 0]))
    for m in (raw, q @ q.conj().T, wave, invariant, invariant @ invariant, None):
        kern = SmoothingKernel(fiber, m)
        assert kern.twisted_invariance_defect(space) == twisted_invariance_defect_dense(kern, space)
        assert kern.norm() == kernel_norm_dense(kern)


def test_trace_tau_is_cutoff_independent():
    space = half_shift_space()
    rng = np.random.default_rng(23)
    uniform = compute_cutoff(space)
    kern = random_invariant_kernel(rng, space, uniform, band=2)
    seed = 2.0 + np.cos(2 * np.pi * grid_points(12, 2)[:, 1]) + rng.random(144)
    skewed = compute_cutoff(space, seed)
    v1 = trace_tau(kern, space, uniform)
    v2 = trace_tau(kern, space, skewed)
    assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


def test_trace_tau_trace_property():
    """tau(K1 K2) = tau(K2 K1) for invariant kernels, skewed cutoff included."""
    space = diagonal_shift_space()
    rng = np.random.default_rng(29)
    uniform = compute_cutoff(space)
    cutoff = compute_cutoff(space, 1.5 + rng.random(144))
    k1 = random_invariant_kernel(rng, space, uniform, band=2)
    k2 = random_invariant_kernel(rng, space, uniform, band=2)
    A, B = dense_kernel(k1), dense_kernel(k2)
    lhs = trace_tau(SmoothingKernel(space.fiber, A @ B), space, cutoff)
    rhs = trace_tau(SmoothingKernel(space.fiber, B @ A), space, cutoff)
    assert abs(lhs - rhs) <= 1e-9 * k1.norm() * k2.norm()


def test_trace_symbol_formula_matches_kernel_trace():
    space = trivial_space(n=12, N=5)
    cutoff = compute_cutoff(space)
    fiber = space.fiber
    rng = np.random.default_rng(41)
    zpart = 1.0 + 0.3 * np.real(random_band_limited(rng, fiber, band=1))
    modes = fiber.modes()
    xipart = np.exp(-2.0 * np.sum(modes.astype(float) ** 2, axis=1))
    table = zpart[:, None] * xipart[None, :]
    sym = SymbolData(fiber, SMOOTHING_ORDER, table)
    kern = SmoothingKernel(fiber, quantize(sym).grid_matrix())
    lhs = trace_symbol_formula(sym, cutoff)
    rhs = trace_tau(kern, space, cutoff)
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_trace_symbol_formula_requires_smoothing_order():
    sym = multiplier_symbol(FiberModel(2, 3, 12), lambda modes: np.ones(len(modes)), order=0.0)
    space = trivial_space()
    with pytest.raises(ModelError):
        trace_symbol_formula(sym, compute_cutoff(space))


def test_transport_matrix_is_unitary_for_box_preserving_maps():
    space = diagonal_shift_space()
    fiber = space.fiber
    basis = fourier_basis(fiber)
    U = transport_matrix(space, 1, basis, basis)
    assert np.max(np.abs(U.conj().T @ U - np.eye(basis.size))) <= 1e-12


def test_family_invariance_detects_asymmetry():
    # Fourier multipliers commute with every translation, so the symbols
    # carry a z-dependent factor: cos(2 pi (z1 - z2)) is invariant under
    # the diagonal shift, cos(2 pi z1) is not
    space = diagonal_shift_space()
    fiber = space.fiber
    pts = grid_points(12, 2)
    xipart = 1.0 + np.sum(fiber.modes().astype(float) ** 2, axis=1)

    def family(zpart):
        return quantize(SymbolData(fiber, 2.0, zpart[:, None] * xipart[None, :]))

    symmetric = family(2.0 + np.cos(2 * np.pi * (pts[:, 0] - pts[:, 1])))
    lopsided = family(2.0 + np.cos(2 * np.pi * pts[:, 0]))
    assert family_invariance_defect(space, symmetric) <= 1e-12
    assert family_invariance_defect(space, lopsided) >= 0.5


def test_average_kernel_enforces_invariance_and_fixes_invariants():
    space = diagonal_shift_space()
    rng = np.random.default_rng(17)
    cutoff = compute_cutoff(space)
    raw = rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))
    rough = SmoothingKernel(space.fiber, raw)
    averaged = average_kernel(space, cutoff, rough)
    assert invariance_defect(averaged, space) <= 1e-12
    twice = average_kernel(space, cutoff, averaged)
    diff = max(
        float(np.max(np.abs(a - b))) for a, b in zip(twice.mats, averaged.mats)
    )
    assert diff <= 1e-12


@pytest.mark.parametrize("shift", [("1/2", 0), ("1/2", "1/2")])
def test_average_kernel_is_bitwise_the_ix_gather_sum(shift):
    # the half shift at g = 1; the rows of one orbit {z, p[z]} are -0.0 in
    # both parts, so the identity term and the moved term both add signed
    # zeros there, and the sum started from zeros reads +0.0
    space = FiberedGSpace(FiberModel(2, 3, 12), 2, shift)
    rng = np.random.default_rng(29)
    cutoff = compute_cutoff(space)
    raw = rng.normal(size=(144, 144)) + 1j * rng.normal(size=(144, 144))
    orbit = [5, int(space.permutation(1)[5])]
    raw[orbit] = complex(-0.0, -0.0)
    raw[rng.random((144, 144)) < 0.1] = complex(-0.0, -0.0)
    for kern in (random_invariant_kernel(rng, space, cutoff, 2), SmoothingKernel(space.fiber, raw)):
        row = average_kernel(space, cutoff, kern).row
        assert same_bits(row, average_kernel_ix(space, cutoff, kern).row)
    assert np.all(row[orbit] == 0.0) and not np.any(np.signbit(row[orbit].imag))


def test_kernel_truncation_zeroes_far_entries():
    fiber = FiberModel(2, 3, 12)
    mask = truncation_mask(fiber, 0.25, fiber.npoints)
    dist = fiber_distances(fiber)
    assert not np.any(mask[dist > 0.25])
    # pairs at exactly the radius are dropped, all nearer pairs kept
    assert np.array_equal(mask, dist < 0.25 - 1e-9)


@pytest.mark.parametrize("n, radius", [(40, 0.30), (12, 0.25)])
def test_kernel_truncation_commutes_with_grid_translations(n, radius):
    # radius * n is a whole number of ticks here, so some pairs sit exactly
    # at the radius; the cut must treat all of them alike.  The one-tick
    # shifts along the two axes generate every grid translation.
    fiber = FiberModel(2, (n - 2) // 2, n)
    mask = truncation_mask(fiber, radius, fiber.npoints)
    grid = np.arange(fiber.npoints).reshape(n, n)
    for axis in (0, 1):
        perm = np.roll(grid, 1, axis=axis).ravel()
        assert np.array_equal(mask[np.ix_(perm, perm)], mask), axis


@pytest.mark.parametrize("dim, n", [(1, 12), (2, 13), (3, 10)])
def test_tick_distances_match_pointwise_formula(dim, n):
    fiber = FiberModel(dim, 4, n)
    sq = squared_tick_distances(fiber, fiber.npoints)
    assert sq.dtype == np.int32
    # the float formula of the pointwise distances, to rounding
    assert np.max(np.abs(np.sqrt(sq) / n - fiber_distances(fiber))) <= 1e-15
    # a block of leading rows is computed as it is within the whole table
    assert np.array_equal(squared_tick_distances(fiber, n), sq[:n])


def growth_ratio(sym: SymbolData) -> float:
    """Largest sampled |a(z, xi)| / (1 + |xi|^2)^(order/2), an oracle for the declared order."""
    modes = sym.fiber.modes()
    weight = (1.0 + np.sum(modes.astype(float) ** 2, axis=1)) ** (sym.order / 2.0)
    return float(np.max(np.abs(sym.values) / weight))


def test_symbol_order_check():
    fiber = FiberModel(2, 3, 12)
    quadratic = lambda m: 1.0 + np.sum(m.astype(float) ** 2, axis=1)
    assert growth_ratio(multiplier_symbol(fiber, quadratic, order=0.0)) > 1.5
    sym = multiplier_symbol(fiber, quadratic, order=2.0)
    assert growth_ratio(sym) <= 1.5
    # the symbol extracted from the quantized operator keeps that order
    assert growth_ratio(symbol_of(quantize(sym), sym.order)) <= 1.5


def test_ellipticity_certificate():
    fiber = FiberModel(2, 3, 12)
    modes = fiber.modes().astype(float)
    certify_elliptic(fiber, 1.0 + np.sum(modes**2, axis=1))
    # |xi|^2 vanishes at the zero mode alone, which is not certified
    certify_elliptic(fiber, np.sum(modes**2, axis=1))
    # xi1 vanishes on the whole xi2 axis
    with pytest.raises(EllipticityError) as err:
        certify_elliptic(fiber, modes[:, 0].astype(complex))
    assert "mode (0, 1)" in str(err.value) and "mode (0, 0)" not in str(err.value)
    # a non-finite value is refused at any mode, the zero mode included
    values = 1.0 + np.sum(modes**2, axis=1) + 0j
    values[np.all(fiber.modes() == 0, axis=1)] = np.nan
    with pytest.raises(EllipticityError, match=r"not finite on the lattice at: mode \(0, 0\)$"):
        certify_elliptic(fiber, values)
