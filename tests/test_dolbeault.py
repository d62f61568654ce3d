"""The twisted ladder realization, its oracles, and index extraction."""
from functools import lru_cache

import numpy as np
import pytest

from indexpairing import dolbeault
from indexpairing.density import compute_cutoff
from indexpairing.dolbeault import (
    dolbeault_family,
    hermite_values,
    landau_basis,
    landau_sections,
)
from indexpairing.grids import FiberModel, ModelError, grid_points, spectral_gradient
from indexpairing import parametrix as parametrix_module
from indexpairing.operators import OperatorBlock, SectionBasis, fourier_basis, trace_tau
from indexpairing.parametrix import (
    IndexIdempotent,
    LocalizationError,
    ThresholdAmbiguityError,
    analytic_index,
    certified_rank,
    index_idempotent,
)
from indexpairing.space import FiberedGSpace
from oracles import (
    basis_matrix,
    circulant_dense,
    gram_defect,
    landau_jet,
    landau_section_jet_per_image,
    landau_section_values_per_image,
    lapack_singular_data,
    magnetic_translation,
    magnetic_translation_matrix,
    remainder_projectors,
    same_bits,
    spectral_derivative,
    twisted_shift,
    unit_frame,
)


def trivial_space(n=20, N=8):
    return FiberedGSpace.trivial(FiberModel(2, N, n))


def idempotent_defect(idem):
    """Largest entry of M^2 - M over both families, on the dense expansion of each stored row.

    A zero operator, stored as no row, is a projector.
    """
    return max(
        (
            float(np.max(np.abs(M @ M - M)))
            for f in idem.families
            for M in (circulant_dense(r) for r in f.mats)
        ),
        default=0.0,
    )


def test_hermite_functions_are_orthonormal():
    t = np.linspace(-12.0, 12.0, 4001)
    h = hermite_values(6, t)
    dt = t[1] - t[0]
    gram = h @ h.T * dt
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-8


def test_hermite_lowering_identity():
    """h_l' + t h_l = sqrt(2 l) h_{l-1}, checked with a fine central difference."""
    t = np.linspace(-8.0, 8.0, 20001)
    dt = t[1] - t[0]
    h = hermite_values(5, t)
    for l in range(1, 6):
        deriv = np.gradient(h[l], dt)
        lhs = deriv + t * h[l]
        rhs = np.sqrt(2.0 * l) * h[l - 1]
        assert np.max(np.abs(lhs - rhs)[100:-100]) <= 1e-4


@pytest.mark.parametrize("twist", [1, 2, -1])
def test_landau_basis_is_orthonormal_on_grid(twist):
    fiber = FiberModel(2, 8, 20)
    basis = landau_basis(fiber, twist, max_level=4)
    assert basis.size == abs(twist) * 5
    assert gram_defect(basis) <= 1e-10


@pytest.mark.parametrize("twist,n", [(1, 24), (-1, 24), (2, 24), (-2, 24), (24, 96)])
def test_landau_jet_matches_spectral_derivatives_of_the_samples(twist, n):
    # levels 0 and 1, as the unit-flux frame takes them, exercise the
    # h_l' ladder in both directions
    fiber = FiberModel(2, n // 2 - 1, n)
    max_level = 1 if abs(twist) == 1 else 0
    cols = np.arange(abs(twist) * (max_level + 1))
    values, d1, d2 = landau_jet(fiber, twist, max_level, cols)
    assert same_bits(values, landau_sections(fiber, twist, max_level, cols))
    # sections are periodic in z1; in z2 they pick up exp(-2 pi i d z1),
    # which the gauge exp(2 pi i d z1 z2) removes along each z1 line
    z1, z2 = grid_points(n, 2).T
    gauge = np.exp(2j * np.pi * twist * z1 * z2)[:, None]
    (s1,) = spectral_gradient(values, fiber, (0,))
    (s2,) = spectral_gradient(gauge * values, fiber, (1,))
    s2 = np.conj(gauge) * s2 - 2j * np.pi * twist * z1[:, None] * values
    assert np.abs(s1 - d1).max() <= 1e-10
    assert np.abs(s2 - d2).max() <= 1e-10


# column sets of a level basis of s columns per level and ``top`` levels;
# the unsorted one is about half of them, shuffled across levels
COLUMN_SETS = {
    "all": lambda s, top: np.arange(s * top),
    "level-0": lambda s, top: np.arange(s),
    "one": lambda s, top: np.array([s * top - 1]),
    "unsorted": lambda s, top: np.random.default_rng(top).permutation(s * top)[: s * top // 2 + 1],
}


# the column sets of one twist and grid run one after another, so the five
# levels of one fiber are all the memo holds
@lru_cache(maxsize=5)
def per_image_samples(twist, n, max_level):
    """The per-image oracle's values and jet of every column, on the grid-n sampler fiber."""
    fiber = FiberModel(2, n // 2 - 1, n)
    values = landau_section_values_per_image(fiber, twist, max_level)
    return values, landau_section_jet_per_image(fiber, twist, max_level)


@pytest.mark.parametrize("columns", sorted(COLUMN_SETS))
@pytest.mark.parametrize("n", [20, 24, 40])
@pytest.mark.parametrize("twist", [1, -1, 2, -2, 3, 24])
def test_separable_sampler_is_bitwise_the_per_image_loop(twist, n, columns, monkeypatch):
    # each image term is sampled on the grid axes and broadcast, and every
    # sample still sums its terms in increasing p: values and both
    # derivatives of any columns keep every bit, sign bits of zeros
    # included, in blocks of one row, of several rows with a shorter last
    # block, or of the grid
    fiber = FiberModel(2, n // 2 - 1, n)
    default = dolbeault.SAMPLE_BLOCK_BYTES
    for max_level in range(5):
        cols = COLUMN_SETS[columns](abs(twist), max_level + 1)
        every, every_jet = per_image_samples(twist, n, max_level)
        values = every[:, cols]
        jet = [f[:, cols] for f in every_jet]
        for block_bytes in (1, 3 * values[:n].nbytes, default, 1 << 40):
            monkeypatch.setattr(dolbeault, "SAMPLE_BLOCK_BYTES", block_bytes)
            assert same_bits(landau_sections(fiber, twist, max_level, cols), values)
            got = landau_jet(fiber, twist, max_level, cols)
            assert all(same_bits(g, want) for g, want in zip(got, jet))


def test_an_empty_column_set_samples_no_columns():
    fiber = FiberModel(2, 3, 12)
    empty = np.array([], dtype=int)
    assert landau_basis(fiber, 2, 1).columns(empty).shape == (fiber.npoints, 0)
    assert [f.shape for f in landau_jet(fiber, 2, 1, empty)] == [(fiber.npoints, 0)] * 3


@pytest.mark.parametrize("twist", [800, 1000])
def test_sampler_phases_are_the_grid_roots_of_unity(twist):
    # on a grid-128 fiber, used here alone, the phase of the z1 frequency f
    # at z1 = k / n is exp(2 pi i m / n) at m = f k mod n reduced exactly;
    # formed from the float argument 2 pi f k / n, it misses by about 1e-12
    n = 128
    fiber = FiberModel(2, 19, n)
    images = 0
    for coef, _, phase in dolbeault._image_factors(fiber, twist, 0):
        freq = [round(c.imag / (2 * np.pi)) for c in coef]
        assert all((f - j) % twist == 0 for j, f in enumerate(freq))
        m = np.array([[f * k % n for f in freq] for k in range(n)])
        want = np.cos(2 * np.pi * m / n) + 1j * np.sin(2 * np.pi * m / n)
        assert phase.shape == (n, twist)
        assert np.max(np.abs(phase - want)) <= 1e-14
        images += 1
    assert images >= 3


@pytest.mark.parametrize(
    "twist,levels,n",
    [(1, 2, 20), (-1, 2, 20), (2, 2, 20), (-2, 2, 20), (3, 4, 18), (24, 2, 40), (32, 2, 48)],
)
def test_smaller_basis_is_the_leading_columns_of_the_larger(twist, levels, n):
    # at the catalog and benchmark twists the image sums of levels and
    # levels - 1 are truncated alike, so the leading columns of the larger
    # basis, which the smaller one samples, are bitwise the smaller basis
    # sampled on its own
    fiber = FiberModel(2, 3, n)
    block = dolbeault_family(fiber, twist, levels)
    big, small = (block.domain, block.codomain) if twist > 0 else (block.codomain, block.domain)
    assert same_bits(basis_matrix(big), landau_sections(fiber, twist, levels, np.arange(big.size)))
    on_its_own = landau_sections(fiber, twist, levels - 1, np.arange(small.size))
    assert same_bits(basis_matrix(small), on_its_own)


def test_operator_bases_are_sampled_on_first_use_once(monkeypatch):
    sampled = []
    sample = dolbeault.landau_sections

    def counted(fiber, twist, max_level, columns):
        sampled.append((twist, max_level, len(columns)))
        return sample(fiber, twist, max_level, columns)

    monkeypatch.setattr(dolbeault, "landau_sections", counted)
    fiber = FiberModel(2, 8, 20)
    block = dolbeault_family(fiber, -2, levels=2)
    # the spectral count reads the ladder matrix alone
    assert analytic_index(block).index == -2
    assert sampled == []
    # flux -2 has no kernel: only the cokernel projector, on the larger
    # codomain basis, is realized on the grid, and only its two level-0
    # columns are sampled
    index_idempotent(block)
    assert sampled == [(-2, 2, 2)]
    # the smaller domain basis samples with the larger one's sampler
    basis_matrix(block.domain)
    assert sampled == [(-2, 2, 2), (-2, 2, 4)]


def test_basis_samples_are_checked_against_the_declared_size():
    fiber = FiberModel(2, 3, 8)
    basis = SectionBasis(
        fiber, 3, lambda cols: np.zeros((fiber.npoints, 4), dtype=complex), np.zeros(3, np.int64)
    )
    assert basis.size == 3
    with pytest.raises(ModelError, match="not \\(npoints, len\\(indices\\)\\)"):
        basis.columns(np.arange(3))


@pytest.mark.parametrize("kind", ["level", "fourier"])
@pytest.mark.parametrize("index", [-1, 4, 5])
def test_basis_columns_refuse_an_index_outside_the_basis(kind, index):
    # the level basis of levels 0..1 at twist 2 holds 4 columns; its sampler
    # would read index 4 and 5 as level 2 and a negative index from the end
    fiber = FiberModel(2, 3, 12)
    basis = landau_basis(fiber, 2, 1) if kind == "level" else fourier_basis(fiber)
    index = index if index < 0 or kind == "level" else basis.size + index - 4
    with pytest.raises(ModelError, match=rf"basis column {index} is outside \[0, {basis.size}\)"):
        basis.columns(np.array([0, index]))
    assert basis.columns(np.array([basis.size - 1, 0])).shape == (fiber.npoints, 2)


def test_level_basis_is_refused_before_any_sampling():
    with pytest.raises(ModelError, match="two-dimensional"):
        dolbeault_family(FiberModel(1, 4, 12), 1, levels=2)
    with pytest.raises(ModelError, match="zero twist"):
        landau_basis(FiberModel(2, 3, 8), 0, max_level=1)


_FD6 = (
    (-3, -1.0 / 60.0),
    (-2, 3.0 / 20.0),
    (-1, -3.0 / 4.0),
    (1, 3.0 / 4.0),
    (2, -3.0 / 20.0),
    (3, 1.0 / 60.0),
)


def dolbeault_apply_fd(field, twist, fiber):
    """Independent application of D: spectral in z1, sixth-order stencil in z2."""
    n = fiber.grid_size
    d1 = spectral_derivative(field, 0, fiber)
    d2 = np.zeros_like(field, dtype=complex)
    for off, coef in _FD6:
        d2 += coef * twisted_shift(field, off, twist, fiber)
    d2 *= n
    pts = grid_points(n, 2)
    return 0.5 * (d1 + 1j * d2) + np.pi * 1j * twist * pts[:, 1] * field


@pytest.mark.parametrize("twist", [1, 2, -1])
def test_ladder_matches_finite_difference_application(twist):
    """The assembled matrix against an independent quasi-periodic stencil."""
    fiber = FiberModel(2, 8, 32)
    block = dolbeault_family(fiber, twist, levels=3)
    scale = np.sqrt(np.pi * abs(twist) * 3)
    dom, cod = basis_matrix(block.domain), basis_matrix(block.codomain)
    for k in range(block.domain.size):
        col = dom[:, k]
        fd = dolbeault_apply_fd(col, twist, fiber)
        analytic = cod @ block.matrix[:, k]
        assert np.max(np.abs(fd - analytic)) <= 1e-4 * scale


def test_zero_twist_block_is_exact_multiplier():
    fiber = FiberModel(2, 3, 12)
    block = dolbeault_family(fiber, 0, levels=1)
    modes = fiber.modes()
    expected = np.pi * 1j * (modes[:, 0] + 1j * modes[:, 1])
    assert np.max(np.abs(block.matrix - np.diag(expected))) == 0.0


@pytest.mark.parametrize("twist,expected", [(-2, -2), (-1, -1), (0, 0), (1, 1), (2, 2)])
def test_spectral_index_matches_twist(twist, expected):
    block = dolbeault_family(FiberModel(2, 8, 20), twist, levels=4)
    data = analytic_index(block)
    counts = (len(data.cols), len(data.rows))
    assert data.index == expected
    # LAPACK's SVD certifies the rank read off the ladder's entries
    assert lapack_singular_data(block.matrix)[0] == block.matrix.shape[1] - counts[0]
    if twist > 0:
        assert counts == (twist, 0)
    elif twist < 0:
        assert counts == (0, -twist)
    else:
        assert counts == (1, 1)


def test_certified_rank_flags_ambiguity():
    sing = np.array([1.0, 1e-2, 3e-8])
    with pytest.raises(ThresholdAmbiguityError):
        certified_rank(sing)
    assert certified_rank(np.array([1.0, 1e-2, 1e-12])) == 2


@pytest.mark.parametrize("twist", [2, -2])
def test_parametrix_frames_span_kernel_and_cokernel(twist):
    # the unit vectors V0 at the kernel columns and V1 at the cokernel rows
    # are orthonormal, D V0 = 0 and V1^H D = 0, and V V^H is the remainder
    # 1 - QD or 1 - DQ of the pseudo-inverse
    block = dolbeault_family(FiberModel(2, 8, 20), twist, levels=4)
    D = block.matrix
    data = analytic_index(block)
    v0, v1 = unit_frame(D.shape[1], data.cols), unit_frame(D.shape[0], data.rows)
    assert (v0.shape[1], v1.shape[1]) == ((twist, 0) if twist > 0 else (0, -twist))
    scale = np.linalg.norm(D, 2)
    assert np.max(np.abs(D @ v0), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(v1.conj().T @ D), initial=0.0) <= 1e-12 * scale
    for v, r in zip((v0, v1), remainder_projectors(block)):
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1])), initial=0.0) <= 1e-14
        assert np.max(np.abs(v @ v.conj().T - r)) <= 1e-14


def test_index_is_stable_under_small_perturbations():
    # noise at a tenth of the smallest nonzero ladder coefficient keeps the
    # kernel and cokernel counts: on the ladder entries alone, read by the
    # parametrix, and on every entry, which LAPACK's SVD reads and the
    # parametrix refuses
    rng = np.random.default_rng(13)
    block = dolbeault_family(FiberModel(2, 8, 20), 1, levels=4)
    D = block.matrix
    gap = np.sqrt(np.pi)  # smallest nonzero ladder coefficient
    noise = rng.normal(size=D.shape) + 1j * rng.normal(size=D.shape)
    noise *= 0.1 * gap / np.linalg.norm(noise, 2)
    on_ladder = OperatorBlock(block.domain, block.codomain, D + noise * (D != 0))
    data = analytic_index(on_ladder)
    assert (len(data.cols), len(data.rows)) == (1, 0)
    rank = lapack_singular_data(D + noise)[0]
    assert (D.shape[1] - rank, D.shape[0] - rank) == (1, 0)
    bumped = OperatorBlock(block.domain, block.codomain, D + noise)
    with pytest.raises(ModelError, match="not monomial"):
        analytic_index(bumped)


@pytest.mark.parametrize("twist", [2, -2])
def test_magnetic_translation_is_unitary_and_commutes(twist):
    fiber = FiberModel(2, 8, 20)
    block = dolbeault_family(fiber, twist, levels=4)
    v = (10, 10)  # half shift on the n = 20 grid
    U_dom = magnetic_translation_matrix(block.domain, v, twist)
    U_cod = magnetic_translation_matrix(block.codomain, v, twist)
    eye_d = np.eye(block.domain.size)
    eye_c = np.eye(block.codomain.size)
    assert np.max(np.abs(U_dom.conj().T @ U_dom - eye_d)) <= 1e-10
    assert np.max(np.abs(U_cod.conj().T @ U_cod - eye_c)) <= 1e-10
    assert np.max(np.abs(U_cod @ block.matrix - block.matrix @ U_dom)) <= 1e-10


def test_magnetic_translation_square_is_the_predicted_phase():
    fiber = FiberModel(2, 8, 20)
    twist = 2
    basis = landau_basis(fiber, twist, max_level=3)
    U = magnetic_translation_matrix(basis, (10, 10), twist)
    phase = np.exp(1j * np.pi * twist / 2.0)
    assert np.max(np.abs(U @ U - phase * np.eye(basis.size))) <= 1e-10


def test_magnetic_translation_needs_compatible_twist():
    fiber = FiberModel(2, 8, 20)
    with pytest.raises(ModelError):
        magnetic_translation(np.ones(400, dtype=complex), (10, 10), 1, fiber)


@pytest.mark.parametrize("twist", [1, -1, 0])
def test_graph_idempotent_is_exact_and_traces_to_the_index(twist):
    space = trivial_space()
    idem = index_idempotent(dolbeault_family(space.fiber, twist, levels=4))
    assert idempotent_defect(idem) <= 1e-10
    cutoff = compute_cutoff(space)
    value = trace_tau(idem.skernel, space, cutoff) - trace_tau(idem.cokernel, space, cutoff)
    assert abs(value - twist) <= 1e-8


def test_localized_idempotent_converges_and_stays_local():
    space = trivial_space(n=24, N=8)
    idem = index_idempotent(dolbeault_family(space.fiber, 8, levels=2), radius=0.45)
    assert idempotent_defect(idem) <= 1e-8
    assert idem.skernel.order == 8
    assert idem.radius == 0.45
    cutoff = compute_cutoff(space)
    value = trace_tau(idem.skernel, space, cutoff) - trace_tau(idem.cokernel, space, cutoff)
    assert abs(value - 8) <= 1e-6 * 8


def test_localization_error_when_budget_exhausted(monkeypatch):
    block = dolbeault_family(FiberModel(2, 8, 24), 8, levels=2)
    monkeypatch.setattr(parametrix_module, "MAX_PROJECTOR_STEPS", 1)
    with pytest.raises(LocalizationError):
        index_idempotent(block, radius=0.18)


@pytest.mark.parametrize("radius", [0.03, 0.10])
def test_flux24_cuts_too_tight_for_the_kernel_decay_are_refused(radius):
    # the cut Fourier blocks keep trace 3 each but no eigenvalue above 1/2
    block = dolbeault_family(FiberModel(2, 19, 40), 24, levels=2)
    with pytest.raises(LocalizationError, match="too tight"):
        index_idempotent(block, radius=radius)


def test_operator_pipeline_needs_only_the_fiber():
    # operator, spectral count, localized idempotent and its cached form are
    # built from a fiber model alone: no space, cutoff or weight exists
    fiber = FiberModel(2, 8, 24)
    block = dolbeault_family(fiber, 8, levels=2)
    data = analytic_index(block)
    assert data.index == 8
    idem = index_idempotent(block, radius=0.45, data=data)
    arrays = idem.arrays()
    back = IndexIdempotent.from_arrays(fiber, arrays, data, 0.45)
    assert back.skernel.fiber is back.cokernel.fiber is fiber
    assert len(back.arrays()) == len(arrays) == 5
    assert all(
        a.dtype == b.dtype and same_bits(a, b) for a, b in zip(back.arrays(), arrays)
    )

