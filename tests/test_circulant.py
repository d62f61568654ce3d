"""Block-circulant kernels against the dense computations they replace.

A twist-d Dolbeault projector on grid n commutes with the translation by
n/gcd(d, n) ticks along axis 0, so it is block circulant in gcd(d, n)
blocks, cut or not.  The block count is certified on the translation
phases of the projector's basis columns, which split into the frames of
its Fourier blocks, and the localized projector and the k = 1 profile
chain run on those blocks.  The dense scan of the
grid matrix of the pseudo-inverse remainder and the dense rotation sum
below are the forms they replaced, kept as oracles; the projector must be
the spectral projector of the cut that eigh gives, to rounding.  The
projector and the chain each hold a fraction of one (g, B, B) stack: the
chain streams the Fourier blocks of its two masked kernels one row block
at a time.  It contracts those blocks against the rank-r_k frame of each
block of the projector, so it agrees with the whole-stack form kept in
``oracles``, which transforms the block row, to rounding rather than bit
for bit.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from indexpairing.dolbeault import dolbeault_family
from indexpairing.forms import INVARIANCE_TOL, InvarianceError
from indexpairing.grids import FiberModel, ModelError
from indexpairing.operators import (
    CIRCULANT_RTOL,
    ENTRY_BOUND_MARGIN,
    SmoothingKernel,
    block_count,
    certified_block_count,
    require_invariant,
    truncation_mask,
)
import indexpairing.harness as harness
import indexpairing.operators as operators
import indexpairing.pairing as pairing_module
import indexpairing.parametrix as parametrix_module
from indexpairing.harness import load_scenario
from indexpairing.pairing import (
    ProfileCochain,
    TransitionProfile,
    _hermitian_defect,
    _is_hermitian,
    _weighted_profile_chain,
)
from indexpairing.parametrix import (
    RANK_THRESHOLD,
    RANK_WINDOW,
    LocalizationError,
    ProjectorFrame,
    ThresholdAmbiguityError,
    _class_frames,
    _frame_row,
    _singular_data,
    _spectral_projector,
    analytic_index,
    index_idempotent,
)
from indexpairing.scenario import BUILTIN_SCENARIOS
from indexpairing.space import FiberedGSpace
from oracles import (
    basis_matrix,
    certified_block_count_every_power,
    certified_block_row,
    circulant_blocks,
    circulant_dense,
    circulant_row,
    dense_block_row,
    dense_kernel,
    diagonal_starts,
    eigh_range_basis,
    frame_basis,
    grid_projector,
    hermitian_defect_whole_row,
    is_hermitian_whole_row,
    is_monomial,
    kernel_norm_dense,
    lapack_idempotent,
    lapack_singular_data,
    moved_defect_ix,
    profile_chain_whole_stack,
    remainder_projectors,
    same_bits,
    spectral_projector,
    twisted_invariance_defect_dense,
    unit_frame,
    unit_frequencies,
)

PERFBENCH_SCENARIOS = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "scenarios").glob("*.json")
)


def circulant_order(m, grid_size):
    """Largest g dividing grid_size with the N x N grid matrix m block circulant in g blocks.

    That is, m[i + N/g, j + N/g] = m[i, j] with indices mod N.  Every entry
    is compared with the expansion of block row 0, one block row at a time,
    to CIRCULANT_RTOL times the largest entry of block row 0.  Returns 1 for
    no structure.
    """
    for g in range(grid_size, 1, -1):
        if grid_size % g == 0 and is_block_circulant(m, g):
            return g
    return 1


def is_block_circulant(m, g):
    width = m.shape[0] // g
    row = m[:width].reshape(width, g, width)
    tol = CIRCULANT_RTOL * float(np.max(np.abs(row)))
    for a in range(1, g):
        # block (a, b) of the expansion is C_{b-a mod g}
        here = m[a * width : (a + 1) * width].reshape(width, g, width)
        if np.max(np.abs(here[:, a:] - row[:, : g - a])) > tol:
            return False
        if np.max(np.abs(here[:, :a] - row[:, g - a :])) > tol:
            return False
    return True


def kernel_columns(n, N, twist):
    """The twisted Dolbeault operator, its domain basis and the basis columns of its kernel."""
    block = dolbeault_family(FiberModel(2, N, n), twist, levels=2)
    return block, block.domain, analytic_index(block).cols


def dense_cut(basis, R, radius):
    """The grid matrix of the coefficient matrix R on ``basis``, cut at radius."""
    fiber = basis.fiber
    return grid_projector(basis, R) * truncation_mask(fiber, radius, fiber.npoints)


def truncated_projector(n, N, twist, radius):
    """The pinv oracle of the twisted Dolbeault kernel projector S0, cut at radius."""
    block, basis, _ = kernel_columns(n, N, twist)
    return basis.fiber, dense_cut(basis, remainder_projectors(block)[0], radius)


def frame_row(basis, radius, cols):
    """Block row 0 of the projector onto the basis columns at ``cols``, cut at radius, in
    the block count the library certifies on those columns, formed from the whole frame."""
    W = basis_matrix(basis).take(cols, axis=1)
    g = certified_block_count(basis.fiber, W, basis.frequencies[cols])
    return dense_block_row(basis.fiber, W, g, radius)


def counted_cuts(monkeypatch):
    """The row counts of every ``truncation_mask`` call of the idempotent construction from now on."""
    cuts = []
    mask = parametrix_module.truncation_mask

    def counted(fiber, radius, rows):
        cuts.append(rows)
        return mask(fiber, radius, rows)

    monkeypatch.setattr(parametrix_module, "truncation_mask", counted)
    return cuts


def assert_near_oracle(row, S):
    """The stored row is the first rows of the pinv-oracle matrix S, to rounding."""
    assert np.max(np.abs(row - S[: len(row)])) <= 1e-13 * np.max(np.abs(row))


def dense_rotation_sum(cw, X, Y, Z):
    P = X @ Y
    R = Y @ Z
    return complex(
        np.einsum("i,ij,ji->", cw, P, Z)
        + np.einsum("i,ij,ji->", cw, Z, P)
        + np.einsum("i,ij,ji->", cw, R, X)
    )


def dense_profile_chain(masks, cw, K):
    """The four-product chain (S(K) - S(K^T)) / 6, valid for every K."""
    W0, W1 = masks

    def rotations(M):
        return dense_rotation_sum(cw, M * W0, M * W1, M)

    return (rotations(K) - rotations(K.T)) / 6.0


def block_projector(fiber, S):
    """The localized projector on the blocks the dense oracle finds: its frame and defect bound."""
    g = circulant_order(S, fiber.grid_size)
    return stack_projector(fiber, S[: S.shape[0] // g])


def stack_projector(fiber, row):
    """The localized projector of the cut block row ``row``, each block of the rank its trace
    rounds to, iterated from the unit vectors at its largest diagonal entries: its
    frame, whose block row the frames form, and the bound on its defect."""
    blocks = circulant_blocks(row)
    # the radius only names the cut in a refusal
    bound, frames = _spectral_projector(blocks, diagonal_starts(blocks), 0.30)
    ranks = [Y.shape[1] for Y in frames]
    return ProjectorFrame(fiber, np.hstack(frames), ranks), bound


def stack_chain(phi, cw, proj):
    """The profile chain of the frame ``proj``: the whole-stack oracle's on its held row, to
    1e-13, for a hermitian row; any other the library refuses, and the oracle's
    four-product value is returned."""
    want = profile_chain_whole_stack(phi, cw, proj.row)
    if not is_hermitian_whole_row(proj.row):
        with pytest.raises(ModelError, match="hermitian"):
            _weighted_profile_chain(phi, cw, proj)
        return want
    got = _weighted_profile_chain(phi, cw, proj)
    assert abs(got - want) <= 1e-13 * abs(want)
    return got


def sawtooth(fiber):
    saw = TransitionProfile(linear_radius=0.45)
    return ProfileCochain(fiber, [(0, saw), (1, saw)])


def _random_near_projector(rng, npts, rank):
    """Hermitian, not block circulant, with eigenvalues near 0 and 1."""
    Z = rng.standard_normal((npts, npts)) + 1j * rng.standard_normal((npts, npts))
    Q, _ = np.linalg.qr(Z)
    noise = 1e-3 * (Z + Z.conj().T) / np.sqrt(npts)
    return Q[:, :rank] @ Q[:, :rank].conj().T + noise


@pytest.fixture(scope="module")
def flow_cases():
    """(name, fiber, matrix, expected order): two flux projectors and two g = 1 kernels."""
    fiber8, S8 = truncated_projector(24, 8, 8, 0.45)
    fiber12, S12 = truncated_projector(30, 11, 12, 0.45)
    rng = np.random.default_rng(53)
    moved = S8.copy()
    moved[3, 5] += 1e-9 * np.max(np.abs(S8))
    return [
        ("flux8-grid24", fiber8, S8, 8),
        ("flux12-grid30", fiber12, S12, 6),
        ("random-hermitian", fiber8, _random_near_projector(rng, 576, 8), 1),
        ("moved-entry", fiber8, moved, 1),
    ]


@pytest.mark.parametrize("case", range(4))
def test_block_flow_and_chain_match_dense_oracles(flow_cases, case):
    name, fiber, S, order = flow_cases[case]
    n = fiber.grid_size
    assert circulant_order(S, n) == order, name
    if name == "moved-entry":
        # one entry moved off the hermitian pair: the cut is refused, and so
        # is the chain of the cut itself, whose four-product oracle value
        # the dense chain checks
        with pytest.raises(LocalizationError, match="hermitian"):
            block_projector(fiber, S)
        got = S
        proj = ProjectorFrame(fiber, unit_frame(len(S), [0]), [1])
        proj.row = S
        assert not hermitian_test_is_the_whole_row_test(S)
    else:
        proj, bound = block_projector(fiber, S)
        row = proj.row
        got = circulant_dense(row)
        want = spectral_projector(S)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        assert float(np.max(np.abs(got @ got - got))) <= bound <= 1e-8, name
        hermitian_test_is_the_whole_row_test(row)

    # the chain of the kernel, with a weight that no translation fixes
    npts = S.shape[0]
    cw = np.random.default_rng(59).uniform(0.2, 1.8, npts)
    phi = sawtooth(fiber)
    masks = [phi.leg_mask(i, 0, npts) for i in (0, 1)]
    assert circulant_order(got, n) == order, name
    want_chain = dense_profile_chain(masks, cw, got)
    got_chain = stack_chain(phi, cw, proj)
    assert abs(got_chain - want_chain) <= 1e-12 * abs(want_chain), name


def benchmark_row(path):
    """The fiber and the certified, cut kernel row of a perfbench scenario."""
    scn = load_scenario(str(path))
    fib, op = scn.fiber, scn.operator
    fiber = FiberModel(fib["dim"], fib["fourier_cutoff"], fib["grid"])
    block = dolbeault_family(fiber, op["twist"], op["levels"])
    return fiber, frame_row(block.domain, scn.localize, analytic_index(block).cols)


@pytest.mark.parametrize("path", PERFBENCH_SCENARIOS, ids=lambda path: path.stem)
def test_benchmark_flow_and_chain_are_bitwise_the_whole_stack_oracles(path):
    fiber, row = benchmark_row(path)
    want = circulant_row(spectral_projector(circulant_blocks(row)))
    proj, bound = stack_projector(fiber, row)
    projected = proj.row
    assert np.max(np.abs(projected - want)) <= 1e-12 * np.max(np.abs(want))
    assert bound <= 1e-8
    cw = np.random.default_rng(61).uniform(0.2, 1.8, fiber.npoints)
    phi = sawtooth(fiber)
    # the stored row is hermitian: the chain takes the even rotations alone
    assert hermitian_test_is_the_whole_row_test(projected)
    stack_chain(phi, cw, proj)
    # a frame whose held row has one entry moved off the hermitian pair is
    # refused; the four-product oracle gives it a real part the even
    # rotations alone would drop
    moved = projected.copy()
    moved[3, 5] += 1e-9 * np.max(np.abs(projected))
    assert not hermitian_test_is_the_whole_row_test(moved)
    proj = ProjectorFrame(fiber, proj.frame, proj.ranks)
    proj.row = moved
    assert abs(stack_chain(phi, cw, proj).real) > 0.0


def orthonormal_block_frame(rng, width, ranks):
    """A cut frame [Y_0 .. Y_{g-1}] of orthonormal blocks of the given ranks."""
    frames = []
    for r in ranks:
        Z = rng.standard_normal((width, r)) + 1j * rng.standard_normal((width, r))
        frames.append(np.linalg.qr(Z)[0])
    return np.hstack(frames)


def frame_case(name):
    """(fiber, frame) for each kind of frame the profile chain reads."""
    if name.startswith("uncut"):
        # unlocalized Dolbeault kernel projectors: twist 3 on grid 20 has
        # one block, twist 8 on grid 24 eight
        n, N, twist = (20, 8, 3) if name == "uncut-g1" else (24, 8, 8)
        fiber = FiberModel(2, N, n)
        return fiber, index_idempotent(dolbeault_family(fiber, twist, levels=2)).skernel
    fiber = FiberModel(2, 3, 8)
    ranks = (2, 0, 1, 0) if name == "cut-empty-blocks" else (0, 0, 0, 0)
    frame = orthonormal_block_frame(np.random.default_rng(71), fiber.npoints // 4, ranks)
    return fiber, ProjectorFrame(fiber, frame, ranks)


@pytest.mark.parametrize("name", ["uncut-g1", "uncut-g8", "cut-empty-blocks", "zero"])
def test_profile_chain_of_every_frame_kind_matches_the_dense_oracle(name):
    # uncut frames are the basis columns split by their axis-0 frequencies;
    # a block of rank 0 contributes nothing, and a frame whose every block
    # has rank 0 is the zero projector
    fiber, proj = frame_case(name)
    assert proj.order == {"uncut-g1": 1, "uncut-g8": 8}.get(name, 4)
    npts = fiber.npoints
    cw = np.random.default_rng(73).uniform(0.2, 1.8, npts)
    phi = sawtooth(fiber)
    masks = [phi.leg_mask(i, 0, npts) for i in (0, 1)]
    want = dense_profile_chain(masks, cw, circulant_dense(proj.row))
    got = _weighted_profile_chain(phi, cw, proj)
    if name == "zero":
        assert want == 0 and got == 0
    else:
        assert abs(got - want) <= 1e-12 * abs(want), name


def hermitian_test_is_the_whole_row_test(row):
    """The chain's hermitian decision, once its defect and decision are bitwise the whole-row ones."""
    assert same_bits(_hermitian_defect(row), hermitian_defect_whole_row(row))
    hermitian = _is_hermitian(row)
    assert hermitian == is_hermitian_whole_row(row)
    return hermitian


def traced_peak(fn):
    """fn's result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flux24_certificate_flow_and_chain_hold_few_block_stacks():
    # one stack is the Fourier blocks of the flux-24 projector, 8 x 200 x 200
    block, basis, cols = kernel_columns(40, 19, 24)
    fiber = basis.fiber
    # the frame, sampled before tracing starts; the construction samples its own
    W = basis_matrix(basis).take(cols, axis=1)
    frequencies = basis.frequencies[cols]
    stack = 8 * 200 * 200 * 16
    g, cert_peak = traced_peak(lambda: certified_block_count(fiber, W, frequencies))
    assert g == 8
    starts = _class_frames(W, frequencies, g)
    blocks = circulant_blocks(dense_block_row(fiber, W, g, 0.30))
    (_, frames), projector_peak = traced_peak(lambda: _spectral_projector(blocks, starts, 0.30))
    ranks = [Y.shape[1] for Y in frames]
    proj = ProjectorFrame(fiber, np.hstack(frames), ranks)
    row, row_peak = traced_peak(lambda: _frame_row(proj))
    assert row.nbytes == stack
    proj.row = row
    cw = np.random.default_rng(67).uniform(0.2, 1.8, fiber.npoints)
    phi = sawtooth(fiber)
    _, chain_peak = traced_peak(lambda: _weighted_profile_chain(phi, cw, proj))
    data = analytic_index(block)
    _, idem_peak = traced_peak(lambda: index_idempotent(block, radius=0.30, data=data))
    peaks = [peak / stack for peak in (row_peak, projector_peak, chain_peak, idem_peak)]
    # the certificate holds 0.52 frames of 0.12 stacks: the squares of the
    # frame's moduli for its row norms, the translation defect then taken one
    # block row at a time, where the whole rolled and phased frames took 2.24
    # and the least-squares fit 3.07.  A row formed from the frames peaks at
    # 1.02 stacks, its Fourier blocks transformed in place and read as the
    # row; the projector at 0.39, three one-block temporaries of its
    # hermitian gate; the chain at 0.41, one tick of masked rows transformed
    # in a reused buffer, its mask rows and the frame-sized products, where
    # the blocks of both masked kernels took 2.53; and the whole construction
    # at 1.41, one stack cut and transformed in place with the tick
    # distances of its mask in int32, where the cut row and its blocks took
    # 2.03.  So the pairing stage, the held row and the chain, peaks at 1.41
    # stacks too, where it took 3.53
    assert cert_peak / W.nbytes <= 0.53, cert_peak / W.nbytes
    assert peaks[0] <= 1.02 and peaks[1] <= 0.41 and peaks[2] <= 0.42, peaks
    assert peaks[3] <= 1.41, peaks


@pytest.mark.parametrize(
    "n, N, twist, order", [(40, 19, 24, 8), (48, 23, 32, 16), (30, 11, 12, 6), (24, 8, 8, 8)]
)
def test_truncated_flux_projectors_take_the_block_path(n, N, twist, order, monkeypatch):
    # the flux-24 benchmark projector, S4's and the two flow cases: the
    # certificate chooses the block count the dense scan of the cut pinv
    # oracle finds, and the cut the construction hands to orthogonal
    # iteration is that matrix's first rows, cut once
    block, basis, cols = kernel_columns(n, N, twist)
    S = dense_cut(basis, remainder_projectors(block)[0], 0.30)
    assert circulant_order(S, n) == order
    cut = counted_cuts(monkeypatch)
    W = basis_matrix(basis).take(cols, axis=1)
    # the certificate cuts no row
    assert certified_block_count(basis.fiber, W, basis.frequencies[cols]) == order and cut == []
    rows = []
    project = parametrix_module._spectral_projector

    def kept(blocks, starts, radius):
        rows.append(circulant_row(blocks))
        return project(blocks, starts, radius)

    monkeypatch.setattr(parametrix_module, "_spectral_projector", kept)
    idem = index_idempotent(block, radius=0.30)
    assert cut == [S.shape[0] // order]
    monkeypatch.undo()
    (row,) = rows
    assert_near_oracle(row, S)
    assert idem.skernel.order == order
    assert idem.skernel.row.shape == (S.shape[0] // order, S.shape[0])
    # S1 of a positive flux is exactly zero, and stored as no row
    assert idem.cokernel.row is None and idem.cokernel.mats == []


UNLOCALIZED_BUILTINS = [
    name for name, entry in BUILTIN_SCENARIOS.items() if entry["doc"].get("localize") is None
]


@pytest.mark.parametrize("name", UNLOCALIZED_BUILTINS)
def test_unlocalized_builtins_store_certified_block_rows(name):
    # nothing is cut, so each nonzero projector is stored as the first rows
    # of its whole grid matrix, at a block count the dense scan of the pinv
    # oracle accepts
    scn = load_scenario(name)
    fiber = harness._build_space(scn).fiber
    block, _ = harness._build_operator(scn, fiber)
    idem = index_idempotent(block)
    bases = (block.domain, block.codomain)
    for kern, basis, r in zip(idem.families, bases, remainder_projectors(block)):
        if kern.row is None:
            assert not np.any(r), name
            continue
        dense = grid_projector(basis, r)
        assert_near_oracle(kern.row, dense)
        assert is_block_circulant(dense, kern.order), name
    if name == "S1-dolbeault-d0":
        # the twist-0 projectors onto the constants commute with every tick
        assert [kern.order for kern in idem.families] == [20, 20]


def range_case(name):
    """The operator of a builtin or perfbench scenario, or of the flux-48 probe, and its cut."""
    if name == "flux48-grid72":
        return dolbeault_family(FiberModel(2, 32, 72), 48, levels=2), 0.30
    scn = load_scenario(name)
    block, _ = harness._build_operator(scn, harness._build_space(scn).fiber)
    return block, scn.localize


def dense_scan(basis, R, radius, g):
    """is_block_circulant of the cut grid matrix of R, one block row formed at a time."""
    fiber = basis.fiber
    E, n = basis_matrix(basis), fiber.npoints
    width = n // g
    mask = truncation_mask(fiber, radius, n)
    right = R @ E.conj().T / n

    def block_row(a):
        rows = slice(a * width, (a + 1) * width)
        return (E[rows] @ right * mask[rows]).reshape(width, g, width)

    row = block_row(0)
    tol = CIRCULANT_RTOL * float(np.max(np.abs(row)))
    for a in range(1, g):
        # block (a, b) of the expansion is C_{b-a mod g}
        if np.max(np.abs(block_row(a) - np.roll(row, a, axis=1))) > tol:
            return False
    return True


@pytest.mark.parametrize(
    "name",
    [*BUILTIN_SCENARIOS, *(str(path) for path in PERFBENCH_SCENARIOS), "flux48-grid72"],
    ids=lambda name: Path(name).stem,
)
def test_frames_certify_the_block_count_of_the_pinv_remainders(name):
    # the unit vectors V at each index set span its remainder of the
    # pseudo-inverse, 1 - QD or 1 - DQ, which is V V^H to rounding; the
    # basis columns at the indices certify the block count an eigenvector
    # basis of the remainder certifies, the dense scan of the cut remainder
    # accepts it, and the row is that matrix's first rows
    block, localize = range_case(name)
    radius = np.inf if localize is None else localize
    data = analytic_index(block)
    bases = (block.domain, block.codomain)
    for basis, indices, r in zip(bases, (data.cols, data.rows), remainder_projectors(block)):
        v = unit_frame(basis.size, indices)
        assert np.max(np.abs(r - v @ v.conj().T), initial=0.0) <= 1e-14, name
        eigen = eigh_range_basis(r)
        assert eigen.shape == v.shape, name
        if not len(indices):
            continue
        row = frame_row(basis, radius, indices)
        g = block_count(row)
        eigen_basis, every = frame_basis(basis, eigen, unit_frequencies(basis, eigen))
        assert block_count(frame_row(eigen_basis, radius, every)) == g, name
        assert dense_scan(basis, r, radius, g), name
        width = len(row)
        mask = truncation_mask(basis.fiber, radius, width)
        E = basis_matrix(basis)
        assert_near_oracle(row, E[:width] @ r @ E.conj().T / basis.fiber.npoints * mask)


def diagonal_block(shape, entries):
    """The (m, n) matrix with ``entries`` on its diagonal and zeros elsewhere."""
    M = np.zeros(shape, dtype=complex)
    np.fill_diagonal(M, entries)
    return M


def permuted(M, seed):
    """M with its rows and its columns in seeded random orders."""
    rng = np.random.default_rng(seed)
    return M[rng.permutation(M.shape[0])][:, rng.permutation(M.shape[1])]


# moduli 3, 2, 2, 2, 1, 0, 0: zero entries, and ties of moduli in several phases
TIED = [2j, 0, -2, 1, 3, 0, 2]
SHAPES = [(7, 7), (9, 7), (7, 10)]
# the builtin Landau operators at twist -2, -1, 1 and 2, and the perfbench one at 24
LANDAU = [
    *(f"S1-dolbeault-{d}" for d in ("dm2", "dm1", "d1", "d2")),
    str(PERFBENCH_SCENARIOS[0]),
]


def monomial_cases():
    """Monomial blocks and their certified ranks.

    The diagonal block of TIED on square, tall and wide shapes, its row,
    column and row-and-column permutations, the zero block of each shape,
    and the Landau blocks.
    """
    for shape in SHAPES:
        tag = "x".join(map(str, shape))
        M = diagonal_block(shape, TIED)
        yield pytest.param(M, 5, id=f"diagonal-{tag}")
        yield pytest.param(M[np.random.default_rng(1).permutation(shape[0])], 5, id=f"rows-{tag}")
        yield pytest.param(M[:, np.random.default_rng(2).permutation(shape[1])], 5, id=f"columns-{tag}")
        yield pytest.param(permuted(M, 3), 5, id=f"both-{tag}")
        yield pytest.param(np.zeros(shape, dtype=complex), 0, id=f"zero-{tag}")
    for name in LANDAU:
        block, _ = range_case(name)
        yield pytest.param(block.matrix, min(block.matrix.shape), id=Path(name).stem)


@pytest.mark.parametrize("M, rank", list(monomial_cases()))
def test_a_monomial_block_reads_the_singular_data_of_its_lapack_svd(M, rank):
    # the rank read off the entries is LAPACK's, and the unit projectors
    # U U^H of the ascending kernel columns and cokernel rows are the
    # projectors V V^H of its trailing singular vectors
    assert is_monomial(M)
    lapack = lapack_singular_data(M)
    got = _singular_data(M)
    assert lapack[0] == rank
    assert (len(got.cols), len(got.rows)) == (M.shape[1] - rank, M.shape[0] - rank)
    for size, indices, ref in zip(M.shape[::-1], (got.cols, got.rows), lapack[1:]):
        assert indices.dtype == np.int64 and np.all(np.diff(indices) > 0)
        mine = unit_frame(size, indices)
        assert np.max(np.abs(mine @ mine.conj().T - ref @ ref.conj().T)) <= 1e-15


def test_a_monomial_modulus_at_the_rank_cut_is_ambiguous_on_both_routes():
    # a modulus within RANK_WINDOW of RANK_THRESHOLD * sigma_max
    near = RANK_THRESHOLD * max(abs(z) for z in TIED) * RANK_WINDOW / 2
    for shape in SHAPES:
        M = diagonal_block(shape, [*TIED[:-1], near])
        for block in (M, permuted(M, 4)):
            for route in (_singular_data, lapack_singular_data):
                with pytest.raises(ThresholdAmbiguityError):
                    route(block)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_a_block_not_monomial_or_not_finite_is_refused(shape):
    # a second nonzero entry in row 1, then in column 1, and a non-finite
    # modulus, in place and permuted: the parametrix reads no singular data
    M = diagonal_block(shape, TIED)
    for i, j in ((1, 0), (0, 1)):
        mixed = M.copy()
        mixed[i, j] = 0.5
        for block in (mixed, permuted(mixed, 5)):
            with pytest.raises(ModelError, match="not monomial"):
                _singular_data(block)
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        broken = diagonal_block(shape, [*TIED[:-1], bad])
        for block in (broken, permuted(broken, 6)):
            with pytest.raises(ModelError, match="non-finite entry"):
                _singular_data(block)


@pytest.mark.parametrize("name", ["S1-dolbeault-d0", "S3-multiplier-invertible"])
def test_diagonal_builtins_store_the_rows_of_the_lapack_frames(name):
    # the basis columns at the indices of a diagonal block build and
    # certify bit for bit the idempotent rows of LAPACK's trailing singular
    # vectors
    block, _ = range_case(name)
    lapack = lapack_idempotent(block)
    mine = index_idempotent(block)
    for got, ref in zip(mine.families, lapack.families):
        assert got.row is ref.row is None or same_bits(got.row, ref.row), name


@pytest.mark.parametrize("name", LANDAU, ids=lambda name: Path(name).stem)
def test_landau_blocks_store_the_rows_of_the_lapack_frames_to_rounding(name):
    # LAPACK's trailing singular vectors V of a Landau block may mix basis
    # columns (two nonzeros a column at twist -2, -1, 1 and 2), so they carry no
    # axis-0 frequency of their own: the unlocalized idempotent's rows are
    # the dense rows (E V V^H E^H / n)[:B] of LAPACK's frames to 1e-15
    block, _ = range_case(name)
    _, v0, v1 = lapack_singular_data(block.matrix)
    mine = index_idempotent(block)
    for kern, basis, V in zip(mine.families, (block.domain, block.codomain), (v0, v1)):
        if kern.row is None:
            assert V.shape[1] == 0, name
            continue
        W = basis_matrix(basis) @ V
        want = W[: len(kern.row)] @ W.conj().T / basis.fiber.npoints
        assert np.max(np.abs(kern.row - want)) <= 1e-15, name


ROTATED = [
    (24, 8, 8, 4, 4),
    (24, 8, 8, 1, 1),
    # grid 20 samples the twist-20 levels with a Gram defect of 1.7e-10,
    # so the certificate runs on a basis that is not quadrature-orthonormal
    (20, 9, 20, 4, 4),
]


def rotated_name(case):
    n, _, twist, partner, _ = case
    return f"rotated-grid{n}-flux{twist}-partner{partner}"


def rotated_frames(n, N, twist, partner):
    """(eps, basis, R, rotated, every) for the flux-d kernel frame rotated by exp(i eps H).

    H couples the level-0 mode j = 0 to the level-1 mode j = partner, and
    eps sweeps 1e-16 .. 1e-8 across the tolerance.  The translation by n/g
    ticks multiplies mode j by exp(2 pi i j / g), so the coupling breaks
    every block count that does not divide gcd(partner, d), and the
    rotated frame stays orthonormal.  R is the pinv remainder on ``basis``,
    rotated alike; ``rotated`` is the rotated frame as a basis, and every
    the indices of all its columns.
    """
    block, basis, cols = kernel_columns(n, N, twist)
    frame = unit_frame(basis.size, cols)
    R = remainder_projectors(block)[0]
    H = np.zeros_like(R)
    H[0, twist + partner] = H[twist + partner, 0] = 1.0
    w, V = np.linalg.eigh(H)
    for eps in 10.0 ** np.arange(-16.0, -7.5, 0.5):
        rot = (V * np.exp(1j * eps * w)) @ V.conj().T
        rotated = frame_basis(basis, rot @ frame, basis.frequencies[cols])
        yield (eps, basis, rot @ R @ rot.conj().T, *rotated)


@pytest.mark.parametrize("n, N, twist, partner, coarser", ROTATED)
def test_certificate_never_accepts_what_the_dense_oracle_refuses(n, N, twist, partner, coarser):
    # every block count the certificate accepts on the rotated frame must
    # pass the dense scan of the rotated pinv remainder, cut
    chosen = []
    for eps, basis, R, rotated, every in rotated_frames(n, N, twist, partner):
        S = dense_cut(basis, R, 0.45)
        row = frame_row(rotated, 0.45, every)
        g = block_count(row)
        assert is_block_circulant(S, g), eps
        assert_near_oracle(row, S)
        chosen.append((g, circulant_order(S, n)))
    # the sweep crosses the threshold: both accept d blocks at the smallest
    # coupling, and both refuse it at the largest
    assert chosen[0] == (twist, twist)
    assert chosen[-1] == (coarser, coarser)
    assert all(g <= dense for g, dense in chosen)


@pytest.mark.parametrize("n, N, twist", [(24, 8, 8), (30, 11, 12)])
def test_wrong_frequencies_never_certify_a_wrong_block_count(n, N, twist):
    # the kernel frame of the flux-d projector, read with wrong axis-0
    # frequencies: the certificate refuses the block count the dense scan of
    # the pinv remainder finds, and any smaller count it certifies instead
    # the dense scan accepts too, and so does the oracle that tests every
    # power of the translation
    block, basis, cols = kernel_columns(n, N, twist)
    S = grid_projector(basis, remainder_projectors(block)[0])
    order = circulant_order(S, n)
    W = basis_matrix(basis).take(cols, axis=1)
    right = basis.frequencies[cols]
    assert certified_block_count(basis.fiber, W, right) == order
    one = right.copy()
    one[1] += 1
    wrong = {
        "one column off by one": one,
        "every column off by two": right + 2,
        "permuted": np.random.default_rng(79).permutation(right),
        "half a period off": right + order // 2,
    }
    for name, frequencies in wrong.items():
        g = certified_block_count(basis.fiber, W, frequencies)
        assert g < order and is_block_circulant(S, g), (name, g)
        assert g <= certified_block_count_every_power(basis.fiber, W, frequencies), name


CERTIFIED_RADII = [0.18, 0.30, 0.45, np.inf]


def frame_count_against_two_stage(basis, cols):
    """The block count certified on the frame at ``cols``, and that of the two-stage
    certificate at each radius of CERTIFIED_RADII, after checking that the
    frame's acceptance line is at most CIRCULANT_RTOL times the largest
    entry of the row cut at each radius."""
    fiber = basis.fiber
    n = fiber.npoints
    W = basis_matrix(basis).take(cols, axis=1)
    # no radius enters: the count is certified once for every radius
    g = certified_block_count(fiber, W, basis.frequencies[cols])
    norms = np.sum(np.abs(W[: n // g]) ** 2, axis=1)
    line = CIRCULANT_RTOL * float(np.max(norms)) / n * (1.0 - ENTRY_BOUND_MARGIN)
    two_stage = []
    for radius in CERTIFIED_RADII:
        row = dense_block_row(fiber, W, g, radius)
        assert line <= CIRCULANT_RTOL * float(np.max(np.abs(row))), radius
        two_stage.append(block_count(certified_block_row(basis, radius, cols)))
    return g, two_stage


@pytest.mark.parametrize(
    "name",
    [
        *BUILTIN_SCENARIOS,
        *(str(path) for path in PERFBENCH_SCENARIOS),
        *map(rotated_name, ROTATED),
    ],
    ids=lambda name: Path(name).stem,
)
def test_the_frame_certifies_a_radius_free_count_no_larger_than_the_two_stage_one(name):
    # the acceptance line read from the frame's row norms lies below the
    # largest entry of the cut row, so the count it certifies is never
    # larger than the two-stage certificate's, which tests each count
    # against the row it forms and cuts; on every shipped operator the two
    # are equal at every radius
    if name.startswith("rotated"):
        (case,) = (case for case in ROTATED if rotated_name(case) == name)
        for eps, _, _, rotated, every in rotated_frames(*case[:4]):
            g, two_stage = frame_count_against_two_stage(rotated, every)
            assert all(g <= old for old in two_stage), (eps, g, two_stage)
        return
    block, _ = range_case(name)
    data = analytic_index(block)
    for basis, indices in ((block.domain, data.cols), (block.codomain, data.rows)):
        if len(indices):
            g, two_stage = frame_count_against_two_stage(basis, indices)
            assert two_stage == [g] * len(CERTIFIED_RADII), (name, g, two_stage)


# (twist, grid) of scenarios that load at large twists, where the block count
# is the largest: every tick on grid 64 at twists 64, 128 and 192
TWIST_PROBES = [
    (64, 64), (128, 64), (160, 64), (192, 64), (-192, 64), (200, 64),
    (72, 72), (144, 72), (216, 72), (228, 76),
]


@pytest.mark.parametrize(
    "name",
    [
        *BUILTIN_SCENARIOS,
        *(str(path) for path in PERFBENCH_SCENARIOS),
        *(f"twist{twist}-grid{n}" for twist, n in TWIST_PROBES),
    ],
    ids=lambda name: Path(name).stem,
)
def test_one_translation_certifies_the_block_count_every_power_does(name):
    # the certificate bounds the defect of every power a <= g/2 of the
    # translation by g/2 times that of the first; on each nonzero S0 and S1
    # of every shipped operator and of the probes it accepts the block count
    # of the oracle that forms every power
    if name.startswith("twist"):
        twist, n = (int(part) for part in name[len("twist") :].split("-grid"))
        block = dolbeault_family(FiberModel(2, min(n // 2 - 1, 32), n), twist, levels=1)
    else:
        block, _ = range_case(name)
    data = analytic_index(block)
    for basis, indices in ((block.domain, data.cols), (block.codomain, data.rows)):
        if len(indices):
            W = basis.columns(indices)
            frequencies = basis.frequencies[indices]
            g = certified_block_count(basis.fiber, W, frequencies)
            assert g == certified_block_count_every_power(basis.fiber, W, frequencies), name


@pytest.mark.parametrize("n", [12, 30])
def test_leg_mask_rows_are_block_row_zero_of_the_full_mask(n):
    # the profile chain builds only block row 0 of each mask, one row block
    # at a time, and relies on the full mask being block circulant in every
    # g dividing the grid size
    fiber = FiberModel(2, (n - 2) // 2, n)
    npts = fiber.npoints
    saw = TransitionProfile(linear_radius=0.45)
    phi = ProfileCochain(fiber, [(0, saw), (1, saw)])
    for i in (0, 1):
        W = phi.leg_mask(i, 0, npts)
        assert circulant_order(W, n) == n
        for g in (g for g in range(1, n + 1) if n % g == 0):
            assert np.array_equal(phi.leg_mask(i, 0, npts // g), W[: npts // g])
        # ranges within one tick, across ticks and of one row
        for start, stop in ((0, 1), (n - 1, n + 1), (5, 3 * n + 2), (n, 2 * n), (npts - 1, npts)):
            assert np.array_equal(phi.leg_mask(i, start, stop), W[start:stop])


@pytest.fixture(scope="module")
def flux24():
    """The flux-24 benchmark idempotent: S0 in 8 blocks of 200 points, S1 zero."""
    idem = index_idempotent(dolbeault_family(FiberModel(2, 19, 40), 24, 2), radius=0.30)
    assert idem.skernel.order == 8 and idem.cokernel.row is None
    return idem


@pytest.mark.parametrize("rows", ["tick", 1, 7, "B"])
@pytest.mark.parametrize("name", ["uncut-g1", "flux24"])
def test_streamed_chain_matches_the_whole_stack_oracle_at_every_row_block(
    flux24, name, rows, monkeypatch
):
    # the chain streams both masked kernels by row blocks, one axis-0 tick
    # each by default; one row, 7 rows (a ragged last block: 7 divides
    # neither 400 nor 200) and the whole block row B give the oracle's value
    # too, in one block and in the 8 blocks of the flux-24 projector
    proj = frame_case(name)[1] if name == "uncut-g1" else flux24.skernel
    fiber = proj.fiber
    width = fiber.npoints // proj.order
    assert (proj.order, width) == ((1, 400) if name == "uncut-g1" else (8, 200))
    if rows != "tick":
        step = width if rows == "B" else rows
        monkeypatch.setattr(pairing_module, "_row_block", lambda fiber: step)
    cw = np.random.default_rng(79).uniform(0.2, 1.8, fiber.npoints)
    phi = sawtooth(fiber)
    want = profile_chain_whole_stack(phi, cw, proj.row)
    got = _weighted_profile_chain(phi, cw, proj)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@pytest.mark.parametrize(
    "order, shift, invariant",
    [
        # 20 and 10 ticks along axis 0, whole block widths (5 ticks), and
        # magnetic translations of the flux-24 bundle in both axes
        (2, ("1/2", "1/2"), True),
        (4, ("1/4", "1/2"), True),
        # 8 ticks send the leading rows into two blocks; 1/5 is no magnetic
        # translation, so both gates refuse
        (5, ("1/5", "2/5"), False),
    ],
)
def test_block_row_gate_is_the_dense_gate(flux24, order, shift, invariant):
    space = FiberedGSpace(flux24.skernel.fiber, order, shift)
    for kern in flux24.families:
        assert kern.twisted_invariance_defect(space) == twisted_invariance_defect_dense(kern, space)
    S0 = flux24.skernel
    dense_defect = twisted_invariance_defect_dense(S0, space)
    assert (dense_defect <= INVARIANCE_TOL * kernel_norm_dense(S0)) == invariant
    if invariant:
        require_invariant(space, "trace", *flux24.families)
    else:
        with pytest.raises(InvarianceError):
            require_invariant(space, "trace", *flux24.families)


@pytest.mark.parametrize("order, shift", [(2, ("1/2", "1/2")), (5, ("1/5", "2/5"))])
def test_moved_defect_is_bitwise_the_ix_gather(flux24, order, shift):
    # the half shift keeps the leading rows in one block, 8 ticks split them
    # into two runs; the moduli and the complex row are both gathered
    space = FiberedGSpace(flux24.skernel.fiber, order, shift)
    perms = [space.permutation(-g) for g in space.moving_elements()]
    row = flux24.skernel.row
    for field in (np.abs(row), row):
        defect = operators._moved_defect(field, perms)
        assert defect > 0.0 and defect == moved_defect_ix(field, perms)


def test_block_translations_and_zero_families_have_no_defect(flux24):
    # (1/2, 0) moves axis 0 by four block widths and nothing else, which
    # carries the block row onto itself
    fiber = flux24.skernel.fiber
    space = FiberedGSpace(fiber, 2, ("1/2", 0))
    for kern in flux24.families:
        assert kern.twisted_invariance_defect(space) == 0.0
        assert twisted_invariance_defect_dense(kern, space) == 0.0
    zero = flux24.cokernel
    half = FiberedGSpace(fiber, 2, ("1/2", "1/2"))
    assert zero.twisted_invariance_defect(half) == twisted_invariance_defect_dense(zero, half) == 0.0
    assert zero.norm() == kernel_norm_dense(zero) == 0.0


def test_block_norm_lies_between_the_largest_entry_and_the_norm():
    # the flux-8 projector on grid 24 in 8 blocks of 72, and a random
    # non-hermitian row in 4 blocks of 16
    idem = index_idempotent(dolbeault_family(FiberModel(2, 8, 24), 8, levels=2), radius=0.45)
    rng = np.random.default_rng(71)
    row = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    for kern in (idem.skernel, SmoothingKernel(FiberModel(2, 3, 8), row)):
        assert kern.order > 1
        dense = dense_kernel(kern)
        assert np.max(np.abs(dense)) <= kern.norm() <= np.linalg.norm(dense, 2) * (1 + 1e-12)


def test_block_row_gate_holds_less_than_one_dense_kernel(flux24):
    # the gate and its scale under the half shift, which moves the fiber:
    # a dense kernel would be 1600 x 1600 complex, 41 MB
    fiber = flux24.skernel.fiber
    space = FiberedGSpace(fiber, 2, ("1/2", "1/2"))
    assert flux24.skernel.twisted_invariance_defect(space) > 0.0
    _, peak = traced_peak(
        lambda: require_invariant(space, "trace", *flux24.families)
    )
    assert peak < fiber.npoints**2 * 16, peak
