"""Block-circulant kernels against the dense computations they replace.

A twist-d Dolbeault projector on grid n commutes with the translation by
n/gcd(d, n) ticks along axis 0, so it is block circulant in gcd(d, n)
blocks, cut or not.  The block count is certified on the projector's range,
and the Newton flow and the k = 1 profile chain run on Fourier blocks.  The dense
scan of the grid matrix, the dense McWeeny loop and the dense rotation sum
below are the forms they replaced, kept as oracles.  The flow and the chain
hold about three (g, B, B) stacks at a time, and must agree bit for bit with
the whole-stack forms kept in ``oracles``.
"""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from indexpairing.dolbeault import dolbeault_family
from indexpairing.forms import InvarianceError
from indexpairing.grids import FiberModel
from indexpairing.operators import (
    CIRCULANT_RTOL,
    TRACE_INVARIANCE_TOL,
    OperatorBlock,
    SmoothingKernel,
    block_count,
    certified_block_row,
    circulant_blocks,
    circulant_column,
    circulant_dense,
    circulant_row,
    require_invariant,
    truncation_mask,
)
import indexpairing.harness as harness
from indexpairing.harness import load_scenario
from indexpairing.pairing import (
    ProfileCochain,
    TransitionProfile,
    _is_hermitian,
    _weighted_profile_chain,
)
from indexpairing.parametrix import (
    MAX_NEWTON_STEPS,
    _newton_flow,
    index_idempotent,
    parametrix,
)
from indexpairing.scenario import BUILTIN_SCENARIOS
from indexpairing.space import FiberedGSpace
from oracles import (
    dense_kernel,
    eigh_range_basis,
    grid_matrix_conjugate_copy,
    kernel_norm_dense,
    newton_flow_whole_stack,
    profile_chain_whole_stack,
    twisted_invariance_defect_dense,
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


def kernel_remainder(n, N, twist):
    """The fiber, the twisted Dolbeault kernel projector block and its range basis."""
    fiber = FiberModel(2, N, n)
    data = parametrix(dolbeault_family(fiber, twist, levels=2))
    return fiber, data.r0, data.v0


def dense_cut(block, radius):
    fiber = block.domain.fiber
    return block.grid_matrix() * truncation_mask(fiber, radius, fiber.npoints)


def truncated_projector(n, N, twist, radius):
    """Kernel projector S0 of the twisted Dolbeault block, cut at radius."""
    fiber, block, _ = kernel_remainder(n, N, twist)
    return fiber, dense_cut(block, radius)


def dense_newton_flow(P, max_steps, tol):
    P2 = P @ P
    defect = float(np.max(np.abs(P2 - P)))
    steps = 0
    while defect > tol and steps < max_steps:
        P = 3.0 * P2 - 2.0 * (P2 @ P)
        steps += 1
        P2 = P @ P
        defect = float(np.max(np.abs(P2 - P)))
    return P, defect, steps


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


def block_newton_flow(S, grid_size, tol):
    """The flow on the blocks the dense oracle finds: its block row, defect and steps."""
    g = circulant_order(S, grid_size)
    return stack_flow(S[: S.shape[0] // g], tol)


def stack_flow(row, tol):
    """The flow of block row ``row``, bit for bit the whole-stack oracle's."""
    P, defect, steps = _newton_flow(circulant_blocks(row), tol)
    want, want_defect, want_steps = newton_flow_whole_stack(circulant_blocks(row), tol)
    assert (defect, steps) == (want_defect, want_steps)
    flowed = circulant_row(P)
    assert flowed.tobytes() == circulant_row(want).tobytes()
    return flowed, defect, steps


def stack_chain(phi, cw, row):
    """The profile chain of block row ``row``, bit for bit the whole-stack oracle's."""
    got = _weighted_profile_chain(phi, cw, row)
    assert np.array(got).tobytes() == np.array(profile_chain_whole_stack(phi, cw, row)).tobytes()
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
    want, want_defect, want_steps = dense_newton_flow(S, MAX_NEWTON_STEPS, 1e-8)
    row, got_defect, got_steps = block_newton_flow(S, n, 1e-8)
    got = circulant_dense(row)
    assert got_steps == want_steps >= 1, name
    assert got_defect <= 1e-8 and want_defect <= 1e-8, name
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    # the chain of the flowed kernel, with a weight that no translation fixes
    npts = S.shape[0]
    cw = np.random.default_rng(59).uniform(0.2, 1.8, npts)
    phi = sawtooth(fiber)
    masks = [phi.leg_mask(i, npts) for i in (0, 1)]
    assert circulant_order(got, n) == order, name
    want_chain = dense_profile_chain(masks, cw, got)
    got_chain = stack_chain(phi, cw, row)
    assert abs(got_chain - want_chain) <= 1e-12 * abs(want_chain), name


def benchmark_row(path):
    """The fiber and the certified, cut kernel row of a perfbench scenario."""
    scn = load_scenario(str(path))
    fib, op = scn.fiber, scn.operator
    fiber = FiberModel(fib["dim"], fib["fourier_cutoff"], fib["grid"])
    data = parametrix(dolbeault_family(fiber, op["twist"], op["levels"]))
    return fiber, certified_block_row(data.r0, scn.localize, data.v0)


@pytest.mark.parametrize("path", PERFBENCH_SCENARIOS, ids=lambda path: path.stem)
def test_benchmark_flow_and_chain_are_bitwise_the_whole_stack_oracles(path):
    fiber, row = benchmark_row(path)
    flowed, defect, steps = stack_flow(row, 1e-8)
    assert steps >= 1 and defect <= 1e-8
    cw = np.random.default_rng(61).uniform(0.2, 1.8, fiber.npoints)
    phi = sawtooth(fiber)
    assert _is_hermitian(flowed, circulant_column(flowed))
    stack_chain(phi, cw, flowed)
    # one entry moved off the hermitian pair: the four-product form
    moved = flowed.copy()
    moved[3, 5] += 1e-9 * np.max(np.abs(flowed))
    assert not _is_hermitian(moved, circulant_column(moved))
    assert abs(stack_chain(phi, cw, moved).real) > 0.0


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
    fiber, block, V = kernel_remainder(40, 19, 24)
    # the basis is sampled on first read, before tracing starts
    block.domain.matrix
    stack = 8 * 200 * 200 * 16
    row, cert_peak = traced_peak(lambda: certified_block_row(block, 0.30, V))
    assert row.nbytes == stack
    blocks = circulant_blocks(row)
    (P, _, _), flow_peak = traced_peak(lambda: _newton_flow(blocks, 1e-8))
    flowed = circulant_row(P)
    cw = np.random.default_rng(67).uniform(0.2, 1.8, fiber.npoints)
    phi = sawtooth(fiber)
    _, chain_peak = traced_peak(lambda: _weighted_profile_chain(phi, cw, flowed))
    peaks = [peak / stack for peak in (cert_peak, flow_peak, chain_peak)]
    # the certificate peaks at 1.95 stacks while it masks the accepted row
    assert peaks[0] <= 2.1 and peaks[1] <= 3.5 and peaks[2] <= 3.5, peaks


@pytest.mark.parametrize(
    "n, N, twist, order", [(40, 19, 24, 8), (48, 23, 32, 16), (30, 11, 12, 6), (24, 8, 8, 8)]
)
def test_truncated_flux_projectors_take_the_block_path(n, N, twist, order, monkeypatch):
    # the flux-24 benchmark projector, S4's and the two flow cases: the
    # certificate chooses the block count the dense scan of the cut grid
    # matrix finds, and its block row is that matrix's first rows, bit for bit
    fiber, block, V = kernel_remainder(n, N, twist)
    S = dense_cut(block, 0.30)
    assert circulant_order(S, n) == order
    formed = []
    grid_matrix = OperatorBlock.grid_matrix

    def counted(self, rows=None):
        formed.append(rows)
        return grid_matrix(self, rows)

    monkeypatch.setattr(OperatorBlock, "grid_matrix", counted)
    row = certified_block_row(block, 0.30, V)
    # every finer block count is refused by its first term alone, before its row
    assert formed == [S.shape[0] // order]
    monkeypatch.undo()
    assert block_count(row) == order
    assert np.array_equal(row, S[: S.shape[0] // order])

    idem = index_idempotent(dolbeault_family(fiber, twist, levels=2), radius=0.30)
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
    # of its whole grid matrix, at a block count the dense scan accepts
    scn = load_scenario(name)
    fiber = harness._build_space(scn).fiber
    block, _ = harness._build_operator(scn, fiber)
    data = parametrix(block)
    idem = index_idempotent(block)
    for kern, r in zip(idem.families, (data.r0, data.r1)):
        if kern.row is None:
            continue
        dense = r.grid_matrix()
        assert np.array_equal(kern.row, dense[: len(kern.row)]), name
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


@pytest.mark.parametrize(
    "name",
    [*BUILTIN_SCENARIOS, *(str(path) for path in PERFBENCH_SCENARIOS), "flux48-grid72"],
    ids=lambda name: Path(name).stem,
)
def test_singular_vectors_span_each_remainder_and_certify_its_block_count(name):
    # the trailing singular vectors are an orthonormal basis of each
    # remainder's range, and certify the block count an eigenvector basis
    # certifies; the accepted row is the grid matrix, bit for bit
    block, localize = range_case(name)
    radius = np.inf if localize is None else localize
    data = parametrix(block)
    for r, basis in ((data.r0, data.v0), (data.r1, data.v1)):
        assert np.max(np.abs(r.matrix - basis @ basis.conj().T), initial=0.0) <= 1e-12, name
        eigen = eigh_range_basis(r.matrix)
        assert eigen.shape == basis.shape, name
        if not basis.shape[1]:
            continue
        row = certified_block_row(r, radius, basis)
        assert block_count(certified_block_row(r, radius, eigen)) == block_count(row), name
        width = len(row)
        want = grid_matrix_conjugate_copy(r, width) * truncation_mask(r.domain.fiber, radius, width)
        assert row.tobytes() == want.tobytes(), name
        assert r.grid_matrix(width).tobytes() == grid_matrix_conjugate_copy(r, width).tobytes()


@pytest.mark.parametrize(
    "n, N, twist, partner, coarser",
    [
        (24, 8, 8, 4, 4),
        (24, 8, 8, 1, 1),
        # grid 20 samples the twist-20 levels with a Gram defect of 1.7e-10,
        # so the certificate runs on a basis that is not quadrature-orthonormal
        (20, 9, 20, 4, 4),
    ],
)
def test_certificate_never_accepts_what_the_dense_oracle_refuses(n, N, twist, partner, coarser):
    # Rotate the flux-d kernel projector by exp(i eps H), with H coupling the
    # level-0 mode j = 0 to the level-1 mode j = partner.  The translation by
    # n/g ticks multiplies mode j by exp(2 pi i j / g), so the coupling
    # breaks every block count that does not divide gcd(partner, d), and the
    # rotated block stays an orthogonal projector.  Sweeping eps across the
    # tolerance, every block count the certificate accepts must pass the
    # dense scan of the same cut grid matrix.
    _, block, basis = kernel_remainder(n, N, twist)
    H = np.zeros_like(block.matrix)
    H[0, twist + partner] = H[twist + partner, 0] = 1.0
    w, V = np.linalg.eigh(H)
    chosen = []
    for eps in 10.0 ** np.arange(-16.0, -7.5, 0.5):
        rot = (V * np.exp(1j * eps * w)) @ V.conj().T
        moved = OperatorBlock(block.domain, block.domain, rot @ block.matrix @ rot.conj().T)
        S = dense_cut(moved, 0.45)
        row = certified_block_row(moved, 0.45, rot @ basis)
        g = block_count(row)
        assert is_block_circulant(S, g), eps
        assert np.array_equal(row, S[: S.shape[0] // g]), eps
        chosen.append((g, circulant_order(S, n)))
    # the sweep crosses the threshold: both accept d blocks at the smallest
    # coupling, and both refuse it at the largest
    assert chosen[0] == (twist, twist)
    assert chosen[-1] == (coarser, coarser)
    assert all(g <= dense for g, dense in chosen)


@pytest.mark.parametrize("n", [12, 30])
def test_leg_mask_rows_are_block_row_zero_of_the_full_mask(n):
    # the profile chain builds only block row 0 of each mask, and relies on
    # the full mask being block circulant in every g dividing the grid size
    fiber = FiberModel(2, (n - 2) // 2, n)
    npts = fiber.npoints
    saw = TransitionProfile(linear_radius=0.45)
    phi = ProfileCochain(fiber, [(0, saw), (1, saw)])
    for i in (0, 1):
        W = phi.leg_mask(i, npts)
        assert circulant_order(W, n) == n
        for g in (g for g in range(1, n + 1) if n % g == 0):
            assert np.array_equal(phi.leg_mask(i, npts // g), W[: npts // g])


@pytest.fixture(scope="module")
def flux24():
    """The flux-24 benchmark idempotent: S0 in 8 blocks of 200 points, S1 zero."""
    idem = index_idempotent(dolbeault_family(FiberModel(2, 19, 40), 24, 2), radius=0.30)
    assert idem.skernel.order == 8 and idem.cokernel.row is None
    return idem


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
    assert (dense_defect <= TRACE_INVARIANCE_TOL * kernel_norm_dense(S0)) == invariant
    if invariant:
        require_invariant(space, TRACE_INVARIANCE_TOL, "trace", *flux24.families)
    else:
        with pytest.raises(InvarianceError):
            require_invariant(space, TRACE_INVARIANCE_TOL, "trace", *flux24.families)


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
        lambda: require_invariant(space, TRACE_INVARIANCE_TOL, "trace", *flux24.families)
    )
    assert peak < fiber.npoints**2 * 16, peak
