"""Per-axis derivatives, whole-field Chern scalars, per-element gates and the
per-point base, kept as oracles.

These are the computations the library made before its gradients shared one
forward transform, its invariance gates checked one group element up to
m/2, and the base left it: one full FFT pair per partial derivative with
the matrix entries as trailing, strided axes, the disc's radial and angular
derivatives recomputed per axis, the Chern scalars of a projector field
built on those per-axis derivatives, the kernel and the realized form
compared under every group element, and the base as an action groupoid of
arrows (g, x) -> sigma^g(x): a cutoff field per point normalized over the
arrows leaving it, the mass-weighted sum of per-point fields and the orbit
sum over one representative per base orbit.
The library must agree with them bit for bit.  Section transport on a basis,
the transport defect of an operator block, the Gram defect of a basis, an
operator block applied to a grid field, the symbol extracted from a
Fourier block and the mode-only symbol table that the multiplier builtin
once quantized, which no pipeline stage needs, and the shared test helpers
(a bitwise comparison, the unit volume form) sit here too.

So do the independent constructions the library has no consumer for: the
partition defect of a cutoff, the strict invariance defect of a kernel, the
Fourier expansion of a profile cochain into slot products, cochain
transport and cochain averaging by group elements, the magnetic
translations of the twisted bundle with the quasi-periodic shift they are
built from, and, for the form calculus, a degree-0 form from a scalar field
and the wedge of two whole forms.

The kernel gate and its norm scale are kept as the library first ran
them, on the dense matrix that ``dense_kernel`` expands from the block
row; the library reads the block row and must agree with the gate bit for
bit and, at one block, with the scale too.

The level basis is sampled here as the library first did, one image term
(j, p) at a time over every grid point, and the band projection through the
dense evaluation matrix of the mode box; the library samples each image
term on the grid axes and projects by one FFT pair.  The flux bundle's
character is kept as the library first read it off its frame, from the
sections and derivatives of the whole grid; the library forms it one row
block of the sampler at a time and must agree bit for bit.  Seeded
band-limited fields were evaluated by exponentials formed per call; the
library reads the cached evaluation matrix of the band.

The singular data of an operator block is kept as the library first took
it from every block, one full LAPACK SVD, and with it the idempotent built
on those trailing singular vectors.  The library reads a monomial block's
singular values off its nonzero entries and refuses any other block; it
must certify the same rank, and the unit vectors at its kernel columns and
cokernel rows must span the same projectors.  A frame of coefficients V,
such as a LAPACK or a rotated one, reaches the library's certificate as a
basis of its own, E V, all of whose columns it keeps, with the axis-0
frequencies its columns are given: those of the unit vectors it holds, or
any others, since a wrong frequency may only refuse a block count.

The index projectors are kept here as the library first built them: the
remainders 1 - QD and 1 - DQ of the pseudo-inverse Q, expanded on the grid
as E R E^H / n, with the range basis of the block-count certificate the
eigenvectors of a remainder with eigenvalue above 1/2.  The library builds
each projector from the basis columns W at the parametrix's indices,
split by frequency into the frames of its Fourier blocks; its rows agree
with the remainder's to rounding, and both bases certify the same block
count.  The row formed from the whole frame, W[:B] W^H / n cut at a
radius, is kept as the library formed it before that split, and so is the
least-squares two-stage certificate of the block count.  The periodic
distances between grid points are kept as the float pointwise formula the
library's integer tick distances replace.

The localized projector is kept as the spectral projector of the cut onto
its eigenvalues above 1/2, taken from LAPACK's eigh; the library reaches
it by orthogonal iteration on each Fourier block's rank and must agree to
rounding, started where it first started, from the unit vectors at each
block's largest diagonal entries, where the library starts from the
block's uncut frame.  The profile chain is kept as the library first ran it on
Fourier blocks: the rotation sums with both leg masks and the block column
held and each product formed for all g blocks at once.  The library holds
fewer stacks with the same operations in the same order, so it agrees with
it bit for bit.  The hermitian test of that chain is kept on the whole
block row against the whole block column; the library compares one pair of
blocks at a time and must find the same defect, as the same float.  So is
the four-product form (S(K) - S(K^T)) / 6 that a kernel failing the test
took, which serves any kernel; the library refuses such a kernel.

Each index projector is kept as the block row the idempotent once stored:
the certified row, cut and corrected in place.  The library holds the
projector's frames and forms its row from them, to rounding.  The dense
block-circulant matrix of a block row is kept here, and with it the
slot-product chain as it was first contracted, on the dense kernel, one
npoints^3 product per middle field; the library contracts r x r Gram
matrices of the frame and agrees to rounding.

The ramp of the graph projector and the profile windows is kept in its
monomial form, evaluated exactly in rationals: the library sums the upper
half of a Bernstein basis in floats, whose terms are all nonnegative, and
must agree with the exact value to a few ulps.

The invariant average of a kernel and the moved entries of the invariance
gate are kept as the library first gathered them, one np.ix_ outer index
per term or per run of rows, the average summed from zeros; the library
starts the sum from the identity term and gathers rows, then columns, and
must agree bit for bit, signed zeros included.  The realization of a
cochain is kept with every factor of every term differentiated anew,
where the library differentiates each distinct factor once.
"""
import math
from fractions import Fraction
from functools import partial

import numpy as np

from itertools import product

from indexpairing.charclass import CH_CURVATURE_SCALE, GRAPH_FLATNESS, IDEMPOTENT_TOL
from indexpairing.cochains import ASCochain, ASTerm
from indexpairing.dolbeault import hermite_values, landau_rows
from indexpairing.forms import (
    FoliatedForm,
    exterior_d,
    exterior_wedge,
    index_subsets,
    merge_sign,
    subset_position,
)
from indexpairing.grids import TWO_PI_I, ModelError, grid_points, spectral_gradient
from indexpairing.operators import (
    CIRCULANT_RTOL,
    ENTRY_BOUND_MARGIN,
    OperatorBlock,
    SectionBasis,
    SmoothingKernel,
    _norm_lower_bound,
    block_count,
    truncation_mask,
)
from indexpairing.pairing import HERMITIAN_RTOL
from indexpairing.parametrix import (
    RANK_THRESHOLD,
    ParametrixData,
    _spectral_projector,
    certified_rank,
    index_idempotent,
)
from indexpairing.symbols import SymbolData


def spectral_derivative(field, axis, fiber):
    """d/dz_axis of a grid field (npoints, ...) via the full FFT over the grid axes."""
    n = fiber.grid_size
    field = np.asarray(field, dtype=complex)
    shaped = field.reshape(fiber.grid_shape + field.shape[1:])
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        freqs[n // 2] = 0.0
    shape = [1] * shaped.ndim
    shape[axis] = n
    mult = TWO_PI_I * freqs.reshape(shape)
    grid_axes = tuple(range(fiber.dim))
    out = np.fft.ifftn(np.fft.fftn(shaped, axes=grid_axes) * mult, axes=grid_axes)
    return out.reshape(field.shape)


def disc_derivative(disc, field, axis):
    """Cartesian partial derivative of a flat disc field along axis 0 or 1."""
    f = np.asarray(field, dtype=complex)
    shaped = f.reshape(disc.nradial, disc.nangular, -1)
    fr = (disc._radial_diff @ shaped.reshape(disc.nradial, -1)).reshape(shaped.shape)
    freqs = np.fft.fftfreq(disc.nangular, d=1.0 / disc.nangular)
    if disc.nangular % 2 == 0:
        freqs[disc.nangular // 2] = 0.0
    ft = np.fft.ifft(np.fft.fft(shaped, axis=1) * (1j * freqs)[None, :, None], axis=1)
    cos = np.cos(disc.angles)[None, :, None]
    sin = np.sin(disc.angles)[None, :, None]
    inv_rho = (1.0 / disc.radial_nodes)[:, None, None]
    if axis == 0:
        out = cos * fr - sin * inv_rho * ft
    else:
        out = sin * fr + cos * inv_rho * ft
    return out.reshape(f.shape)


def exterior_d_per_axis(field, degree, dim, diff):
    """Exterior derivative with one diff(block, axis) call per (K, j) term."""
    in_pos = subset_position(dim, degree)
    out_subs = index_subsets(dim, degree + 1)
    out = np.zeros((field.shape[0], len(out_subs)) + field.shape[2:], dtype=complex)
    for kk, K in enumerate(out_subs):
        for j in K:
            rest = tuple(i for i in K if i != j)
            out[:, kk] += merge_sign((j,), rest) * diff(field[:, in_pos[rest]], j)
    return out


def chern_scalars_whole(p, dim, diff):
    """tr(p F^j) * scale^j / j! by degree, with every field held whole."""
    p = np.asarray(p, dtype=complex)
    defect = float(np.abs(p @ p - p).max())
    if defect > IDEMPOTENT_TOL:
        raise ModelError(f"field is not a projector: |p^2 - p| = {defect:.3e}")
    n = p.shape[0]
    out = {0: np.trace(p, axis1=-2, axis2=-1).reshape(n, 1)}
    if dim < 2:
        return out
    dp = exterior_d_per_axis(p[:, None], 0, dim, diff)
    F = p[:, None] @ exterior_wedge(dp, 1, dp, 1, dim, np.matmul) @ p[:, None]
    power = F
    j = 1
    while True:
        scale = CH_CURVATURE_SCALE**j / math.factorial(j)
        sandwich = (p[:, None] * power.swapaxes(-1, -2)).sum(axis=(-2, -1))
        out[2 * j] = scale * sandwich
        if 2 * (j + 1) > dim:
            break
        power = exterior_wedge(power, 2 * j, F, 2, dim, np.matmul)
        j += 1
    return out


def form_invariance_defect_per_arrow(space, form):
    """The transport mismatch of a form, over every group element g != 0."""
    worst = 0.0
    for g in range(1, space.order):
        moved = space.transport(g, form.field)
        worst = max(worst, float(np.max(np.abs(form.field - moved))))
    return worst


def circulant_blocks(row):
    """Fourier blocks (g, B, B), sum_m C_m exp(-2 pi i m k / g), of block row [C_0 .. C_{g-1}]."""
    width, g = row.shape[0], block_count(row)
    return np.fft.fft(row.reshape(width, g, width), axis=1).transpose(1, 0, 2)


def circulant_row(blocks):
    """Block row 0 (B x gB) of the matrix with Fourier blocks (g, B, B)."""
    g, width, _ = blocks.shape
    return np.fft.ifft(blocks, axis=0).transpose(1, 0, 2).reshape(width, g * width)


def dense_block_row(fiber, W, g, radius):
    """Block row 0 (npoints/g x npoints) of S = W W^H / npoints in g blocks, cut at ``radius``,
    formed from the whole frame W as the library formed it before it split W by frequency."""
    width = fiber.npoints // g
    row = W[:width] @ W.conj().T
    row /= fiber.npoints
    row *= truncation_mask(fiber, radius, width)
    return row


def diagonal_starts(blocks):
    """Per block P_k, the unit vectors at its r_k = round(tr P_k) largest diagonal entries
    (clamped to 0 .. B): the start of orthogonal iteration before the class frames."""
    starts = []
    for P in blocks:
        width = len(P)
        r = min(max(round(float(np.trace(P).real)), 0), width)
        Y = np.zeros((width, r), dtype=complex)
        Y[np.argsort(-P.diagonal().real, kind="stable")[:r], np.arange(r)] = 1.0
        starts.append(Y)
    return starts


def circulant_dense(row):
    """The block-circulant gB x gB matrix with block row 0 ``row``."""
    width, g = row.shape[0], block_count(row)
    blocks = row.reshape(width, g, width)
    out = np.empty((g, width, g, width), dtype=row.dtype)
    for a in range(g):
        # block (a, b) is C_{b-a mod g}
        out[a, :, a:] = blocks[:, : g - a]
        out[a, :, :a] = blocks[:, g - a :]
    return out.reshape(g * width, g * width)


def circulant_column(row):
    """Block column 0 (gB x B) of the block-circulant matrix with block row 0 ``row``."""
    width, g = row.shape[0], block_count(row)
    # block (a, 0) is C_{-a mod g}
    blocks = row.reshape(width, g, width)[:, -np.arange(g) % g]
    return blocks.transpose(1, 0, 2).reshape(g * width, width)


def dense_kernel(kern):
    """The npoints x npoints matrix of a smoothing kernel, zero for a zero family."""
    if kern.row is None:
        n = kern.fiber.npoints
        return np.zeros((n, n), dtype=complex)
    return circulant_dense(kern.row)


def _dense_twisted_defect(here, space, elements):
    worst = 0.0
    for g in elements:
        perm = space.permutation(-g)
        moved = here[np.ix_(perm, perm)]
        worst = max(worst, float(np.max(np.abs(np.abs(here) - np.abs(moved)))))
        worst = max(worst, float(np.max(np.abs(np.diag(here) - np.diag(moved)))))
        cyc = here * here.T - moved * moved.T
        worst = max(worst, float(np.max(np.abs(cyc))))
    return worst


def twisted_invariance_defect_per_arrow(kern, space):
    """The phase-free equivariance defect of a kernel, over every group element g != 0."""
    return _dense_twisted_defect(dense_kernel(kern), space, range(1, space.order))


def twisted_invariance_defect_dense(kern, space):
    """The kernel gate as the library first ran it: the dense matrix moved by
    one element per distinct moving translation, every entry compared."""
    elements = space.moving_elements()
    if not elements:
        return 0.0
    return _dense_twisted_defect(dense_kernel(kern), space, elements)


def kernel_norm_dense(kern):
    """The gate's norm scale as the library first took it, on the dense matrix."""
    return 0.0 if kern.row is None else _norm_lower_bound(dense_kernel(kern))


def eigh_range_basis(R):
    """Orthonormal eigenvectors of the projector R with eigenvalue above 1/2."""
    vals, vecs = np.linalg.eigh(R)
    return vecs[:, vals > 0.5]


def lapack_singular_data(M):
    """Certified rank of M and its trailing right and left singular vectors."""
    U, sing, Vh = np.linalg.svd(M)
    rank = certified_rank(sing)
    return rank, Vh[rank:].conj().T, U[:, rank:].copy()


def is_monomial(M):
    """At most one nonzero entry in each row and each column of M."""
    return bool(
        np.all(np.count_nonzero(M, axis=0) <= 1) and np.all(np.count_nonzero(M, axis=1) <= 1)
    )


def unit_frame(size, indices):
    """The (size, k) frame of the unit vectors at the k ``indices``, in their order."""
    return np.eye(size, dtype=complex)[:, indices]


def frame_basis(basis, V, frequencies):
    """The frame E V of coefficients V on ``basis`` as a basis of its own, its columns of
    the axis-0 ``frequencies``, and the indices of all its columns: what the
    parametrix certifies for W = E V."""
    rank = V.shape[1]

    def sample(cols):
        return (basis_matrix(basis) @ V).take(cols, axis=1)

    framed = SectionBasis(basis.fiber, rank, sample, np.asarray(frequencies))
    return framed, np.arange(rank)


def unit_frequencies(basis, V):
    """The axis-0 frequencies of the unit-vector columns of V on ``basis``; raises for a
    column that mixes basis columns, which has none."""
    live = V != 0
    assert np.all(live.sum(axis=0) == 1), "a frame column mixes basis columns"
    return basis.frequencies[live.argmax(axis=0)]


def lapack_idempotent(block, radius=None):
    """The index idempotent built on LAPACK's trailing singular vectors V0 and V1.

    The library's construction on the zero operator from the domain frame
    E V0 to the codomain frame E V1, whose kernel and cokernel are all of them.
    """
    _, v0, v1 = lapack_singular_data(block.matrix)
    (domain, cols), (codomain, rows) = (
        frame_basis(basis, v, unit_frequencies(basis, v))
        for basis, v in ((block.domain, v0), (block.codomain, v1))
    )
    framed = OperatorBlock(domain, codomain, np.zeros((len(rows), len(cols)), dtype=complex))
    return index_idempotent(framed, radius, data=ParametrixData(cols, rows))


def remainder_projectors(block):
    """The remainders 1 - QD and 1 - DQ of the pseudo-inverse Q of the operator D.

    An exactly zero matrix where the certified rank leaves no kernel or
    cokernel, as the library stores a rank-0 projector as no row.
    """
    D = block.matrix
    rank = certified_rank(np.linalg.svd(D, compute_uv=False))
    Q = np.linalg.pinv(D, rcond=RANK_THRESHOLD)
    nc, nd = D.shape
    r0 = np.eye(nd) - Q @ D if rank < nd else np.zeros((nd, nd), complex)
    r1 = np.eye(nc) - D @ Q if rank < nc else np.zeros((nc, nc), complex)
    return r0, r1


def basis_matrix(basis):
    """The (npoints, size) samples of every column of a section basis."""
    return basis.columns(np.arange(basis.size))


def grid_projector(basis, R):
    """The grid matrix E R E^H / n of a coefficient matrix R on the basis E."""
    E = basis_matrix(basis)
    return E @ R @ E.conj().T / basis.fiber.npoints


def fiber_distances(fiber):
    """Periodic Euclidean distances between every two grid points, pointwise in floats."""
    pts = grid_points(fiber.grid_size, fiber.dim)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff**2, axis=-1))


def transport_matrix(space, g, domain, codomain):
    """Matrix of section transport by the group element g, from domain to codomain.

    Computed by moving the domain basis columns with the grid permutation and
    projecting onto the codomain basis.  Unitary whenever the transported
    columns stay inside the codomain span.
    """
    moved = basis_matrix(domain)[space.permutation(g), :]
    return basis_matrix(codomain).conj().T @ moved / domain.fiber.npoints


def family_invariance_defect(space, block):
    """Max over group elements g of |U_g P - P U_g| for the operator block P."""
    worst = 0.0
    for g in range(space.order):
        U_dom = transport_matrix(space, g, block.domain, block.domain)
        U_cod = transport_matrix(space, g, block.codomain, block.codomain)
        defect = U_cod @ block.matrix - block.matrix @ U_dom
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def gram_defect(basis):
    """Largest entry of E^H E / n - 1 for the evaluation matrix E of a section basis."""
    E = basis_matrix(basis)
    G = E.conj().T @ E / basis.fiber.npoints
    return float(np.max(np.abs(G - np.eye(basis.size))))


def apply_block(block, fieldvec):
    """The operator of a block on a grid field: project onto the domain basis,
    apply the matrix, synthesize on the codomain basis."""
    coeffs = basis_matrix(block.domain).conj().T @ fieldvec / block.domain.fiber.npoints
    return basis_matrix(block.codomain) @ (block.matrix @ coeffs)


def symbol_of(block, order):
    """Sampled symbol, of declared ``order``, of an operator block on Fourier bases.

    sigma(z, nu) = conj(e_nu(z)) * (P e_nu)(z).  Left-inverse of quantize on
    mode-only symbols for every retained mode, and on variable band-limited
    symbols for interior modes (outgoing-row truncation clips the edge).
    The block must act on the Fourier basis of its fiber, as quantized
    blocks do.
    """
    fiber = block.domain.fiber
    E = fiber.eval_matrix()
    return SymbolData(fiber, order, np.conj(E) * (E @ block.matrix))


def multiplier_symbol(fiber, multiplier, order):
    """Symbol depending on the mode only; ``multiplier`` maps (nmodes, r) ints to values."""
    row = np.asarray(multiplier(fiber.modes()), dtype=complex)
    return SymbolData(fiber, order, np.broadcast_to(row, (fiber.npoints, fiber.nmodes)).copy())


def same_bits(a, b):
    """Equal values and equal sign bits of the real and imaginary parts."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def volume_form(fiber):
    """The top form dz_1 ^ ... ^ dz_r with unit coefficient everywhere."""
    return FoliatedForm(fiber, fiber.dim, np.ones((fiber.npoints, 1)), invariant=True)


def base_arrows(order, sigma):
    """The arrows (g, x) -> sigma^g(x) of Z/order acting on a finite base through
    the permutation sigma, g outer and x inner: the action groupoid of the base."""
    powers = [list(range(len(sigma)))]  # powers[g][x] = sigma^g(x)
    for _ in range(order - 1):
        powers.append([sigma[y] for y in powers[-1]])
    return [(g, x, powers[g][x]) for g in range(order) for x in range(len(sigma))]


def cutoff_per_arrow(space, sigma, seeds):
    """One cutoff field per base point, normalized over the arrows leaving it.

    c_x = seed_x / sum over arrows (g, x) -> y of seed_y(z - g shift): the
    per-point construction, in which every point may carry its own seed.
    With one seed at every point each field is that of ``compute_cutoff``.
    """
    arrows = base_arrows(space.order, sigma)
    fields = []
    for x, seed in enumerate(seeds):
        orbit_sum = np.zeros(space.fiber.npoints)
        for g, src, tgt in arrows:
            if src == x:
                orbit_sum += space.transport(-g, seeds[tgt]).real
        fields.append(seed / orbit_sum)
    return fields


def mass_weighted_sum(masses, fields):
    """sum over base points x of masses[x] * fields[x], in point order."""
    return sum(m * f for m, f in zip(masses, fields))


def orbit_sum_per_point(order, sigma, masses, per_point):
    """mass * value summed over one representative per base orbit, its least member."""
    arrows = base_arrows(order, sigma)
    total = 0.0
    for x in range(len(sigma)):
        members = {tgt for _, src, tgt in arrows if src == x}
        if x == min(members):
            total += masses[x] * per_point[x]
    return total


def partition_defect(space, sigma, fields):
    """Max deviation from 1 of the sums of per-point cutoff fields over the arrows
    leaving each point; one field and the identity base for ``compute_cutoff``."""
    worst = 0.0
    for x in range(len(sigma)):
        total = np.zeros(space.fiber.npoints)
        for g, src, tgt in base_arrows(space.order, sigma):
            if src == x:
                total += space.transport(-g, fields[tgt]).real
        worst = max(worst, float(np.max(np.abs(total - 1.0))))
    return worst


def average_kernel_ix(space, cutoff, kern):
    """The cutoff-weighted average as the library first ran it: a sum started
    from zeros, every term, the identity's included, one np.ix_ gather."""
    here = kern.row
    acc = np.zeros_like(here)
    for g in range(space.order):
        weight = space.transport(-g, cutoff)
        perm = space.permutation(-g)
        acc += weight[:, None] * here[np.ix_(perm, perm)]
    return SmoothingKernel(kern.fiber, acc)


def moved_defect_ix(field, perms):
    """max |F - F[p, p]| over the translations p, F block circulant with block
    row ``field``, each run of leading rows one np.ix_ gather."""
    width, n = field.shape
    worst = 0.0
    for perm in perms:
        lead = perm[:width] // width * width
        cuts = [0, *np.flatnonzero(np.diff(lead)) + 1, width]
        for start, stop in zip(cuts, cuts[1:]):
            moved = field[np.ix_(perm[start:stop] - lead[start], (perm - lead[start]) % n)]
            np.subtract(field[start:stop], moved, out=moved)
            worst = max(worst, float(np.max(np.abs(moved))))
    return worst


def invariance_defect(kern, space):
    """Strict equivariance defect of a kernel for plain pullback, over every g."""
    here = dense_kernel(kern)
    worst = 0.0
    for g in range(space.order):
        perm = space.permutation(-g)
        worst = max(worst, float(np.max(np.abs(here - here[np.ix_(perm, perm)]))))
    return worst


def scalar_form(fiber, scalar):
    """The degree-0 form of one scalar field."""
    return FoliatedForm(fiber, 0, np.reshape(scalar, (-1, 1)))


def wedge(f1, f2):
    """Pointwise wedge of two forms on the same fiber."""
    field = exterior_wedge(
        f1.field, f1.degree, f2.field, f2.degree, f1.fiber.dim, np.multiply
    )
    invariant = f1.invariant and f2.invariant
    return FoliatedForm(f1.fiber, f1.degree + f2.degree, field, invariant=invariant)


def fourier_coefficients(prof, band, samples=4096):
    """Coefficients c_m, |m| <= band, of a profile s(t) = sum c_m exp(2 pi i m t)."""
    grid = np.arange(samples) / samples
    coef = np.fft.fft(prof(grid)) / samples
    modes = np.arange(-band, band + 1)
    return coef[modes % samples]


def to_elementary(phi, band=None, tol=1e-14):
    """A profile cochain with every leg expanded in Fourier modes and regrouped
    slot by slot: an elementary cochain with the same values."""
    fiber = phi.fiber
    if band is None:
        band = fiber.fourier_cutoff
    coefs = [fourier_coefficients(prof, band) for _, prof in phi.legs]
    modes = np.arange(-band, band + 1)
    pts = grid_points(fiber.grid_size, fiber.dim)
    cap = max(np.max(np.abs(c)) for c in coefs)
    terms = []
    for picks in product(range(len(modes)), repeat=len(phi.legs)):
        weight = complex(np.prod([c[p] for c, p in zip(coefs, picks)]))
        if abs(weight) <= tol * cap ** len(phi.legs):
            continue
        # slot j carries the incoming mode of leg j-1 and the outgoing
        # (conjugate) mode of leg j
        factors = []
        for slot in range(phi.degree + 1):
            field = np.ones(len(pts), dtype=complex)
            if slot > 0:
                axis = phi.legs[slot - 1][0]
                m = modes[picks[slot - 1]]
                field = field * np.exp(2j * np.pi * m * pts[:, axis])
            if slot < phi.degree:
                axis = phi.legs[slot][0]
                m = modes[picks[slot]]
                field = field * np.exp(-2j * np.pi * m * pts[:, axis])
            factors.append(field)
        terms.append(ASTerm(weight, tuple(factors)))
    return ASCochain(fiber, phi.degree, terms, germ_radius=phi.germ_radius)


def van_est_form_per_term(phi):
    """The realization with every factor of every term differentiated anew."""
    fiber, r, k = phi.fiber, phi.fiber.dim, phi.degree
    grad = partial(spectral_gradient, fiber=fiber)
    total = np.zeros((fiber.npoints, len(index_subsets(r, k))), dtype=complex)
    for t in phi.terms:
        form = t.weight * t.factors[0].reshape(-1, 1)
        for q, f in enumerate(t.factors[1:]):
            df = exterior_d(f.reshape(-1, 1), 0, r, grad)
            form = exterior_wedge(form, q, df, 1, r, np.multiply)
        total = total + form
    return FoliatedForm(fiber, k, total)


def transport_cochain(space, g, phi):
    """Move every factor by the group element g.

    This is the slot-wise action of one group element, enough to state
    equivariance of the realization map element by element.
    """
    new_terms = [
        ASTerm(t.weight, tuple(space.transport(g, f) for f in t.factors))
        for t in phi.terms
    ]
    return ASCochain(phi.fiber, phi.degree, new_terms, phi.germ_radius, check_band=False)


def invariant_project_cochain(space, cutoff, phi):
    """Cutoff-weighted average of a cochain onto the invariants.

    Each group element contributes one elementary term per input term: all
    factors are composed with its action and the cutoff field (also
    composed) is attached to the leading factor.  Fixes invariant cochains
    by the partition identity applied in the leading argument.
    """
    new_terms = []
    for t in phi.terms:
        for g in range(space.order):
            weight_field = space.transport(-g, cutoff)
            moved = [space.transport(-g, f) for f in t.factors]
            moved[0] = weight_field * moved[0]
            new_terms.append(ASTerm(t.weight, tuple(moved)))
    return ASCochain(phi.fiber, phi.degree, new_terms, phi.germ_radius, check_band=False)


def twisted_shift(field, ticks, twist, fiber):
    """Sample translate in the second coordinate with the quasi-periodic wrap.

    Rows that cross the unit cell pick up the boundary factor
    exp(-+ 2 pi i twist z1) so the result samples the same section of the
    twisted bundle.
    """
    n = fiber.grid_size
    shaped = field.reshape(fiber.grid_shape).copy()
    z1 = grid_points(n, 2)[:, 0].reshape(fiber.grid_shape)
    rolled = np.roll(shaped, -ticks, axis=1)
    j = np.arange(n)
    wrapped = (j + ticks) // n  # how many cells each column crossed
    factors = np.exp(-2j * np.pi * twist * z1[:, :1]) ** wrapped[None, :]
    return (rolled * factors).reshape(field.shape)


def magnetic_translation(field, v_ticks, twist, fiber):
    """Bundle-compatible translation by a grid vector v.

    (T_v f)(z) = exp(2 pi i twist v2 z1) f(z + v), where the argument shift
    respects the quasi-periodic wrap.  Requires twist * v to be integral, so
    the phase is a genuine character of the translation.
    """
    n = fiber.grid_size
    t1, t2 = int(v_ticks[0]), int(v_ticks[1])
    if (twist * t1) % n or (twist * t2) % n:
        raise ModelError("translation is not compatible with the twist")
    shifted = twisted_shift(field, t2, twist, fiber)
    shaped = shifted.reshape(fiber.grid_shape)
    shaped = np.roll(shaped, -t1, axis=0)
    pts = grid_points(n, 2)
    phase = np.exp(2j * np.pi * twist * (t2 / n) * pts[:, 0])
    return phase * shaped.reshape(field.shape)


def magnetic_translation_matrix(basis, v_ticks, twist):
    """Matrix of the bundle translation on a section basis."""
    E = basis_matrix(basis)
    moved = np.column_stack(
        [magnetic_translation(E[:, k], v_ticks, twist, basis.fiber) for k in range(basis.size)]
    )
    return E.conj().T @ moved / basis.fiber.npoints


def _level_images(fiber, twist, max_level):
    """The image terms of the level basis on the grid, one per (j, p).

    Yields (j, j - d p, the Hermite argument sqrt(2 pi |d|) (z2 - p + j/d),
    the phase exp(2 pi i (j - d p) z1)), with the library's truncation of
    the image sum.  At z1 = k / n the phase is the n-th root of unity
    exp(2 pi i m / n) at m = (j - d p) k mod n, n = grid_size, as the
    library forms it.
    """
    d = int(twist)
    n = fiber.grid_size
    scale = np.sqrt(2.0 * np.pi * abs(d))
    reach = (np.sqrt(2.0 * max_level + 1.0) + 9.0) / scale
    p_max = int(np.ceil(reach)) + 1
    z2 = grid_points(n, 2)[:, 1]
    # axis 0 is the slowest: grid point i lies at z1 = (i // n) / n
    ticks = np.arange(fiber.npoints) // n
    roots = np.exp(2j * np.pi * (np.arange(n) / n))
    for j in range(abs(d)):
        for p in range(-p_max, p_max + 1):
            freq = j - d * p
            yield j, freq, scale * (z2 - p + j / d), roots[freq * ticks % n]


def landau_section_values_per_image(fiber, twist, max_level):
    """Grid samples of the level basis, column l * |twist| + j holding B_{j,l}."""
    s = abs(int(twist))
    cols = np.zeros((fiber.npoints, s * (max_level + 1)), dtype=complex)
    norm = (2.0 * np.pi * s) ** 0.25
    for j, _, t, phase in _level_images(fiber, twist, max_level):
        h = hermite_values(max_level, t)
        for l in range(max_level + 1):
            cols[:, l * s + j] += norm * h[l] * phase
    return cols


def landau_section_jet_per_image(fiber, twist, max_level):
    """The level basis and its partial derivatives d/dz1 and d/dz2 on the grid."""
    s = abs(int(twist))
    values, d1, d2 = (
        np.zeros((fiber.npoints, s * (max_level + 1)), dtype=complex) for _ in range(3)
    )
    norm = (2.0 * np.pi * s) ** 0.25
    slope = norm * np.sqrt(2.0 * np.pi * s)
    for j, freq, t, phase in _level_images(fiber, twist, max_level):
        h = hermite_values(max_level + 1, t)
        for l in range(max_level + 1):
            term = norm * h[l] * phase
            values[:, l * s + j] += term
            d1[:, l * s + j] += 2j * np.pi * freq * term
            dh = -np.sqrt((l + 1.0) / 2.0) * h[l + 1]
            if l:
                dh += np.sqrt(l / 2.0) * h[l - 1]
            d2[:, l * s + j] += slope * dh * phase
    return values, d1, d2


def landau_jet(fiber, twist, max_level, columns):
    """The level basis at ``columns`` and its partial derivatives d/dz1 and
    d/dz2 on the whole grid, gathered from the library's row blocks."""
    jet = [np.empty((fiber.npoints, len(columns)), dtype=complex) for _ in range(3)]
    for points, block in landau_rows(fiber, twist, max_level, columns, jet=True):
        for f, b in zip(jet, block):
            f[points] = b
    return jet


def twist_character_whole(fiber, twist):
    """The flux bundle's character from its frame, every grid point at once.

    The library's first frame-based character: the sections, both
    derivatives and the unit frame held for the whole grid, the density
    gate taken on the whole density before any division.
    """
    n = fiber.npoints
    if twist == 0:
        return {0: np.ones((n, 1), dtype=complex), 2: np.zeros((n, 1), dtype=complex)}
    max_level = 0 if abs(twist) >= 2 else 1
    columns = np.arange(abs(twist) * (max_level + 1))
    V, *dV = landau_jet(fiber, twist, max_level, columns)
    density = np.sum(np.abs(V) ** 2, axis=1)
    if density.min() < 1e-6 * density.max():
        raise ModelError("magnetic frame degenerates on the grid")
    ch0 = (np.einsum("ni,ni->ni", np.conj(V), V) / density[:, None]).sum(axis=1)
    root = np.sqrt(density)[:, None]
    w = np.conj(V) / root
    defect = float(np.abs(np.sum(np.abs(w) ** 2, axis=1) - 1.0).max())
    if defect > IDEMPOTENT_TOL:
        raise ModelError(f"frame is not a unit frame: ||w|^2 - 1| = {defect:.3e}")
    half_log = [np.sum(np.conj(V) * d, axis=1).real / density for d in dV]
    dw = [np.conj(d) / root - w * h[:, None] for d, h in zip(dV, half_log)]
    berry = np.sum(np.conj(dw[0]) * dw[1] - np.conj(dw[1]) * dw[0], axis=1)
    return {0: ch0.reshape(n, 1), 2: (CH_CURVATURE_SCALE * berry).reshape(n, 1)}


def grid_to_box(field, fiber):
    """Fourier coefficients of a grid field on the mode box (aliased projection).

    Exact for fields that are band-limited to the box.
    """
    shaped = np.asarray(field, dtype=complex).reshape(fiber.grid_shape)
    full = np.fft.fftn(shaped) / fiber.npoints
    N = fiber.fourier_cutoff
    idx = np.arange(-N, N + 1)
    out = full
    for ax in range(fiber.dim):
        out = np.take(out, idx, axis=ax)
    return out.reshape(fiber.nmodes)


def box_to_grid(coeffs, fiber):
    """Grid samples of a mode-box coefficient vector, through the dense evaluation matrix."""
    return fiber.eval_matrix() @ np.asarray(coeffs, dtype=complex)


def band_limit_dense(field, fiber):
    """Projection of a grid field onto the mode box, through its box coefficients."""
    return box_to_grid(grid_to_box(field, fiber), fiber).reshape(np.shape(field))


def eval_modes_at(coeffs, modes, points):
    """Evaluate sum_nu coeffs[nu] e^{2 pi i nu.z} at points, the exponentials formed per call."""
    return np.exp(TWO_PI_I * (points @ modes.T)) @ coeffs


def spectral_projector(S):
    """The projector onto the eigenvectors of hermitian S with eigenvalue above 1/2 (eigh).

    S is one matrix or a stack of them, such as Fourier blocks (g, B, B);
    eigh reads the lower triangle of each.
    """
    w, V = np.linalg.eigh(S)
    V = V * (w > 0.5)[..., None, :]
    return V @ V.conj().swapaxes(-1, -2)


def rotation_sum_whole_stack(cw, X, Y, Z):
    """tr(D XYZ) + tr(D ZXY) + tr(D YZX) summed over the blocks, each product over all blocks."""
    P = X @ Y
    R = Y @ Z
    trace = partial(np.einsum, "i,...ij,...ji->...", cw)
    return complex(np.sum(trace(P, Z) + trace(Z, P) + trace(R, X)))


def hermitian_defect_whole_row(row):
    """max |M - M^H| of the block-circulant M, on block row 0 against the whole block column 0."""
    return float(np.max(np.abs(row - circulant_column(row).conj().T)))


def is_hermitian_whole_row(row):
    """The profile chain's hermitian test on the whole block row and column."""
    return hermitian_defect_whole_row(row) <= HERMITIAN_RTOL * float(np.max(np.abs(row)))


def dense_elementary_chain(phi, cw, row):
    """The k = 1 slot-product chain of the kernel with block row 0 ``row``, on its dense matrix.

    One M = (K diag(m) K) o K^T per distinct middle field m, keyed by its
    bytes, read as (c p)^T M q - (c q)^T M p for its neighbours p and q.
    """
    K = circulant_dense(row)
    by_middle = {}
    for term in phi.terms:
        d = term.factors
        for s in range(3):
            _, reads = by_middle.setdefault(d[s].tobytes(), (d[s], []))
            reads.append((term.weight, d[s - 1], d[(s + 1) % 3]))
    total = 0.0 + 0.0j
    for m, reads in by_middle.values():
        M = ((K * m) @ K) * K.T
        total += sum(w * ((cw * p) @ M @ q - (cw * q) @ M @ p) for w, p, q in reads)
    return complex(total) / 6.0


def _max_row_norm(m):
    return float(np.sqrt(np.max(np.sum(np.abs(m) ** 2, axis=1))))


def certified_block_count_every_power(fiber, W, frequencies):
    """The block count of ``certified_block_count`` tested at every power of the translation.

    For each divisor g of grid_size, largest first, and each a = 1 .. g/2,
    Pi^a W - W T^a is formed, Pi the translation by grid_size/g ticks
    along axis 0 and T the phases of the columns' axis-0 ``frequencies``,
    and g is accepted when the bound psi_a (2 rho + psi_a) / n meets the
    library's line at every a.
    """
    n = fiber.npoints
    norms = np.sum(np.abs(W) ** 2, axis=1)
    rho = float(np.sqrt(np.max(norms)))
    for g in (g for g in range(fiber.grid_size, 0, -1) if fiber.grid_size % g == 0):
        width = n // g
        accept = CIRCULANT_RTOL * float(np.max(norms[:width])) / n * (1.0 - ENTRY_BOUND_MARGIN)
        for a in range(1, g // 2 + 1):
            U = np.roll(W, -a * width, axis=0)
            U -= W * np.exp(2j * np.pi * (frequencies * a % g) / g)
            psi = _max_row_norm(U)
            if psi * (2 * rho + psi) / n > accept:
                break
        else:
            return g


def certified_block_row(basis, radius, cols):
    """Block row 0 of S = W W^H / n, W = E[:, cols], cut at ``radius``, in the g blocks the
    two-stage certificate accepts.

    E is the matrix of ``basis`` and n = npoints.  For each divisor g of
    grid_size, largest first, the bound of ``certified_block_count`` for
    each a = 1 .. g/2 refuses g above CIRCULANT_RTOL (1 +
    ENTRY_BOUND_MARGIN) rho^2 / n, a bound of every entry of S; the
    row is then formed and cut, and g accepted when the largest bound is
    at most CIRCULANT_RTOL times the row's largest entry.
    """
    fiber = basis.fiber
    n = fiber.npoints
    W = basis_matrix(basis).take(cols, axis=1)
    Wh = W.conj().T
    gram = Wh @ W / n
    rho = _max_row_norm(W)
    refuse = CIRCULANT_RTOL * rho * rho / n * (1.0 + ENTRY_BOUND_MARGIN)
    for g in (g for g in range(fiber.grid_size, 0, -1) if fiber.grid_size % g == 0):
        width = n // g
        bounds = []
        for a in range(1, g // 2 + 1):
            U = np.roll(W, -a * width, axis=0)
            T = np.linalg.solve(gram, Wh @ U / n)
            U -= W @ T
            leak = float(np.linalg.norm(np.eye(len(T)) - T @ T.conj().T))
            psi = _max_row_norm(U)
            bound = (rho * rho * leak + psi * (2 * rho * np.linalg.norm(T, 2) + psi)) / n
            if bound > refuse:
                break
            bounds.append(bound)
        else:
            row = W[:width] @ Wh
            row /= n
            row *= truncation_mask(fiber, radius, width)
            if max(bounds, default=0.0) <= CIRCULANT_RTOL * float(np.max(np.abs(row))):
                return row


def stored_row(basis, cols, radius):
    """Block row 0 of the projector onto the basis columns at ``cols``, formed whole.

    Uncut, the row of the two-stage certificate; cut, that row of the cut with its
    Fourier blocks replaced by their spectral projectors Y Y^H, formed from the
    frames Y of orthogonal iteration started from the unit vectors at their
    largest diagonal entries, and transformed back.  None for rank 0.
    """
    if len(cols) == 0:
        return None
    row = certified_block_row(basis, radius, cols)
    if radius == np.inf:
        return row
    blocks = circulant_blocks(row)
    _, frames = _spectral_projector(blocks, diagonal_starts(blocks), radius)
    for P, Y in zip(blocks, frames):
        np.matmul(Y, Y.conj().T, out=P)
    return circulant_row(blocks)


def profile_chain_whole_stack(phi, cw, row):
    """The k = 1 profile chain of the kernel with block row 0 ``row``, both masks
    and the block column held through whole-stack rotation sums."""
    width, g = row.shape[0], block_count(row)
    orbit_cw = cw.reshape(g, width).sum(axis=0) / g
    W0, W1 = (phi.leg_mask(i, 0, width) for i in (0, 1))

    def rotations(row):
        blocks = (circulant_blocks(M) for M in (row * W0, row * W1, row))
        return rotation_sum_whole_stack(orbit_cw, *blocks)

    column = circulant_column(row)
    even = rotations(row)
    if is_hermitian_whole_row(row) and np.isrealobj(W0) and np.isrealobj(W1):
        return 2j * even.imag / 6.0
    return (even - rotations(column.T)) / 6.0


def smoothstep_exact(u):
    """The ramp at the float u, clamped to [0, 1], evaluated exactly and rounded once.

    The monomial form: the integral of t^F (1-t)^F from 0 to u, expanded as
    sum over j of (-1)^j C(F, j) u^(F+j+1) / (F+j+1), over its value at
    u = 1, all in Fractions, with F = GRAPH_FLATNESS.
    """
    F = GRAPH_FLATNESS
    x = Fraction(min(max(float(u), 0.0), 1.0))
    coeffs = [Fraction((-1) ** j * math.comb(F, j), F + j + 1) for j in range(F + 1)]
    ramp = sum(c * x ** (F + j + 1) for j, c in enumerate(coeffs))
    return float(ramp / sum(coeffs))
