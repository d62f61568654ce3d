"""Affine torus maps and fibered groupoid actions.

Every arrow of the groupoid acts on fibers by an affine torus map
z -> A z + theta (mod 1) with A an integer matrix of determinant +-1 and
theta a rational translation.  The assignment is contravariant over
composition so that the induced maps on functions compose covariantly:
the arrow "g1 then g2" acts by the composite map of g2 after g1 pulled
back appropriately (checked explicitly in the constructor).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import ModelError
from .groupoid import Arrow, GroupoidModel


def permute_grid_field(field: np.ndarray, perm: np.ndarray, n: int, r: int) -> np.ndarray:
    """Apply out[j] = field[perm[j]] over the grid axes of a field.

    Accepts fields stored flat (leading axis n^r) or shaped (leading axes
    (n,)*r); trailing component axes ride along unchanged.
    """
    a = np.asarray(field)
    if a.ndim >= 1 and a.shape[0] == len(perm):
        trailing = a.shape[1:]
    elif a.shape[:r] == (n,) * r:
        trailing = a.shape[r:]
    else:
        raise ModelError(f"field shape {a.shape} does not match the {n}^{r} grid")
    flat = a.reshape(len(perm), *trailing)
    return flat[perm].reshape(a.shape)


@dataclass(frozen=True)
class AffineTorusMap:
    """z -> A z + theta on the torus [0,1)^r, with A integral and |det A| = 1.

    theta is stored exactly as a tuple of Fractions so grid preservation is
    decidable without float tolerance games.
    """

    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[Fraction, ...]

    @classmethod
    def create(cls, matrix, shift) -> "AffineTorusMap":
        A = np.asarray(matrix, dtype=int)
        r = A.shape[0]
        if A.shape != (r, r):
            raise ModelError("matrix must be square")
        if abs(round(np.linalg.det(A))) != 1:
            raise ModelError("matrix must be in GL(r, Z)")
        th = tuple(Fraction(t) % 1 for t in shift)
        if len(th) != r:
            raise ModelError("shift length must match matrix size")
        return cls(tuple(tuple(int(v) for v in row) for row in A), th)

    @classmethod
    def identity(cls, r: int) -> "AffineTorusMap":
        return cls.create(np.eye(r, dtype=int), [Fraction(0)] * r)

    @classmethod
    def translation(cls, shift) -> "AffineTorusMap":
        th = [Fraction(t) for t in shift]
        return cls.create(np.eye(len(th), dtype=int), th)

    @property
    def dim(self) -> int:
        return len(self.shift)

    @property
    def A(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=int)

    @property
    def theta(self) -> np.ndarray:
        return np.array([float(t) for t in self.shift])

    def after(self, other: "AffineTorusMap") -> "AffineTorusMap":
        """The composite map "self after other": z -> self(other(z))."""
        A = self.A @ other.A
        th = [
            sum(
                (Fraction(int(self.A[i, j])) * other.shift[j] for j in range(self.dim)),
                self.shift[i],
            )
            for i in range(self.dim)
        ]
        return AffineTorusMap.create(A, th)

    def inverted(self) -> "AffineTorusMap":
        Ainv = np.round(np.linalg.inv(self.A)).astype(int)
        th = [
            -sum((Fraction(int(Ainv[i, j])) * self.shift[j] for j in range(self.dim)), Fraction(0))
            for i in range(self.dim)
        ]
        return AffineTorusMap.create(Ainv, th)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Image of points (shape (..., r)), reduced mod 1."""
        return (points @ self.A.T + self.theta) % 1.0

    def is_grid_preserving(self, n: int) -> bool:
        return all((n * t).denominator == 1 for t in self.shift)

    def grid_permutation(self, n: int) -> np.ndarray:
        """Permutation p with map(z_j) = z_{p[j]} on the n^r product grid.

        Flat indices are row-major over the r axes, matching grid_points.
        """
        if not self.is_grid_preserving(n):
            raise ModelError("map does not preserve the grid")
        r = self.dim
        axes = [np.arange(n)] * r
        mesh = np.meshgrid(*axes, indexing="ij")
        J = np.stack([m.ravel() for m in mesh], axis=-1)  # integer grid coords
        shift_ticks = np.array([int((n * t) % n) for t in self.shift])
        img = (J @ self.A.T + shift_ticks) % n
        flat = np.zeros(len(J), dtype=int)
        for ax in range(r):
            flat = flat * n + img[:, ax]
        return flat

    def pullback_field(self, field: np.ndarray, n: int) -> np.ndarray:
        """Samples of (field o map) on the grid: out[j] = field[p[j]].

        Trailing axes of ``field`` (vector or matrix components) ride along.
        """
        return permute_grid_field(field, self.grid_permutation(n), n, self.dim)


class FiberedGSpace:
    """A groupoid together with one affine torus map per arrow.

    ``fiber_map(arrow)`` sends the fiber over the arrow's target to the fiber
    over its source (so that the pullback of functions goes source -> target
    covariantly along composition).  The constructor checks that units map to
    the identity and that the assignment is functorial: the map of
    "g1 then g2" equals map(g1) after map(g2).
    """

    def __init__(self, groupoid: GroupoidModel, maps: dict[object, AffineTorusMap]):
        self.groupoid = groupoid
        base = groupoid.base
        dims = {base.fiber(x).dim for x in range(len(base))}
        if len(dims) != 1:
            raise ModelError("all fibers must share one dimension")
        self.fiber_dim = dims.pop()
        self.maps = dict(maps)
        for a in groupoid.arrows:
            if a.label not in self.maps:
                raise ModelError(f"missing fiber map for arrow {a.label!r}")
            if self.maps[a.label].dim != self.fiber_dim:
                raise ModelError(f"fiber map dimension mismatch at {a.label!r}")
        for u in groupoid.units:
            if self.maps[u.label] != AffineTorusMap.identity(self.fiber_dim):
                raise ModelError("unit arrows must act by the identity map")
        for a1 in groupoid.arrows:
            for a2 in groupoid.source_fibers[a1.tgt]:
                c = groupoid.compose(a1, a2)
                expected = self.maps[a1.label].after(self.maps[a2.label])
                if self.maps[c.label] != expected:
                    raise ModelError("fiber maps are not functorial")

    @property
    def base(self):
        return self.groupoid.base

    def fiber_map(self, a: Arrow) -> AffineTorusMap:
        return self.maps[a.label]

    def point_action(self, a: Arrow) -> AffineTorusMap:
        """Geometric action of the arrow on fiber points, source -> target.

        This is the inverse of the stored fiber map; acting first by a1 and
        then by a2 composes as point_action(a2) after point_action(a1).
        """
        return self.maps[a.label].inverted()

    def transport(self, a: Arrow, field: np.ndarray) -> np.ndarray:
        """Carry a grid field on the source fiber to the target fiber.

        The result is field composed with the stored fiber map, i.e. the
        push-forward of the field under the pointwise action.  Transporting
        along "a1 then a2" equals transporting along a1, then along a2.
        """
        n = self.base.fiber(a.src).grid_size
        if self.base.fiber(a.tgt).grid_size != n:
            raise ModelError("grid sizes must agree along arrows")
        return self.maps[a.label].pullback_field(field, n)

    def eval_after_action(self, a: Arrow, field: np.ndarray) -> np.ndarray:
        """Samples of z -> field(action_a(z)) on the source fiber.

        ``field`` lives on the fiber over t(a); the result lives on the fiber
        over s(a).  This is transport along the inverse arrow.
        """
        return self.transport(self.groupoid.inverse(a), field)

    @classmethod
    def trivial(cls, groupoid: GroupoidModel) -> "FiberedGSpace":
        dims = {groupoid.base.fiber(x).dim for x in range(len(groupoid.base))}
        r = dims.pop()
        ident = AffineTorusMap.identity(r)
        return cls(groupoid, {a.label: ident for a in groupoid.arrows})
