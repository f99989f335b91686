"""Affine flats of F_q^n and projective subspaces of PG(n, q)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import Field
from .linalg import (
    Space,
    Subspace,
    _pivot,
    _same_space,
    contains,
    reduce_mod_basis,
    rref,
    solve_linear,
    subspace_intersection,
    subspace_sum,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)


# ---------------------------------------------------------------------------
# Affine flats.

@dataclass(frozen=True)
class AffineFlat:
    """The coset rep + direction, with rep reduced against the direction's
    pivots so that equal cosets are value-identical."""

    rep: tuple[int, ...]
    direction: Subspace

    def __post_init__(self):
        self.space.check_vector(self.rep)
        for p in self.direction.pivot_columns():
            if self.rep[p] != 0:
                raise ValueError("rep is not reduced against the direction")

    @property
    def space(self) -> Space:
        return self.direction.space

    @property
    def dim(self) -> int:
        return self.direction.dim

    def contains_point(self, v) -> bool:
        return contains(self.direction, vec_sub(self.space, v, self.rep))

    def points(self):
        """All q^dim points of the flat (order follows the basis coefficients)."""
        space = self.space
        for coeffs in itertools.product(range(space.q), repeat=self.direction.dim):
            p = self.rep
            for c, row in zip(coeffs, self.direction.basis):
                if c:
                    p = vec_add(space, p, vec_scale(space, c, row))
            yield p


def make_flat(point, direction: Subspace) -> AffineFlat:
    """Canonical flat point + direction; equal cosets map to equal values."""
    return AffineFlat(reduce_mod_basis(direction, point), direction)


def flats_disjoint(A: AffineFlat, B: AffineFlat) -> bool:
    """Empty intersection test: rep(A) - rep(B) outside dir(A) + dir(B)."""
    space = _same_space(A.space, B.space)
    diff = vec_sub(space, B.rep, A.rep)
    return not contains(subspace_sum(A.direction, B.direction), diff)


def affine_intersect(A: AffineFlat, B: AffineFlat):
    """Canonical flat A ∩ B, or None when the flats are disjoint."""
    space = _same_space(A.space, B.space)
    field = space.field
    diff = vec_sub(space, B.rep, A.rep)
    if not contains(subspace_sum(A.direction, B.direction), diff):
        return None
    # Solve rep_A + sum a_i u_i = rep_B + sum b_j v_j for one common point.
    du = A.direction.dim
    columns = list(A.direction.basis) + [vec_neg(space, r) for r in B.direction.basis]
    rows = [tuple(col[i] for col in columns) for i in range(space.n)]
    x = solve_linear(field, rows, diff)
    assert x is not None
    point = A.rep
    for coeff, base in zip(x[:du], A.direction.basis):
        if coeff:
            point = vec_add(space, point, vec_scale(space, coeff, base))
    return make_flat(point, subspace_intersection(A.direction, B.direction))


def enumerate_flats(space: Space):
    """All nonempty flats of the space, deterministically ordered.

    For each subspace (see enumerate_subspaces), its cosets in the order
    of :func:`cosets`.
    """
    from .linalg import enumerate_subspaces

    for sub in enumerate_subspaces(space):
        yield from cosets(sub)


def cosets(sub: Subspace):
    """Every coset of sub as a flat, reps in lexicographic order.

    The canonical reps are exactly the vectors vanishing on the pivot
    columns, so the q^(n - dim) cosets partition the space.
    """
    n, q = sub.space.n, sub.space.q
    pivots = set(sub.pivot_columns())
    free = [j for j in range(n) if j not in pivots]
    for values in itertools.product(range(q), repeat=len(free)):
        rep = [0] * n
        for j, val in zip(free, values):
            rep[j] = val
        yield AffineFlat(tuple(rep), sub)


# ---------------------------------------------------------------------------
# Projective space PG(n, q): the ambient linear space is F_q^(n+1).

def point_key(field: Field, v) -> int:
    """Total order on projective points: coordinate i is the q^i digit."""
    e = 0
    for c in reversed(v):
        e = e * field.q + c
    return e


def canonical_point(space: Space, v) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    p = _pivot(v)
    if p < 0:
        raise ValueError("the zero vector spans no projective point")
    c = v[p]
    if c == 1:
        return tuple(v)
    return vec_scale(space, space.field.inv(c), v)


def enumerate_projective_points(n: int, field: Field) -> list[tuple[int, ...]]:
    """The t = (q^(n+1) - 1)/(q - 1) canonical points of PG(n, q), in
    ascending point_key order (this order fixes the index s everywhere)."""
    if n < 0:
        raise ValueError(f"projective dimension must be >= 0, got {n}")
    q = field.q
    length = n + 1
    points = []
    for e in range(1, q ** length):
        v = []
        rest = e
        for _ in range(length):
            v.append(rest % q)
            rest //= q
        v = tuple(v)
        p = _pivot(v)
        if v[p] == 1:
            points.append(v)
    return points


def gaussian_point_count(lin_dim: int, field: Field) -> int:
    """Projective points in a subspace of linear dimension lin_dim."""
    if lin_dim < 0:
        raise ValueError(f"linear dimension must be >= 0, got {lin_dim}")
    return (field.q ** lin_dim - 1) // (field.q - 1)


@dataclass(frozen=True)
class ProjectiveSubspace:
    """Projective subspace of PG(n, q) carried by a linear subspace of
    F_q^(n+1); proj_dim -1 denotes the empty subspace."""

    lin: Subspace

    @property
    def space(self) -> Space:
        return self.lin.space

    @property
    def proj_dim(self) -> int:
        return self.lin.dim - 1

    @property
    def ambient_dim(self) -> int:
        return self.lin.space.n - 1

    def is_empty(self) -> bool:
        return self.lin.dim == 0

    def points(self) -> list[tuple[int, ...]]:
        """Canonical points of the subspace in point_key order."""
        space = self.lin.space
        seen = set()
        for coeffs in itertools.product(range(space.q), repeat=self.lin.dim):
            v = space.zero()
            for c, row in zip(coeffs, self.lin.basis):
                if c:
                    v = vec_add(space, v, vec_scale(space, c, row))
            if any(v):
                seen.add(canonical_point(space, v))
        return sorted(seen, key=lambda v: point_key(space.field, v))


def make_projective_subspace(n: int, field: Field, rows) -> ProjectiveSubspace:
    """Projective subspace of PG(n, q) spanned by the given vectors."""
    return ProjectiveSubspace(rref(Space(field, n + 1), rows))


def projective_whole(n: int, field: Field) -> ProjectiveSubspace:
    space = Space(field, n + 1)
    identity = tuple(tuple(1 if i == j else 0 for j in range(n + 1))
                     for i in range(n + 1))
    return ProjectiveSubspace(Subspace(space, identity))


def projective_empty(n: int, field: Field) -> ProjectiveSubspace:
    return ProjectiveSubspace(Subspace(Space(field, n + 1), ()))


def proj_intersect(A: ProjectiveSubspace, B: ProjectiveSubspace) -> ProjectiveSubspace:
    """Intersection; proj_dim -1 signals the empty subspace."""
    _same_space(A.space, B.space)
    return ProjectiveSubspace(subspace_intersection(A.lin, B.lin))


def projective_disjoint(A: ProjectiveSubspace, B: ProjectiveSubspace) -> bool:
    # dim(U ∩ V) = dim U + dim V - dim(U + V); avoids the Zassenhaus pass.
    _same_space(A.space, B.space)
    return A.lin.dim + B.lin.dim - subspace_sum(A.lin, B.lin).dim == 0


def char_vector(F: ProjectiveSubspace, points) -> tuple[int, ...]:
    """0/1 incidence vector of F against an ordered projective point list,
    read off F's mask over that order (points are taken up to scaling)."""
    space = F.space
    canon = [canonical_point(space, space.check_vector(pt)) for pt in points]
    masks = PointMasks(canon)
    mask = masks(F)
    return tuple((mask >> masks.rank[pt]) & 1 for pt in canon)


# ---------------------------------------------------------------------------
# Point masks: one integer per member over a fixed point order.

class PointMasks:
    """Incidence masks of members over a fixed order of points.

    ``masks(member)`` has bit i set iff the member holds ``points[i]``, so
    two members over the same order meet iff their masks share a bit.
    Flats of F_q^n use the Space.vectors() order, subspaces of PG(n, q)
    the enumerate_projective_points order; a member's points outside the
    order set no bit.  Masks are memoised per distinct member for the
    life of the instance.
    """

    def __init__(self, points):
        self.rank = {pt: i for i, pt in enumerate(points)}
        self._memo = {}

    def __call__(self, member) -> int:
        mask = self._memo.get(member)
        if mask is None:
            mask = 0
            for pt in member.points():
                i = self.rank.get(pt)
                if i is not None:
                    mask |= 1 << i
            self._memo[member] = mask
        return mask
