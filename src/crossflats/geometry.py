"""Affine flats of F_q^n and projective subspaces of PG(n, q).

A member's cached ``equations``, rows [w | c] with the member equal to
{x : w.x = c for every row}, describe its points: point masks, membership
and incidence vectors are read off them, and no code walks a member's
points.

Flat disjointness is read off the directions' sum instead.  A ∩ B is
nonempty iff rep_A + a = rep_B + b for some a in dir A and b in dir B,
i.e. iff rep_B − rep_A lies in U = dir A + dir B.  Reducing a vector
against U's RREF basis is linear and canonical, with kernel U, so A and
B are disjoint iff rep_A and rep_B reduce to different vectors.  Then
some w vanishing on U has w.rep_A != w.rep_B, and the parallel
hyperplanes w.x = w.rep_A and w.x = w.rep_B hold A and B apart.  U
depends only on the two directions, so a family of flats forms one sum
per distinct pair of directions, not one per pair of flats; every such
sum is linalg.subspace_sum.  Projective subspaces are disjoint iff
dim(U + V) = dim U + dim V.  flats_disjoint and projective_disjoint are
the public tests, and projective verify calls projective_disjoint itself.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .field import MAX_ORDER, Field, _Value, exceeds_max_order
from .linalg import (
    Space,
    Subspace,
    _annihilator_rows,
    _pivot,
    _reduced,
    _rref_rows,
    _same_space,
    enumerate_subspaces,
    rref,
    subspace_sum,
    vec_dot,
)


# ---------------------------------------------------------------------------
# Affine flats.

class AffineFlat(_Value):
    """The coset rep + direction, with rep reduced against the direction's
    pivots so that equal cosets are value-identical.

    ``equations`` describes the same flat the other way round; it is
    computed on first use and kept, outside the compared fields.
    """

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

    @cached_property
    def equations(self) -> tuple[tuple[int, ...], ...]:
        """Rows [w | w.rep], w over the annihilator of the direction as
        read off its RREF basis (linalg._annihilator_rows, no
        elimination): the flat is {x : w.x = w.rep for every row}.

        x lies in the flat iff x - rep lies in the direction, iff
        w.(x - rep) = 0 for every w in the annihilator, because over GF(q)
        the direction is the annihilator of its annihilator (a dimension
        count)."""
        space = self.space
        return tuple(w + (vec_dot(space, w, self.rep),)
                     for w in _annihilator_rows(self.direction))

    def contains_point(self, v) -> bool:
        return _satisfies(self, self.space.check_vector(v))


def _satisfies(member, v) -> bool:
    """w.v = c for every equation row [w | c] of the member, i.e. the
    member holds the checked vector v."""
    space = member.space
    return all(vec_dot(space, row[:-1], v) == row[-1] for row in member.equations)


def make_flat(point, direction: Subspace) -> AffineFlat:
    """Canonical flat point + direction; equal cosets map to equal values."""
    return _flat(direction, direction.space.check_vector(point))


def _flat(direction: Subspace, point) -> AffineFlat:
    """make_flat for a point already checked.  Reducing the point against
    the direction's pivots makes a valid rep, so AffineFlat's checks are
    skipped, as linalg._trusted_subspace skips Subspace's."""
    flat = object.__new__(AffineFlat)
    object.__setattr__(flat, "rep", _reduced(direction, point))
    object.__setattr__(flat, "direction", direction)
    return flat


def flats_disjoint(A: AffineFlat, B: AffineFlat) -> bool:
    """Empty intersection test, the one disjointness path for flats: the
    reps reduce to different vectors against dir A + dir B (see the
    module docstring)."""
    total = subspace_sum(A.direction, B.direction)
    return _reduced(total, A.rep) != _reduced(total, B.rep)


def enumerate_flats(space: Space):
    """All nonempty flats of the space, deterministically ordered.

    For each subspace (see enumerate_subspaces), its cosets in the order
    of :func:`cosets`.
    """
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
        yield _flat(sub, tuple(rep))


# ---------------------------------------------------------------------------
# Projective space PG(n, q): the ambient linear space is F_q^(n+1).

def enumerate_projective_points(n: int, field: Field) -> list[tuple[int, ...]]:
    """The t = (q^(n+1) - 1)/(q - 1) canonical points of PG(n, q), in
    ascending order of their reversed coordinates (this order fixes the
    index s everywhere).  The walk over all q^(n+1) vectors is refused
    up front when their number exceeds MAX_ORDER."""
    if n < 0:
        raise ValueError(f"projective dimension must be >= 0, got {n}")
    q = field.q
    if exceeds_max_order(q, n + 1):
        raise ValueError(
            f"PG({n}, {q}) is too large to enumerate: q^(n+1) exceeds {MAX_ORDER}")
    points = []
    for rev in itertools.product(range(q), repeat=n + 1):
        v = rev[::-1]
        p = _pivot(v)
        if p >= 0 and v[p] == 1:
            points.append(v)
    return points


def gaussian_point_count(lin_dim: int, field: Field) -> int:
    """Projective points in a subspace of linear dimension lin_dim."""
    if lin_dim < 0:
        raise ValueError(f"linear dimension must be >= 0, got {lin_dim}")
    return (field.q ** lin_dim - 1) // (field.q - 1)


class ProjectiveSubspace(_Value):
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

    @cached_property
    def equations(self) -> tuple[tuple[int, ...], ...]:
        """Rows [w | 0], w over the annihilator of lin as AffineFlat.equations
        reads it off: the subspace is {x : w.x = 0 for every row}."""
        return tuple(w + (0,) for w in _annihilator_rows(self.lin))


def make_projective_subspace(n: int, field: Field, rows) -> ProjectiveSubspace:
    """Projective subspace of PG(n, q) spanned by the given vectors."""
    return ProjectiveSubspace(rref(Space(field, n + 1), rows))


def projective_disjoint(A: ProjectiveSubspace, B: ProjectiveSubspace) -> bool:
    """U ∩ V = 0 iff rank(U ∪ V) = dim U + dim V, since
    dim(U ∩ V) = dim U + dim V - rank(U ∪ V): the rank is one elimination
    of both bases."""
    space, U, V = _same_space(A.space, B.space), A.lin, B.lin
    return len(_rref_rows(space.field, U.basis + V.basis)) == U.dim + V.dim


def char_vector(F: ProjectiveSubspace, points) -> tuple[int, ...]:
    """0/1 incidence vector of F against an ordered projective point list,
    read off F.equations point by point.  Points are taken up to scaling:
    the equations are homogeneous, so every nonzero multiple of a vector
    satisfies them or none does."""
    space, vec = F.space, []
    for pt in points:
        v = space.check_vector(pt)
        if not any(v):
            raise ValueError("the zero vector spans no projective point")
        vec.append(int(_satisfies(F, v)))
    return tuple(vec)


# ---------------------------------------------------------------------------
# Point masks: one integer per member over a fixed point order.

class PointMasks:
    """Incidence masks of members over a fixed order of points of a space.

    ``masks(member)`` has bit i set iff the member holds ``points[i]``, so
    two members over the same order meet iff their masks share a bit.
    Flats of F_q^n use the Space.vectors() order, subspaces of PG(n, q)
    the enumerate_projective_points order.  The mask is the AND, over the
    member's equations [w | c], of the mask of {x : w.x = c}; each distinct
    w gets those masks once, from a pass over space.vectors() one
    coordinate at a time, read at each point's position in that order.
    """

    def __init__(self, space: Space, points):
        self.space = space
        q = space.q
        self.positions = []
        for pt in points:
            position = 0
            for c in pt:
                position = position * q + c
            self.positions.append(position)
        self.everything = (1 << len(self.positions)) - 1
        self.by_value = {}  # w -> [mask of {x : w.x = c} for c in range(q)]

    def _value_masks(self, w) -> list[int]:
        masks = self.by_value.get(w)
        if masks is None:
            q, ops = self.space.q, self.space.field.unchecked
            values = [0]  # w.x for the vectors over the coordinates seen so far
            for h in w:
                terms = [ops.mul(h, c) for c in range(q)]
                # q^2 additions per coordinate at most, not one per vector
                sums = {v: [ops.add(v, t) for t in terms] for v in set(values)}
                values = [s for v in values for s in sums[v]]
            masks = [0] * q
            for i, position in enumerate(self.positions):
                masks[values[position]] |= 1 << i
            self.by_value[w] = masks
        return masks

    def __call__(self, member) -> int:
        mask = self.everything
        for row in member.equations:
            mask &= self._value_masks(row[:-1])[row[-1]]
        return mask
