"""Point masks read off equations, against the elimination tests and the
oracle, on seeded random members of spaces too large for the exhaustive
tests: AG(4,3), AG(3,4), PG(3,3) and PG(2,7)."""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats.field import make_field
from crossflats.geometry import (
    PointMasks,
    ProjectiveSubspace,
    enumerate_projective_points,
    flats_disjoint,
    make_flat,
    projective_disjoint,
)
from crossflats.linalg import Space, rref
from oracles import canonical_points, flat_points, member_points, members_meet

# name -> (kind, n, p, k); a projective instance lives in F_q^(n+1).
INSTANCES = {
    "AG(4,3)": ("affine", 4, 3, 1),
    "AG(3,4)": ("affine", 3, 2, 2),
    "PG(3,3)": ("projective", 3, 3, 1),
    "PG(2,7)": ("projective", 2, 7, 1),
}


@functools.cache
def _instance(name):
    """(space, PointMasks, point -> bit position from the oracle's order)."""
    kind, n, p, k = INSTANCES[name]
    field = make_field(p, k)
    if kind == "affine":
        space = Space(field, n)
        return space, PointMasks(space, space.vectors()), {
            pt: i for i, pt in enumerate(space.vectors())}
    space = Space(field, n + 1)
    order = canonical_points(space.vectors())
    return space, PointMasks(space, enumerate_projective_points(n, field)), {
        pt: i for i, pt in enumerate(order)}


def _random_vector(rng, space):
    return tuple(rng.randrange(space.q) for _ in range(space.n))


def _random_subspace(rng, space, dim, generators=None):
    """A dim-dimensional span of random vectors, or of random combinations
    of the given generators (which must span at least dim dimensions)."""
    f = space.field
    while True:
        rows = []
        for _ in range(dim):
            if generators is None:
                rows.append(_random_vector(rng, space))
                continue
            v = space.zero()
            for g in generators:
                c = rng.randrange(space.q)
                v = tuple(f.add(x, f.mul(c, y)) for x, y in zip(v, g))
            rows.append(v)
        sub = rref(space, rows)
        if sub.dim == dim:
            return sub


def _random_point_of(rng, member):
    return rng.choice(sorted(member_points(member)))


def _affine_pairs(rng, space):
    """A random pair, a pair planted to meet (B through a point of A) and
    a pair planted to be disjoint (cosets of directions inside one
    hyperplane, reps on different sides of it)."""
    n = space.n
    dim_a, dim_b = rng.randrange(n + 1), rng.randrange(n + 1)
    a = make_flat(_random_vector(rng, space), _random_subspace(rng, space, dim_a))
    b = make_flat(_random_vector(rng, space), _random_subspace(rng, space, dim_b))
    pairs = [(a, b), (a, make_flat(_random_point_of(rng, a), b.direction))]
    h = _random_subspace(rng, space, n - 1)
    a = make_flat(_random_vector(rng, space),
                  _random_subspace(rng, space, min(dim_a, n - 1), h.basis))
    shift = next(v for v in space.vectors() if v not in flat_points(make_flat(a.rep, h)))
    b = make_flat(shift, _random_subspace(rng, space, min(dim_b, n - 1), h.basis))
    pairs.append((a, b))
    return pairs


def _projective_pairs(rng, space):
    """A random pair, a pair planted to meet (B through a point of A) and
    a pair planted to be disjoint (B inside a complement of A)."""
    n1 = space.n
    dim_a, dim_b = rng.randrange(1, n1 + 1), rng.randrange(1, n1 + 1)
    a = _random_subspace(rng, space, dim_a)
    b = _random_subspace(rng, space, dim_b)
    through = rref(space, b.basis[1:] + (_random_point_of(rng, ProjectiveSubspace(a)),))
    pairs = [(a, b), (a, through)]
    if dim_a < n1:
        pivots = a.pivot_columns()
        complement = [tuple(int(i == j) for i in range(n1)) for j in range(n1)
                      if j not in pivots]
        dim = min(dim_b, len(complement))
        pairs.append((a, _random_subspace(rng, space, dim, complement)))
    return [(ProjectiveSubspace(u), ProjectiveSubspace(v)) for u, v in pairs]


def _oracle_mask(member, position):
    # Nonzero span vectors that are not canonical points set no bit.
    return sum(1 << position[pt] for pt in member_points(member) if pt in position)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(INSTANCES)), seed=st.integers(0, 2 ** 32 - 1))
def test_masks_from_equations_match_elimination_and_oracle(name, seed):
    rng = random.Random(seed)
    space, masks, position = _instance(name)
    affine = INSTANCES[name][0] == "affine"
    pairs = _affine_pairs(rng, space) if affine else _projective_pairs(rng, space)
    disjoint_test = flats_disjoint if affine else projective_disjoint
    for a, b in pairs:
        assert masks(a) == _oracle_mask(a, position)
        assert masks(b) == _oracle_mask(b, position)
        disjoint = not masks(a) & masks(b)
        assert disjoint == disjoint_test(a, b) == disjoint_test(b, a)
        assert disjoint == (not members_meet(a, b))
    assert not disjoint_test(*pairs[1])
    assert all(disjoint_test(a, b) for a, b in pairs[2:])
