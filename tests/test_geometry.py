"""Flats, cosets, projective points/subspaces, incidence vectors."""

import itertools

import pytest

from crossflats.field import make_field
from crossflats.geometry import (
    AffineFlat,
    PointMasks,
    ProjectiveSubspace,
    affine_intersect,
    canonical_point,
    char_vector,
    enumerate_flats,
    enumerate_projective_points,
    flats_disjoint,
    gaussian_point_count,
    make_flat,
    make_projective_subspace,
    proj_intersect,
    projective_disjoint,
    projective_empty,
    projective_whole,
)
from crossflats.linalg import Space, enumerate_hyperplanes, enumerate_subspaces, rref
from oracles import flat_points, members_meet, span_points

GF2 = make_field(2)
GF3 = make_field(3)


def test_make_flat_reduces_the_representative():
    s = Space(GF2, 2)
    d = rref(s, [(1, 0)])
    assert make_flat((1, 1), d).rep == (0, 1)
    assert make_flat((0, 0), d).rep == (0, 0)
    assert make_flat((1, 0), d) == make_flat((0, 0), d)


def test_flat_requires_reduced_rep():
    s = Space(GF2, 2)
    d = rref(s, [(1, 0)])
    with pytest.raises(ValueError):
        AffineFlat((1, 1), d)


def test_flat_points():
    s = Space(GF3, 2)
    d = rref(s, [(1, 2)])
    flat = make_flat((0, 1), d)
    assert set(flat.points()) == {(0, 1), (1, 0), (2, 2)}
    assert all(flat.contains_point(p) for p in flat.points())


def test_affine_intersect_self_and_cosets():
    s = Space(GF2, 3)
    k = enumerate_hyperplanes(s)[0].kernel()
    a = make_flat((0, 0, 0), k)
    assert affine_intersect(a, a) == a
    # two distinct cosets of one hyperplane never meet
    reps = sorted({make_flat(v, k) for v in s.vectors()}, key=lambda f: f.rep)
    assert len(reps) == 2
    assert affine_intersect(reps[0], reps[1]) is None


@pytest.mark.parametrize("space", [Space(GF2, 2), Space(GF3, 1)])
def test_affine_intersect_matches_point_sets_exhaustively(space):
    flats = list(enumerate_flats(space))
    for a, b in itertools.product(flats, repeat=2):
        expected = flat_points(a) & flat_points(b)
        got = affine_intersect(a, b)
        if got is None:
            assert expected == set()
        else:
            assert flat_points(got) == expected
        assert flats_disjoint(a, b) == (not expected)
        assert flats_disjoint(b, a) == flats_disjoint(a, b)


def test_affine_intersect_gf2_cubed_low_dims():
    space = Space(GF2, 3)
    flats = [f for f in enumerate_flats(space) if f.dim <= 2]
    for a, b in itertools.product(flats, repeat=2):
        expected = flat_points(a) & flat_points(b)
        got = affine_intersect(a, b)
        assert (got is None) == (not expected)
        if got is not None:
            assert flat_points(got) == expected


@pytest.mark.parametrize("space", [Space(GF2, 3), Space(GF3, 2)])
def test_coset_meeting_pattern_across_hyperplanes(space):
    # Distinct cosets of one hyperplane are disjoint; cosets of two
    # different hyperplanes always meet.
    kernels = [h.kernel() for h in enumerate_hyperplanes(space)]
    for i, k1 in enumerate(kernels):
        cosets1 = {make_flat(v, k1) for v in space.vectors()}
        for c1, c2 in itertools.product(cosets1, repeat=2):
            assert flats_disjoint(c1, c2) == (c1 != c2)
        for k2 in kernels[i + 1:]:
            cosets2 = {make_flat(v, k2) for v in space.vectors()}
            for c1, c2 in itertools.product(cosets1, cosets2):
                assert not flats_disjoint(c1, c2)


def test_enumerate_flats_counts():
    assert len(list(enumerate_flats(Space(GF2, 2)))) == 11
    # dim d subspaces contribute q^(n-d) cosets each
    flats = list(enumerate_flats(Space(GF2, 3)))
    assert len(flats) == 8 + 7 * 4 + 7 * 2 + 1 == 51
    assert len(set(flats)) == len(flats)


def test_projective_point_order():
    assert enumerate_projective_points(1, GF2) == [(1, 0), (0, 1), (1, 1)]
    assert len(enumerate_projective_points(2, GF2)) == 7
    assert enumerate_projective_points(0, GF3) == [(1,)]


@pytest.mark.parametrize("field,n", [(GF2, 1), (GF2, 2), (GF2, 3), (GF3, 1), (GF3, 2)])
def test_projective_point_count_and_canonicality(field, n):
    pts = enumerate_projective_points(n, field)
    q = field.q
    assert len(pts) == (q ** (n + 1) - 1) // (q - 1)
    assert len(set(pts)) == len(pts)
    space = Space(field, n + 1)
    for p in pts:
        assert canonical_point(space, p) == p
    # every nonzero vector canonicalizes onto the list
    for v in space.vectors():
        if any(v):
            assert canonical_point(space, v) in pts


def test_gaussian_point_count():
    assert gaussian_point_count(0, GF2) == 0
    assert gaussian_point_count(1, GF3) == 1
    assert gaussian_point_count(2, GF2) == 3
    assert gaussian_point_count(3, GF2) == 7


@pytest.mark.parametrize("field,n", [(GF2, 2), (GF3, 1)])
def test_char_vector_support_equals_gaussian_count(field, n):
    points = enumerate_projective_points(n, field)
    space = Space(field, n + 1)
    for sub in enumerate_subspaces(space):
        member = ProjectiveSubspace(sub)
        vec = char_vector(member, points)
        assert sum(vec) == gaussian_point_count(sub.dim, field)
        assert sorted(member.points()) == sorted(
            p for p, bit in zip(points, vec) if bit)


def test_char_vector_examples():
    points = enumerate_projective_points(1, GF2)
    assert char_vector(projective_whole(1, GF2), points) == (1, 1, 1)
    assert char_vector(projective_empty(1, GF2), points) == (0, 0, 0)
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    assert char_vector(p1, points) == (1, 0, 0)


def test_proj_intersect_examples():
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    p2 = make_projective_subspace(1, GF2, [(0, 1)])
    empty = proj_intersect(p1, p2)
    assert empty.proj_dim == -1 and empty.is_empty()
    whole = projective_whole(2, GF2)
    line = make_projective_subspace(2, GF2, [(1, 0, 0), (0, 1, 0)])
    assert proj_intersect(line, whole) == line
    assert len(proj_intersect(line, whole).points()) == 3


def test_proj_intersect_matches_point_sets_in_pg22():
    space = Space(GF2, 3)
    members = [ProjectiveSubspace(s) for s in enumerate_subspaces(space)]
    for a, b in itertools.product(members, repeat=2):
        got = proj_intersect(a, b)
        expected = set(a.points()) & set(b.points())
        assert set(got.points()) == expected
        assert projective_disjoint(a, b) == (not expected)


@pytest.mark.parametrize("kind,n,field", [
    ("affine", 2, GF3), ("affine", 3, GF2), ("projective", 2, GF2), ("projective", 2, GF3),
])
def test_point_mask_disjointness_matches_rref_and_oracle(kind, n, field):
    if kind == "affine":
        space = Space(field, n)
        members = list(enumerate_flats(space))
        masks = PointMasks(space.vectors())
        rref_disjoint = flats_disjoint
    else:
        members = [ProjectiveSubspace(sub)
                   for sub in enumerate_subspaces(Space(field, n + 1)) if sub.dim >= 1]
        masks = PointMasks(enumerate_projective_points(n, field))
        rref_disjoint = projective_disjoint
    for a, b in itertools.product(members, repeat=2):
        disjoint = not masks(a) & masks(b)
        assert disjoint == rref_disjoint(a, b)
        assert disjoint == (not members_meet(a, b))


def test_projective_subspace_point_lists():
    line = make_projective_subspace(2, GF2, [(1, 0, 0), (0, 1, 0)])
    assert line.points() == [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert line.proj_dim == 1 and line.ambient_dim == 2
    # nonzero span vectors, canonicalized, is the same set
    space = Space(GF2, 3)
    expected = {canonical_point(space, v) for v in span_points(line.lin) if any(v)}
    assert set(line.points()) == expected


def test_mixed_space_errors():
    p_small = make_projective_subspace(1, GF2, [(1, 0)])
    p_big = make_projective_subspace(2, GF2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        proj_intersect(p_small, p_big)
    with pytest.raises(ValueError):
        char_vector(p_big, enumerate_projective_points(1, GF2))
    s2 = Space(GF2, 2)
    a = make_flat((0, 0), rref(s2, [(1, 0)]))
    b = make_flat((0, 0, 0), rref(Space(GF2, 3), [(1, 0, 0)]))
    with pytest.raises(ValueError):
        affine_intersect(a, b)
    with pytest.raises(ValueError):
        canonical_point(s2, (0, 0))
