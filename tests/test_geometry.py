"""Flats, cosets, projective points/subspaces, incidence vectors."""

import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats import linalg
from crossflats.field import MAX_ORDER, make_field
from crossflats.geometry import (
    AffineFlat,
    PointMasks,
    ProjectiveSubspace,
    char_vector,
    cosets,
    enumerate_flats,
    enumerate_projective_points,
    flats_disjoint,
    gaussian_point_count,
    make_flat,
    make_projective_subspace,
    projective_disjoint,
)
from crossflats.linalg import (
    Hyperplane,
    Space,
    Subspace,
    _annihilator_rows,
    enumerate_hyperplanes,
    enumerate_subspaces,
    rref,
)
from crossflats.search import candidates_affine
import oracles
from oracles import (
    canonical_points,
    combo_points,
    flat_points,
    member_points,
    members_meet,
    span_points,
    vanishing_points,
)

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
    assert flat_points(flat) == {(0, 1), (1, 0), (2, 2)}
    assert {v for v in s.vectors() if flat.contains_point(v)} == flat_points(flat)


@pytest.mark.parametrize("space", [Space(GF2, 2), Space(GF3, 1), Space(GF2, 3), Space(GF3, 2),
                                   Space(make_field(2, 2), 2)])
def test_flats_disjoint_matches_point_sets_exhaustively(space):
    flats = list(enumerate_flats(space))
    for a, b in itertools.product(flats, repeat=2):
        expected = flat_points(a) & flat_points(b)
        assert flats_disjoint(a, b) == (not expected)
        assert flats_disjoint(b, a) == flats_disjoint(a, b)


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
    assert pts == canonical_points(space.vectors())
    # every nonzero vector, scaled to a leading 1, lands on the list
    for v in space.vectors():
        if any(v):
            lead = field.inv(next(c for c in v if c))
            assert tuple(field.mul(lead, c) for c in v) in pts


@pytest.mark.parametrize("n,p,k", [(16, 2, 1), (1, 257, 1), (2, 41, 1), (4, 2, 4),
                                   (10 ** 9, 3, 1)])
def test_projective_point_walk_is_bounded_before_it_starts(refuse_point_walk, n, p, k):
    with pytest.raises(ValueError, match=str(MAX_ORDER)):
        enumerate_projective_points(n, make_field(p, k))


@pytest.mark.parametrize("n,p,k", [(15, 2, 1), (7, 2, 2), (3, 2, 4), (1, 2, 8)])
def test_largest_admitted_point_walks_run(n, p, k):
    q = p ** k
    assert q ** (n + 1) == MAX_ORDER
    points = enumerate_projective_points(n, make_field(p, k))
    assert len(points) == (MAX_ORDER - 1) // (q - 1)


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
        held = member_points(member)
        assert vec == tuple(int(p in held) for p in points)


def test_char_vector_examples():
    points = enumerate_projective_points(1, GF2)
    whole = make_projective_subspace(1, GF2, [(1, 0), (0, 1)])
    empty = make_projective_subspace(1, GF2, [])
    assert char_vector(whole, points) == (1, 1, 1)
    assert char_vector(empty, points) == (0, 0, 0)
    assert empty.proj_dim == -1 and empty.is_empty()
    assert projective_disjoint(empty, whole)
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    assert char_vector(p1, points) == (1, 0, 0)
    line = make_projective_subspace(2, GF2, [(1, 0, 0), (0, 1, 0)])
    assert line.proj_dim == 1 and line.ambient_dim == 2
    assert char_vector(line, enumerate_projective_points(2, GF2)) == (1, 1, 1, 0, 0, 0, 0)


def test_membership_reads_the_equations_without_a_point_walk(refuse_point_walk):
    # Every subspace of PG(2,3) against randomly scaled and reversed point
    # lists, and every flat of AG(2,3) against every vector, with geometry's
    # vector walks refused: the inputs come from linalg and the oracle.
    rng = random.Random(23)
    space = Space(GF3, 3)
    points = canonical_points(space.vectors())
    scaled = [tuple(GF3.mul(c, x) for x in p) for p in points
              for c in [rng.randrange(1, 3)]]
    for sub in enumerate_subspaces(space):
        member = ProjectiveSubspace(sub)
        held = member_points(member)
        for order in (scaled, scaled[::-1]):
            assert char_vector(member, order) == tuple(int(p in held) for p in order)
    plane = Space(GF3, 2)
    flats = {make_flat(v, sub) for sub in enumerate_subspaces(plane) for v in plane.vectors()}
    assert len(flats) == 9 + 4 * 3 + 1
    for flat in flats:
        held = flat_points(flat)
        assert all(flat.contains_point(v) == (v in held) for v in plane.vectors())


def _dot(field, u, v):
    total = 0
    for a, b in zip(u, v):
        total = field.add(total, field.mul(a, b))
    return total


@pytest.mark.parametrize("n,p,k", [(3, 2, 1), (2, 2, 2), (2, 3, 2)])
def test_equations_define_the_flat_exactly(n, p, k):
    # Every flat of AG(3,2), AG(2,4) and AG(2,9): x is in the flat iff it
    # satisfies every equation row [w | w.rep].
    field = make_field(p, k)
    space = Space(field, n)
    for flat in enumerate_flats(space):
        rows = flat.equations
        assert len(rows) == n - flat.dim
        points = flat_points(flat)
        for x in space.vectors():
            holds = all(_dot(field, row[:n], x) == row[n] for row in rows)
            assert holds == (x in points)


def test_equal_flats_compare_and_hash_alike_with_or_without_equations():
    space = Space(GF3, 3)
    direction = rref(space, [(1, 2, 0)])
    a = make_flat((0, 1, 1), direction)
    b = make_flat((1, 0, 1), direction)  # (1, 0, 1) - (0, 1, 1) = (1, 2, 0)
    assert a.equations
    assert "equations" in vars(a) and "equations" not in vars(b)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == repr(b)
    assert b.equations == a.equations
    assert make_flat((0, 0, 1), direction) != a


def _random_combination(rng, field, rows, n):
    v = (0,) * n
    for row in rows:
        c = rng.randrange(field.q)
        v = tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, row))
    return v


def _random_flat(rng, space, dim, generators):
    """A random flat whose direction is a dim-dimensional span of
    combinations of the generators."""
    n = space.n
    while True:
        direction = rref(space, [_random_combination(rng, space.field, generators, n)
                                 for _ in range(dim)])
        if direction.dim == dim:
            return make_flat(tuple(rng.randrange(space.q) for _ in range(n)), direction)


@pytest.mark.parametrize("n,p,k", [(4, 3, 1), (3, 3, 2)])
def test_flats_disjoint_matches_the_oracle_for_every_dimension_pair(n, p, k):
    # Seeded random pairs of AG(4,3) and AG(3,9) for every (dim A, dim B).
    # Both verdicts are required with dim A + dim B < n, where the equation
    # stack (2n - dim A - dim B rows) is taller than the flats' spanning
    # rows, and with dim A + dim B >= n.  Besides random pairs, some are
    # planted to meet (B through a point of A) and some to be disjoint
    # (both directions in one hyperplane H, the reps in different cosets
    # of H).
    rng = random.Random(20 + n)
    field = make_field(p, k)
    space = Space(field, n)
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    hyperplanes = enumerate_hyperplanes(space)
    seen = set()
    for dim_a, dim_b in itertools.product(range(n + 1), repeat=2):
        pairs = [(_random_flat(rng, space, dim_a, identity),
                  _random_flat(rng, space, dim_b, identity)) for _ in range(4)]
        for _ in range(2):
            a = _random_flat(rng, space, dim_a, identity)
            b = _random_flat(rng, space, dim_b, identity)
            pairs.append((a, make_flat(a.rep, b.direction)))
        if max(dim_a, dim_b) < n:
            for _ in range(4):
                h = rng.choice(hyperplanes)
                kernel = h.kernel().basis
                a = _random_flat(rng, space, dim_a, kernel)
                b = _random_flat(rng, space, dim_b, kernel)
                while _dot(field, h.normal, b.rep) == _dot(field, h.normal, a.rep):
                    b = _random_flat(rng, space, dim_b, kernel)
                pairs.append((a, b))
        for a, b in pairs:
            disjoint = not flat_points(a) & flat_points(b)
            assert flats_disjoint(a, b) == disjoint
            assert flats_disjoint(b, a) == disjoint
            seen.add((dim_a + dim_b < n, disjoint))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("kind,n,field", [
    ("affine", 2, GF3), ("affine", 3, GF2), ("projective", 2, GF2), ("projective", 2, GF3),
])
def test_point_mask_disjointness_matches_rref_and_oracle(kind, n, field):
    if kind == "affine":
        space = Space(field, n)
        members = list(enumerate_flats(space))
        masks = PointMasks(space, space.vectors())
        rref_disjoint = flats_disjoint
    else:
        space = Space(field, n + 1)
        members = [ProjectiveSubspace(sub) for sub in enumerate_subspaces(space) if sub.dim >= 1]
        masks = PointMasks(space, enumerate_projective_points(n, field))
        rref_disjoint = projective_disjoint
    for a, b in itertools.product(members, repeat=2):
        disjoint = not masks(a) & masks(b)
        assert disjoint == rref_disjoint(a, b)
        assert disjoint == (not members_meet(a, b))


@pytest.mark.parametrize("q,line_only", [(4, False), (9, True)])
def test_rank_flats_disjoint_matches_the_oracle(q, line_only):
    # Every ordered flat pair of AG(2,4); every ordered line pair of AG(2,9).
    # Point sets are enumerated once per flat; `not pa & pb` is
    # `not members_meet(a, b)`.
    p, k = {4: (2, 2), 9: (3, 2)}[q]
    flats = [f for f in enumerate_flats(Space(make_field(p, k), 2))
             if not line_only or f.dim == 1]
    assert len(flats) == (37 if q == 4 else 90)
    points = [frozenset(member_points(f)) for f in flats]
    for (a, pa), (b, pb) in itertools.product(zip(flats, points), repeat=2):
        assert flats_disjoint(a, b) == (not pa & pb)


def test_projective_disjoint_matches_the_oracle_in_pg_2_4():
    space = Space(make_field(2, 2), 3)
    members = [ProjectiveSubspace(sub) for sub in enumerate_subspaces(space) if sub.dim >= 1]
    points = [frozenset(member_points(m)) for m in members]
    for (a, pa), (b, pb) in itertools.product(zip(members, points), repeat=2):
        assert projective_disjoint(a, b) == (not pa & pb)


def test_oracles_enumerate_points_without_the_elimination_code():
    source = inspect.getsource(oracles)
    for name in ("disjoint", "rref", "linalg", "unchecked", "PointMasks"):
        assert name not in source


def test_mixed_space_errors():
    p_small = make_projective_subspace(1, GF2, [(1, 0)])
    p_big = make_projective_subspace(2, GF2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        char_vector(p_big, enumerate_projective_points(1, GF2))
    s2 = Space(GF2, 2)
    a = make_flat((0, 0), rref(s2, [(1, 0)]))
    b = make_flat((0, 0, 0), rref(Space(GF2, 3), [(1, 0, 0)]))
    with pytest.raises(ValueError):
        flats_disjoint(a, b)
    with pytest.raises(ValueError, match="zero vector"):
        char_vector(p_small, [(1, 0), (0, 0)])


@pytest.mark.parametrize("entry", [True, False])
def test_bool_entries_are_rejected_at_every_boundary(entry):
    # bool is a subclass of int; a flat built on one would be written as
    # JSON true/false by family_to_dict, which load_family rejects.
    space = Space(GF3, 2)
    direction = rref(space, [(1, 0)])
    for build in (lambda: GF3.add(entry, 0), lambda: space.check_vector((0, entry)),
                  lambda: rref(space, [(1, entry)]), lambda: make_flat((0, entry), direction)):
        with pytest.raises(ValueError, match="is not an element encoding"):
            build()


HYPERPLANE_FIELDS = {q: make_field(p, k) for q, (p, k) in
                     {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                      9: (3, 2)}.items()}


@st.composite
def hyperplanes_and_subspaces(draw):
    """A hyperplane of F_q^n (n <= 4) and a subspace spanned by random rows."""
    field = HYPERPLANE_FIELDS[draw(st.sampled_from(sorted(HYPERPLANE_FIELDS)))]
    space = Space(field, draw(st.integers(1, 4)))
    vector = st.lists(st.integers(0, field.q - 1), min_size=space.n, max_size=space.n)
    w = draw(vector.filter(any))
    lead = field.inv(next(c for c in w if c))
    normal = tuple(field.mul(lead, c) for c in w)
    rows = draw(st.lists(vector, max_size=space.n))
    return Hyperplane(space, normal), rref(space, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hyperplanes_and_subspaces())
def test_closed_form_kernels_and_trusted_cosets_match_the_checked_paths(drawn):
    """Hyperplane.kernel is the canonical basis of {x : w.x = 0} for its
    normal w, and cosets builds the flats make_flat builds from the same
    reps."""
    hyperplane, sub = drawn
    kernel = hyperplane.kernel()
    assert Subspace(hyperplane.space, kernel.basis) == kernel
    assert span_points(kernel) == vanishing_points(hyperplane.space, [hyperplane.normal])
    for direction in (kernel, sub):
        flats = list(cosets(direction))
        assert flats == [make_flat(flat.rep, direction) for flat in flats]
        assert len(set(flats)) == hyperplane.space.q ** (hyperplane.space.n - direction.dim)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hyperplanes_and_subspaces())
def test_annihilator_rows_span_the_annihilator(drawn):
    """The rows the equations read, before any elimination, are a basis of
    the annihilator {x : u.x = 0 for every u in U}: they span it, and
    there are n - dim U of them."""
    _, sub = drawn
    rows = _annihilator_rows(sub)
    assert combo_points(sub.space, rows) == vanishing_points(sub.space, sub.basis)
    assert len(rows) == sub.space.n - sub.dim


def test_restricted_candidates_run_no_elimination(monkeypatch):
    """Restricted (2,5) candidates: hyperplane kernels in closed form and
    coset equations read off without an elimination."""
    calls = []
    rref_rows = linalg._rref_rows

    def counted(*args):
        calls.append(args)
        return rref_rows(*args)

    monkeypatch.setattr(linalg, "_rref_rows", counted)
    cands = candidates_affine(2, make_field(5), True)
    assert len(cands) == 6 * 5 * 4
    assert calls == []
