"""verify's walk per class against the plain loop over every pair.

The walk decides a row of the upper triangle per B class that may miss
A_i, visiting the classes in the order of their first position after i,
and computes pair_checks in closed form.  A flat's class is its
direction, a projective subspace's its span.  The walk must report what
the loop over every pair reports: the same first violation, the same
pair checks and the same class-pair sums formed.
"""

import itertools
import random

import pytest

from crossflats.families import (
    AFFINE,
    OFFDIAGONAL_EMPTY,
    PROJECTIVE,
    FamilyPair,
    VerifyReport,
    _MemberClasses,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import (
    ProjectiveSubspace,
    enumerate_flats,
    flats_disjoint,
    make_flat,
    make_projective_subspace,
    projective_disjoint,
)
from crossflats.linalg import Space, enumerate_subspaces, rref
from oracles import frame_family, member_points, naive_verify
from pair_loop import pair_loop_verify

SPACES = [(n, q) for n in (2, 3, 4) for q in (2, 3, 4, 5)]


def _field(q):
    return make_field(2, 2) if q == 4 else make_field(q)


def _random_flat(rng, space):
    """A flat of dimension 0 .. n - 1: points, lines, planes, hyperplanes."""
    q, n = space.q, space.n
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n))]
    return make_flat([rng.randrange(q) for _ in range(n)], rref(space, rows))


def _families(rng, members, disjoint):
    """Pair lists of the given members: grown ones that verify, each with a
    planted diagonal and a planted off-diagonal violation; lists of
    disjoint pairs in any order, whose first violation falls anywhere
    off the diagonal; and arbitrary lists."""
    def disjoint_pair():
        while True:
            a, b = rng.choice(members), rng.choice(members)
            if disjoint(a, b):
                return a, b

    for _ in range(4):
        grown = []
        for _ in range(300):
            a, b = disjoint_pair()
            if not any(disjoint(prev, b) for prev, _ in grown):
                grown.append((a, b))
                if len(grown) == 10:
                    break
        yield grown
        k = rng.randrange(len(grown))
        yield grown[:k] + [(grown[k][0], grown[k][0])] + grown[k + 1:]
        if len(grown) > 1:
            i, j = sorted(rng.sample(range(len(grown)), 2))
            yield grown[:j] + [grown[i]] + grown[j + 1:]
        yield [disjoint_pair() for _ in range(rng.randint(2, 12))]
        yield [(rng.choice(members), rng.choice(members)) for _ in range(5)]


def _report(fam) -> tuple:
    report = verify_cross_intersecting(fam)
    return report.ok, report.violation, report.pair_checks, report.eliminations


@pytest.mark.parametrize("n,q", SPACES, ids=[f"AG({n},{q})" for n, q in SPACES])
def test_affine_walk_matches_the_pair_loop(n, q):
    field = _field(q)
    space = Space(field, n)
    rng = random.Random(100 * n + q)
    flats = [_random_flat(rng, space) for _ in range(60)]
    rows = set()  # equation row counts of the members checked
    offdiagonal = 0
    for _ in range(3):
        for pairs in _families(rng, flats, flats_disjoint):
            fam = FamilyPair(AFFINE, field, n, tuple(pairs))
            expected = pair_loop_verify(fam)
            assert _report(fam) == expected
            offdiagonal += expected[1] is not None and expected[1][2] == OFFDIAGONAL_EMPTY
            rows.update(n - f.dim for pair in pairs for f in pair)
    assert {1, n} <= rows  # one-row and multi-row classes
    assert offdiagonal >= 10


@pytest.mark.parametrize("q", (2, 3, 4))
def test_projective_verify_matches_the_pair_loop(q):
    # Every dimension of PG(2, q) and PG(3, q): two lines of PG(3, q), or
    # a point and a plane, leave their pair to a sum; a line and a plane,
    # or the whole space with anything, always meet.  Over both spaces the
    # dimension rule skips some pairs and admits others.
    field = _field(q)
    rng = random.Random(q)
    ruled = {True: 0, False: 0}  # distinct class pairs i < j, by the dimension rule
    for n in (2, 3):
        whole = [[int(c == k) for c in range(n + 1)] for k in range(n + 1)]
        subspaces = [make_projective_subspace(n, field, whole)] + [
            make_projective_subspace(n, field, [[rng.randrange(q) for _ in range(n + 1)]
                                                for _ in range(rng.randint(1, n))])
            for _ in range(40)]
        subspaces = [s for s in subspaces if s.lin.dim]
        assert {s.lin.dim for s in subspaces} == set(range(1, n + 2))
        for pairs in _families(rng, subspaces, projective_disjoint):
            fam = FamilyPair(PROJECTIVE, field, n, tuple(pairs))
            assert _report(fam) == pair_loop_verify(fam)
            classes = _MemberClasses(fam)
            for i, j in itertools.combinations(range(fam.m), 2):
                a, b = classes.a_side[i][0], classes.b_side[j][0]
                if a != b:
                    ruled[classes.always_meet(a, b)] += 1
    assert min(ruled.values()) > 0


@pytest.mark.parametrize("kind,n,q", [(PROJECTIVE, 2, 2), (PROJECTIVE, 2, 3), (PROJECTIVE, 3, 2),
                                      (AFFINE, 2, 3), (AFFINE, 3, 2)])
def test_the_always_meet_rules_hold_on_every_member_pair(kind, n, q):
    """Every member against every member: a pair of classes that the
    dimension rules say always meet does meet, and the class-pair sum
    decides every pair as the point sets do."""
    field = _field(q)
    if kind == AFFINE:
        members = list(enumerate_flats(Space(field, n)))
    else:
        members = [ProjectiveSubspace(s) for s in enumerate_subspaces(Space(field, n + 1))
                   if s.dim]
    points = [member_points(x) for x in members]
    classes = _MemberClasses(FamilyPair(kind, field, n, tuple((x, x) for x in members)))
    ruled = {True: 0, False: 0}
    for i, j in itertools.product(range(len(members)), repeat=2):
        meet = bool(points[i] & points[j])
        a, b = classes.a_side[i][0], classes.b_side[j][0]
        always = classes.always_meet(a, b)
        assert meet or not always
        assert classes.disjoint(i, j) == (not meet)
        ruled[always] += 1
    assert min(ruled.values()) > 0


FRAMES = [(n, 2) for n in range(1, 7)] + [(2, 3), (3, 3), (2, 4)]


@pytest.mark.parametrize("n,q", FRAMES, ids=[f"PG({n},{q})" for n, q in FRAMES])
def test_the_frame_verifies_with_one_sum_per_pair_left_by_the_dimensions(n, q):
    """The frame verifies, and forms one sum per diagonal pair and per
    pair i < j that the dimension rule leaves to a sum: each of its
    subspaces is one A and one B, so no two such pairs share a class
    pair.  A planted off-diagonal violation is reported as the loop over
    every pair reports it."""
    fam = frame_family(n, _field(q))
    m = fam.m
    assert m == 2 ** (n + 1) - 2
    if m <= 30:
        assert naive_verify(fam.pairs) == (None, m * (m + 1) // 2)
    left = sum(a.lin.dim + b.lin.dim <= n + 1 and a != b
               for (a, _), (_, b) in itertools.combinations(fam.pairs, 2))
    assert verify_cross_intersecting(fam) == VerifyReport(
        True, None, pair_checks=m * (m + 1) // 2, eliminations=m + left)
    i, j = sorted(random.Random(n * q).sample(range(m), 2))
    pairs = (*fam.pairs[:j], fam.pairs[i], *fam.pairs[j + 1:])
    planted = FamilyPair(PROJECTIVE, fam.field, n, pairs)
    expected = pair_loop_verify(planted)
    assert expected[1] == (i + 1, j + 1, OFFDIAGONAL_EMPTY)
    assert _report(planted) == expected


def test_a_wide_class_met_before_the_violation_is_solved():
    # Row 1 of AG(2,3): A_1 is the line y = 0.  B_2 is a point on it, the
    # first position of the point class, and B_3 the parallel line y = 1,
    # which A_1 misses.  The loop over pairs solves (line, point) at
    # (1, 2) before it meets the violation at (1, 3), so the walk must
    # solve it too: 3 solves, (line, line), (point, point), (line, point).
    field = make_field(3)
    space = Space(field, 2)
    line = rref(space, [(1, 0)])
    point = rref(space, [])
    y0, y1 = make_flat((0, 0), line), make_flat((0, 1), line)
    origin, other = make_flat((0, 0), point), make_flat((0, 2), point)
    fam = FamilyPair(AFFINE, field, 2, ((y0, y1), (other, origin), (y0, y1)))
    assert verify_cross_intersecting(fam) == VerifyReport(
        False, (1, 3, OFFDIAGONAL_EMPTY), pair_checks=5, eliminations=3)
    assert _report(fam) == pair_loop_verify(fam)
