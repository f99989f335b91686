"""verify's walk per class against the plain loop over every pair.

The affine walk decides a row of the upper triangle per B class that may
miss A_i, visiting the classes in the order of their first position after
i, and computes pair_checks in closed form.  It must report what the loop
over every pair reports: the same first violation, the same pair checks
and the same direction-class pair sums formed.
"""

import random

import pytest

from crossflats.families import (
    AFFINE,
    OFFDIAGONAL_EMPTY,
    PROJECTIVE,
    FamilyPair,
    VerifyReport,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import (
    flats_disjoint,
    make_flat,
    make_projective_subspace,
    projective_disjoint,
)
from crossflats.linalg import Space, rref
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
    field = _field(q)
    rng = random.Random(q)
    subspaces = [make_projective_subspace(
        2, field, [[rng.randrange(q) for _ in range(3)] for _ in range(rng.randint(1, 2))])
        for _ in range(40)]
    subspaces = [s for s in subspaces if s.lin.dim]
    for pairs in _families(rng, subspaces, projective_disjoint):
        fam = FamilyPair(PROJECTIVE, field, 2, tuple(pairs))
        assert _report(fam) == pair_loop_verify(fam)


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
