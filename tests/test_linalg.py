"""Subspace canonicalization, sum/intersection, membership, hyperplanes."""

import itertools
import random

import pytest

from crossflats.field import make_field
from crossflats.linalg import (
    Hyperplane,
    Space,
    Subspace,
    contains,
    enumerate_hyperplanes,
    enumerate_subspaces,
    null_space,
    rref,
    subspace_intersection,
    subspace_sum,
)
from oracles import combo_points, span_points

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


def gaussian_binomial(n, d, q):
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_rref_examples():
    s = Space(GF2, 2)
    assert rref(s, [(1, 1), (0, 1)]).basis == ((1, 0), (0, 1))
    assert rref(Space(GF3, 2), [(2, 2)]).basis == ((1, 1),)
    zero = rref(s, [])
    assert zero.dim == 0 and zero.basis == ()


def test_rref_idempotent_and_span_canonical():
    rng = random.Random(7)
    for space in (Space(GF2, 3), Space(GF3, 2), Space(GF4, 2)):
        q = space.q
        for _ in range(60):
            rows = [tuple(rng.randrange(q) for _ in range(space.n))
                    for _ in range(rng.randrange(4))]
            sub = rref(space, rows)
            assert rref(space, sub.basis) == sub
            # A second spanning set for the same span: shuffled sums of rows.
            doubled = rows + [tuple(space.field.add(a, b) for a, b in zip(r, rows[0]))
                              for r in rows]
            rng.shuffle(doubled)
            assert rref(space, doubled) == sub
            assert combo_points(space, rows) == span_points(sub)


def test_subspace_validation_rejects_non_rref():
    s = Space(GF2, 2)
    with pytest.raises(ValueError):
        Subspace(s, ((1, 1), (0, 1)))  # pivot column not cleared
    with pytest.raises(ValueError):
        Subspace(s, ((0, 1), (1, 0)))  # pivots not increasing
    with pytest.raises(ValueError):
        Subspace(Space(GF3, 2), ((2, 0),))  # pivot not normalized
    with pytest.raises(ValueError):
        Subspace(s, ((0, 0),))  # zero row


def test_sum_examples():
    s = Space(GF2, 2)
    u = rref(s, [(1, 0)])
    v = rref(s, [(0, 1)])
    assert subspace_sum(u, v).dim == 2
    zero = rref(s, [])
    assert subspace_sum(u, zero) == u


def test_intersection_examples():
    s3 = Space(GF2, 3)
    hyps = enumerate_hyperplanes(s3)
    h1, h2 = hyps[0].kernel(), hyps[1].kernel()
    assert subspace_intersection(h1, h2).dim == 1
    assert subspace_intersection(h1, h1) == h1
    s = Space(GF3, 2)
    assert subspace_intersection(rref(s, [(1, 0)]), rref(s, [(0, 1)])).dim == 0


@pytest.mark.parametrize("space", [Space(GF2, 3), Space(GF3, 2)])
def test_dimension_formula_exhaustive(space):
    subs = list(enumerate_subspaces(space))
    for u, v in itertools.product(subs, repeat=2):
        s = subspace_sum(u, v)
        i = subspace_intersection(u, v)
        assert s.dim + i.dim == u.dim + v.dim
        # and the computed spans really are the sum and the intersection
        assert span_points(i) == span_points(u) & span_points(v)
        assert span_points(s) >= span_points(u) | span_points(v)


def test_contains_examples_and_oracle():
    s = Space(GF2, 2)
    u = rref(s, [(1, 0)])
    assert contains(u, (0, 0))
    assert not contains(u, (1, 1))
    for space in (Space(GF3, 2), Space(GF2, 3), Space(GF4, 2), Space(GF2, 4)):
        for sub in enumerate_subspaces(space):
            pts = span_points(sub)
            assert len(pts) == space.q ** sub.dim
            for v in space.vectors():
                assert contains(sub, v) == (v in pts)


def test_enumerate_hyperplanes_examples():
    assert [h.normal for h in enumerate_hyperplanes(Space(GF2, 2))] == \
        [(0, 1), (1, 0), (1, 1)]
    only = enumerate_hyperplanes(Space(GF3, 1))
    assert len(only) == 1 and only[0].kernel().dim == 0
    assert len(enumerate_hyperplanes(Space(GF2, 3))) == 7


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyperplane_count_and_canonical_form(field, n):
    space = Space(field, n)
    hyps = enumerate_hyperplanes(space)
    q = field.q
    assert len(hyps) == (q ** n - 1) // (q - 1)
    assert len({h.normal for h in hyps}) == len(hyps)
    normals = [h.normal for h in hyps]
    assert normals == sorted(normals)
    for h in hyps:
        first = next(c for c in h.normal if c)
        assert first == 1
        k = h.kernel()
        assert k.dim == n - 1
        for row in k.basis:
            dot = 0
            for a, b in zip(h.normal, row):
                dot = field.add(dot, field.mul(a, b))
            assert dot == 0


def test_hyperplane_kernel_membership_extension_field():
    space = Space(GF4, 2)
    for h in enumerate_hyperplanes(space):
        k = h.kernel()
        f = space.field
        for v in span_points(k):
            dot = 0
            for a, b in zip(h.normal, v):
                dot = f.add(dot, f.mul(a, b))
            assert dot == 0


def test_bad_normal_rejected():
    s = Space(GF3, 2)
    with pytest.raises(ValueError):
        Hyperplane(s, (0, 0))
    with pytest.raises(ValueError):
        Hyperplane(s, (2, 1))


@pytest.mark.parametrize("space,expected", [
    (Space(GF2, 3), [1, 7, 7, 1]),
    (Space(GF3, 2), [1, 4, 1]),
])
def test_enumerate_subspaces_counts(space, expected):
    subs = list(enumerate_subspaces(space))
    assert len(subs) == sum(expected)
    assert len(set(subs)) == len(subs)
    for d, count in enumerate(expected):
        assert sum(1 for s in subs if s.dim == d) == count
        assert count == gaussian_binomial(space.n, d, space.q)


def test_enumerate_subspaces_single_dimension():
    space = Space(GF2, 4)
    subs = list(enumerate_subspaces(space, dim=2))
    assert len(subs) == gaussian_binomial(4, 2, 2) == 35


def test_null_space_is_the_annihilator():
    space = Space(GF3, 3)
    rows = [(1, 2, 0), (0, 1, 1)]
    ker = null_space(space, rows)
    assert ker.dim == 1
    f = space.field
    for v in span_points(ker):
        for r in rows:
            dot = 0
            for a, b in zip(r, v):
                dot = f.add(dot, f.mul(a, b))
            assert dot == 0


def test_mixed_spaces_raise():
    a = rref(Space(GF2, 2), [(1, 0)])
    b = rref(Space(GF2, 3), [(1, 0, 0)])
    c = rref(Space(GF3, 2), [(1, 0)])
    for other in (b, c):
        with pytest.raises(ValueError):
            subspace_sum(a, other)
        with pytest.raises(ValueError):
            subspace_intersection(a, other)
    with pytest.raises(ValueError):
        contains(a, (1, 0, 0))
    with pytest.raises(ValueError):
        rref(Space(GF2, 2), [(1, 0, 0)])


def test_space_requires_positive_dimension():
    with pytest.raises(ValueError):
        Space(GF2, 0)


def test_boundary_functions_check_their_input():
    s = Space(GF3, 2)
    for bad in ([(3, 0)], [(0, -1)], [(1.0, 0)]):
        with pytest.raises(ValueError):
            rref(s, bad)
        with pytest.raises(ValueError):
            null_space(s, bad)


def test_trusted_subspaces_satisfy_the_validated_invariants():
    # Kernel output skips validation; rebuilding it through the checked
    # constructor must give the same value.
    rng = random.Random(11)
    gf9 = make_field(3, 2)
    for space in (Space(GF2, 4), Space(GF3, 3), Space(GF4, 3), Space(gf9, 2)):
        q = space.q
        subs = list(enumerate_subspaces(space))
        for _ in range(40):
            rows = [tuple(rng.randrange(q) for _ in range(space.n))
                    for _ in range(rng.randrange(5))]
            u, v = rref(space, rows), rng.choice(subs)
            for sub in (u, subspace_sum(u, v), subspace_intersection(u, v),
                        null_space(space, rows), v):
                assert Subspace(space, sub.basis) == sub
