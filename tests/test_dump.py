"""dump_family writes the bytes of the canonical indent=2 JSON encoding."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats.families import (
    AFFINE,
    PROJECTIVE,
    FamilyPair,
    construct_extremal_affine,
    construct_lower_bound_affine,
    dump_family,
    family_to_dict,
    load_family,
)
from crossflats.field import make_field
from crossflats.geometry import make_flat, make_projective_subspace
from crossflats.linalg import Space, rref

GF2, GF3 = make_field(2), make_field(3)
GF4, GF8 = make_field(2, 2), make_field(2, 3)


def reference_dump(fam) -> str:
    return json.dumps(family_to_dict(fam), indent=2) + "\n"


def _mixed_affine():
    # A point flat ("dir": []), a line, a plane and a hyperplane of AG(3,3).
    space = Space(GF3, 3)
    point = make_flat((1, 2, 0), rref(space, []))
    line = make_flat((0, 1, 1), rref(space, [(1, 2, 0)]))
    plane = make_flat((2, 0, 0), rref(space, [(0, 1, 0), (0, 0, 1)]))
    return FamilyPair(AFFINE, GF3, 3, ((point, line), (plane, point), (line, plane)))


def _projective(field, n, rows_a, rows_b):
    return FamilyPair(PROJECTIVE, field, n, ((make_projective_subspace(n, field, rows_a),
                                             make_projective_subspace(n, field, rows_b)),))


FAMILIES = {
    "extremal AG(2,3)": construct_extremal_affine(2, GF3),
    "lower bound AG(3,2)": construct_lower_bound_affine(3, GF2),
    "extremal AG(1,2)": construct_extremal_affine(1, GF2),
    "extremal AG(2,4)": construct_extremal_affine(2, GF4),
    "extremal AG(1,8)": construct_extremal_affine(1, GF8),
    "mixed AG(3,3)": _mixed_affine(),
    "no pairs, affine": FamilyPair(AFFINE, GF8, 2, ()),
    "no pairs, projective": FamilyPair(PROJECTIVE, GF3, 1, ()),
    "points of PG(1,2)": _projective(GF2, 1, [(1, 0)], [(0, 1)]),
    "point and line of PG(2,8)": _projective(GF8, 2, [(1, 5, 7)], [(0, 1, 0), (0, 0, 1)]),
    "point and plane of PG(3,4)": _projective(
        GF4, 3, [(3, 2, 1, 1)], [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
}


@pytest.mark.parametrize("fam", FAMILIES.values(), ids=FAMILIES)
def test_dump_is_the_canonical_encoding(fam):
    text = dump_family(fam)
    assert text == reference_dump(fam)
    again = load_family(text)
    assert again == fam
    assert dump_family(again) == text


@st.composite
def families(draw):
    """Affine or projective families over GF(2), GF(3), GF(4) and GF(8) of
    members of every dimension, in any number of pairs."""
    field = draw(st.sampled_from([GF2, GF3, GF4, GF8]))
    kind = draw(st.sampled_from([AFFINE, PROJECTIVE]))
    n = draw(st.integers(1, 3))
    dim = n if kind == AFFINE else n + 1
    space = Space(field, dim)
    vector = st.lists(st.integers(0, field.q - 1), min_size=dim, max_size=dim)

    def member():
        rows = draw(st.lists(vector, max_size=dim))
        if kind == AFFINE:
            return make_flat(draw(vector), rref(space, rows))
        return make_projective_subspace(n, field, rows + [draw(vector.filter(any))])

    pairs = tuple((member(), member()) for _ in range(draw(st.integers(0, 4))))
    return FamilyPair(kind, field, n, pairs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fam=families())
def test_dump_of_any_family_is_the_canonical_encoding(fam):
    text = dump_family(fam)
    assert text == reference_dump(fam)
    assert load_family(text) == fam
