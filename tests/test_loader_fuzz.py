"""Mutated family files leave verify and certify by an exit code.

Each example deletes keys or list entries of a valid affine or projective
family file, or swaps random JSON values in, and runs both commands on
it.  They must return 0, 1 or 2 and raise nothing.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats.cli import main
from crossflats.families import (
    PROJECTIVE,
    FamilyPair,
    construct_extremal_affine,
    family_to_dict,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import make_projective_subspace

GF2 = make_field(2)


def _frame_family(n):
    """Pairs (<e_S>, <e_S^c>) over the nonempty proper subsets S of the
    coordinates of PG(n, 2), by decreasing |S|: a valid family."""
    coords = range(n + 1)
    full = 2 ** (n + 1) - 1
    subsets = sorted(range(1, full), key=lambda s: -bin(s).count("1"))

    def span(s):
        return make_projective_subspace(
            n, GF2, [tuple(int(i == j) for i in coords) for j in coords if s >> j & 1])

    return FamilyPair(PROJECTIVE, GF2, n, tuple((span(s), span(full ^ s)) for s in subsets))


FAMILIES = {
    "affine": construct_extremal_affine(2, make_field(3)),
    "projective": _frame_family(2),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _paths(value, prefix=()):
    """Every position in a JSON value, the root first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_the_unmutated_files_verify():
    for fam in FAMILIES.values():
        assert verify_cross_intersecting(fam).ok
    assert FAMILIES["projective"].m == 6


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "family.json"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(FAMILIES)), mutations=st.integers(1, 3), data=st.data())
def test_mutated_family_files_exit_0_1_or_2(fuzz_file, kind, mutations, data):
    doc = family_to_dict(FAMILIES[kind])
    for _ in range(mutations):
        doc = _mutate(doc, data)
    fuzz_file.write_text(json.dumps(doc))
    for command in ("verify", "certify"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(fuzz_file)])
        assert code in (0, 1, 2)
