"""The family loader against the checked constructors.

Raw members carry dependent, duplicate and unscaled rows (not in RREF)
and unreduced reps.  Each must load to the member that make_flat(rep,
rref(space, dir)) or make_projective_subspace(n, field, lin) builds, and
dumping a loaded family must be stable.  A file with one defect must
raise the message of the check that the public constructors make.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats.cli import main
from crossflats.families import (
    AFFINE,
    PROJECTIVE,
    FamilyPair,
    dump_family,
    family_from_dict,
    load_family,
)
from crossflats.field import make_field
from crossflats.geometry import make_flat, make_projective_subspace
from crossflats.linalg import Space, rref

FIELDS = [make_field(2), make_field(3), make_field(2, 2), make_field(5)]


def _document(kind, field, n, pairs):
    return {"version": 1, "kind": kind,
            "field": {"p": field.p, "k": field.k, "modulus": list(field.modulus)},
            "n": n, "point_order": "lex-first-nonzero-1",
            "pairs": [{"A": a, "B": b} for a, b in pairs]}


@st.composite
def raw_families(draw):
    """(kind, field, n, raw pairs): each member's rows mix random rows with
    repeats and combinations of earlier rows, and each rep is random."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from([AFFINE, PROJECTIVE]))
    n = draw(st.integers(1, 3))
    dim = n if kind == AFFINE else n + 1
    vector = st.lists(st.integers(0, field.q - 1), min_size=dim, max_size=dim)

    def rows():
        out = draw(st.lists(vector, max_size=dim))
        for _ in range(draw(st.integers(0, 2)) if out else 0):
            c = draw(st.integers(0, field.q - 1))
            u, v = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.insert(draw(st.integers(0, len(out))),
                       [field.add(x, field.mul(c, y)) for x, y in zip(u, v)])
        return out

    def member():
        if kind == AFFINE:
            return {"rep": draw(vector), "dir": rows()}
        return {"lin": rows()}

    pairs = [(member(), member()) for _ in range(draw(st.integers(1, 3)))]
    return kind, field, n, pairs


def _checked(kind, field, n, pairs):
    """The family the public constructors build from the raw pairs, or the
    message of the ValueError they raise."""
    def build(raw):
        if kind == AFFINE:
            return make_flat(raw["rep"], rref(Space(field, n), raw["dir"]))
        return make_projective_subspace(n, field, raw["lin"])

    try:
        return FamilyPair(kind, field, n, tuple((build(a), build(b)) for a, b in pairs))
    except ValueError as exc:
        return str(exc)


def _load_error(doc) -> str:
    with pytest.raises(ValueError) as info:
        load_family(json.dumps(doc))
    return str(info.value)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=raw_families())
def test_loaded_members_equal_the_checked_constructors(raw):
    kind, field, n, pairs = raw
    expected = _checked(kind, field, n, pairs)
    doc = _document(kind, field, n, pairs)
    if isinstance(expected, str):  # a projective member spans nothing
        assert _load_error(doc) == expected
        return
    fam = load_family(json.dumps(doc))
    assert fam == expected
    for (a, b), (a_expected, b_expected) in zip(fam.pairs, expected.pairs):
        assert (a, b) == (a_expected, b_expected)
    text = dump_family(fam)
    assert load_family(text) == fam
    assert dump_family(load_family(text)) == text


DEFECTS = ["bool", "float", "out-of-range", "negative", "short", "long", "not-a-list"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=raw_families(), defect=st.sampled_from(DEFECTS), data=st.data())
def test_a_single_defect_raises_the_checked_message(raw, defect, data):
    kind, field, n, pairs = raw
    doc = _document(kind, field, n, pairs)
    member = doc["pairs"][data.draw(st.integers(0, len(pairs) - 1))][
        data.draw(st.sampled_from("AB"))]
    key = "lin" if kind == PROJECTIVE else data.draw(st.sampled_from(["rep", "dir"]))
    if key == "rep":
        holder, index, what = member, "rep", "rep"
    else:
        if not member[key]:
            member[key].append([0] * (n if kind == AFFINE else n + 1))
        holder, index, what = member[key], data.draw(
            st.integers(0, len(member[key]) - 1)), f"{key} row"
    row = holder[index]
    position = data.draw(st.integers(0, len(row) - 1))
    dim = len(row)
    if defect in ("bool", "float"):
        row[position] = True if defect == "bool" else 1.0
        message = f"{what} entry must be an integer, got {defect}"
    elif defect in ("out-of-range", "negative"):
        row[position] = field.q if defect == "out-of-range" else -1
        message = f"{row[position]!r} is not an element encoding of GF({field.q})"
    elif defect in ("short", "long"):
        row[:] = row[:-1] if defect == "short" else row + [0]
        message = f"vector {tuple(row)!r} does not live in dimension {dim}"
    else:
        holder[index] = data.draw(st.sampled_from([7, "x", None, {}]))
        message = f"{what} must be a list, got {type(holder[index]).__name__}"
    assert _load_error(doc) == message


@pytest.mark.parametrize("kind,n", [(AFFINE, 0), (AFFINE, -2), (PROJECTIVE, -1)])
def test_a_bad_dimension_keeps_its_message_with_and_without_pairs(kind, n):
    field = make_field(3)
    dim = n if kind == AFFINE else n + 1
    member = {"rep": [], "dir": []} if kind == AFFINE else {"lin": [[1]]}
    assert _load_error(_document(kind, field, n, [(member, member)])) == (
        f"ambient dimension must be >= 1, got {dim}")
    assert _load_error(_document(kind, field, n, [])) == f"bad dimension {n} for kind {kind}"
    with pytest.raises(ValueError, match="bad dimension"):
        family_from_dict(_document(kind, field, n, []))


REPEATED = {"float": (1.0, "must be an integer, got float"),
            "bool": (True, "must be an integer, got bool"),
            "out-of-range": (4, "4 is not an element encoding of GF(3)")}


@pytest.mark.parametrize("kind", [AFFINE, PROJECTIVE])
@pytest.mark.parametrize("defect", REPEATED)
def test_a_repeated_row_list_is_checked_again(kind, defect, tmp_path, capsys):
    # The loader spans each distinct row list once.  The second copy of a
    # direction has an entry that hashes equal to the first copy's 1 (or
    # is out of range), and must still be refused with the message of a
    # file that holds it alone.
    field, n = make_field(3), 2
    key = "dir" if kind == AFFINE else "lin"

    def member(row):
        return {"rep": [0, 2], "dir": [row]} if kind == AFFINE else {"lin": [row, [0, 0, 1]]}

    good = [1, 2] if kind == AFFINE else [1, 2, 0]
    first = (member(good), member([0, 1] + good[2:]))
    fam = load_family(json.dumps(_document(kind, field, n, [first, first])))
    a, again = fam.pairs[0][0], fam.pairs[1][0]
    assert (a.direction is again.direction) if kind == AFFINE else (a.lin is again.lin)

    bad = member([REPEATED[defect][0]] + good[1:])
    doc = _document(kind, field, n, [first, (bad, first[1])])
    message = REPEATED[defect][1]
    if defect != "out-of-range":
        message = f"{key} row entry {message}"
    assert _load_error(doc) == message
    alone = _document(kind, field, n, [(bad, first[1])])
    assert _load_error(alone) == message
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
