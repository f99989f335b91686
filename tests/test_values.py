"""The value classes behave as their dataclasses.dataclass(frozen=True)
twins (oracles.dataclass_twin) do: construction, argument errors,
__post_init__ checks, equality, hash, repr, __match_args__ and refusal to
change; and what a value keeps outside its fields takes no part in that."""

import pytest

from crossflats.certify import CertificateMatrix, CertificateReport
from crossflats.families import FamilyPair, VerifyReport, construct_extremal_affine
from crossflats.field import Field, _Value, make_field
from crossflats.geometry import AffineFlat, ProjectiveSubspace, make_flat
from crossflats.linalg import Hyperplane, Space, Subspace, _trusted_subspace, rref
from crossflats.search import CandidatePair, SearchReport
from oracles import dataclass_twin

GF2, GF3 = make_field(2), make_field(3)
S3 = Space(GF3, 3)
PLANE = Subspace(S3, ((1, 0, 2), (0, 1, 1)))
LINE = Subspace(S3, ((1, 2, 0),))
FAM = construct_extremal_affine(2, GF2)
A, B = make_flat((0, 0, 1), PLANE), make_flat((0, 0, 2), PLANE)

# class -> (field values of valid instances, field values __post_init__ refuses)
SAMPLES = {
    Field: ([(2, 1, ()), (2, 3, (1, 1, 0, 1)), (3, 2, (1, 0, 1))],
            [(4, 1, ()), (2, 0, ()), (2, 1, (1, 1)), (2, 2, (1, 0, 1))]),
    Space: ([(GF2, 2), (GF3, 3)], [(GF2, 0)]),
    Subspace: ([(S3, ((1, 0, 2), (0, 1, 1))), (S3, ()), (S3, ((1, 2, 0),))],
               [(S3, ((2, 0, 0),)), (S3, ((0, 1, 0), (1, 0, 0))), (S3, ((1, 1, 0), (0, 1, 0))),
                (S3, ((1, 0),))]),
    Hyperplane: ([(S3, (1, 2, 0)), (S3, (0, 0, 1))], [(S3, (0, 0, 0)), (S3, (2, 1, 0))]),
    AffineFlat: ([((0, 0, 1), PLANE), ((0, 1, 1), LINE)], [((1, 0, 0), PLANE)]),
    ProjectiveSubspace: ([(PLANE,), (LINE,)], []),
    FamilyPair: ([(FAM.kind, FAM.field, FAM.n, FAM.pairs), ("affine", GF3, 3, ((A, B),))],
                 [("bogus", GF2, 2, ()), ("affine", GF2, 0, ()), ("affine", GF3, 3, ((A, PLANE),))]),
    VerifyReport: ([(True, None, 0, 0), (False, (1, 2, "offdiagonal_empty"), 3, 1)], []),
    CandidatePair: ([(0, A, B, 1, 2), (5, B, A, 6, 24)], []),
    SearchReport: ([(3, (0, 4, 9), 10, 1, 0), (0, (), 1, 2, 7)], []),
    CertificateMatrix: ([(2, 1, 3, ((1, 1, 1, 0),)), (3, 0, 4, ())], []),
    CertificateReport: ([(1, 3, 3, True, True, True, None), (2, 7, 3, False, False, True, 6)], []),
}
CLASSES = list(SAMPLES)


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def calls(cls, values):
    """(args, kwargs) that give the fields `values`: positional, keyword,
    mixed, and with every trailing default left out."""
    names = cls.__match_args__
    out = [(values, {}), ((), dict(zip(names, values))),
           (values[:1], dict(zip(names[1:], values[1:])))]
    trimmed = list(values)
    while trimmed and names[len(trimmed) - 1] in vars(cls) \
            and trimmed[-1] == vars(cls)[names[len(trimmed) - 1]]:
        trimmed.pop()
    out.append((tuple(trimmed), {}))
    return out


def agree(cls, twin, args, kwargs):
    """Build both; assert they raise the same or hold the same values."""
    try:
        value = cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as twin_exc:
            twin(*args, **kwargs)
        if isinstance(exc, ValueError):
            assert str(twin_exc.value) == str(exc)
        return None
    reference = twin(*args, **kwargs)
    assert fields(value) == fields(reference)
    assert repr(value) == repr(reference)
    assert hash(value) == hash(reference) == hash(fields(value))
    return value


def test_every_value_class_is_sampled():
    assert set(CLASSES) == set(_Value.__subclasses__())
    assert len(CLASSES) == 12


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_and_value_semantics_match_the_dataclass(cls):
    twin = dataclass_twin(cls)
    assert cls.__match_args__ == twin.__match_args__
    valid, refused = SAMPLES[cls]
    built = []
    for values in valid:
        for args, kwargs in calls(cls, values):
            value = agree(cls, twin, args, kwargs)
            assert value is not None
            built.append(value)
    for values in refused:
        with pytest.raises(ValueError):
            cls(*values)
        assert agree(cls, twin, values, {}) is None
    for x in built:
        for y in built:
            assert (x == y) == (fields(x) == fields(y))
            assert (x != y) == (fields(x) != fields(y))
        twin_x = twin(*fields(x))
        assert x == x and x != twin_x and x != fields(x)
        assert x.__eq__(fields(x)) is twin_x.__eq__(fields(x)) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_argument_errors_match_the_dataclass(cls):
    twin = dataclass_twin(cls)
    values = SAMPLES[cls][0][0]
    names = cls.__match_args__
    last_required = [name for name in names if name not in vars(cls)][-1]
    bad_calls = [((), {}),                                     # nothing given
                 ((), {name: value for name, value in zip(names, values)
                       if name != last_required}),             # one missing
                 (values, {"bogus": 1}),                       # unknown keyword
                 (values + (None,), {}),                       # too many
                 (values, {names[0]: values[0]})]              # given twice
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            twin(*args, **kwargs)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_values_refuse_assignment_and_deletion(cls):
    twin = dataclass_twin(cls)
    values = SAMPLES[cls][0][0]
    for value in (cls(*values), twin(*values)):
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_kept_attributes_stay_out_of_the_value():
    """Field.unchecked, AffineFlat.equations, a Subspace's pivot columns
    and FamilyPair.ambient are kept on the instance, but not compared,
    hashed or printed."""
    gf8 = Field(2, 3)
    assert "unchecked" in vars(gf8) and "unchecked" not in repr(gf8)
    assert gf8 == Field(2, 3, (1, 1, 0, 1)) and hash(gf8) == hash((2, 3, (1, 1, 0, 1)))

    plain, cached = AffineFlat((0, 0, 1), PLANE), AffineFlat((0, 0, 1), PLANE)
    assert cached.equations and "equations" in vars(cached) and "equations" not in vars(plain)
    assert plain == cached and hash(plain) == hash(cached) and repr(plain) == repr(cached)

    checked = Subspace(S3, ((1, 0, 2), (0, 1, 1)))
    trusted = _trusted_subspace(S3, ((1, 0, 2), (0, 1, 1)))
    assert checked._pivots == trusted._pivots == (0, 1)
    assert checked == trusted and hash(checked) == hash(trusted) == hash((S3, checked.basis))
    assert repr(checked) == repr(trusted) == repr(rref(S3, [(1, 0, 2), (0, 1, 1)]))
    assert "_pivots" not in repr(checked)

    rebuilt = FamilyPair(FAM.kind, FAM.field, FAM.n, FAM.pairs)
    assert "ambient" in vars(FAM) and "ambient" not in repr(FAM)
    assert rebuilt.ambient is FAM.ambient == Space(GF2, 2)
    assert rebuilt == FAM and hash(rebuilt) == hash(FAM) == hash(fields(FAM))
    empty, again = FamilyPair("affine", GF2, 2, ()), FamilyPair("affine", GF2, 2, ())
    assert empty.ambient is not again.ambient and empty.ambient == again.ambient
    assert empty == again and hash(empty) == hash(again) and repr(empty) == repr(again)


def test_a_value_class_without_fields_is_refused():
    with pytest.raises(TypeError, match="no annotated fields"):
        class Empty(_Value):
            unannotated = 1
