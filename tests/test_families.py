"""Family verification, the extremal constructions, bound checks, file format."""

import random

import pytest

from crossflats import families, geometry, linalg
from crossflats.families import (
    AFFINE,
    DIAGONAL_NONEMPTY,
    OFFDIAGONAL_EMPTY,
    PROJECTIVE,
    FamilyPair,
    FamilyViolation,
    check_affine_bound,
    construct_extremal_affine,
    construct_lower_bound_affine,
    dump_family,
    family_from_dict,
    family_to_dict,
    load_family,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import enumerate_flats, make_flat, make_projective_subspace
from crossflats.linalg import Space, rref
from crossflats.search import candidates_affine, candidates_projective, compatible, max_family
from oracles import members_meet, naive_verify

GF2 = make_field(2)
GF3 = make_field(3)


def point_flat(field, coords):
    space = Space(field, len(coords))
    return make_flat(coords, rref(space, []))


def line1_family(order):
    """Pairs over GF(2)^1 built from the two points {0} and {1}."""
    zero, one = point_flat(GF2, (0,)), point_flat(GF2, (1,))
    table = {"01": (zero, one), "10": (one, zero), "00": (zero, zero)}
    return FamilyPair(AFFINE, GF2, 1, tuple(table[key] for key in order))


def test_verify_examples():
    fam = construct_extremal_affine(2, GF2)
    assert verify_cross_intersecting(fam).ok

    bad = line1_family(["00"])
    report = verify_cross_intersecting(bad)
    assert not report.ok
    assert report.violation == (1, 1, DIAGONAL_NONEMPTY)

    swap = line1_family(["01", "10"])
    assert verify_cross_intersecting(swap).ok
    assert verify_cross_intersecting(line1_family(["10", "01"])).ok


def test_verify_reports_first_violation_row_major():
    fam = line1_family(["01", "01"])  # repeated pair: A_1 misses B_2
    report = verify_cross_intersecting(fam)
    assert report.violation == (1, 2, OFFDIAGONAL_EMPTY)
    # diagonal violations are reported ahead of off-diagonal ones
    fam = line1_family(["01", "01", "00"])
    assert verify_cross_intersecting(fam).violation == (3, 3, DIAGONAL_NONEMPTY)


def test_construct_line_example():
    fam = construct_extremal_affine(1, GF2)
    zero, one = point_flat(GF2, (0,)), point_flat(GF2, (1,))
    assert fam.pairs == ((zero, one), (one, zero))
    assert fam.m == 2


@pytest.mark.parametrize("n,field,m", [
    (2, GF2, 6), (2, GF3, 8), (3, GF2, 14), (1, make_field(2, 2), 2),
])
def test_construct_extremal_sizes(n, field, m):
    fam = construct_extremal_affine(n, field)
    assert fam.m == m == 2 * (field.q ** n - 1) // (field.q - 1)
    assert verify_cross_intersecting(fam).ok


@pytest.mark.parametrize("n,field,m", [(2, GF2, 3), (1, GF3, 1), (3, GF2, 7)])
def test_construct_lower_bound(n, field, m):
    fam = construct_lower_bound_affine(n, field)
    assert fam.m == m == (field.q ** n - 1) // (field.q - 1)
    assert verify_cross_intersecting(fam).ok


def test_constructions_have_no_repeated_pairs():
    for n, field in [(1, GF2), (2, GF2), (3, GF2), (2, GF3)]:
        fam = construct_extremal_affine(n, field)
        assert len(set(fam.pairs)) == fam.m


def test_extremal_a_sides_use_two_cosets_per_hyperplane():
    for n, field in [(2, GF2), (2, GF3), (3, GF2)]:
        fam = construct_extremal_affine(n, field)
        by_direction = {}
        for a, _ in fam.pairs:
            by_direction.setdefault(a.direction, set()).add(a)
        t = (field.q ** n - 1) // (field.q - 1)
        assert len(by_direction) == t
        assert all(len(cosets) == 2 for cosets in by_direction.values())


def test_check_affine_bound():
    fam = construct_extremal_affine(2, GF2)
    assert check_affine_bound(fam)  # tight: 6 <= 6
    assert check_affine_bound(FamilyPair(AFFINE, GF2, 2, ()))
    assert check_affine_bound(construct_lower_bound_affine(3, GF2))
    with pytest.raises(FamilyViolation) as exc:
        check_affine_bound(line1_family(["00"]))  # does not verify
    assert exc.value.violation == (1, 1, "diagonal_nonempty")
    proj = FamilyPair(PROJECTIVE, GF2, 1, ())
    with pytest.raises(ValueError):
        check_affine_bound(proj)


def test_order_sensitivity_regression_witness():
    # A verified two-pair family over GF(2)^2 whose reversal fails.
    space = Space(GF2, 2)
    a1 = point_flat(GF2, (0, 0))
    b1 = point_flat(GF2, (1, 1))
    a2 = point_flat(GF2, (0, 1))
    b2 = make_flat((0, 0), rref(space, [(1, 0)]))
    forward = FamilyPair(AFFINE, GF2, 2, ((a1, b1), (a2, b2)))
    assert verify_cross_intersecting(forward).ok
    reversed_fam = FamilyPair(AFFINE, GF2, 2, tuple(reversed(forward.pairs)))
    report = verify_cross_intersecting(reversed_fam)
    assert not report.ok
    assert report.violation == (1, 2, OFFDIAGONAL_EMPTY)


def test_bound_holds_on_randomly_grown_families():
    rng = random.Random(2024)
    setups = [
        candidates_affine(2, GF2, restricted=False),
        candidates_affine(2, GF3, restricted=True),
    ]
    for candidates in setups:
        n = candidates[0].A.space.n
        field = candidates[0].A.space.field
        for _ in range(20):
            order = rng.sample(range(len(candidates)), len(candidates))
            grown = []
            for idx in order:
                cand = candidates[idx]
                if all(compatible(prev, cand) for prev in grown):
                    grown.append(cand)
            fam = FamilyPair(AFFINE, field, n, tuple((c.A, c.B) for c in grown))
            assert verify_cross_intersecting(fam).ok
            assert check_affine_bound(fam)


def test_family_validation():
    zero, one = point_flat(GF2, (0,)), point_flat(GF2, (1,))
    with pytest.raises(ValueError):
        FamilyPair("other", GF2, 1, ())
    with pytest.raises(ValueError):
        FamilyPair(AFFINE, GF2, 2, ((zero, one),))  # wrong ambient dimension
    with pytest.raises(ValueError):
        FamilyPair(PROJECTIVE, GF2, 1, ((zero, one),))  # wrong member type
    empty_member = make_projective_subspace(1, GF2, [])
    point = make_projective_subspace(1, GF2, [(1, 0)])
    with pytest.raises(ValueError):
        FamilyPair(PROJECTIVE, GF2, 1, ((point, empty_member),))


def _grown_pairs(flats, rng, size):
    """Up to size pairs (A, B) of disjoint flats, each B meeting every
    earlier A, decided on point sets: a family that verifies."""
    pairs = []
    for _ in range(40 * size):
        a, b = rng.choice(flats), rng.choice(flats)
        if (not members_meet(a, b)
                and all(members_meet(prev, b) for prev, _ in pairs)):
            pairs.append((a, b))
            if len(pairs) == size:
                break
    return pairs


def _mixed_families(field, n, seed):
    """Seeded families of points, lines, planes and hyperplanes of AG(n, q):
    grown ones that verify, each with a planted diagonal violation (B_k
    replaced by A_k) and a planted off-diagonal one (pair i repeated at
    j > i, so that A_i misses B_j first of all), and arbitrary pair lists.
    Yields (pairs, planted violation or None when unknown)."""
    rng = random.Random(seed)
    flats = [f for f in enumerate_flats(Space(field, n)) if f.dim < n]
    for _ in range(6):
        pairs = _grown_pairs(flats, rng, rng.randint(3, 8))
        yield pairs, None
        k = rng.randrange(len(pairs))
        diagonal = list(pairs)
        diagonal[k] = (pairs[k][0], pairs[k][0])
        yield diagonal, (k + 1, k + 1, DIAGONAL_NONEMPTY)
        i, j = sorted(rng.sample(range(len(pairs)), 2))
        offdiagonal = list(pairs)
        offdiagonal[j] = pairs[i]
        yield offdiagonal, (i + 1, j + 1, OFFDIAGONAL_EMPTY)
        yield [(rng.choice(flats), rng.choice(flats)) for _ in range(5)], None


@pytest.mark.parametrize("n,field", [
    (3, GF2), (2, GF3), (2, make_field(2, 2)), (3, GF3), (4, GF2),
], ids=["AG(3,2)", "AG(2,3)", "AG(2,4)", "AG(3,3)", "AG(4,2)"])
def test_verify_matches_the_point_set_oracle_at_mixed_dimensions(monkeypatch, n, field):
    sums = []  # (dim of one class, dim of the other, dim of their sum) per sum
    subspace_sum = families.subspace_sum

    def recording(a, b):
        assert a != b  # a class with itself is its own sum, never spanned
        total = subspace_sum(a, b)
        sums.append((a.dim, b.dim, total.dim))
        return total

    monkeypatch.setattr(families, "subspace_sum", recording)
    for seed in range(4):
        for pairs, planted in _mixed_families(field, n, 1000 * n + 10 * field.q + seed):
            report = verify_cross_intersecting(FamilyPair(AFFINE, field, n, tuple(pairs)))
            violation, checks = naive_verify(pairs)
            assert (report.ok, report.violation, report.pair_checks) == (
                violation is None, violation, checks)
            if planted is not None:
                assert violation == planted
    # Two distinct classes of hyperplane cosets are never spanned (they
    # always meet); a hyperplane class against a smaller flat's class is.
    assert all(min(a, b) < n - 1 for a, b, _ in sums)
    if n >= 3:
        assert any(min(a, b) < n - 1 == max(a, b) for a, b, _ in sums)
        # Both proper sums and whole-space sums occur.  In a plane only two
        # distinct lines span the whole space, and they are not spanned.
        assert {total == n for _, _, total in sums} == {False, True}


def test_extremal_verify_solves_only_same_direction_pairs(monkeypatch):
    # The family is made of hyperplane cosets over t directions: of the
    # t x t direction pairs, only the t with equal directions are solved,
    # each its own sum, so verify runs no elimination at all.
    field = make_field(2, 3)
    fam = construct_extremal_affine(3, field)

    def refuse(*args, **kwargs):
        raise AssertionError("verify walked points or eliminated")

    monkeypatch.setattr(Space, "vectors", refuse)
    monkeypatch.setattr(geometry.PointMasks, "__init__", refuse)
    monkeypatch.setattr(linalg, "_rref_rows", refuse)
    t, m = 73, fam.m
    assert m == 2 * t
    shuffled = list(fam.pairs)
    random.Random(8).shuffle(shuffled)  # every order of this family verifies
    for pairs in (fam.pairs, tuple(shuffled)):
        report = verify_cross_intersecting(FamilyPair(AFFINE, field, 3, pairs))
        assert report.ok
        assert report.pair_checks == m * (m + 1) // 2 == 10731
        assert report.eliminations == t


def test_projective_verify_counts_the_class_pair_sums_formed():
    # Two points of PG(1,2), each its own span class.  A class with itself
    # always meets and forms no sum; the two distinct points form one sum
    # per ordered pair of classes met.
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    p2 = make_projective_subspace(1, GF2, [(0, 1)])
    report = verify_cross_intersecting(FamilyPair(PROJECTIVE, GF2, 1, ((p1, p2), (p2, p1))))
    assert (report.ok, report.pair_checks, report.eliminations) == (True, 3, 2)
    report = verify_cross_intersecting(FamilyPair(PROJECTIVE, GF2, 1, ((p1, p2), (p1, p2))))
    assert report.violation == (1, 2, OFFDIAGONAL_EMPTY)
    assert (report.pair_checks, report.eliminations) == (3, 1)


def test_projective_verify_decides_every_sum_through_projective_disjoint(monkeypatch):
    """Each class-pair sum of a projective verify is one call of the
    public geometry.projective_disjoint, which agrees with the point-set
    oracle; the dimension count decides the other pairs."""
    assert families.projective_disjoint is geometry.projective_disjoint
    decided = []

    def recording(a, b):
        disjoint = geometry.projective_disjoint(a, b)
        assert disjoint == (not members_meet(a, b))
        decided.append((a, b))
        return disjoint

    monkeypatch.setattr(families, "projective_disjoint", recording)
    cands = candidates_projective(2, GF2)
    by_id = {c.id: c for c in cands}
    witness = [(by_id[i].A, by_id[i].B) for i in max_family(cands).witness]
    m = len(witness)
    diagonal = [*witness[:3], (witness[3][0], witness[3][0]), *witness[4:]]
    offdiagonal = [*witness[:4], witness[1], *witness[5:]]
    for pairs, violation, sums in ((witness, None, 12), (diagonal, (4, 4, DIAGONAL_NONEMPTY), 3),
                                   (offdiagonal, (2, 5, OFFDIAGONAL_EMPTY), 8)):
        decided.clear()
        report = verify_cross_intersecting(FamilyPair(PROJECTIVE, GF2, 2, tuple(pairs)))
        assert report.violation == violation
        assert len(set(decided)) == len(decided) == report.eliminations == sums
        assert all(a != b and a.lin.dim + b.lin.dim <= 3 for a, b in decided)
    assert report.pair_checks == m + (m - 1) + 3  # the diagonal, row 1, (2, 3) .. (2, 5)


# ---------------------------------------------------------------------------
# File format.

def test_round_trip_affine_and_projective():
    fam = construct_extremal_affine(2, GF3)
    again = load_family(dump_family(fam))
    assert again == fam
    assert dump_family(again) == dump_family(fam)

    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    p2 = make_projective_subspace(1, GF2, [(0, 1)])
    proj = FamilyPair(PROJECTIVE, GF2, 1, ((p1, p2), (p2, p1)))
    assert load_family(dump_family(proj)) == proj


def test_members_share_the_family_ambient_space():
    """Constructed, searched and loaded families build every member on
    one Space instance, which FamilyPair keeps as ambient."""
    constructed = construct_extremal_affine(2, GF3)
    searched = []
    for kind, cands in ((AFFINE, candidates_affine(2, GF2, True)),
                        (PROJECTIVE, candidates_projective(2, GF2))):
        by_id = {c.id: c for c in cands}
        pairs = tuple((by_id[i].A, by_id[i].B) for i in max_family(cands).witness)
        searched.append(FamilyPair(kind, GF2, 2, pairs))
    for fam in (constructed, *searched):
        for family in (fam, load_family(dump_family(fam))):
            dim = family.n + (family.kind == PROJECTIVE)
            assert family.m and family.ambient == Space(family.field, dim)
            assert all(member.space is family.ambient
                       for pair in family.pairs for member in pair)


def test_serialized_key_order_is_fixed():
    data = family_to_dict(construct_extremal_affine(1, GF2))
    assert list(data) == ["version", "kind", "field", "n", "point_order", "pairs"]
    assert list(data["field"]) == ["p", "k", "modulus"]
    assert list(data["pairs"][0]) == ["A", "B"]
    assert list(data["pairs"][0]["A"]) == ["rep", "dir"]


def test_extension_field_round_trip():
    fam = construct_extremal_affine(1, make_field(2, 2))
    data = family_to_dict(fam)
    assert data["field"] == {"p": 2, "k": 2, "modulus": [1, 1, 1]}
    assert family_from_dict(data) == fam


def test_load_rejects_bad_files():
    good = family_to_dict(construct_extremal_affine(1, GF2))
    for corrupt in [
        {**good, "version": 99},
        {**good, "point_order": "other-order"},
        {**good, "kind": "mystery"},
        {**good, "field": {"p": 2, "k": 2, "modulus": [1, 0, 1]}},
    ]:
        with pytest.raises(ValueError):
            family_from_dict(corrupt)
    with pytest.raises(ValueError):
        load_family("not json at all")
    with pytest.raises(ValueError):
        load_family("[1, 2, 3]")
    missing = {k: v for k, v in good.items() if k != "pairs"}
    with pytest.raises(ValueError):
        family_from_dict(missing)


def test_load_canonicalizes_members():
    # A file may carry scaled rows and an unreduced representative;
    # loading canonicalizes both.
    space = Space(GF3, 2)
    flat = make_flat((1, 2), rref(space, [(1, 1)]))
    other = point_flat(GF3, (0, 0))
    fam = FamilyPair(AFFINE, GF3, 2, ((flat, other),))
    data = family_to_dict(fam)
    data["pairs"][0]["A"] = {"rep": [1, 2], "dir": [[2, 2]]}
    assert family_from_dict(data) == fam
    assert family_from_dict(data).pairs[0][0].rep == (0, 1)
