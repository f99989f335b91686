"""Candidate enumeration, compatibility, and the exact search."""

import itertools
import random

import pytest

from crossflats import search
from crossflats.cli import main
from crossflats.families import AFFINE, PROJECTIVE, FamilyPair, verify_cross_intersecting
from crossflats.field import make_field
from crossflats.geometry import enumerate_flats
from crossflats.linalg import Space
from crossflats.search import (
    BudgetExceeded,
    CandidateCapExceeded,
    CandidatePair,
    candidates_affine,
    candidates_projective,
    compatible,
    max_family,
)
from oracles import member_points, members_meet, naive_max_family

GF2 = make_field(2)
GF3 = make_field(3)


def test_restricted_candidates_line():
    cands = candidates_affine(1, GF2, restricted=True)
    assert len(cands) == 2
    assert [(c.A.rep, c.B.rep) for c in cands] == [((0,), (1,)), ((1,), (0,))]
    assert [c.id for c in cands] == [0, 1]


@pytest.mark.parametrize("n,field,count", [
    (2, GF2, 6), (3, GF2, 14), (2, GF3, 24), (1, GF3, 6),
])
def test_restricted_candidate_counts(n, field, count):
    cands = candidates_affine(n, field, restricted=True)
    q = field.q
    assert len(cands) == count == (q ** n - 1) // (q - 1) * q * (q - 1)
    for c in cands:
        assert c.A.direction == c.B.direction
        assert c.A != c.B


def test_unrestricted_candidates_match_point_set_disjointness():
    cands = candidates_affine(2, GF2, restricted=False)
    flats = list(enumerate_flats(Space(GF2, 2)))
    assert len(flats) == 11
    expected = [(a, b) for a in flats for b in flats
                if not (member_points(a) & member_points(b))]
    assert [(c.A, c.B) for c in cands] == expected
    assert all(not (member_points(c.A) & member_points(c.B)) for c in cands)


def test_compatible_examples():
    cands = candidates_affine(1, GF2, restricted=True)
    p, p2 = cands
    assert compatible(p, p2)   # {0} meets {0}
    assert compatible(p2, p)
    assert not compatible(p, p)  # A and B of one candidate are disjoint


def test_full_compatibility_digraph_at_2_2():
    cands = candidates_affine(2, GF2, restricted=True)
    assert len(cands) == 6
    for p, p2 in itertools.product(cands, repeat=2):
        assert compatible(p, p2) == members_meet(p.A, p2.B)


@pytest.mark.parametrize("n,field,best", [(1, GF2, 2), (2, GF2, 6), (2, GF3, 8)])
def test_restricted_search_values(n, field, best):
    report = max_family(candidates_affine(n, field, restricted=True), restricted=True)
    assert report.max_size == best
    assert report.restricted
    assert len(report.witness) == best


def test_unrestricted_search_matches_restricted_at_2_2():
    unrestricted = max_family(candidates_affine(2, GF2, restricted=False))
    assert unrestricted.max_size == 6
    assert not unrestricted.restricted


def test_projective_search_pg12():
    report = max_family(candidates_projective(1, GF2))
    assert report.max_size == 2 == 2 ** (1 + 1) - 2


def test_witness_is_a_verified_family():
    for kind, cands, field, n in [
        (AFFINE, candidates_affine(2, GF2, restricted=True), GF2, 2),
        (PROJECTIVE, candidates_projective(1, GF3), GF3, 1),
    ]:
        report = max_family(cands)
        by_id = {c.id: c for c in cands}
        pairs = tuple((by_id[i].A, by_id[i].B) for i in report.witness)
        fam = FamilyPair(kind, field, n, pairs)
        assert verify_cross_intersecting(fam).ok
        assert len(set(fam.pairs)) == fam.m


def test_search_agrees_with_permutation_oracle():
    small_sets = [
        candidates_affine(1, GF2, restricted=True),
        candidates_affine(1, GF3, restricted=True),
        candidates_projective(1, GF2),
        candidates_affine(2, GF2, restricted=True),
    ]
    for cands in small_sets:
        want_size, want_witness = naive_max_family(cands)
        report = max_family(cands)
        assert report.max_size == want_size
        assert report.witness == want_witness  # lexicographically smallest


def test_search_oracle_on_random_subsets():
    rng = random.Random(99)
    pools = [
        candidates_affine(2, GF3, restricted=True),
        candidates_affine(2, GF2, restricted=False),  # asymmetric compatibility
    ]
    for pool in pools:
        for _ in range(12):
            subset = [pool[i] for i in sorted(rng.sample(range(len(pool)), 7))]
            want_size, want_witness = naive_max_family(subset)
            report = max_family(subset)
            assert report.max_size == want_size
            assert report.witness == want_witness


def test_monotonicity_under_candidate_growth():
    rng = random.Random(5)
    pool = candidates_affine(2, GF2, restricted=False)
    for _ in range(20):
        k = rng.randrange(len(pool))
        small = sorted(rng.sample(range(len(pool)), k))
        extra = small + [i for i in range(len(pool)) if i not in small][:5]
        small_max = max_family([pool[i] for i in small]).max_size
        big_max = max_family([pool[i] for i in sorted(extra)]).max_size
        assert small_max <= big_max


def test_search_is_deterministic():
    cands = candidates_affine(2, GF3, restricted=True)
    first = max_family(cands)
    second = max_family(cands)
    assert first == second


def test_budget_exceeded_is_reported():
    cands = candidates_affine(2, GF2, restricted=True)
    with pytest.raises(BudgetExceeded):
        max_family(cands, limit=5)
    report = max_family(cands, limit=10 ** 6)
    assert report.max_size == 6


def test_empty_candidate_list():
    report = max_family([])
    assert report.max_size == 0
    assert report.witness == ()


def test_candidate_cap():
    with pytest.raises(CandidateCapExceeded):
        candidates_affine(2, GF2, restricted=False, max_candidates=10)
    with pytest.raises(CandidateCapExceeded):
        candidates_projective(2, GF2, max_candidates=50)
    with pytest.raises(CandidateCapExceeded):
        candidates_affine(2, GF2, restricted=True, max_candidates=3)
    with pytest.raises(CandidateCapExceeded):
        candidates_affine(2, GF3, restricted=True, max_candidates=23)
    assert len(candidates_affine(2, GF3, restricted=True, max_candidates=24)) == 24


def test_candidate_cap_is_checked_before_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the cap check")

    for name in ("enumerate_flats", "enumerate_subspaces", "enumerate_hyperplanes",
                 "PointMasks"):
        monkeypatch.setattr(search, name, refuse)
    with pytest.raises(CandidateCapExceeded):
        candidates_affine(20, GF2, restricted=False)
    with pytest.raises(CandidateCapExceeded):
        candidates_affine(20, GF2, restricted=True)
    with pytest.raises(CandidateCapExceeded):
        candidates_projective(20, GF2)
    assert main(["search", "--n", "20", "--q", "2", "--kind", "affine"]) == 2


@pytest.mark.parametrize("cands,expected", [
    (lambda: candidates_projective(2, GF2), (6, (70, 75, 6, 78, 16, 28), 1065)),
    (lambda: candidates_affine(2, GF3, restricted=False),
     (8, (144, 152, 174, 182, 198, 14, 28, 62), 26305)),
], ids=["PG(2,2)", "AG(2,3)-unrestricted"])
def test_pinned_search_results(cands, expected):
    report = max_family(cands())
    assert (report.max_size, report.witness, report.nodes_explored) == expected


def test_candidates_are_disjoint_pairs_by_construction():
    for cands in (candidates_affine(2, GF2, restricted=False),
                  candidates_projective(1, GF3)):
        for c in cands:
            assert not members_meet(c.A, c.B)


def test_candidate_ids_survive_subsetting():
    pool = candidates_affine(2, GF2, restricted=True)
    subset = pool[2:]
    report = max_family(subset)
    assert set(report.witness) <= {c.id for c in subset}


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        candidates_affine(0, GF2, restricted=True)
    with pytest.raises(ValueError):
        candidates_projective(-1, GF2)
