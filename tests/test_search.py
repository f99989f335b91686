"""Candidate enumeration, compatibility, and the exact search."""

import functools
import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats import search
from crossflats.cli import main
from crossflats.families import AFFINE, PROJECTIVE, FamilyPair, verify_cross_intersecting
from crossflats.field import make_field
from crossflats.geometry import cosets, enumerate_flats
from crossflats.linalg import Space, enumerate_hyperplanes
from crossflats.search import (
    BudgetExceeded,
    CandidateCapExceeded,
    CandidatePair,
    candidates_affine,
    candidates_projective,
    compatible,
    max_family,
)
from oracles import (
    member_points,
    members_meet,
    naive_max_family,
    reference_blocks,
    reference_max_family,
    span_points,
    translate,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


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


# Every restricted AG(n, q) with q^n <= 256 (q^n <= 128 at q = 2) over
# prime, binary and odd-extension (Zech) fields.
RESTRICTED_INSTANCES = [(n, p, k) for p, k, top in [
    (2, 1, 7), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 2), (2, 3, 2), (3, 2, 2),
    (2, 4, 2), (5, 2, 1), (3, 3, 1)] for n in range(1, top + 1)]


@pytest.mark.parametrize("n,p,k", RESTRICTED_INSTANCES)
def test_restricted_candidates_match_a_walk_over_each_coset(n, p, k):
    # The reference masks each coset by the oracle's walk over its points:
    # the kernel's span, enumerated once, translated by the coset's rep.
    field = make_field(p, k)
    space = Space(field, n)
    position = {pt: i for i, pt in enumerate(space.vectors())}
    expected = []
    for h in enumerate_hyperplanes(space):
        kernel = h.kernel()
        span = span_points(kernel)
        group = [(c, sum(1 << position[pt] for pt in translate(space, c.rep, span)))
                 for c in cosets(kernel)]
        for (a, a_mask), (b, b_mask) in itertools.product(group, repeat=2):
            if a != b:
                expected.append((len(expected), a, b, a_mask, b_mask))
    cands = candidates_affine(n, field, restricted=True, max_candidates=len(expected))
    assert [(c.id, c.A, c.B, c.A_mask, c.B_mask) for c in cands] == expected


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
    cands = candidates_affine(n, field, restricted=True)
    report = max_family(cands)
    assert report.max_size == best
    assert len(report.witness) == best
    # The witness pairs distinct cosets of one hyperplane each.
    by_id = {c.id: c for c in cands}
    assert all(by_id[i].A.direction == by_id[i].B.direction and by_id[i].A.dim == n - 1
               for i in report.witness)


def test_unrestricted_search_matches_restricted_at_2_2():
    unrestricted = max_family(candidates_affine(2, GF2, restricted=False))
    restricted = max_family(candidates_affine(2, GF2, restricted=True))
    assert unrestricted.max_size == restricted.max_size == 6


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


@pytest.mark.parametrize("call", [
    lambda: candidates_projective(10 ** 8, GF2),
    lambda: candidates_affine(10 ** 9, GF3, restricted=False),
    lambda: candidates_affine(10 ** 9, GF3, restricted=True),
], ids=["PG(10^8,2)", "AG(10^9,3)", "AG(10^9,3)-restricted"])
def test_huge_dimension_hits_the_cap_before_any_power(call):
    start = time.perf_counter()
    with pytest.raises(CandidateCapExceeded, match="more than 5000 candidates"):
        call()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("make", [
    lambda n, cap: candidates_affine(n, GF2, restricted=True, max_candidates=cap),
    lambda n, cap: candidates_affine(n, GF2, restricted=False, max_candidates=cap),
    lambda n, cap: candidates_projective(n - 1, GF2, max_candidates=cap),
], ids=["restricted", "unrestricted", "projective"])
def test_a_cap_equal_to_the_count_is_accepted(make):
    for n in (1, 2, 3):
        count = len(make(n, 10 ** 6))
        assert len(make(n, count)) == count
        with pytest.raises(CandidateCapExceeded):
            make(n, count - 1)


@pytest.mark.parametrize("cands,expected", [
    (lambda: candidates_projective(2, GF2), (6, (70, 75, 6, 78, 16, 28), 330)),
    (lambda: candidates_affine(2, GF3, restricted=False),
     (8, (144, 152, 174, 182, 198, 14, 28, 62), 9982)),
], ids=["PG(2,2)", "AG(2,3)-unrestricted"])
def test_pinned_search_results(cands, expected):
    report = max_family(cands())
    assert (report.max_size, report.witness, report.nodes_explored) == expected


# Every set of positions still feasible after a prefix is a union of B
# classes, so these are the numbers of distinct feasible sets the search
# meets.  Restricted (2,5) has six blocks of seven states each: every
# block's memo holds its own empty state.
@pytest.mark.parametrize("cands,states", [
    (lambda: candidates_affine(2, GF3, restricted=False), 625),
    (lambda: candidates_projective(2, GF3), 68),
    (lambda: candidates_projective(2, GF2), 38),
    (lambda: candidates_affine(2, GF4, restricted=False), 7776),
    (lambda: candidates_affine(2, make_field(5), restricted=True), 42),
], ids=["AG(2,3)-unrestricted", "PG(2,3)", "PG(2,2)", "AG(2,4)-unrestricted",
        "AG(2,5)-restricted"])
def test_memo_states_are_the_feasible_sets(cands, states):
    assert max_family(cands()).states == states


def test_candidates_whose_members_meet_are_rejected():
    pool = candidates_affine(2, GF2, restricted=True)
    meets = CandidatePair(len(pool), None, None, 0b11, 0b01)
    for cands in ([meets], pool + [meets], [meets] + pool):
        with pytest.raises(ValueError, match=f"candidate {meets.id} has members that meet"):
            max_family(cands)


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


@functools.cache
def _pool(name):
    return {
        "AG(2,3)-restricted": lambda: candidates_affine(2, GF3, restricted=True),
        "AG(2,4)-restricted": lambda: candidates_affine(2, GF4, restricted=True),
        "AG(3,2)-restricted": lambda: candidates_affine(3, GF2, restricted=True),
        "AG(2,2)-unrestricted": lambda: candidates_affine(2, GF2, restricted=False),
        "PG(1,3)": lambda: candidates_projective(1, GF3),
    }[name]()


POOLS = ["AG(2,3)-restricted", "AG(2,4)-restricted", "AG(3,2)-restricted",
         "AG(2,2)-unrestricted", "PG(1,3)"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(POOLS), data=st.data())
def test_decomposed_search_matches_the_reference_dp(name, data):
    pool = _pool(name)
    size = data.draw(st.integers(0, min(24, len(pool))))
    positions = data.draw(st.permutations(range(len(pool))))[:size]
    if data.draw(st.booleans()):  # candidate order, else shuffled
        positions.sort()
    subset = [pool[i] for i in positions]
    report = max_family(subset)
    assert (report.max_size, report.witness) == reference_max_family(subset)


def _assert_blocks(cands):
    """search._blocks against reference_blocks, and within each block
    whether A_i meets B_j, read off i's meets and j's B class bit, against
    compatible(); partners and the full state from the steps."""
    blocks = search._blocks(cands)
    assert [tuple(i for i, _, _ in steps) for steps, _, _ in blocks] == reference_blocks(cands)
    for steps, classes, state in blocks:
        assert len({bit for _, bit, _ in steps}) == len({cands[i].B_mask for i, _, _ in steps})
        assert state == sum({bit for _, bit, _ in steps})
        for i, _, meets in steps:
            for j, bit, _ in steps:
                assert bool(meets & bit) == compatible(cands[i], cands[j])
        expected = {}  # A mask -> (partners, meets), in order of first position
        for i, bit, meets in steps:
            partners, _ = expected.get(cands[i].A_mask, (0, meets))
            expected[cands[i].A_mask] = (partners | bit, meets)
        assert [tuple(c) for c in classes] == list(expected.values())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(POOLS), data=st.data())
def test_class_blocks_match_the_linked_components(name, data):
    pool = _pool(name)
    positions = data.draw(st.permutations(range(len(pool))))
    _assert_blocks([pool[i] for i in positions[:data.draw(st.integers(0, len(pool)))]])


def test_class_blocks_of_whole_pools_and_edge_cases():
    for name in POOLS:
        _assert_blocks(_pool(name))
    assert search._blocks([]) == []
    singles = candidates_affine(2, GF2, restricted=True)
    assert [[i for i, _, _ in steps] for steps, _, _ in search._blocks(singles)] == \
        [[i] for i in range(6)]
    (steps, _, _), = search._blocks(_pool("PG(1,3)"))
    assert [i for i, _, _ in steps] == list(range(12))


def test_search_memory_at_pg_2_7():
    # The graph phase holds no bitset over the positions: one list of N
    # bitsets of N bits each would take about 10 MB here.
    cands = candidates_projective(2, make_field(7), 30000)
    assert len(cands) == 8778
    tracemalloc.start()
    try:
        max_family(cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 10 ** 6


def test_blocks_and_node_counts():
    report = max_family(candidates_affine(2, make_field(5), restricted=True))
    assert report.max_size == 12
    assert report.witness == (0, 4, 20, 24, 40, 44, 60, 64, 80, 84, 100, 104)
    assert (report.blocks, report.nodes_explored) == (6, 156)
    # Every restricted AG(2,2) candidate is its own block: two nodes each.
    report = max_family(candidates_affine(2, GF2, restricted=True))
    assert (report.blocks, report.nodes_explored) == (6, 12)


def test_blocks_share_the_node_budget():
    cands = candidates_affine(2, GF2, restricted=True)
    with pytest.raises(BudgetExceeded):
        max_family(cands, limit=11)
    assert max_family(cands, limit=12).max_size == 6


@pytest.mark.parametrize("n,q", [(2, 5), (2, 7), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)])
def test_restricted_maxima_reach_the_sharp_bound(n, q, tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = main(["search", "--n", str(n), "--q", str(q), "--kind", "affine",
                 "--restricted", "--format", "json", "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["max_size"] == 2 * (q ** n - 1) // (q - 1)
    assert main(["verify", str(out)]) == 0


@pytest.mark.parametrize("n,q,witness", [
    (2, 8, [9928, 9999, 72, 10440, 208, 1216]),
    (2, 9, [15561, 15650, 90, 16290, 261, 1701]),
    (3, 3, [22530, 22559, 7356, 22617, 7485, 7707, 156, 22773, 8409, 8760, 339,
            10581, 723, 1827]),
])
def test_projective_maxima_beyond_the_default_cap(n, q, witness, tmp_path, capsys):
    out = tmp_path / "witness.json"
    code = main(["search", "--n", str(n), "--q", str(q), "--kind", "projective",
                 "--max-candidates", "30000", "--format", "json", "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["max_size"] == 2 ** (n + 1) - 2
    assert report["witness"] == witness
    assert main(["verify", str(out)]) == 0
