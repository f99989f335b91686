"""Certificate matrix layout, integer evaluation identities, rank reports."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflats import certify
from crossflats.certify import (
    CertificateMatrix,
    build_certificate,
    certificate_rows,
    certify_projective_bound,
    evaluate_identities,
    matrix_rank,
)
from crossflats.cli import main
from crossflats.families import (
    AFFINE,
    PROJECTIVE,
    FamilyPair,
    FamilyViolation,
    construct_extremal_affine,
    dump_family,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import make_projective_subspace
from crossflats.search import candidates_projective, max_family
from oracles import elimination_rank, frame_family, member_points, oracle_certificate

GF2 = make_field(2)
GF3 = make_field(3)


def pg12_two_pairs():
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    p2 = make_projective_subspace(1, GF2, [(0, 1)])
    return FamilyPair(PROJECTIVE, GF2, 1, ((p1, p2), (p2, p1)))


def test_pg12_matrix_and_rank():
    fam = pg12_two_pairs()
    mat = build_certificate(fam)
    assert (mat.m, mat.t, mat.p) == (2, 3, 2)
    # char vectors (1,0,0) and (0,1,0) under the fixed point order
    assert mat.rows == (
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 1, 1, 1),
        (1, 1, 1, 1),
    )
    assert matrix_rank(mat) == 4

    report = certify_projective_bound(fam)
    assert report.rank == report.m + 2 == 4
    assert report.independent and report.bound_confirmed
    assert report.evaluation_table_ok
    assert report.t - 1 == 2  # the bound is tight here
    assert report.q2_bound == 2


def test_bound_confirmed_requires_the_evaluation_table(monkeypatch, tmp_path, capsys):
    # With the table failing, the rank is no longer read off the triangle:
    # the elimination runs and gives the matrix's exact rank.
    eliminated = []

    def counted(mat):
        eliminated.append(mat)
        return matrix_rank(mat)

    monkeypatch.setattr(certify, "evaluate_identities", lambda fam, mat: False)
    monkeypatch.setattr(certify, "matrix_rank", counted)
    fam = pg12_two_pairs()
    report = certify_projective_bound(fam)
    assert report.rank == 4 and eliminated == [build_certificate(fam)]
    assert report.independent and not report.evaluation_table_ok
    assert not report.bound_confirmed
    path = tmp_path / "fam.json"
    path.write_text(dump_family(fam))
    assert main(["certify", str(path)]) == 1
    assert "bound_confirmed: false" in capsys.readouterr().out


def test_one_certify_command_builds_one_point_masks(monkeypatch, tmp_path):
    """build_certificate and certificate_report share one command's
    incidence masks: the points of PG(n, q) are enumerated once."""
    built = []

    class CountedMasks(certify.PointMasks):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(certify, "PointMasks", CountedMasks)
    certify._incidence_masks.cache_clear()
    path = tmp_path / "fam.json"
    path.write_text(dump_family(pg12_two_pairs()))
    assert main(["certify", str(path)]) == 0
    assert len(built) == 1


def test_empty_family_certificate():
    fam = FamilyPair(PROJECTIVE, GF2, 1, ())
    mat = build_certificate(fam)
    assert len(mat.rows) == 2 and mat.t == 3
    assert mat.rows[0] == (0, 1, 1, 1)
    assert matrix_rank(mat) == 2
    report = certify_projective_bound(fam)
    assert report.independent and report.bound_confirmed
    assert report.evaluation_table_ok


def test_all_ones_row_shape():
    for n, field in [(1, GF2), (2, GF2), (1, GF3)]:
        fam = FamilyPair(PROJECTIVE, field, n, ())
        rows = certificate_rows(fam)
        t = (field.q ** (n + 1) - 1) // (field.q - 1)
        assert rows[-2] == (0,) + (1,) * t
        assert rows[-1] == (t % field.p,) + ((-1) % field.p,) * t
        assert all(len(r) == t + 1 for r in rows)


def test_evaluate_identities_true_on_good_family():
    fam = pg12_two_pairs()
    mat = build_certificate(fam)
    assert evaluate_identities(fam, mat) is True


def test_evaluate_identities_fails_on_diagonal_violation():
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    bad = FamilyPair(PROJECTIVE, GF2, 1, ((p1, p1),))
    assert not verify_cross_intersecting(bad).ok
    rows = certificate_rows(bad)
    mat = CertificateMatrix(2, bad.m, len(rows[0]) - 1, rows)
    assert evaluate_identities(bad, mat) is False
    assert oracle_certificate(bad) == (mat, False)


def test_evaluate_identities_rejects_mismatched_matrix():
    fam = pg12_two_pairs()
    mat = build_certificate(fam)
    other = CertificateMatrix(mat.p, mat.m, mat.t,
                              mat.rows[:-1] + ((0,) * (mat.t + 1),))
    with pytest.raises(ValueError):
        evaluate_identities(fam, other)


def test_input_preconditions():
    affine = construct_extremal_affine(2, GF2)
    with pytest.raises(ValueError):
        build_certificate(affine)
    with pytest.raises(ValueError):
        certificate_rows(affine)
    p1 = make_projective_subspace(1, GF2, [(1, 0)])
    bad = FamilyPair(PROJECTIVE, GF2, 1, ((p1, p1),))
    with pytest.raises(FamilyViolation) as exc:
        build_certificate(bad)
    assert exc.value.violation == (1, 1, "diagonal_nonempty")
    with pytest.raises(ValueError):
        certify_projective_bound(bad)


def test_pg22_bound_value():
    fam = FamilyPair(PROJECTIVE, GF2, 2, ())
    report = certify_projective_bound(fam)
    assert report.t == 7 and report.t - 1 == 6
    assert report.q2_bound == 6


def test_gf3_certificate_uses_prime_field():
    # PG(1,3): two disjoint points, matrix over GF(3), t = 4.
    p1 = make_projective_subspace(1, GF3, [(1, 0)])
    p2 = make_projective_subspace(1, GF3, [(0, 1)])
    fam = FamilyPair(PROJECTIVE, GF3, 1, ((p1, p2), (p2, p1)))
    report = certify_projective_bound(fam)
    assert report.t == 4
    assert report.rank == 4 == report.m + 2
    assert report.bound_confirmed and report.evaluation_table_ok
    assert report.q2_bound is None
    mat = build_certificate(fam)
    assert mat.p == 3
    assert mat.rows[0] == (1, 2, 0, 0, 0)  # 1, then -v mod 3
    assert mat.rows[-1] == (4 % 3, 2, 2, 2, 2)


def test_tightness_against_monomial_space():
    # the matrix always has t + 1 columns: the span of 1, x_1 .. x_t
    for n in (1, 2):
        fam = FamilyPair(PROJECTIVE, GF2, n, ())
        mat = build_certificate(fam)
        assert all(len(row) == mat.t + 1 for row in mat.rows)


def test_search_witness_prefixes_certify_like_the_oracle():
    # PG(1,3) holds pairs of distinct points only; PG(2,2) and PG(2,3) reach 6.
    for n, field, size in [(1, GF3, 2), (2, GF2, 6), (2, GF3, 6)]:
        cands = candidates_projective(n, field)
        report = max_family(cands)
        assert report.max_size == size
        by_id = {c.id: c for c in cands}
        pairs = tuple((by_id[i].A, by_id[i].B) for i in report.witness)
        for cut in range(len(pairs) + 1):
            fam = FamilyPair(PROJECTIVE, field, n, pairs[:cut])
            mat, table_ok = oracle_certificate(fam)
            assert certificate_rows(fam) == mat.rows
            assert table_ok and evaluate_identities(fam, mat) is True
            cert = certify_projective_bound(fam)
            assert cert.rank == fam.m + 2
            assert cert.bound_confirmed and cert.evaluation_table_ok


def refuse_elimination(mat):
    raise AssertionError("certify eliminated the certificate matrix")


FIELDS = {2: GF2, 3: GF3, 4: make_field(2, 2)}


@functools.lru_cache(maxsize=None)
def witness_pairs(n, q):
    """The (A, B) pairs of the search's lex-min maximum family in PG(n, q)."""
    cands = candidates_projective(n, FIELDS[q])
    by_id = {c.id: c for c in cands}
    return tuple((by_id[i].A, by_id[i].B) for i in max_family(cands).witness)


@functools.lru_cache(maxsize=None)
def candidate_points(n, q):
    """Each candidate's (A, B) and the point sets of its two members."""
    return [((c.A, c.B), frozenset(member_points(c.A)), frozenset(member_points(c.B)))
            for c in candidates_projective(n, FIELDS[q])]


@st.composite
def verified_families(draw):
    """A prefix of a search witness, or a greedy family: the candidates in
    a seeded random order, each kept when every A kept before meets its B."""
    n, q = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2)]))
    if draw(st.booleans()):
        pairs = witness_pairs(n, q)
        pairs = pairs[:draw(st.integers(0, len(pairs)))]
    else:
        cands = list(candidate_points(n, q))
        random.Random(draw(st.integers(0, 2 ** 32))).shuffle(cands)
        kept = []
        for pair, a_points, b_points in cands:
            if all(b_points & held for _, held in kept):
                kept.append((pair, a_points))
        pairs = tuple(pair for pair, _ in kept)
    return FamilyPair(PROJECTIVE, FIELDS[q], n, pairs)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(verified_families())
def test_verified_families_read_the_oracles_rank_off_the_table(fam):
    """On a verified family the evaluation table holds, so certify reads the
    rank off it without an elimination, and it is the rank that plain
    elimination of the oracle's own rows finds."""
    mat, table_ok = oracle_certificate(fam)
    assert table_ok and verify_cross_intersecting(fam).ok
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certify, "matrix_rank", refuse_elimination)
        report = certify_projective_bound(fam)
    assert report.rank == elimination_rank(mat.p, mat.rows) == fam.m + 2
    assert report.independent and report.bound_confirmed and report.evaluation_table_ok


@pytest.mark.parametrize("n, q", [(n, 2) for n in range(1, 8)] + [(2, 3), (3, 3), (2, 4)])
def test_frames_certify_without_an_elimination(monkeypatch, n, q):
    """The frame family (m = 2^(n+1) - 2, which meets the bound m <= t - 1
    at q = 2) certifies with the elimination refused; where the oracle's
    rows are small enough, their plain elimination rank agrees."""
    fam = frame_family(n, FIELDS[q])
    monkeypatch.setattr(certify, "matrix_rank", refuse_elimination)
    report = certify_projective_bound(fam)
    assert report.m == 2 ** (n + 1) - 2 <= report.t - 1 and report.rank == report.m + 2
    assert report.independent and report.bound_confirmed and report.evaluation_table_ok
    if fam.m <= 62:
        mat, table_ok = oracle_certificate(fam)
        assert table_ok and elimination_rank(mat.p, mat.rows) == report.rank
