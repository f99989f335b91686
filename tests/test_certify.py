"""Certificate matrix layout, integer evaluation identities, rank reports."""

import pytest

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
    construct_extremal_affine,
    dump_family,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import make_projective_subspace

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
    monkeypatch.setattr(certify, "evaluate_identities", lambda fam, mat: False)
    fam = pg12_two_pairs()
    report = certify_projective_bound(fam)
    assert report.independent and not report.evaluation_table_ok
    assert not report.bound_confirmed
    path = tmp_path / "fam.json"
    path.write_text(dump_family(fam))
    assert main(["certify", str(path)]) == 1
    assert "bound_confirmed: false" in capsys.readouterr().out


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
    with pytest.raises(ValueError):
        build_certificate(bad)
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


def test_search_witnesses_in_pg13_certify_with_full_rank():
    from crossflats.search import candidates_projective, max_family

    cands = candidates_projective(1, GF3)
    report = max_family(cands)
    assert report.max_size == 2  # pairs of distinct points only
    by_id = {c.id: c for c in cands}
    pairs = tuple((by_id[i].A, by_id[i].B) for i in report.witness)
    for cut in range(len(pairs) + 1):
        fam = FamilyPair(PROJECTIVE, GF3, 1, pairs[:cut])
        cert = certify_projective_bound(fam)
        assert cert.rank == fam.m + 2
        assert cert.bound_confirmed and cert.evaluation_table_ok
