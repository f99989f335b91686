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
    FamilyViolation,
    construct_extremal_affine,
    dump_family,
    verify_cross_intersecting,
)
from crossflats.field import make_field
from crossflats.geometry import make_projective_subspace
from crossflats.linalg import Space
from oracles import canonical_points, member_points

GF2 = make_field(2)
GF3 = make_field(3)


def oracle_certificate(fam):
    """Matrix rows and evaluation-table verdict from the oracle's point sets
    (no point masks): 0/1 incidence vectors and integer dot products."""
    field, m = fam.field, fam.m
    points = canonical_points(Space(field, fam.n + 1).vectors())
    t, p, q = len(points), field.p, field.q
    def incidence(member):
        held = member_points(member)
        return [int(pt in held) for pt in points]

    v = [incidence(a) for a, _ in fam.pairs]
    w = [incidence(b) for _, b in fam.pairs]
    rows = tuple((1,) + tuple(-x % p for x in vi) for vi in v) + (
        (0,) + (1,) * t, (t % p,) + (-1 % p,) * t)

    def meet(i, j):
        return sum(x * y for x, y in zip(v[i], w[j]))

    table_ok = (all(meet(i, i) == 0 for i in range(m))
                and all((1 - meet(i, j)) % q == 0
                        for i in range(m) for j in range(i + 1, m))
                and all((1 - sum(vi)) % q == 0 for vi in v)
                and all((t - sum(wj)) % q == 0 for wj in w)
                and t % q == 1)
    return CertificateMatrix(p, m, t, rows), table_ok


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
    from crossflats.search import candidates_projective, max_family

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
