"""Rank certificate for the projective upper bound m <= t - 1.

For a verified projective family with incidence vectors v_i (A side) and
w_i (B side) over the t points of PG(n, q), the m+2 affine-linear forms

    row i     = (1, -v_i(1), ..., -v_i(t))        1 <= i <= m
    row m+1   = (0,  1, ..., 1)
    row m+2   = (t, -1, ..., -1)

are reduced into the prime field GF(p).  Full row rank m+2 there proves
the forms independent inside the (t+1)-dimensional span of 1, x_1..x_t,
hence m + 2 <= t + 1.  A congruence that holds mod q holds mod p, so
rank over GF(p) is a sound reduction of the mod-q identities; those
identities themselves are checked in unbounded integers first.

The incidence vectors are the search's point masks (geometry.PointMasks)
over the enumerate_projective_points order, read off each member's
equations as in the search, so each identity is a popcount:
|A_i ∩ B_j| = (a_i & b_j).bit_count().  build_certificate verifies the
family, once per certificate.  certify_projective_bound is the one entry
point to a report, for the library and the CLI alike; certificate_rows
reads the matrix rows off the same kept masks.
"""

from __future__ import annotations

import functools

from .families import PROJECTIVE, FamilyPair, FamilyViolation, verify_cross_intersecting
from .field import Field, _Value
from .geometry import PointMasks, enumerate_projective_points
from .linalg import Space, rref


class CertificateMatrix(_Value):
    """(m+2) x (t+1) coefficient matrix over GF(p)."""

    p: int
    m: int
    t: int
    rows: tuple[tuple[int, ...], ...]


class CertificateReport(_Value):
    """independent means rank == m + 2; evaluation_table_ok means the
    integer identities behind the forms hold.  bound_confirmed is their
    conjunction: the certificate proves m <= t - 1 only when both hold
    (rank m + 2 already implies m + 2 <= t + 1).

    q2_bound carries the closed binary form 2^(n+1) - 2 of that bound
    when q = 2, and is None otherwise.
    """

    m: int
    t: int
    rank: int
    independent: bool
    bound_confirmed: bool
    evaluation_table_ok: bool
    q2_bound: int | None = None


@functools.lru_cache(maxsize=1)
def _incidence_masks(fam: FamilyPair) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """t and the A-side and B-side point masks of a projective family.
    The last family's are kept: a certify command builds its matrix and
    then checks its identities on one family, and builds its masks once."""
    if fam.kind != PROJECTIVE:
        raise ValueError("certificates apply to projective families")
    points = enumerate_projective_points(fam.n, fam.field)
    masks = PointMasks(fam.ambient, points)
    return (len(points), tuple(masks(a) for a, _ in fam.pairs),
            tuple(masks(b) for _, b in fam.pairs))


def _rows(p: int, t: int, a_masks) -> tuple[tuple[int, ...], ...]:
    rows = tuple((1,) + tuple(p - 1 if a >> s & 1 else 0 for s in range(t))
                 for a in a_masks)
    return rows + ((0,) + (1,) * t, (t % p,) + (p - 1,) * t)


def certificate_rows(fam: FamilyPair) -> tuple[tuple[int, ...], ...]:
    """Matrix rows for a projective family, without verifying it."""
    t, a_masks, _ = _incidence_masks(fam)
    return _rows(fam.field.p, t, a_masks)


def build_certificate(fam: FamilyPair) -> CertificateMatrix:
    """The matrix of a projective family; FamilyViolation if it does not verify."""
    rows = certificate_rows(fam)
    report = verify_cross_intersecting(fam)
    if not report.ok:
        raise FamilyViolation(report.violation)
    return CertificateMatrix(fam.field.p, fam.m, len(rows[0]) - 1, rows)


def evaluate_identities(fam: FamilyPair, mat: CertificateMatrix) -> bool:
    """Check the evaluation table of the independence proof.

    Writing w_j for the B-side incidence vector of pair j, every
    evaluation is computed in unbounded integers from the family's own
    incidence vectors and only then reduced mod q:

        row i  at w_i         = 1           exactly
        row i  at w_j         = 0  (mod q)  for i < j
        row i  at all-ones    = 0  (mod q)
        row m+2 at w_j        = 0  (mod q)
        row m+1 at all-ones   = t = 1 (mod q), likewise row m+2 at zero.

    Row i at w_j is 1 - |A_i ∩ B_j|, a popcount of two point masks.
    """
    t, a_masks, b_masks = _incidence_masks(fam)
    if mat != CertificateMatrix(fam.field.p, fam.m, t, _rows(fam.field.p, t, a_masks)):
        raise ValueError("certificate matrix does not match the family")
    q, m = fam.field.q, fam.m
    return (all(1 - (a & b).bit_count() == 1 for a, b in zip(a_masks, b_masks))
            and all((1 - (a_masks[i] & b_masks[j]).bit_count()) % q == 0
                    for i in range(m) for j in range(i + 1, m))
            and all((1 - a.bit_count()) % q == 0 for a in a_masks)
            and all((t - b.bit_count()) % q == 0 for b in b_masks)
            and t % q == 1)  # row m+1 at all-ones, row m+2 at all-zeros


def matrix_rank(mat: CertificateMatrix) -> int:
    """Row rank over the prime field GF(p)."""
    return rref(Space(Field(mat.p), mat.t + 1), mat.rows).dim


def certify_projective_bound(fam: FamilyPair) -> CertificateReport:
    """Build the matrix, compute its GF(p) rank, and confirm m <= t - 1;
    FamilyViolation if the family does not verify."""
    mat = build_certificate(fam)
    rank = matrix_rank(mat)
    independent = rank == mat.m + 2
    table_ok = evaluate_identities(fam, mat)
    return CertificateReport(
        m=mat.m,
        t=mat.t,
        rank=rank,
        independent=independent,
        bound_confirmed=independent and table_ok,
        evaluation_table_ok=table_ok,
        q2_bound=(2 ** (fam.n + 1) - 2) if fam.field.q == 2 else None,
    )
