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
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import PROJECTIVE, FamilyPair, verify_cross_intersecting
from .field import Field
from .geometry import char_vector, enumerate_projective_points
from .linalg import Space, rref


@dataclass(frozen=True)
class CertificateMatrix:
    """(m+2) x (t+1) coefficient matrix over GF(p)."""

    p: int
    m: int
    t: int
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CertificateReport:
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


def _char_vectors(fam: FamilyPair):
    points = enumerate_projective_points(fam.n, fam.field)
    a_chars = [char_vector(a, points) for a, _ in fam.pairs]
    b_chars = [char_vector(b, points) for _, b in fam.pairs]
    return points, a_chars, b_chars


def certificate_rows(fam: FamilyPair) -> tuple[tuple[int, ...], ...]:
    """Matrix rows for a projective family, without verifying it."""
    if fam.kind != PROJECTIVE:
        raise ValueError("certificates apply to projective families")
    points, a_chars, _ = _char_vectors(fam)
    p = fam.field.p
    t = len(points)
    rows = [(1,) + tuple((-c) % p for c in chars) for chars in a_chars]
    rows.append((0,) + (1,) * t)
    rows.append((t % p,) + ((-1) % p,) * t)
    return tuple(rows)


def build_certificate(fam: FamilyPair) -> CertificateMatrix:
    if fam.kind != PROJECTIVE:
        raise ValueError("certificates apply to projective families")
    report = verify_cross_intersecting(fam)
    if not report.ok:
        raise ValueError(f"family does not verify: violation {report.violation}")
    rows = certificate_rows(fam)
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
    """
    if mat.rows != certificate_rows(fam) or mat.m != fam.m:
        raise ValueError("certificate matrix does not match the family")
    _, a_chars, b_chars = _char_vectors(fam)
    q = fam.field.q
    t = mat.t
    m = fam.m
    for i in range(m):
        if 1 - sum(x * y for x, y in zip(a_chars[i], b_chars[i])) != 1:
            return False
    for i in range(m):
        for j in range(i + 1, m):
            if (1 - sum(x * y for x, y in zip(a_chars[i], b_chars[j]))) % q:
                return False
    for i in range(m):
        if (1 - sum(a_chars[i])) % q:
            return False
    for j in range(m):
        if (t - sum(b_chars[j])) % q:
            return False
    if t % q != 1:  # value of row m+1 at all-ones and of row m+2 at all-zeros
        return False
    return True


def matrix_rank(mat: CertificateMatrix) -> int:
    """Row rank over the prime field GF(p)."""
    return rref(Space(Field(mat.p), mat.t + 1), mat.rows).dim


def certify_projective_bound(fam: FamilyPair) -> CertificateReport:
    """Build the matrix, compute its GF(p) rank, and confirm m <= t - 1."""
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
