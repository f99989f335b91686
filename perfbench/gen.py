"""Seeded benchmark inputs and the outputs the program must produce on them.

Nothing here imports crossflats: the finite-field arithmetic and geometry
are a small table-driven re-implementation, so a defect in the program
cannot also corrupt the inputs or the expectations it is checked against.

Element encodings follow the program's file format: base-p digits, least
significant first, reduced by the canonical (smallest-encoding) monic
irreducible modulus.
"""

from __future__ import annotations

import itertools
import random

FILE_VERSION = 1
POINT_ORDER = "lex-first-nonzero-1"


def _digits(e: int, p: int, k: int) -> list[int]:
    return [(e // p ** i) % p for i in range(k)]


def _encode(digits, p: int) -> int:
    return sum(c * p ** i for i, c in enumerate(digits))


def _mul_table(p: int, k: int, mod: list[int]) -> list[list[int]]:
    q = p ** k
    table = [[0] * q for _ in range(q)]
    for a in range(q):
        da = _digits(a, p, k)
        for b in range(q):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(_digits(b, p, k)):
                    prod[i + j] += x * y
            for top in range(2 * k - 2, k - 1, -1):
                c = prod[top] % p
                for j in range(k + 1):
                    prod[top - k + j] -= c * mod[j]
            table[a][b] = _encode([c % p for c in prod[:k]], p)
    return table


class GF:
    """GF(p^k) as lookup tables over the program's element encoding."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p ** k
        if k == 1:
            self.modulus = []
            self.mul = _mul_table(p, 1, [0, 1])
        else:
            # The quotient ring is a field exactly when it has no zero
            # divisors, i.e. when the modulus is irreducible.
            for enc in range(p ** k):
                mod = _digits(enc, p, k) + [1]
                table = _mul_table(p, k, mod)
                if all(table[a][b] for a in range(1, self.q) for b in range(1, self.q)):
                    self.modulus, self.mul = mod, table
                    break
        q = self.q
        self.add = [[_encode([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)
                     for b in range(q)] for a in range(q)]
        self.neg = [_encode([(-x) % p for x in _digits(a, p, k)], p) for a in range(q)]
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self.add[acc][self.mul[a][b]]
        return acc

    def axpy(self, c: int, row, v) -> list[int]:
        """v - c * row."""
        return [self.add[x][self.neg[self.mul[c][y]]] for x, y in zip(v, row)]

    def normalize(self, v) -> tuple[int, ...]:
        """Scale a nonzero vector so its first nonzero coordinate is 1."""
        lead = next(c for c in v if c)
        return tuple(self.mul[self.inv[lead]][c] for c in v)


def rref(F: GF, rows, width: int) -> list[list[int]]:
    """Nonzero rows of the reduced row echelon form."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(width):
        pr = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        mat[rank] = list(F.normalize(mat[rank]))
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = F.axpy(mat[i][col], mat[rank], mat[i])
        rank += 1
    return mat[:rank]


def family_dict(kind: str, F: GF, n: int, pairs) -> dict:
    return {
        "version": FILE_VERSION,
        "kind": kind,
        "field": {"p": F.p, "k": F.k, "modulus": list(F.modulus)},
        "n": n,
        "point_order": POINT_ORDER,
        "pairs": [{"A": a, "B": b} for a, b in pairs],
    }


# ---------------------------------------------------------------------------
# Affine: the extremal family over the hyperplanes of F_q^n.

def hyperplane_cosets(F: GF, n: int) -> list[tuple[dict, dict]]:
    """(H, H + s) per hyperplane in canonical normal order, where s is the
    lexicographically smallest vector outside H, as canonical members."""
    vectors = list(itertools.product(range(F.q), repeat=n))
    out = []
    for normal in vectors:
        if not any(normal) or next(c for c in normal if c) != 1:
            continue
        p = next(i for i, c in enumerate(normal) if c)
        spanning = []
        for j in range(n):
            if j != p:
                row = [0] * n
                row[j] = 1
                row[p] = F.neg[normal[j]]
                spanning.append(row)
        kernel = rref(F, spanning, n)
        rep = list(next(s for s in vectors if F.dot(normal, s)))
        for row in kernel:
            pivot = next(i for i, c in enumerate(row) if c)
            if rep[pivot]:
                rep = F.axpy(rep[pivot], row, rep)
        out.append(({"rep": [0] * n, "dir": kernel}, {"rep": rep, "dir": kernel}))
    return out


def extremal_family(F: GF, n: int, rng: random.Random | None = None) -> list:
    """The 2t-pair family: (H, H+s) for every H, then (H+s, H).

    With rng, the hyperplane order is shuffled within each half.  Pairs of
    distinct hyperplanes always meet and each H meets itself across the
    halves, so every order verifies with the same number of pair checks.
    """
    cosets = hyperplane_cosets(F, n)
    first, second = list(range(len(cosets))), list(range(len(cosets)))
    if rng is not None:
        rng.shuffle(first)
        rng.shuffle(second)
    return [cosets[h] for h in first] + [(cosets[h][1], cosets[h][0]) for h in second]


def plant_offdiagonal(pairs: list) -> tuple[list, tuple[int, int, str]]:
    """Repeat pair i at position j (1-based i < j, both in the first half).

    A_i misses B_i, so (i, j) is violated while pair j stays disjoint; every
    check the scan makes before it pairs distinct hyperplanes, so it is the
    first violation.
    """
    m = len(pairs)
    i, j = max(1, m // 4), m // 2
    out = list(pairs)
    out[j - 1] = out[i - 1]
    return out, (i, j, "offdiagonal_empty")


def plant_diagonal(pairs: list) -> tuple[list, tuple[int, int, str]]:
    """Make B_i = A_i for the first pair of the second half."""
    i = len(pairs) // 2 + 1
    out = list(pairs)
    out[i - 1] = (out[i - 1][0], out[i - 1][0])
    return out, (i, i, "diagonal_nonempty")


# ---------------------------------------------------------------------------
# Projective: greedy families in PG(n, q).

def projective_point_count(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def _span_points(F: GF, rows) -> frozenset:
    points = set()
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c:
                v = F.axpy(F.neg[c], row, v)
        if any(v):
            points.add(F.normalize(v))
    return frozenset(points)


def projective_members(F: GF, n: int) -> list:
    """Every proper nonempty subspace of PG(n, q) as (RREF rows, point set)."""
    points = sorted({F.normalize(v) for v in itertools.product(range(F.q), repeat=n + 1)
                     if any(v)})
    members = {}
    for d in range(1, n + 1):
        for rows in itertools.combinations(points, d):
            basis = rref(F, rows, n + 1)
            key = tuple(map(tuple, basis))
            if len(basis) == d and key not in members:
                members[key] = _span_points(F, basis)
    return sorted(members.items())


def greedy_projective(F: GF, n: int, m: int, rng: random.Random) -> list:
    """A verified m-pair family of proper subspaces of PG(n, q).

    Each step draws A at random and then a B that misses A and meets every
    earlier A; a family that stalls is restarted, so m is seed-independent.
    """
    members = projective_members(F, n)
    while True:
        family = []
        for _ in range(20 * m):
            if len(family) == m:
                return [({"lin": [list(r) for r in a]}, {"lin": [list(r) for r in b]})
                        for a, _, b in family]
            a, a_pts = rng.choice(members)
            options = [b for b, b_pts in members
                       if not b_pts & a_pts and all(b_pts & pts for _, pts, _ in family)]
            if options:
                family.append((a, a_pts, rng.choice(options)))
