"""Exact linear algebra over GF(q): vectors, canonical subspaces, hyperplanes.

Vectors are plain tuples of element encodings; their natural tuple
comparison is the lexicographic order used for all tie-breaking.  A
subspace is always stored as the reduced row echelon form of a row
basis, so equal spans compare equal and hash equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import Field


@dataclass(frozen=True)
class Space:
    """Ambient coordinate space: n-tuples over a finite field."""

    field: Field
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.n}")

    @property
    def q(self) -> int:
        return self.field.q

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.n

    def vectors(self):
        """All q^n vectors in lexicographic order."""
        return itertools.product(range(self.q), repeat=self.n)

    def check_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.n:
            raise ValueError(f"vector {v!r} does not live in dimension {self.n}")
        for c in v:
            self.field.check(c)
        return tuple(v)


def _same_space(a: Space, b: Space) -> Space:
    if a != b:
        raise ValueError("mixed ambient spaces")
    return a


# ---------------------------------------------------------------------------
# Vector helpers.

def vec_add(space: Space, u, v) -> tuple[int, ...]:
    f = space.field
    return tuple(f.add(a, b) for a, b in zip(u, v))


def vec_sub(space: Space, u, v) -> tuple[int, ...]:
    f = space.field
    return tuple(f.sub(a, b) for a, b in zip(u, v))


def vec_neg(space: Space, v) -> tuple[int, ...]:
    f = space.field
    return tuple(f.neg(a) for a in v)


def vec_scale(space: Space, c: int, v) -> tuple[int, ...]:
    f = space.field
    return tuple(f.mul(c, a) for a in v)


def _pivot(row) -> int:
    """Column of the first nonzero entry, or -1 for a zero row."""
    for j, c in enumerate(row):
        if c:
            return j
    return -1


def _rref_rows(field: Field, rows, width: int) -> list[tuple[int, ...]]:
    """Reduced row echelon form; returns only the nonzero rows."""
    mat = [list(r) for r in rows]
    m = len(mat)
    rank = 0
    for col in range(width):
        pr = next((i for i in range(rank, m) if mat[i][col]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        inv = field.inv(mat[rank][col])
        if inv != 1:
            mat[rank] = [field.mul(inv, c) for c in mat[rank]]
        for i in range(m):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [field.sub(x, field.mul(c, y))
                          for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return [tuple(r) for r in mat[:rank]]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held as its canonical RREF row basis.

    The zero subspace has an empty basis.  Construction validates the
    RREF invariants, so any two equal spans are value-identical; use
    :func:`rref` to canonicalize arbitrary spanning rows.
    """

    space: Space
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pivots = []
        for row in self.basis:
            self.space.check_vector(row)
            p = _pivot(row)
            if p < 0 or row[p] != 1:
                raise ValueError("basis row is not normalized")
            if pivots and p <= pivots[-1]:
                raise ValueError("pivot columns must strictly increase")
            pivots.append(p)
        for i, row in enumerate(self.basis):
            for j, p in enumerate(pivots):
                if i != j and row[p] != 0:
                    raise ValueError("pivot column is not cleared")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(_pivot(r) for r in self.basis)


def rref(space: Space, rows) -> Subspace:
    """Canonical subspace spanned by the given rows (idempotent)."""
    checked = [space.check_vector(r) for r in rows]
    return Subspace(space, tuple(_rref_rows(space.field, checked, space.n)))


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    space = _same_space(U.space, V.space)
    return rref(space, U.basis + V.basis)


def subspace_intersection(U: Subspace, V: Subspace) -> Subspace:
    """Zassenhaus: row reduce [U|U; V|0]; zero-left rows span the intersection."""
    space = _same_space(U.space, V.space)
    n = space.n
    zero = space.zero()
    stacked = [r + r for r in U.basis] + [r + zero for r in V.basis]
    reduced = _rref_rows(space.field, stacked, 2 * n)
    inter = [row[n:] for row in reduced if _pivot(row[:n]) < 0]
    return rref(space, inter)


def reduce_mod_basis(U: Subspace, v) -> tuple[int, ...]:
    """Eliminate v against the RREF basis; zero remainder means membership."""
    space = U.space
    space.check_vector(v)
    r = v
    for row in U.basis:
        c = r[_pivot(row)]
        if c:
            r = vec_sub(space, r, vec_scale(space, c, row))
    return tuple(r)


def contains(U: Subspace, v) -> bool:
    return not any(reduce_mod_basis(U, v))


def null_space(space: Space, rows) -> Subspace:
    """Canonical basis of {x : r . x = 0 for every row r}."""
    reduced = _rref_rows(space.field, [space.check_vector(r) for r in rows], space.n)
    pivots = [_pivot(r) for r in reduced]
    f = space.field
    basis = []
    for free in range(space.n):
        if free in pivots:
            continue
        v = [0] * space.n
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = f.neg(reduced[i][free])
        basis.append(tuple(v))
    return rref(space, basis)


def solve_linear(field: Field, rows, rhs):
    """One solution x of rows . x = rhs, or None if inconsistent.

    rows is an m x c coefficient matrix given as row tuples; free
    variables are set to zero.
    """
    m = len(rows)
    c = len(rows[0]) if m else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivot_cols = []
    rank = 0
    for col in range(c):
        pr = next((i for i in range(rank, m) if aug[i][col]), None)
        if pr is None:
            continue
        aug[rank], aug[pr] = aug[pr], aug[rank]
        inv = field.inv(aug[rank][col])
        if inv != 1:
            aug[rank] = [field.mul(inv, x) for x in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col]:
                coef = aug[i][col]
                aug[i] = [field.sub(x, field.mul(coef, y))
                          for x, y in zip(aug[i], aug[rank])]
        pivot_cols.append(col)
        rank += 1
    for i in range(rank, m):
        if aug[i][c]:
            return None
    x = [0] * c
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][c]
    return tuple(x)


# ---------------------------------------------------------------------------
# Hyperplanes.

@dataclass(frozen=True)
class Hyperplane:
    """Kernel of a nonzero functional, canonicalized so the normal's
    first nonzero coordinate is 1."""

    space: Space
    normal: tuple[int, ...]

    def __post_init__(self):
        self.space.check_vector(self.normal)
        p = _pivot(self.normal)
        if p < 0 or self.normal[p] != 1:
            raise ValueError("normal must be nonzero with first nonzero entry 1")

    def kernel(self) -> Subspace:
        return null_space(self.space, [self.normal])


def enumerate_hyperplanes(space: Space) -> list[Hyperplane]:
    """All (q^n - 1)/(q - 1) hyperplanes, sorted by canonical normal."""
    out = []
    for v in space.vectors():
        p = _pivot(v)
        if p >= 0 and v[p] == 1:
            out.append(Hyperplane(space, v))
    return out


def enumerate_subspaces(space: Space, dim: int | None = None):
    """Yield every subspace (optionally of one dimension), deterministically.

    Subspaces are generated directly in RREF: choose pivot columns, then
    fill the free entries (right of each pivot, off the pivot columns)
    with every field value.
    """
    n, q = space.n, space.q
    dims = range(n + 1) if dim is None else (dim,)
    for d in dims:
        if d == 0:
            yield Subspace(space, ())
            continue
        for pivots in itertools.combinations(range(n), d):
            free = [(i, j) for i in range(d) for j in range(n)
                    if j > pivots[i] and j not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i in range(d):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free, values):
                    rows[i][j] = val
                yield Subspace(space, tuple(tuple(r) for r in rows))
