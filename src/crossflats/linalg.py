"""Exact linear algebra over GF(q): vectors, canonical subspaces, hyperplanes.

Vectors are plain tuples of element encodings; their natural tuple
comparison is the lexicographic order used for all tie-breaking.  A
subspace is always stored as the reduced row echelon form of a row
basis, so equal spans compare equal and hash equal.

Input is checked at the boundary: rref() checks every row it is given,
and a Subspace(...) built by a caller validates its RREF invariants.
Past that point the data is trusted.  _rref_rows is the one elimination
kernel; it and vec_dot run on the field's unchecked operations, and it
returns the rows' pivot columns with them.  _trusted_subspace skips
validation and takes the pivot columns from its producer: kernel output
(rref, subspace_sum) and the RREF bases written directly
(enumerate_subspaces, and Hyperplane.kernel, read off the normal in
closed form).  The hyperplanes of enumerate_hyperplanes skip validation
too.  _annihilator_rows reads the annihilator's rows off an RREF basis
without an elimination; a member's equations use them as they are,
since no reader needs them in RREF.  subspace_sum is the sum
of the flats' disjointness test; the projective test reads only the
rank of the same stack off _rref_rows.  _reduced is the one reduction
against a basis (contains reads it too).
"""

from __future__ import annotations

import itertools

from .field import Field, _Value


class Space(_Value):
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

def vec_dot(space: Space, u, v) -> int:
    ops = space.field.unchecked
    total = 0
    for a, b in zip(u, v):
        total = ops.add(total, ops.mul(a, b))
    return total


def _pivot(row) -> int:
    """Column of the first nonzero entry, or -1 for a zero row."""
    for j, c in enumerate(row):
        if c:
            return j
    return -1


def _rref_rows(field: Field, rows) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Reduced row echelon form of the rows: the nonzero rows, in order,
    and the pivot column of each, ascending.

    The one elimination kernel: it uses the field's unchecked operations,
    so every entry must already be a valid element encoding.
    """
    ops = field.unchecked
    inv, scale, sub_scaled = ops.inv, ops.scale, ops.sub_scaled
    mat = list(rows)
    m = len(mat)
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        if rank == m:
            break
        for pr in range(rank, m):
            if mat[pr][col]:
                break
        else:
            continue
        pivot_row = mat[pr]
        if pivot_row[col] != 1:
            pivot_row = scale(inv(pivot_row[col]), pivot_row)
        mat[pr] = mat[rank]
        mat[rank] = pivot_row
        for i in range(m):
            c = mat[i][col]
            if c and i != rank:
                mat[i] = sub_scaled(mat[i], c, pivot_row)
        pivots.append(col)
    return [tuple(r) for r in mat[:len(pivots)]], tuple(pivots)


class Subspace(_Value):
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
        object.__setattr__(self, "_pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivots


def _trusted_subspace(space: Space, basis, pivots: tuple[int, ...]) -> Subspace:
    """A Subspace from rows already in RREF and their pivot columns, as
    their producer found them: unvalidated, and no row is scanned."""
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "space", space)
    object.__setattr__(sub, "basis", tuple(basis))
    object.__setattr__(sub, "_pivots", pivots)
    return sub


def _span(space: Space, rows) -> Subspace:
    """Canonical span of trusted rows."""
    return _trusted_subspace(space, *_rref_rows(space.field, rows))


def rref(space: Space, rows) -> Subspace:
    """Canonical subspace spanned by the given rows (idempotent)."""
    return _span(space, [space.check_vector(r) for r in rows])


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    space = _same_space(U.space, V.space)
    return _span(space, U.basis + V.basis)


def _reduced(U: Subspace, r) -> tuple[int, ...]:
    """The checked vector r eliminated against U's RREF basis: linear and
    canonical, with kernel U."""
    sub_scaled = U.space.field.unchecked.sub_scaled
    for p, row in zip(U._pivots, U.basis):
        c = r[p]
        if c:
            r = sub_scaled(r, c, row)
    return tuple(r)


def contains(U: Subspace, v) -> bool:
    return not any(_reduced(U, U.space.check_vector(v)))


def _annihilator_rows(U: Subspace) -> list[tuple[int, ...]]:
    """A basis of {x : u . x = 0 for every u in U}, read off U's RREF
    basis without an elimination: one vector per non-pivot column, the
    same for every U of equal span, but not necessarily in RREF."""
    space, reduced, pivots = U.space, U.basis, U._pivots
    neg = space.field.unchecked.neg
    basis = []
    for free in range(space.n):
        if free in pivots:
            continue
        v = [0] * space.n
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = neg(reduced[i][free])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Hyperplanes.

class Hyperplane(_Value):
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
        """{x : w.x = 0} for the normal w, in closed form: with l the last
        index where w is nonzero, the rows e_i - (w_i / w_l) e_l for every
        i != l, ascending.  Row i has its pivot at i and column l is no
        pivot, so the rows are the canonical RREF basis, and its pivot
        columns are every index but l."""
        space, w = self.space, self.normal
        ops = space.field.unchecked
        last = max(i for i, c in enumerate(w) if c)
        factor = ops.neg(ops.inv(w[last]))
        pivots = tuple(i for i in range(space.n) if i != last)
        basis = []
        for i in pivots:
            row = [0] * space.n
            row[i], row[last] = 1, ops.mul(factor, w[i])
            basis.append(tuple(row))
        return _trusted_subspace(space, basis, pivots)


def enumerate_hyperplanes(space: Space) -> list[Hyperplane]:
    """All (q^n - 1)/(q - 1) hyperplanes, sorted by canonical normal.
    Each normal is canonical by construction, so Hyperplane's checks are
    skipped, as _trusted_subspace skips Subspace's."""
    out = []
    for v in space.vectors():
        p = _pivot(v)
        if p >= 0 and v[p] == 1:
            hyperplane = object.__new__(Hyperplane)
            object.__setattr__(hyperplane, "space", space)
            object.__setattr__(hyperplane, "normal", v)
            out.append(hyperplane)
    return out


def enumerate_subspaces(space: Space):
    """Yield every subspace, by ascending dimension, deterministically.

    Subspaces are generated directly in RREF: choose pivot columns, then
    fill the free entries (right of each pivot, off the pivot columns)
    with every field value.
    """
    n, q = space.n, space.q
    for d in range(n + 1):
        for pivots in itertools.combinations(range(n), d):
            free = [(i, j) for i in range(d) for j in range(n)
                    if j > pivots[i] and j not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i in range(d):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free, values):
                    rows[i][j] = val
                yield _trusted_subspace(space, map(tuple, rows), pivots)
