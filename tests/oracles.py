"""Brute-force oracles the tests check the library against.

The geometric oracles work by exhaustive point enumeration, deliberately
avoiding the elimination-based code paths under test; frame_family is a
family that verifies by construction; dataclass_twin is the reference for
the value classes' semantics.
"""

import dataclasses
import functools
import itertools
import types

from crossflats import PROJECTIVE, FamilyPair, ProjectiveSubspace, Space, Subspace
from crossflats.geometry import AffineFlat


def combo_points(space, rows):
    """Every linear combination of the given rows, as a set of tuples: the
    span grows by one row at a time, adding each multiple of that row."""
    f = space.field
    out = {space.zero()}
    for row in rows:
        multiples = [tuple(f.mul(c, y) for y in row) for c in range(space.q)]
        out = {tuple(f.add(x, y) for x, y in zip(v, m)) for v in out for m in multiples}
    return out


def span_points(sub):
    return combo_points(sub.space, sub.basis)


def span_rank(space, rows):
    """Dimension of the span of the rows: log_q of its number of points."""
    size, rank = len(combo_points(space, rows)), 0
    while space.q ** rank < size:
        rank += 1
    return rank


def vanishing_points(space, rows):
    """The vectors x with u.x = 0 for every given row u, as a set of tuples:
    a hyperplane's points for one normal, an annihilator's for a basis."""
    f = space.field

    def dot(u, x):
        total = 0
        for a, b in zip(u, x):
            total = f.add(total, f.mul(a, b))
        return total

    return {x for x in space.vectors() if all(dot(u, x) == 0 for u in rows)}


def sum_points(U, V):
    """The vectors u + v for u in U and v in V, as a set of tuples."""
    return set().union(*(translate(U.space, u, span_points(V)) for u in span_points(U)))


def translate(space, rep, points):
    """The points rep + w for w in points, as a set of tuples."""
    f = space.field
    return {tuple(f.add(a, b) for a, b in zip(rep, w)) for w in points}


def flat_points(flat):
    return translate(flat.space, flat.rep, span_points(flat.direction))


def member_points(member):
    """Ground set of a family member: flat points, or nonzero span vectors."""
    if isinstance(member, AffineFlat):
        return flat_points(member)
    return {v for v in span_points(member.lin) if any(v)}


def canonical_points(vectors):
    """The vectors whose first nonzero coordinate is 1, sorted by their
    reversed coordinates: the projective point order."""
    return sorted((v for v in vectors if any(v) and next(c for c in v if c) == 1),
                  key=lambda v: v[::-1])


def members_meet(a, b):
    return bool(member_points(a) & member_points(b))


def naive_verify(pairs):
    """(first violation as 1-based (i, j, reason) or None, pairs decided)
    by members_meet, in verify's order: the diagonal, then the strict
    upper triangle row-major."""
    m = len(pairs)
    order = [(i, i) for i in range(m)] + list(itertools.combinations(range(m), 2))
    for checks, (i, j) in enumerate(order, 1):
        if members_meet(pairs[i][0], pairs[j][1]) == (i == j):
            reason = "diagonal_nonempty" if i == j else "offdiagonal_empty"
            return (i + 1, j + 1, reason), checks
    return None, len(order)


def frame_family(n, field):
    """The frame family of PG(n, q): the pairs (<e_S>, <e_S^c>) over the
    nonempty proper subsets S of the n + 1 coordinates, by decreasing |S|
    (one size in combinations order).  The unit rows of <e_S> are its
    RREF basis, so no elimination builds it.  <e_S> and <e_T> meet iff S
    and T do, so a pair's members do not meet, and A_i meets B_j for
    i < j: |S_i| >= |S_j| and S_i != S_j leave S_i outside S_j."""
    space, coords = Space(field, n + 1), range(n + 1)

    def span(subset):
        return ProjectiveSubspace(Subspace(space, tuple(
            tuple(int(c == k) for c in coords) for k in subset)))

    pairs = [(span(s), span([k for k in coords if k not in s]))
             for size in range(n, 0, -1) for s in itertools.combinations(coords, size)]
    return FamilyPair(PROJECTIVE, field, n, tuple(pairs))


def naive_max_family(candidates):
    """Max ordered-sequence length by permutation enumeration (<= 8 candidates).

    Returns (size, lex-min witness of candidate ids); compatibility is
    decided from the raw point sets.
    """
    assert len(candidates) <= 8
    k = len(candidates)
    meets = [[members_meet(candidates[i].A, candidates[j].B) for j in range(k)]
             for i in range(k)]
    for r in range(k, 0, -1):
        for seq in itertools.permutations(range(k), r):
            if all(meets[seq[a]][seq[b]]
                   for a in range(r) for b in range(a + 1, r)):
                return r, tuple(candidates[i].id for i in seq)
    return 0, ()


def reference_max_family(candidates):
    """Max ordered-sequence length and its lex-min witness of candidate ids,
    by a plain memoised DP over members_meet: no point masks and no split
    into blocks.  The subtree below a prefix depends only on the set of
    positions still feasible, which is the memo key."""
    k = len(candidates)
    after = [frozenset(j for j in range(k)
                       if j != i and members_meet(candidates[i].A, candidates[j].B))
             for i in range(k)]
    memo = {}

    def best(feasible):
        if feasible not in memo:
            result = (0, ())
            for i in sorted(feasible):
                size, seq = best(feasible & after[i])
                if size + 1 > result[0]:
                    result = (size + 1, (i, *seq))
            memo[feasible] = result
        return memo[feasible]

    size, seq = best(frozenset(range(k)))
    return size, tuple(candidates[i].id for i in seq)


def reference_blocks(candidates):
    """The positions grouped into components of "linked", as sorted tuples
    ordered by their smallest position: i and j are linked unless each may
    follow the other, as members_meet decides on the raw point sets."""
    k = len(candidates)
    meets = [[members_meet(candidates[i].A, candidates[j].B) for j in range(k)]
             for i in range(k)]
    blocks, left = [], list(range(k))
    while left:
        block = [left.pop(0)]
        for i in block:  # the loop reaches what it appends
            linked = [j for j in left if not (meets[i][j] and meets[j][i])]
            block += linked
            left = [j for j in left if j not in linked]
        blocks.append(tuple(sorted(block)))
    return blocks


def dataclass_twin(cls):
    """A dataclasses.dataclass(frozen=True) class with the name, fields,
    defaults, __post_init__ and other methods of the value class cls: what
    cls's value semantics stand in for."""
    own = vars(cls)
    methods = (types.FunctionType, property, functools.cached_property)
    namespace = {key: value for key, value in own.items()
                 if key in ("__doc__", "__post_init__")
                 or (not key.startswith("__") and key not in cls.__match_args__
                     and isinstance(value, methods))}
    fields = [(name, object, dataclasses.field(default=own[name])) if name in own
              else (name, object) for name in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)
