"""Exhaustive search for the maximum cross-intersecting family size.

Candidates are ordered pairs (A, B) with A ∩ B empty; a sequence of
distinct candidates is a valid family when compatible(p_i, p_j) holds for
every i < j, i.e. A_i meets B_j.  The condition is one-directional, so
the search is over ordered sequences, not subsets.

Each member carries its point mask (geometry.PointMasks): an integer
with one bit per point of the ambient space, so "A meets B" is a single
AND.  The size of an instance is bounded in closed form against the
candidate cap before anything is enumerated.

max_family explores extensions depth-first in candidate order.  The
subtree below a partial sequence depends only on the set of candidates
still feasible as successors, so results are memoized on that set, held
as an int bitset over candidate positions; this keeps the search exact
while collapsing the factorial number of prefix orders.  The reported
witness is the lexicographically smallest maximum sequence, and
sequential runs are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import Field
from .geometry import (
    PointMasks,
    ProjectiveSubspace,
    cosets,
    enumerate_flats,
    enumerate_projective_points,
    gaussian_point_count,
)
from .linalg import Space, enumerate_hyperplanes, enumerate_subspaces

DEFAULT_CANDIDATE_CAP = 5000


class CandidateCapExceeded(ValueError):
    """The instance would generate more candidates than the configured cap."""


class BudgetExceeded(RuntimeError):
    """The node budget ran out before the search completed."""

    def __init__(self, limit: int):
        super().__init__(f"search exceeded the node budget of {limit}")
        self.limit = limit


@dataclass(frozen=True)
class CandidatePair:
    """A disjoint ordered pair with the point masks of its members."""

    id: int
    A: object
    B: object
    A_mask: int
    B_mask: int


@dataclass(frozen=True)
class SearchReport:
    max_size: int
    witness: tuple[int, ...]
    nodes_explored: int
    restricted: bool


def compatible(p: CandidatePair, q: CandidatePair) -> bool:
    """True iff p may immediately or eventually precede q: A_p meets B_q."""
    return bool(p.A_mask & q.B_mask)


def _check_cap(lower_bound: int, max_candidates: int):
    if lower_bound > max_candidates:
        raise CandidateCapExceeded(
            f"instance yields more than {max_candidates} candidates")


def _disjoint_pairs(groups, masks: PointMasks,
                    max_candidates: int) -> list[CandidatePair]:
    """Disjoint ordered pairs within each group of members, in order."""
    pairs = []
    for members in groups:
        masked = [(m, masks(m)) for m in members]
        for a, a_mask in masked:
            for b, b_mask in masked:
                if not a_mask & b_mask:
                    pairs.append(CandidatePair(len(pairs), a, b, a_mask, b_mask))
                    _check_cap(len(pairs), max_candidates)
    return pairs


def candidates_affine(n: int, field: Field, restricted: bool,
                      max_candidates: int = DEFAULT_CANDIDATE_CAP) -> list[CandidatePair]:
    """Disjoint ordered flat pairs of F_q^n, in canonical order.

    Restricted mode keeps only pairs of distinct cosets of a common
    hyperplane (the shape the proof of the upper bound reduces to):
    exactly t * q * (q-1) candidates.  Unrestricted mode pairs up all
    disjoint nonempty flats: at least q^n (q^n - 1), one per ordered pair
    of distinct points.  Either count is checked against the cap first.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    q = field.q
    size = q ** n
    space = Space(field, n)
    if restricted:
        t = (size - 1) // (q - 1)
        _check_cap(t * q * (q - 1), max_candidates)
        groups = [cosets(h.kernel()) for h in enumerate_hyperplanes(space)]
    else:
        _check_cap(size * (size - 1), max_candidates)
        groups = [enumerate_flats(space)]
    return _disjoint_pairs(groups, PointMasks(space.vectors()), max_candidates)


def candidates_projective(n: int, field: Field,
                          max_candidates: int = DEFAULT_CANDIDATE_CAP) -> list[CandidatePair]:
    """Disjoint ordered pairs of nonempty projective subspaces of PG(n, q):
    at least t (t - 1), one per ordered pair of distinct points, which is
    checked against the cap first."""
    if n < 0:
        raise ValueError(f"projective dimension must be >= 0, got {n}")
    t = gaussian_point_count(n + 1, field)
    _check_cap(t * (t - 1), max_candidates)
    members = [ProjectiveSubspace(sub)
               for sub in enumerate_subspaces(Space(field, n + 1)) if sub.dim >= 1]
    masks = PointMasks(enumerate_projective_points(n, field))
    return _disjoint_pairs([members], masks, max_candidates)


def max_family(candidates: list[CandidatePair], limit: int | None = None,
               restricted: bool = False) -> SearchReport:
    """Exact maximum ordered-sequence length over the given candidates.

    Raises BudgetExceeded when more than ``limit`` nodes are visited.
    The witness lists candidate ids; it is the lexicographically smallest
    maximum sequence with respect to the given candidate order.
    """
    k = len(candidates)
    # succ[i] = bitset of the candidates that may appear anywhere after i.
    succ = []
    for i, p in enumerate(candidates):
        bits = 0
        for j, other in enumerate(candidates):
            if j != i and compatible(p, other):
                bits |= 1 << j
        succ.append(bits)
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}
    nodes = 0

    def extend(feasible: int) -> tuple[int, tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if limit is not None and nodes > limit:
            raise BudgetExceeded(limit)
        cached = memo.get(feasible)
        if cached is not None:
            return cached
        best_len, best_seq = 0, ()
        rest = feasible
        while rest:  # set bits in ascending order
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            sub_len, sub_seq = extend(feasible & succ[i])
            if 1 + sub_len > best_len:
                best_len, best_seq = 1 + sub_len, (i, *sub_seq)
        memo[feasible] = (best_len, best_seq)
        return best_len, best_seq

    size, seq = extend((1 << k) - 1)
    witness = tuple(candidates[i].id for i in seq)
    return SearchReport(size, witness, nodes, restricted)
