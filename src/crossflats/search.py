"""Exhaustive search for the maximum cross-intersecting family size.

Candidates are ordered pairs (A, B) with A ∩ B empty; a sequence of
distinct candidates is a valid family when compatible(p_i, p_j) holds for
every i < j, i.e. A_i meets B_j.  The condition is one-directional, so
the search is over ordered sequences, not subsets.

Each member carries its point mask (geometry.PointMasks): an integer
with one bit per point of the ambient space, so "A meets B" is a single
AND.  The size of an instance is bounded in closed form against the
candidate cap before anything is enumerated.

Co-components.  Call positions i and j linked unless each may follow the
other, i.e. when A_i ∩ B_j = ∅ or A_j ∩ B_i = ∅; the blocks are the
connected components of this relation.  They are found on member
classes: one node per distinct A mask and one per distinct B mask, a and
b joined when a & b == 0, each A class ANDed once with each B class.
Positions i and j lie in one block iff A_i and A_j are connected:

- a link gives the class path A_i – B_j – A_j (or A_j – B_i – A_i),
  because every candidate has A ∩ B = ∅;
- conversely, every class edge a – b is a link between a position of a
  and a position of b;
- positions that share an A mask, or share a B mask, are linked.

Restricted instances split by hyperplane direction (cosets of distinct
hyperplanes always meet), while unrestricted and projective instances
are usually one block.  Each block is searched on its own and the
results combine exactly:

1. Every pair from two different blocks is compatible both ways, so any
   interleaving of valid block sequences is valid, and any valid
   sequence restricts to a valid sequence in each block.  The maximum is
   therefore the sum of the block maxima.
2. The lexicographically smallest maximum sequence S restricts, in each
   block, to that block's smallest maximum sequence W: otherwise writing
   W into the positions S gives that block yields a valid maximum
   sequence smaller than S.
3. So S interleaves the block witnesses.  Their entries are distinct,
   and among the interleavings of fixed sequences with distinct entries
   the smallest one takes the smallest head at every step.

An instance with one block runs the plain search on all candidates.

max_family searches each block on member classes.  Whether j may follow
i depends only on A_i and B_j, so after a prefix the feasible successors
are the positions whose B mask meets every A chosen so far: a union of B
classes (a B class is the block's positions that share one B mask).  A
chosen j drops out by itself, since B_j misses A_j, so no candidate
repeats and no position is ever removed: every feasible set is a union
of B classes.  The state is that union, held as a bitset over the
block's distinct B masks, and the memo maps it to the length of the
longest sequence drawn from it.  A state branches once per distinct A
mask paired with some B class in it, to the child state & meets[A]:
siblings that share an A mask share their subtree, and cost one node.
A caller-built candidate whose members meet fits no class (it would
follow itself), so max_family rejects it.

The witness takes one pass over the block's positions after the values:
from the full state, take the smallest position whose B class is in the
state and whose child's value is one less, and move to that child.  Each
step takes the smallest first element of any maximum sequence from the
state, and what follows it is a maximum sequence from the child, so by
induction the pass yields the lexicographically smallest maximum
sequence.  All blocks share the node count (and so the node budget);
each has its own memo, and the report's states is their total size.
Sequential runs are fully reproducible.  The report carries no search
mode: max_family sees candidates only, whatever made them.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .field import Field, _Value
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


class CandidatePair(_Value):
    """A disjoint ordered pair with the point masks of its members."""

    id: int
    A: object
    B: object
    A_mask: int
    B_mask: int


class SearchReport(_Value):
    max_size: int
    witness: tuple[int, ...]
    nodes_explored: int
    blocks: int = 1
    states: int = 0


def compatible(p: CandidatePair, q: CandidatePair) -> bool:
    """True iff p may immediately or eventually precede q: A_p meets B_q."""
    return bool(p.A_mask & q.B_mask)


def _check_cap(lower_bound: int, max_candidates: int):
    if lower_bound > max_candidates:
        raise CandidateCapExceeded(
            f"instance yields more than {max_candidates} candidates")


def _check_dimension(n: int, max_candidates: int):
    """Every count below is at least 2^n - 1: check that first, with n
    clipped just past the cap's bit length, so a huge n never forms q^n."""
    _check_cap((1 << min(n, max_candidates.bit_length() + 1)) - 1, max_candidates)


def _disjoint_pairs(groups, masks, max_candidates: int) -> list[CandidatePair]:
    """Disjoint ordered pairs within each group of members, in order.  A
    candidate's id is its position in the returned list."""
    pairs = []
    for group in groups:
        masked = [(member, masks(member)) for member in group]
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
    _check_dimension(n, max_candidates)
    q = field.q
    size = q ** n
    space = Space(field, n)
    if restricted:
        t = (size - 1) // (q - 1)
        _check_cap(t * q * (q - 1), max_candidates)
        groups = (cosets(h.kernel()) for h in enumerate_hyperplanes(space))
    else:
        _check_cap(size * (size - 1), max_candidates)
        groups = [enumerate_flats(space)]
    return _disjoint_pairs(groups, PointMasks(space, space.vectors()), max_candidates)


def candidates_projective(n: int, field: Field,
                          max_candidates: int = DEFAULT_CANDIDATE_CAP) -> list[CandidatePair]:
    """Disjoint ordered pairs of nonempty projective subspaces of PG(n, q):
    at least t (t - 1), one per ordered pair of distinct points, which is
    checked against the cap first."""
    if n < 0:
        raise ValueError(f"projective dimension must be >= 0, got {n}")
    _check_dimension(n, max_candidates)
    t = gaussian_point_count(n + 1, field)
    _check_cap(t * (t - 1), max_candidates)
    space = Space(field, n + 1)
    members = [ProjectiveSubspace(sub) for sub in enumerate_subspaces(space) if sub.dim >= 1]
    masks = PointMasks(space, enumerate_projective_points(n, field))
    return _disjoint_pairs([members], masks, max_candidates)


def _merge_by_head(seqs: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Interleave sequences with distinct entries, always taking the
    smallest head: the lexicographically smallest interleaving."""
    pending = [s for s in seqs if s]
    heapify(pending)  # heads are distinct, so the head decides the order
    merged = []
    while pending:
        first = heappop(pending)
        merged.append(first[0])
        if len(first) > 1:
            heappush(pending, first[1:])
    return tuple(merged)


def _blocks(candidates: list[CandidatePair]):
    """The co-component blocks on member classes (see the module
    docstring), ordered by first position.  Classes are numbered by first
    position, and a block's B classes are each one bit of its states.  Per
    block: its positions in ascending order as (position, its B class bit,
    meets of its A mask); one [partners, meets] per A class, where partners
    holds the B classes it is paired with and meets those whose mask meets
    it; and the full state."""
    a_class: dict[int, int] = {}  # distinct mask -> its number
    b_class: dict[int, int] = {}
    for c in candidates:
        a_class.setdefault(c.A_mask, len(a_class))
        b_class.setdefault(c.B_mask, len(b_class))
    # Union-find on the class graph: A class k is node k, B class k is
    # node len(a_class) + k, and an edge joins an A and a B that miss.
    parent = list(range(len(a_class) + len(b_class)))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    misses = []  # per A class, the B classes whose masks miss it
    for k, a in enumerate(a_class):
        misses.append([j for j, b in enumerate(b_class) if not a & b])
        for j in misses[k]:
            parent[root(len(a_class) + j)] = root(k)
    positions: dict[int, list[int]] = {}  # block root -> its positions
    for i, c in enumerate(candidates):
        positions.setdefault(root(a_class[c.A_mask]), []).append(i)
    blocks = []
    for block in positions.values():
        bit: dict[int, int] = {}  # B class -> its bit in the block's states
        for i in block:
            bit.setdefault(b_class[candidates[i].B_mask], 1 << len(bit))
        full = (1 << len(bit)) - 1
        # Every B class that misses an A class lies in its block.
        classes: dict[int, list[int]] = {}  # A class -> [partners, meets]
        steps = []
        for i in block:
            k = a_class[candidates[i].A_mask]
            b = bit[b_class[candidates[i].B_mask]]
            if k not in classes:
                classes[k] = [0, full & ~sum(bit[j] for j in misses[k])]
            classes[k][0] |= b
            steps.append((i, b, classes[k][1]))
        blocks.append((steps, list(classes.values()), full))
    return blocks


def max_family(candidates: list[CandidatePair], limit: int | None = None) -> SearchReport:
    """Exact maximum ordered-sequence length over the given candidates.

    Raises BudgetExceeded when more than ``limit`` nodes are visited, and
    ValueError for a candidate whose members meet (A_mask & B_mask), which
    no valid family can contain and no B class can represent.  The witness
    lists candidate ids; it is the lexicographically smallest maximum
    sequence with respect to the given candidate order.  Each co-component
    block is searched separately (see the module docstring).
    """
    for c in candidates:
        if c.A_mask & c.B_mask:
            raise ValueError(f"candidate {c.id} has members that meet")
    nodes = states = 0

    def visit(count: int):
        nonlocal nodes
        nodes += count
        if limit is not None and nodes > limit:
            raise BudgetExceeded(limit)

    seqs = []
    blocks = _blocks(candidates)
    for steps, classes, state in blocks:
        memo: dict[int, int] = {}

        def value(feasible: int) -> int:
            children = [feasible & meets for partners, meets in classes
                        if partners & feasible]
            visit(len(children))
            best = 0
            for child in children:
                sub = memo.get(child)
                if sub is None:
                    sub = value(child)
                if sub >= best:
                    best = sub + 1
            memo[feasible] = best
            return best

        visit(1)
        seq = []
        left = value(state)
        while left:  # the smallest position that keeps the maximum
            left -= 1
            for i, bit, meets in steps:
                if bit & state and memo[state & meets] == left:
                    seq.append(i)
                    state &= meets
                    break
        seqs.append(tuple(seq))
        states += len(memo)
    witness = tuple(candidates[i].id for i in _merge_by_head(seqs))
    return SearchReport(len(witness), witness, nodes, len(blocks), states)
