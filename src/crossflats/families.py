"""Cross-intersecting pair families: verification, constructions, file format.

A family is an ordered list of pairs (A_i, B_i) of nonempty affine flats
or projective subspaces.  It verifies when every A_i ∩ B_i is empty and
every A_i ∩ B_j with i < j is nonempty; the condition is one-directional,
so pair order matters.

Verification is enumeration-free and walks member classes: a flat's
class is its direction, a projective subspace's its linear span.  Each
distinct pair of classes met forms its sum at most once.  Two flats are
disjoint iff their reps reduce to different vectors against the sum of
their directions (see ``crossflats.geometry``), two subspaces iff their
sum's dimension is the sum of theirs.  Class pairs that always meet form
no sum: two distinct hyperplane directions, or subspaces U and V with
dim U + dim V > n + 1.  So row i of the upper triangle is walked per B
class that may miss A_i, from each class's first position after i.  The
paper's extremal family forms only the sums of a class with itself,
which take no elimination, and a row costs one class.

The file loader checks each vector of a file once, at the boundary: a
list of n entries (n + 1 in a projective file) of type int in [0, q).
It then builds the members from trusted parts, without the checks of the
public constructors, and spans each distinct row list once.  The
writer fills a %d template per shape of pair with the entries; each
template is json.dumps(..., indent=2) of a zero-filled pair of that
shape, rendered once, so the file holds the encoder's own bytes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json

from .field import Field, _Value
from .geometry import (
    AffineFlat,
    ProjectiveSubspace,
    _flat,
    cosets,
    projective_disjoint,
)
from .linalg import Space, _reduced, _span, enumerate_hyperplanes, subspace_sum

AFFINE = "affine"
PROJECTIVE = "projective"

DIAGONAL_NONEMPTY = "diagonal_nonempty"
OFFDIAGONAL_EMPTY = "offdiagonal_empty"

FILE_VERSION = 1
POINT_ORDER_TAG = "lex-first-nonzero-1"


class FamilyPair(_Value):
    """Ordered pairs over a common ambient space.

    For kind "affine" the members live in F_q^n; for kind "projective"
    they live in PG(n, q), i.e. the linear space F_q^(n+1).  Members must
    be nonempty (a projective member needs proj_dim >= 0).

    ``ambient`` is that space, kept beside the fields: the members' own
    instance from the first member on, so members built on one Space (as
    loaded, constructed and searched ones are) are checked by identity.
    """

    kind: str
    field: Field
    n: int
    pairs: tuple

    def __post_init__(self):
        if self.kind not in (AFFINE, PROJECTIVE):
            raise ValueError(f"unknown family kind {self.kind!r}")
        min_dim = 1 if self.kind == AFFINE else 0
        if self.n < min_dim:
            raise ValueError(f"bad dimension {self.n} for kind {self.kind}")
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        member_type = AffineFlat if self.kind == AFFINE else ProjectiveSubspace
        ambient = Space(self.field, self.n if self.kind == AFFINE else self.n + 1)
        for a, b in self.pairs:
            for member in (a, b):
                if not isinstance(member, member_type):
                    raise ValueError(f"{self.kind} family holds a {type(member).__name__}")
                if member.space != ambient:
                    raise ValueError("family member from wrong ambient space")
                ambient = member.space
                if self.kind == PROJECTIVE and member.is_empty():
                    raise ValueError("projective family members must be nonempty")
        object.__setattr__(self, "ambient", ambient)

    @property
    def m(self) -> int:
        return len(self.pairs)


class VerifyReport(_Value):
    """ok, or the first violation as 1-based (i, j, reason).

    pair_checks counts the member pairs decided, the violating one
    included; eliminations counts the class-pair sums formed, for either
    kind (a direction with itself included, though it is its own sum).
    """

    ok: bool
    violation: tuple[int, int, str] | None = None
    pair_checks: int = 0
    eliminations: int = 0


class FamilyViolation(ValueError):
    """A family that had to verify does not; ``violation`` is the first
    violation as VerifyReport gives it."""

    def __init__(self, violation: tuple[int, int, str]):
        super().__init__(f"family does not verify: violation {violation}")
        self.violation = violation


class _MemberClasses:
    """A_i ∩ B_j = ∅ for a family's members, decided on their classes
    (see the module docstring).

    Each member keeps its class number and its rep (None for a subspace).
    A class pair's sum is formed on first use, and ``solves`` counts the
    sums formed; a direction with itself is its own sum, against which
    the reps are already reduced.  A span pair has one verdict for all
    its member pairs, which projective_disjoint gives on the classes'
    first members.  Class pairs that always_meet form no sum.
    """

    def __init__(self, fam: FamilyPair):
        self.affine = fam.kind == AFFINE
        self.n = fam.ambient.n  # the dimension of the linear ambient space
        self.classes = {}  # direction or span basis -> class number
        self.spans = []    # class number -> direction or span
        self.members = []  # class number -> its first member
        self.a_side = [self._numbered(a) for a, _ in fam.pairs]
        self.b_side = [self._numbered(b) for _, b in fam.pairs]
        self.sums = {}  # (A class, B class) -> a flat sum, True, or None if they meet
        self.solves = 0
        self.positions = [[] for _ in self.spans]  # B class -> its j, ascending
        for j, (number, _) in enumerate(self.b_side):
            self.positions[number].append(j)
        self.dims = [span.dim for span in self.spans]
        # The B classes by ascending dimension; cut[d] of them have dimension < d.
        self.by_dim = sorted((c for c in range(len(self.spans)) if self.positions[c]),
                             key=self.dims.__getitem__)
        self.cut = [bisect.bisect_left(self.by_dim, d, key=self.dims.__getitem__)
                    for d in range(self.n + 2)]

    def _numbered(self, member):
        span, rep = (member.direction, member.rep) if self.affine else (member.lin, None)
        number = self.classes.setdefault(span.basis, len(self.spans))
        if number == len(self.spans):
            self.spans.append(span)
            self.members.append(member)
        return number, rep

    def always_meet(self, a_class: int, b_class: int) -> bool:
        """The dimension rules: two distinct hyperplane directions span the
        whole space; a subspace meets itself, and by Grassmann's formula U
        meets V when dim U + dim V exceeds the ambient's (n + 1 in PG(n, q))."""
        dims, n = self.dims, self.n
        if self.affine:
            return a_class != b_class and dims[a_class] == dims[b_class] == n - 1
        return a_class == b_class or dims[a_class] + dims[b_class] > n

    def class_sum(self, a_class: int, b_class: int):
        """The classes' entry in ``sums``, formed on first use."""
        key = a_class, b_class
        if key not in self.sums:
            total = None
            if not self.always_meet(a_class, b_class):
                self.solves += 1
                if self.affine:
                    a, b = self.spans[a_class], self.spans[b_class]
                    total = a if a_class == b_class else subspace_sum(a, b)
                    if total.dim == self.n:
                        total = None
                else:
                    total = projective_disjoint(self.members[a_class],
                                                self.members[b_class]) or None
            self.sums[key] = total
        return self.sums[key]

    def disjoint(self, i: int, j: int) -> bool:
        (a_class, rep), (b_class, other) = self.a_side[i], self.b_side[j]
        total = self.class_sum(a_class, b_class)
        return total is not None and (
            not self.affine or _reduced(total, rep) != _reduced(total, other))

    def first_disjoint(self, i: int) -> int:
        """The least j > i with A_i ∩ B_j = ∅, or m if there is none.

        Only the B classes that may miss A_i are visited, picked by
        dimension, in the order of their first position after i, up to
        the least violating j found so far, so a class's sum is formed
        exactly when a walk over the pairs (i, i+1), (i, i+2), ... up to
        that j would meet it first.  A span class has one verdict, so its
        first position decides it."""
        a_class, rep = self.a_side[i]
        dim, n, by_dim, cut = self.dims[a_class], self.n, self.by_dim, self.cut
        if not self.affine:  # dim U + dim V <= n + 1; its own class forms no sum
            candidates = by_dim[:cut[n - dim + 1]]
        elif dim == n - 1:  # its own class, and no other hyperplane's
            candidates = [a_class, *by_dim[:cut[n - 1]], *by_dim[cut[n]:]]
        else:
            candidates = by_dim
        firsts = []
        for c in candidates:
            positions = self.positions[c]
            k = bisect.bisect_right(positions, i)
            if k < len(positions):
                firsts.append((positions[k], c, k))
        firsts.sort()
        found = len(self.b_side)
        for first, c, k in firsts:
            if first > found:
                break
            total = self.class_sum(a_class, c)
            if total is None:
                continue
            if not self.affine:
                return first
            target = _reduced(total, rep)
            for j in itertools.islice(self.positions[c], k, None):
                if j > found:
                    break
                if _reduced(total, self.b_side[j][1]) != target:
                    found = j
                    break
        return found


def verify_cross_intersecting(fam: FamilyPair) -> VerifyReport:
    """Check the pair conditions; only i < j is constrained off-diagonal.

    Diagonal checks run first (i ascending), then the strict upper
    triangle in row-major order; the first violation is reported, with
    the pair checks made up to it.  Both kinds are decided on member
    classes (_MemberClasses): at most one sum per distinct (class of A_i,
    class of B_j) met, and a row of the triangle is walked per B class
    that may miss A_i, not per pair; the pair checks follow in closed
    form.  FamilyPair has checked the members' ambient space once.
    """
    classes = _MemberClasses(fam)
    m = fam.m
    violation, checks = None, m + m * (m - 1) // 2
    for i in range(m):
        if not classes.disjoint(i, i):
            violation, checks = (i + 1, i + 1, DIAGONAL_NONEMPTY), i + 1
            break
    else:
        for i in range(m):
            j = classes.first_disjoint(i)
            if j < m:
                # The diagonal, the rows before i, then (i, i+1) .. (i, j).
                checks = m + i * (m - 1) - i * (i - 1) // 2 + j - i
                violation = (i + 1, j + 1, OFFDIAGONAL_EMPTY)
                break
    return VerifyReport(violation is None, violation, checks, classes.solves)


# ---------------------------------------------------------------------------
# Constructions.

def construct_extremal_affine(n: int, field: Field) -> FamilyPair:
    """The size-2t family over the t hyperplanes of F_q^n.

    For each hyperplane H (canonical order) take s, the smallest vector
    outside H; the pairs are (H, H+s) for every H, then (H+s, H).  H and
    H+s are the first two cosets of H (s = e_j, j the last h_j != 0).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    first_half = []
    second_half = []
    for hyperplane in enumerate_hyperplanes(Space(field, n)):
        base, shifted = itertools.islice(cosets(hyperplane.kernel()), 2)
        first_half.append((base, shifted))
        second_half.append((shifted, base))
    return FamilyPair(AFFINE, field, n, tuple(first_half + second_half))


def construct_lower_bound_affine(n: int, field: Field) -> FamilyPair:
    """The first half of the extremal construction: t pairs (H, H+s)."""
    full = construct_extremal_affine(n, field)
    return FamilyPair(AFFINE, field, n, full.pairs[: full.m // 2])


def check_affine_bound(fam: FamilyPair) -> bool:
    """m <= 2 (q^n - 1)/(q - 1); requires a verified affine family."""
    if fam.kind != AFFINE:
        raise ValueError("bound check applies to affine families")
    report = verify_cross_intersecting(fam)
    if not report.ok:
        raise FamilyViolation(report.violation)
    q = fam.field.q
    return fam.m <= 2 * (q ** fam.n - 1) // (q - 1)


# ---------------------------------------------------------------------------
# Family file format (canonical JSON, deterministic key order):
# {version, kind, field: {p, k, modulus}, n, point_order, pairs: [{A, B}]}

def _parts(kind: str, member) -> tuple[tuple[int, ...], tuple]:
    """(rep, rows) of a member as a file holds them; () for no rep."""
    if kind == AFFINE:
        return member.rep, member.direction.basis
    return (), member.lin.basis


def _member_dict(kind: str, rep, rows) -> dict:
    """A member's object in a file, from its (rep, rows)."""
    rows = [list(r) for r in rows]
    return {"rep": list(rep), "dir": rows} if kind == AFFINE else {"lin": rows}


def _int(value, what: str) -> int:
    # bool is a subclass of int, but JSON true/false are not numbers here.
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    return tuple(_int(c, f"{what} entry") for c in _list(value, what))


def _vectors(values, what: str, space: Space) -> list[tuple[int, ...]]:
    """The given JSON values as vectors of the space.  One pass per value
    accepts a list of n entries of type int in [0, q).  A defect sends
    every value through the checks one at a time, types of all entries
    first, then each vector's length and entries, so the message names
    the defect those checks meet first."""
    n, q = space.n, space.q
    for v in values:
        if isinstance(v, list) and len(v) == n:
            for c in v:
                if type(c) is not int or not 0 <= c < q:
                    break
            else:
                continue  # v is a vector of the space
        checked = [_ints(value, what) for value in values]
        return [space.check_vector(vector) for vector in checked]
    return [tuple(v) for v in values]


def _rows(space: Space, values, what: str, spans: dict):
    """The span of a member's rows, one Subspace per distinct row list of
    a file.  The key is formed from the checked vectors: 1.0 and True
    hash equal to 1, so a key of the raw values could skip a check."""
    rows = tuple(_vectors(_list(values, what), f"{what} row", space))
    span = spans.get(rows)
    if span is None:
        span = spans[rows] = _span(space, rows)
    return span


def _affine_member(space: Space, data, spans: dict) -> AffineFlat:
    data = _object(data, "family member")
    direction = _rows(space, data["dir"], "dir", spans)
    return _flat(direction, _vectors([data["rep"]], "rep", space)[0])


def _projective_member(space: Space, data, spans: dict) -> ProjectiveSubspace:
    data = _object(data, "family member")
    return ProjectiveSubspace(_rows(space, data["lin"], "lin", spans))


def _header(fam: FamilyPair) -> dict:
    return {
        "version": FILE_VERSION,
        "kind": fam.kind,
        "field": {"p": fam.field.p, "k": fam.field.k,
                  "modulus": list(fam.field.modulus)},
        "n": fam.n,
        "point_order": POINT_ORDER_TAG,
    }


def family_to_dict(fam: FamilyPair) -> dict:
    kind = fam.kind
    return {**_header(fam),
            "pairs": [{"A": _member_dict(kind, *_parts(kind, a)),
                       "B": _member_dict(kind, *_parts(kind, b))} for a, b in fam.pairs]}


def family_from_dict(data) -> FamilyPair:
    """Parse a family file's JSON value; any malformed input is a ValueError."""
    if not isinstance(data, dict):
        raise ValueError("not a family file: top level must be an object")
    try:
        version = _int(data["version"], "version")
        if version != FILE_VERSION:
            raise ValueError(f"unsupported family file version {version!r}")
        if data.get("point_order") != POINT_ORDER_TAG:
            raise ValueError(f"unsupported point order {data.get('point_order')!r}")
        kind = data["kind"]
        if kind not in (AFFINE, PROJECTIVE):
            raise ValueError(f"unknown family kind {kind!r}")
        fd = _object(data["field"], "field")
        field = Field(_int(fd["p"], "p"), _int(fd["k"], "k"), _ints(fd["modulus"], "modulus"))
        n = _int(data["n"], "n")
        entries = _list(data["pairs"], "pairs")
        pairs = []
        if entries:
            # Space rejects a bad n here; without pairs, FamilyPair does,
            # with its own message.
            space = Space(field, n if kind == AFFINE else n + 1)
            member = _affine_member if kind == AFFINE else _projective_member
            spans = {}
            for entry in entries:
                entry = _object(entry, "pair")
                pairs.append((member(space, entry["A"], spans),
                              member(space, entry["B"], spans)))
    except KeyError as exc:
        raise ValueError(f"family file is missing key {exc}") from exc
    return FamilyPair(kind, field, n, tuple(pairs))


@functools.cache
def _pair_template(kind: str, length: int, a_rows: int, b_rows: int) -> str:
    """A pair's text in a file, with one %d per entry of A's rep and rows,
    then B's: json.dumps(..., indent=2) of the pair with every entry 0,
    each line indented 4 spaces to the pairs list (the encoder indents
    by nesting depth), then each 0 made a %d.  No key contains a 0 and
    no text a %, so only the entries change.  Every vector of a file has
    the same length, so the text depends only on the row counts."""
    zero = (0,) * length
    pair = {"A": _member_dict(kind, zero, [zero] * a_rows),
            "B": _member_dict(kind, zero, [zero] * b_rows)}
    text = json.dumps(pair, indent=2).replace("\n", "\n    ")
    return "    " + text.replace("0", "%d")


def dump_family(fam: FamilyPair) -> str:
    """The file text: the bytes of json.dumps(family_to_dict(fam),
    indent=2) plus a newline.  Each pair fills the template of its shape,
    which json.dumps renders once per shape (_pair_template), so the
    entries skip the pure-Python encoder."""
    kind, length = fam.kind, fam.ambient.n
    texts = []
    for a, b in fam.pairs:
        (rep_a, rows_a), (rep_b, rows_b) = _parts(kind, a), _parts(kind, b)
        template = _pair_template(kind, length, len(rows_a), len(rows_b))
        texts.append(template % (*rep_a, *itertools.chain(*rows_a),
                                 *rep_b, *itertools.chain(*rows_b)))
    pairs = "[\n" + ",\n".join(texts) + "\n  ]" if texts else "[]"
    head = json.dumps(_header(fam), indent=2)[:-2]  # all but the closing "\n}"
    return f'{head},\n  "pairs": {pairs}\n}}\n'


def load_family(text: str) -> FamilyPair:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a family file: {exc}") from exc
    except RecursionError:
        raise ValueError("not a family file: JSON nested too deeply") from None
    return family_from_dict(data)
