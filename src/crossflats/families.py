"""Cross-intersecting pair families: verification, constructions, file format.

A family is an ordered list of pairs (A_i, B_i) of nonempty affine flats
or projective subspaces.  It verifies when every A_i ∩ B_i is empty and
every A_i ∩ B_j with i < j is nonempty; the condition is one-directional,
so pair order matters.

Verification is enumeration-free.  An affine family is checked on
direction classes: each distinct direction gets one annihilator, each
member its equation tags against it, and each distinct pair of
directions met at most one separator solve (see ``crossflats.geometry``),
after which a pair check is a few dot products.  Two distinct classes of
hyperplane cosets need no solve: their one-row annihilators are not
parallel, so the cosets always meet.  The paper's extremal family is made
of hyperplane cosets only, so it is solved on its same-direction pairs
alone.  A projective pair check is one rank test.

The file loader checks each vector of a file once, at the boundary: a
list of n entries (n + 1 in a projective file) of type int in [0, q).
It then builds the members from trusted parts, without the checks of the
public constructors.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .field import Field
from .geometry import (
    AffineFlat,
    ProjectiveSubspace,
    _flat,
    _separators,
    cosets,
    projective_disjoint,
)
from .linalg import Space, _span, annihilator, enumerate_hyperplanes, vec_dot

AFFINE = "affine"
PROJECTIVE = "projective"

DIAGONAL_NONEMPTY = "diagonal_nonempty"
OFFDIAGONAL_EMPTY = "offdiagonal_empty"

FILE_VERSION = 1
POINT_ORDER_TAG = "lex-first-nonzero-1"


@dataclass(frozen=True)
class FamilyPair:
    """Ordered pairs over a common ambient space.

    For kind "affine" the members live in F_q^n; for kind "projective"
    they live in PG(n, q), i.e. the linear space F_q^(n+1).  Members must
    be nonempty (a projective member needs proj_dim >= 0).
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
        ambient = self.ambient
        for a, b in self.pairs:
            for member in (a, b):
                if not isinstance(member, member_type):
                    raise ValueError(f"{self.kind} family holds a {type(member).__name__}")
                if member.space != ambient:
                    raise ValueError("family member from wrong ambient space")
                if self.kind == PROJECTIVE and member.is_empty():
                    raise ValueError("projective family members must be nonempty")

    @property
    def m(self) -> int:
        return len(self.pairs)

    @property
    def ambient(self) -> Space:
        dim = self.n if self.kind == AFFINE else self.n + 1
        return Space(self.field, dim)


@dataclass(frozen=True)
class VerifyReport:
    """ok, or the first violation as 1-based (i, j, reason).

    pair_checks counts the member pairs decided, the violating one
    included; eliminations counts the separator solves of an affine
    family or the rank tests of a projective one.
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


class _DirectionClasses:
    """A_i ∩ B_j = ∅ for the flats of an affine family, decided on their
    directions' classes.

    Each distinct direction gets a class number and one annihilator basis
    W; each member keeps its class and its tags W.rep, so its equations
    are [W | tags].  The separators of a pair of classes are found on
    first use and kept in one row per A class.

    Two distinct classes whose bases have one row each have no
    separators, with no solve.  Classes are keyed on the direction's
    basis, and the annihilator is a bijection on subspaces, so distinct
    classes have distinct one-dimensional annihilators, each spanned by
    its one normalized RREF row.  Two distinct normalized rows are
    linearly independent, so [w_A; w_B] has no left kernel: two
    non-parallel hyperplane cosets always meet.  Every other pair of
    classes, a class with itself included, is one separator solve, and
    ``solves`` counts those alone.
    """

    def __init__(self, fam: FamilyPair):
        self.space = fam.ambient
        self.classes = {}  # direction basis -> class number
        self.bases = []    # class number -> annihilator basis
        self.a_side = [self._tagged(a) for a, _ in fam.pairs]
        self.b_side = [self._tagged(b) for _, b in fam.pairs]
        self.rows = [None] * len(self.bases)  # A class -> [separators per B class]
        self.solves = 0

    def _tagged(self, flat: AffineFlat):
        number = self.classes.setdefault(flat.direction.basis, len(self.bases))
        if number == len(self.bases):
            self.bases.append(annihilator(flat.direction).basis)
        space = self.space
        return number, tuple(vec_dot(space, w, flat.rep) for w in self.bases[number])

    def disjoint(self, i: int, j: int) -> bool:
        a_class, a_tags = self.a_side[i]
        b_class, b_tags = self.b_side[j]
        row = self.rows[a_class]
        if row is None:
            row = self.rows[a_class] = [None] * len(self.bases)
        separators = row[b_class]
        if separators is None:
            left_a, left_b = self.bases[a_class], self.bases[b_class]
            if a_class != b_class and len(left_a) == 1 == len(left_b):
                separators = ()
            else:
                separators = _separators(self.space, left_a, left_b)
                self.solves += 1
            row[b_class] = separators
        if not separators:
            return False
        tags = a_tags + b_tags
        return any(vec_dot(self.space, y, tags) for y in separators)


def verify_cross_intersecting(fam: FamilyPair) -> VerifyReport:
    """Check the pair conditions; only i < j is constrained off-diagonal.

    Diagonal checks run first (i ascending), then the strict upper
    triangle in row-major order; the first violation is reported, with
    the pair checks made up to it.  An affine family is decided on its
    direction classes: at most one separator solve per distinct
    (dir A_i, dir B_j) met, not one elimination per pair.  FamilyPair
    has checked the members' ambient space once, so no pair check
    repeats that.
    """
    pairs = fam.pairs
    m = len(pairs)
    if fam.kind == AFFINE:
        classes = _DirectionClasses(fam)
        disjoint = classes.disjoint
    else:
        classes = None

        def disjoint(i, j):
            return projective_disjoint(pairs[i][0], pairs[j][1])
    checks = 0
    violation = None
    diagonal = ((i, i) for i in range(m))
    for i, j in itertools.chain(diagonal, itertools.combinations(range(m), 2)):
        checks += 1
        if disjoint(i, j) != (i == j):
            violation = (i + 1, j + 1, DIAGONAL_NONEMPTY if i == j else OFFDIAGONAL_EMPTY)
            break
    eliminations = checks if classes is None else classes.solves
    return VerifyReport(violation is None, violation, checks, eliminations)


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

def _member_to_dict(kind: str, member) -> dict:
    if kind == AFFINE:
        return {"rep": list(member.rep),
                "dir": [list(r) for r in member.direction.basis]}
    return {"lin": [list(r) for r in member.lin.basis]}


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


def _affine_member(space: Space, data) -> AffineFlat:
    data = _object(data, "family member")
    rows = _vectors(_list(data["dir"], "dir"), "dir row", space)
    return _flat(_span(space, rows), _vectors([data["rep"]], "rep", space)[0])


def _projective_member(space: Space, data) -> ProjectiveSubspace:
    data = _object(data, "family member")
    rows = _vectors(_list(data["lin"], "lin"), "lin row", space)
    return ProjectiveSubspace(_span(space, rows))


def family_to_dict(fam: FamilyPair) -> dict:
    return {
        "version": FILE_VERSION,
        "kind": fam.kind,
        "field": {"p": fam.field.p, "k": fam.field.k,
                  "modulus": list(fam.field.modulus)},
        "n": fam.n,
        "point_order": POINT_ORDER_TAG,
        "pairs": [{"A": _member_to_dict(fam.kind, a),
                   "B": _member_to_dict(fam.kind, b)} for a, b in fam.pairs],
    }


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
            for entry in entries:
                entry = _object(entry, "pair")
                pairs.append((member(space, entry["A"]), member(space, entry["B"])))
    except KeyError as exc:
        raise ValueError(f"family file is missing key {exc}") from exc
    return FamilyPair(kind, field, n, tuple(pairs))


def dump_family(fam: FamilyPair) -> str:
    return json.dumps(family_to_dict(fam), indent=2) + "\n"


def load_family(text: str) -> FamilyPair:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a family file: {exc}") from exc
    except RecursionError:
        raise ValueError("not a family file: JSON nested too deeply") from None
    return family_from_dict(data)
