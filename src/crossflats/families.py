"""Cross-intersecting pair families: verification, constructions, file format.

A family is an ordered list of pairs (A_i, B_i) of nonempty affine flats
or projective subspaces.  It verifies when every A_i ∩ B_i is empty and
every A_i ∩ B_j with i < j is nonempty; the condition is one-directional,
so pair order matters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .field import Field
from .geometry import (
    AffineFlat,
    ProjectiveSubspace,
    flats_disjoint,
    make_flat,
    make_projective_subspace,
    projective_disjoint,
)
from .linalg import Space, contains, enumerate_hyperplanes, rref

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
    """ok, or the first violation as 1-based (i, j, reason)."""

    ok: bool
    violation: tuple[int, int, str] | None = None


def _disjoint(kind: str, a, b) -> bool:
    if kind == AFFINE:
        return flats_disjoint(a, b)
    return projective_disjoint(a, b)


def verify_cross_intersecting(fam: FamilyPair) -> VerifyReport:
    """Check the pair conditions; only i < j is constrained off-diagonal.

    Diagonal checks run first (i ascending), then the strict upper
    triangle in row-major order; the first violation is reported.
    """
    pairs = fam.pairs
    for i, (a, b) in enumerate(pairs):
        if not _disjoint(fam.kind, a, b):
            return VerifyReport(False, (i + 1, i + 1, DIAGONAL_NONEMPTY))
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if _disjoint(fam.kind, pairs[i][0], pairs[j][1]):
                return VerifyReport(False, (i + 1, j + 1, OFFDIAGONAL_EMPTY))
    return VerifyReport(True)


# ---------------------------------------------------------------------------
# Constructions.

def construct_extremal_affine(n: int, field: Field) -> FamilyPair:
    """The size-2t family over the t hyperplanes of F_q^n.

    For each hyperplane H (canonical order) fix the smallest vector s
    outside H; the pairs are (H, H+s) for every H, then (H+s, H).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    space = Space(field, n)
    first_half = []
    second_half = []
    for hyperplane in enumerate_hyperplanes(space):
        kernel = hyperplane.kernel()
        shift = next(v for v in space.vectors() if not contains(kernel, v))
        base = make_flat(space.zero(), kernel)
        shifted = make_flat(shift, kernel)
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
        raise ValueError(f"family does not verify: violation {report.violation}")
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


def _vector(value, what: str) -> tuple[int, ...]:
    return tuple(_int(c, f"{what} entry") for c in _list(value, what))


def _rows(value, what: str) -> list[tuple[int, ...]]:
    return [_vector(r, f"{what} row") for r in _list(value, what)]


def _member_from_dict(kind: str, field: Field, n: int, data):
    data = _object(data, "family member")
    if kind == AFFINE:
        direction = rref(Space(field, n), _rows(data["dir"], "dir"))
        return make_flat(_vector(data["rep"], "rep"), direction)
    return make_projective_subspace(n, field, _rows(data["lin"], "lin"))


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
    version = data.get("version")
    if version != FILE_VERSION:
        raise ValueError(f"unsupported family file version {version!r}")
    if data.get("point_order") != POINT_ORDER_TAG:
        raise ValueError(f"unsupported point order {data.get('point_order')!r}")
    try:
        kind = data["kind"]
        if kind not in (AFFINE, PROJECTIVE):
            raise ValueError(f"unknown family kind {kind!r}")
        fd = _object(data["field"], "field")
        field = Field(_int(fd["p"], "p"), _int(fd["k"], "k"),
                      _vector(fd["modulus"], "modulus"))
        n = _int(data["n"], "n")
        pairs = []
        for entry in _list(data["pairs"], "pairs"):
            entry = _object(entry, "pair")
            pairs.append((_member_from_dict(kind, field, n, entry["A"]),
                          _member_from_dict(kind, field, n, entry["B"])))
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
    return family_from_dict(data)
