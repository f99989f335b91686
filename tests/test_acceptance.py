"""Acceptance suite: one test per exit criterion, exact values, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS/FAIL verdict per criterion.
"""

import itertools
import json
import random
import time

from crossflats.certify import certify_projective_bound
from crossflats.cli import main
from crossflats.families import (
    AFFINE,
    PROJECTIVE,
    FamilyPair,
    construct_extremal_affine,
    verify_cross_intersecting,
)
from crossflats.field import Field, make_field
from crossflats.geometry import (
    char_vector,
    enumerate_flats,
    enumerate_projective_points,
    flats_disjoint,
    gaussian_point_count,
    ProjectiveSubspace,
)
from crossflats.linalg import (
    Space,
    enumerate_hyperplanes,
    enumerate_subspaces,
    subspace_sum,
)
from crossflats.search import candidates_affine, candidates_projective, max_family
from oracles import flat_points, span_points

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)

FIELD_BY_Q = {2: GF2, 3: GF3, 4: GF4}


def _verdict(number: int, name: str, failures: list, elapsed: float):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s)")
    assert not failures, failures


def test_criterion_1_extremal_construction_exactness():
    cases = {(1, 2): 2, (2, 2): 6, (3, 2): 14, (4, 2): 30,
             (2, 3): 8, (3, 3): 26, (1, 4): 2}
    failures = []
    start = time.perf_counter()
    for (n, q), want in cases.items():
        t0 = time.perf_counter()
        fam = construct_extremal_affine(n, FIELD_BY_Q[q])
        ok = verify_cross_intersecting(fam).ok
        dt = time.perf_counter() - t0
        if fam.m != want or fam.m != 2 * (q ** n - 1) // (q - 1):
            failures.append(f"(n={n}, q={q}): m={fam.m}, expected {want}")
        if not ok:
            failures.append(f"(n={n}, q={q}): family does not verify")
        if dt >= 1.0:
            failures.append(f"(n={n}, q={q}): took {dt:.2f}s, limit 1s")
    _verdict(1, "extremal-construction-exactness", failures,
             time.perf_counter() - start)


def test_criterion_2_restricted_search_reaches_the_bound():
    cases = {(1, 2): 2, (2, 2): 6, (3, 2): 14, (2, 3): 8}
    failures = []
    start = time.perf_counter()
    for (n, q), want in cases.items():
        t0 = time.perf_counter()
        cands = candidates_affine(n, FIELD_BY_Q[q], restricted=True)
        report = max_family(cands)
        dt = time.perf_counter() - t0
        if report.max_size != want:
            failures.append(f"(n={n}, q={q}): max {report.max_size}, expected {want}")
        if dt >= 10.0:
            failures.append(f"(n={n}, q={q}): took {dt:.2f}s, limit 10s")
    _verdict(2, "restricted-search-upper-bound", failures,
             time.perf_counter() - start)


def test_criterion_3_unrestricted_search_validates_the_reduction():
    # The parenthetical oracle values: 6 at (2,2); at (1,3) the brute force
    # confirms 2 (= the proven maximum 2(q^n - 1)/(q - 1)), and restricted
    # and unrestricted searches agree at both instances.
    failures = []
    start = time.perf_counter()
    for n, q in [(2, 2), (1, 3)]:
        field = FIELD_BY_Q[q]
        restricted = max_family(candidates_affine(n, field, restricted=True))
        unrestricted = max_family(candidates_affine(n, field, restricted=False))
        want = 2 * (q ** n - 1) // (q - 1)
        if unrestricted.max_size != restricted.max_size:
            failures.append(
                f"(n={n}, q={q}): unrestricted {unrestricted.max_size} != "
                f"restricted {restricted.max_size}")
        if unrestricted.max_size != want:
            failures.append(
                f"(n={n}, q={q}): max {unrestricted.max_size}, expected {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, limit 60s")
    _verdict(3, "wlog-reduction-validation", failures, elapsed)


def _search_family_battery(n: int, field):
    """Verified projective families found by search: the full-candidate
    witness, witnesses over seeded random candidate subsets, and every
    prefix of each (prefixes of verified families stay verified)."""
    cands = candidates_projective(n, field)
    by_id = {c.id: c for c in cands}
    full = max_family(cands)
    witnesses = [full.witness]
    rng = random.Random(1000 + n)
    for _ in range(8):
        size = rng.randrange(1, len(cands) + 1)
        subset = [cands[i] for i in sorted(rng.sample(range(len(cands)), size))]
        witnesses.append(max_family(subset).witness)
    families = []
    for witness in witnesses:
        pairs = tuple((by_id[i].A, by_id[i].B) for i in witness)
        for cut in range(len(pairs) + 1):
            families.append(FamilyPair(PROJECTIVE, field, n, pairs[:cut]))
    return full, families


def test_criterion_4_projective_certificates():
    failures = []
    start = time.perf_counter()

    full_12, families_12 = _search_family_battery(1, GF2)
    if full_12.max_size != 2 ** (1 + 1) - 2:
        failures.append(f"PG(1,2) max {full_12.max_size}, expected 2")

    full_22, families_22 = _search_family_battery(2, GF2)
    t_22 = (2 ** 3 - 1) // (2 - 1)
    if full_22.max_size > t_22 - 1:
        failures.append(f"PG(2,2) max {full_22.max_size} exceeds bound {t_22 - 1}")

    for fam in families_12 + families_22:
        if not verify_cross_intersecting(fam).ok:
            failures.append(f"battery family of size {fam.m} does not verify")
            continue
        report = certify_projective_bound(fam)
        if report.rank != fam.m + 2 or not report.independent:
            failures.append(f"rank {report.rank} != m+2 at m={fam.m}, n={fam.n}")
        if not report.evaluation_table_ok:
            failures.append(f"evaluation identities fail at m={fam.m}, n={fam.n}")
        if not report.bound_confirmed:
            failures.append(f"bound not confirmed at m={fam.m}, n={fam.n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.2f}s, limit 120s")
    _verdict(4, "projective-rank-certificates", failures, elapsed)


def test_criterion_5_property_suites():
    failures = []
    start = time.perf_counter()

    # field axioms, exhaustive for every prime power q <= 9
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        f = Field(p, k)
        elems = list(f.elements())
        for a, b, c in itertools.product(elems, repeat=3):
            if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)) or \
               f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)) or \
               f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                failures.append(f"axiom failure in GF({f.q})")
                break
        for a in elems:
            if f.add(a, f.neg(a)) != 0 or (a and f.mul(a, f.inv(a)) != 1):
                failures.append(f"inverse failure in GF({f.q})")

    # dimension formula on every subspace pair of GF(2)^3 and GF(3)^2,
    # the intersection counted in points: q^dim(U+V) |U ∩ V| = q^(dim U + dim V)
    for space in (Space(GF2, 3), Space(GF3, 2)):
        subs = list(enumerate_subspaces(space))
        for u, v in itertools.product(subs, repeat=2):
            meet = span_points(u) & span_points(v)
            if space.q ** subspace_sum(u, v).dim * len(meet) != space.q ** (u.dim + v.dim):
                failures.append(f"dimension formula fails in {space}")

    # affine disjointness against the point-set oracle, exhaustively
    for space in (Space(GF2, 2), Space(GF2, 3)):
        flats = list(enumerate_flats(space))
        for a, b in itertools.product(flats, repeat=2):
            if flats_disjoint(a, b) != (not flat_points(a) & flat_points(b)):
                failures.append(f"flats_disjoint mismatch in {space}")

    # hyperplane counts
    for q, n in itertools.product((2, 3, 4), (1, 2, 3, 4)):
        hyps = enumerate_hyperplanes(Space(FIELD_BY_Q[q], n))
        if len(hyps) != (q ** n - 1) // (q - 1):
            failures.append(f"hyperplane count wrong at (n={n}, q={q})")

    # incidence-vector support sizes in PG(2,2)
    points = enumerate_projective_points(2, GF2)
    for sub in enumerate_subspaces(Space(GF2, 3)):
        member = ProjectiveSubspace(sub)
        if sum(char_vector(member, points)) != gaussian_point_count(sub.dim, GF2):
            failures.append(f"char support mismatch at lin dim {sub.dim}")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, limit 30s")
    _verdict(5, "property-suites", failures, elapsed)


def test_criterion_6_cli_round_trip_and_exit_codes(tmp_path, capsys):
    failures = []
    start = time.perf_counter()

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # criterion-1 family fixtures: construct, verify, reparse identically
    for n, q in [(1, "2"), (2, "2"), (3, "2"), (4, "2"),
                 (2, "3"), (3, "3"), (1, "4")]:
        path = tmp_path / f"fam_{n}_{q.replace('^', 'e')}.json"
        code, _, _ = run("construct", "--n", str(n), "--q", q, "--out", str(path))
        if code != 0:
            failures.append(f"construct (n={n}, q={q}) exited {code}")
            continue
        code, _, _ = run("verify", str(path))
        if code != 0:
            failures.append(f"verify (n={n}, q={q}) exited {code}")
        first = path.read_text()
        code, _, _ = run("construct", "--n", str(n), "--q", q, "--out", str(path))
        if path.read_text() != first:
            failures.append(f"construct (n={n}, q={q}) output not stable")

    # one corrupted family per violation class
    base = json.loads((tmp_path / "fam_2_2.json").read_text())
    diagonal = json.loads(json.dumps(base))
    diagonal["pairs"][0]["B"] = diagonal["pairs"][0]["A"]
    (tmp_path / "diagonal.json").write_text(json.dumps(diagonal))
    code, out, _ = run("verify", str(tmp_path / "diagonal.json"), "--format", "json")
    if code != 1 or json.loads(out)["violation"]["reason"] != "diagonal_nonempty":
        failures.append("diagonal fixture: wrong exit code or reason")

    offdiag = json.loads(json.dumps(base))
    offdiag["pairs"] = [offdiag["pairs"][0], offdiag["pairs"][0]]
    (tmp_path / "offdiag.json").write_text(json.dumps(offdiag))
    code, out, _ = run("verify", str(tmp_path / "offdiag.json"), "--format", "json")
    if code != 1 or json.loads(out)["violation"]["reason"] != "offdiagonal_empty":
        failures.append("offdiagonal fixture: wrong exit code or reason")

    # certification exit codes on a projective witness
    witness = tmp_path / "pg12.json"
    code, _, _ = run("search", "--n", "1", "--q", "2", "--kind", "projective",
                     "--out", str(witness))
    if code != 0:
        failures.append(f"search exited {code}")
    code, _, _ = run("certify", str(witness))
    if code != 0:
        failures.append(f"certify exited {code}")

    # usage error and budget exhaustion
    if run("construct", "--n", "2", "--q", "6")[0] != 2:
        failures.append("usage error did not exit 2")
    if run("search", "--n", "2", "--q", "2", "--kind", "affine",
           "--restricted", "--budget", "2")[0] != 3:
        failures.append("budget exhaustion did not exit 3")

    elapsed = time.perf_counter() - start
    _verdict(6, "cli-round-trip-and-exit-codes", failures, elapsed)
