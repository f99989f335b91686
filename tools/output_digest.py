"""One SHA-256 digest per crossflats command on a fixed instance list.

Runs ``construct``, ``verify`` (text and JSON), ``certify`` and
``search`` in-process through ``crossflats.cli.main``, and prints one line
per op: the digest of its exit code, stdout, stderr and the file it
writes, then the op's arguments.  Two trees produce the same outputs on
these instances iff their digest lists are equal, so comparing two trees
is one ``diff``:

    python tools/output_digest.py > new.txt
    python tools/output_digest.py --src OTHER/src > old.txt
    diff old.txt new.txt

``tools/output_digest.txt`` holds the digests of this tree, and a tier-1
test and CI check that the tool reproduces them (``--check``), so a
change that is meant to alter an output edits that file in its own diff.
A few usage errors print other bytes on some Python patch releases,
because argparse's own messages changed there; the digests such a
release prints are listed in ``tools/output_digest_alternates.txt``.
``--check`` passes a line only if it equals its reference line or an
alternate listed for the same op, and exits 1 otherwise, printing each
line that matched neither.

Instances (``--only NAME`` picks some):

* ``readme``: the commands of the README's CLI section;
* ``usage``: top-level and per-command help, and usage errors (missing,
  bad, abbreviated and unknown options, leftover arguments), with
  ``COLUMNS=80`` so help wraps the same on every terminal;
* ``ag-2-2``, ``ag-3-4``, ``ag-4-3``, ``ag-4-5``: the extremal family,
  then verify and certify on it, on a seeded shuffle of it, and with a
  planted diagonal and a planted off-diagonal violation;
* ``mixed-ag-3-2``: a seeded family of points, lines and planes of
  AG(3,2) that verifies, and the same family with a planted off-diagonal
  violation, whose ``eliminations`` depend on which direction pairs are
  solved before the violation is met;
* ``frame-pg-4-2``: the frame family of PG(4,2), the pairs
  (<e_S>, <e_S^c>) over the nonempty proper coordinate sets S by
  decreasing |S|, verified and certified, and the same family with a
  planted off-diagonal violation;
* ``search-*``: seven exhaustive searches, each writing its witness, which
  is then verified and, when projective, certified.  Among them are
  restricted AG(3,3) (13 co-component blocks), unrestricted AG(2,4) (an
  extension field) and PG(3,2) (1,850 candidates in one block).

Family files given as arguments are verified (text and JSON) and
certified as well.  ``--mask KEY`` drops every output line that starts
with ``KEY:`` or ``"KEY":`` before digesting, for a counter that is
meant to change (``--mask eliminations``).  Only the standard library and
crossflats are imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import sys
import tempfile
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tools", "output_digest.txt")
ALTERNATES = os.path.join(ROOT, "tools", "output_digest_alternates.txt")

README = [
    ["construct", "--n", "2", "--q", "2", "--out", "fam.json"],
    ["construct", "--n", "2", "--q", "3", "--lower-bound"],
    ["verify", "fam.json"],
    ["search", "--n", "2", "--q", "2", "--kind", "affine", "--restricted", "--format", "json"],
    ["search", "--n", "1", "--q", "2", "--kind", "projective", "--out", "witness.json"],
    ["certify", "witness.json", "--emit-matrix"],
    ["hyperplanes", "--n", "3", "--q", "2"],
    ["points", "--n", "2", "--q", "2"],
]
USAGE = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["--", "verify", "x"],
    *([command, "-h"] for command in
      ("construct", "verify", "certify", "search", "hyperplanes", "points")),
    ["nonsense"], ["construct", "--q", "2"], ["verify"], ["search", "--n", "2", "--q", "2"],
    ["verify", "x", "--format", "xml"], ["search", "--n", "2", "--q", "2", "--kind", "both"],
    ["verify", "x", "--form", "json"],
    ["search", "--n", "1", "--q", "2", "--kind", "projective", "--max-c", "5"],
    ["verify", "x", "--bogus"], ["verify", "x", "y"], ["construct", "--n", "x", "--q", "2"],
    ["search", "--n", "2", "--q", "2", "--kind", "affine", "--budget", "-1"],
]
EXTREMAL = {"ag-2-2": (2, 2), "ag-3-4": (3, 4), "ag-4-3": (4, 3), "ag-4-5": (4, 5)}
MIXED = {"mixed-ag-3-2": (3, 2)}
FRAMES = {"frame-pg-4-2": (4, 2)}
SEARCHES = {
    "search-affine-restricted-2-5": ("affine", True, 2, 5),
    "search-projective-2-3": ("projective", False, 2, 3),
    "search-affine-2-3": ("affine", False, 2, 3),
    "search-projective-2-2": ("projective", False, 2, 2),
    "search-affine-restricted-3-3": ("affine", True, 3, 3),
    "search-affine-2-4": ("affine", False, 2, 4),
    "search-projective-3-2": ("projective", False, 3, 2),
}
INSTANCES = ["readme", "usage", *EXTREMAL, *MIXED, *SEARCHES, *FRAMES]


def _checks(path: str) -> list[list[str]]:
    """verify in both formats and certify in JSON, on one family file."""
    return [["verify", path], ["verify", path, "--format", "json"],
            ["certify", path, "--format", "json"]]


def _write(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


class Digester:
    """Runs ops in the current directory and keeps a digest line for each."""

    def __init__(self, main, masks):
        self.main = main
        self.lines = []
        self.mask = re.compile(
            "^\\s*(" + "|".join(re.escape(k) + ":|\"" + re.escape(k) + "\":" for k in masks)
            + ").*\\n?", re.MULTILINE) if masks else None

    def run(self, argv: list[str]):
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.main(list(argv))
        written = None
        if out is not None and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                written = fh.read()
        texts = [stdout.getvalue(), stderr.getvalue()]
        if self.mask is not None:
            texts = [self.mask.sub("", text) for text in texts]
        payload = json.dumps([code, *texts, written])
        self.lines.append(f"{hashlib.sha256(payload.encode()).hexdigest()}  {' '.join(argv)}")

    def extremal(self, name: str, n: int, q: int):
        built = f"{name}.json"
        self.run(["construct", "--n", str(n), "--q", str(q), "--out", built])
        with open(built, encoding="utf-8") as fh:
            doc = json.load(fh)
        rng = random.Random(f"{name} shuffle")
        pairs = doc["pairs"]
        shuffled = rng.sample(pairs, len(pairs))
        k = rng.randrange(len(pairs))
        diagonal = [dict(p) for p in shuffled]
        diagonal[k]["B"] = diagonal[k]["A"]
        i, j = sorted(rng.sample(range(len(pairs)), 2))
        offdiagonal = list(shuffled)
        offdiagonal[j] = offdiagonal[i]
        files = [built]
        for suffix, variant in (("shuffled", shuffled), ("diagonal", diagonal),
                                ("offdiagonal", offdiagonal)):
            files.append(f"{name}-{suffix}.json")
            _write(files[-1], {**doc, "pairs": variant})
        for path in files:
            for argv in _checks(path):
                self.run(argv)

    def mixed(self, name: str, n: int, q: int):
        """Grows pairs of disjoint flats of dimension < n, each B meeting
        every earlier A, then repeats pair i at j > i."""
        from crossflats.field import make_field
        from crossflats.geometry import flats_disjoint, make_flat
        from crossflats.linalg import Space, rref

        built = f"{name}.json"
        self.run(["construct", "--n", str(n), "--q", str(q), "--out", built])
        with open(built, encoding="utf-8") as fh:
            doc = json.load(fh)
        space = Space(make_field(q), n)
        rng = random.Random(f"{name} family")

        def flat():
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(n))]
            return make_flat([rng.randrange(q) for _ in range(n)], rref(space, rows))

        flats = [flat() for _ in range(100)]
        pairs = []
        for _ in range(3000):
            a, b = rng.choice(flats), rng.choice(flats)
            if flats_disjoint(a, b) and not any(flats_disjoint(prev, b) for prev, _ in pairs):
                pairs.append((a, b))
                if len(pairs) == 12:
                    break
        members = [{"A": {"rep": list(a.rep), "dir": [list(r) for r in a.direction.basis]},
                    "B": {"rep": list(b.rep), "dir": [list(r) for r in b.direction.basis]}}
                   for a, b in pairs]
        i, j = sorted(rng.sample(range(len(pairs)), 2))
        planted = members[:j] + [members[i]] + members[j + 1:]
        for suffix, variant in (("grown", members), ("offdiagonal", planted)):
            path = f"{name}-{suffix}.json"
            _write(path, {**doc, "pairs": variant})
            for argv in _checks(path):
                self.run(argv)

    def frame(self, name: str, n: int, q: int):
        """Writes the frame family of PG(n, q) over a prime q, then
        repeats pair i at j > i."""
        from crossflats.families import PROJECTIVE, FamilyPair, dump_family
        from crossflats.field import make_field
        from crossflats.geometry import make_projective_subspace

        field, coords = make_field(q), range(n + 1)

        def span(subset):
            rows = [[int(c == k) for c in coords] for k in subset]
            return make_projective_subspace(n, field, rows)

        pairs = [(span(s), span([k for k in coords if k not in s]))
                 for size in range(n, 0, -1) for s in itertools.combinations(coords, size)]
        doc = json.loads(dump_family(FamilyPair(PROJECTIVE, field, n, tuple(pairs))))
        i, j = sorted(random.Random(f"{name} offdiagonal").sample(range(len(pairs)), 2))
        members = doc["pairs"]
        planted = members[:j] + [members[i]] + members[j + 1:]
        for suffix, variant in (("", members), ("-offdiagonal", planted)):
            path = f"{name}{suffix}.json"
            _write(path, {**doc, "pairs": variant})
            for argv in _checks(path):
                self.run(argv)

    def search(self, name: str, kind: str, restricted: bool, n: int, q: int):
        witness = f"{name}.json"
        argv = ["search", "--kind", kind, "--n", str(n), "--q", str(q),
                "--format", "json", "--out", witness]
        if restricted:
            argv.append("--restricted")
        self.run(argv)
        for argv in _checks(witness)[: 3 if kind == "projective" else 2]:
            self.run(argv)


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")]


def mismatches(lines: list[str], golden: list[str], alternates: list[str]) -> list[str]:
    """The lines of a full run that equal neither the reference line at
    their position nor an alternate line for the same op."""
    allowed = set(alternates)
    if [line.split("  ", 1)[1] for line in lines] != [line.split("  ", 1)[1] for line in golden]:
        return [f"the ops differ from {GOLDEN}"]
    return [line for line, reference in zip(lines, golden)
            if line != reference and line not in allowed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="family files to verify and certify too")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the crossflats package "
                             "(default: this repository's src)")
    parser.add_argument("--only", action="append", choices=INSTANCES, metavar="NAME",
                        help="run only this instance (repeatable): " + ", ".join(INSTANCES))
    parser.add_argument("--mask", action="append", default=[], metavar="KEY",
                        help="drop output lines of this key before digesting (repeatable)")
    parser.add_argument("--check", action="store_true",
                        help="compare a full run with the committed digests and "
                             "their alternates instead of printing it")
    args = parser.parse_args(argv)
    if args.check and (args.only or args.files or args.mask):
        parser.error("--check compares a full unmasked run: drop --only, --mask and the files")
    sys.path.insert(0, os.path.abspath(args.src))
    from crossflats.cli import main as crossflats_main

    digester = Digester(crossflats_main, args.mask)
    chosen = args.only or ([] if args.files else INSTANCES)
    sources = [os.path.abspath(path) for path in args.files]
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # every path an op sees or prints is relative
        try:
            for name in chosen:
                if name == "readme":
                    for op in README:
                        digester.run(op)
                elif name == "usage":
                    with mock.patch.dict(os.environ, COLUMNS="80"):
                        for op in USAGE:
                            digester.run(op)
                elif name in EXTREMAL:
                    digester.extremal(name, *EXTREMAL[name])
                elif name in MIXED:
                    digester.mixed(name, *MIXED[name])
                elif name in FRAMES:
                    digester.frame(name, *FRAMES[name])
                else:
                    digester.search(name, *SEARCHES[name])
            for index, source in enumerate(sources):
                local = f"file{index}-{os.path.basename(source)}"
                shutil.copyfile(source, local)
                for op in _checks(local):
                    digester.run(op)
        finally:
            os.chdir(start)
    if not args.check:
        for line in digester.lines:
            print(line)
        return 0
    wrong = mismatches(digester.lines, _read_lines(GOLDEN), _read_lines(ALTERNATES))
    for line in wrong:
        print(f"no reference or alternate: {line}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
