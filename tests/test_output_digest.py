"""tools/output_digest.py: a smoke test on two of its instances, and the
full run against the committed digests in tools/output_digest.txt and
their alternates."""

import ast
import hashlib
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

from crossflats.families import construct_extremal_affine, dump_family
from crossflats.field import make_field

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_digest.py"
GOLDEN = ROOT / "tools" / "output_digest.txt"
SUBSET = ["--only", "ag-2-2", "--only", "search-projective-2-2"]


def run_tool(*options) -> str:
    done = subprocess.run([sys.executable, str(TOOL), *options],
                          capture_output=True, text=True, timeout=120, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def digest(*options):
    return [line.split("  ", 1) for line in run_tool(*SUBSET, *options).splitlines()]


def test_every_output_matches_the_committed_digests():
    """An intended change of any command's output edits the golden file."""
    assert run_tool("--check") == ""


def test_an_alternate_passes_only_in_place_of_its_own_op():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    golden, alternates = tool._read_lines(tool.GOLDEN), tool._read_lines(tool.ALTERNATES)
    ops = [line.split("  ", 1)[1] for line in golden]
    assert alternates and set(alternates).isdisjoint(golden)
    assert all(line.split("  ", 1)[1] in ops for line in alternates)
    assert tool.mismatches(golden, golden, alternates) == []

    for alternate in alternates:
        at = ops.index(alternate.split("  ", 1)[1])
        assert tool.mismatches([*golden[:at], alternate, *golden[at + 1:]],
                               golden, alternates) == []
        # elsewhere, or with another digest, it is a mismatch
        elsewhere = (at + 1) % len(golden)
        assert tool.mismatches([*golden[:elsewhere], alternate, *golden[elsewhere + 1:]],
                               golden, alternates) != []
        other = "0" * 64 + alternate[64:]
        assert tool.mismatches([*golden[:at], other, *golden[at + 1:]],
                               golden, alternates) == [other]


def test_digest_lines_are_stable_and_cover_every_op():
    lines = digest()
    assert all(re.fullmatch(r"[0-9a-f]{64}", sha) for sha, _ in lines)
    commands = [op.split()[0] for _, op in lines]
    # ag-2-2: construct, then verify twice and certify on 4 files;
    # the projective search: search, then verify twice and certify.
    assert commands.count("construct") == 1 and commands.count("search") == 1
    assert (commands.count("verify"), commands.count("certify")) == (10, 5)
    assert digest() == lines

    # The construct line digests exit code, stdout, stderr and the file.
    text = dump_family(construct_extremal_affine(2, make_field(2)))
    expected = hashlib.sha256(json.dumps([0, "", "", text]).encode()).hexdigest()
    assert lines[0] == [expected, "construct --n 2 --q 2 --out ag-2-2.json"]


def test_mask_changes_only_the_ops_that_print_the_key():
    plain, masked = digest(), digest("--mask", "eliminations")
    changed = {op for (sha, op), (other, _) in zip(plain, masked) if sha != other}
    assert changed == {op for _, op in plain if op.startswith("verify")}


def test_the_tool_imports_only_the_standard_library_and_crossflats():
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported - set(sys.stdlib_module_names) == {"crossflats"}
