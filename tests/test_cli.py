"""CLI grammar, exit codes, round trips, canonical JSON output."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from crossflats import certify as certify_module
from crossflats import cli as cli_module
from crossflats import families as families_module
from crossflats import field as field_module
from crossflats.cli import main, parse_prime_power
from crossflats.families import dump_family, load_family
from crossflats.field import MAX_ORDER, Field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prime_power():
    assert parse_prime_power("2") == Field(2)
    assert parse_prime_power("9") == Field(3, 2)
    assert parse_prime_power("2^3") == Field(2, 3)
    for bad in ("6", "1", "0", "x", "4^2^2", "2^0"):
        with pytest.raises(ValueError):
            parse_prime_power(bad)


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "fam.json"
    code, _, _ = run(capsys, "construct", "--n", "2", "--q", "2", "--out", str(out))
    assert code == 0
    text = out.read_text()
    fam = load_family(text)
    assert fam.m == 6
    assert dump_family(fam) == text  # reparse is value-identical

    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    # m = 6 pairs give 21 pair checks over 3 x 3 direction pairs; only the
    # 3 same-direction pairs are solved, since distinct lines always meet
    assert stdout.splitlines() == ["kind: affine", "m: 6", "ok: true",
                                   "pair_checks: 21", "eliminations: 3"]


def test_construct_lower_bound_to_stdout(capsys):
    code, stdout, _ = run(capsys, "construct", "--n", "2", "--q", "3", "--lower-bound")
    assert code == 0
    assert load_family(stdout).m == 4


def test_verify_exit_codes_on_corrupted_families(tmp_path, capsys):
    code, stdout, _ = run(capsys, "construct", "--n", "2", "--q", "2")
    data = json.loads(stdout)

    diagonal = json.loads(json.dumps(data))
    diagonal["pairs"][0]["B"] = diagonal["pairs"][0]["A"]
    bad1 = tmp_path / "diagonal.json"
    bad1.write_text(json.dumps(diagonal))
    code, stdout, _ = run(capsys, "verify", str(bad1), "--format", "json")
    assert code == 1
    report = json.loads(stdout)
    assert list(report) == ["ok", "m", "kind", "violation", "pair_checks", "eliminations"]
    assert report["ok"] is False
    assert report["violation"]["reason"] == "diagonal_nonempty"
    assert (report["violation"]["i"], report["violation"]["j"]) == (1, 1)
    assert (report["pair_checks"], report["eliminations"]) == (1, 1)

    offdiag = json.loads(json.dumps(data))
    offdiag["pairs"] = [offdiag["pairs"][0], offdiag["pairs"][0]]
    bad2 = tmp_path / "offdiag.json"
    bad2.write_text(json.dumps(offdiag))
    code, stdout, _ = run(capsys, "verify", str(bad2), "--format", "json")
    assert code == 1
    report = json.loads(stdout)
    assert report["violation"] == {"i": 1, "j": 2, "reason": "offdiagonal_empty"}
    # two diagonal checks, then (1, 2); all three on one direction pair
    assert (report["pair_checks"], report["eliminations"]) == (3, 1)


def test_construct_verify_round_trip_ag_4_5(tmp_path, capsys):
    out = tmp_path / "ag45.json"
    assert run(capsys, "construct", "--n", "4", "--q", "5", "--out", str(out))[0] == 0
    code, stdout, _ = run(capsys, "verify", str(out), "--format", "json")
    assert code == 0
    report = json.loads(stdout)
    m, t = 312, 156
    assert (report["ok"], report["m"]) == (True, m)
    assert report["pair_checks"] == m * (m + 1) // 2
    assert report["eliminations"] == t  # the same-direction pairs alone

    # Pair 40 repeated at 100: A_40 misses B_100 = B_40, and every earlier
    # check still meets, so (40, 100) is the first violation.
    data = json.loads(out.read_text())
    data["pairs"][99] = data["pairs"][39]
    bad = tmp_path / "planted.json"
    bad.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", str(bad))
    assert code == 1
    assert "violation: (40, 100) offdiagonal_empty" in stdout.splitlines()


def _count_verifies(monkeypatch):
    """Record every verify_cross_intersecting call, under each module's name."""
    calls = []
    verify = families_module.verify_cross_intersecting

    def counting(fam):
        calls.append(fam)
        return verify(fam)

    for module in (families_module, certify_module, cli_module):
        monkeypatch.setattr(module, "verify_cross_intersecting", counting)
    return calls


def test_search_and_certify_projective(tmp_path, capsys, monkeypatch):
    witness = tmp_path / "pg12.json"
    code, stdout, _ = run(capsys, "search", "--n", "1", "--q", "2",
                          "--kind", "projective", "--format", "json",
                          "--out", str(witness))
    assert code == 0
    report = json.loads(stdout)
    assert report["max_size"] == 2
    assert report["restricted"] is False

    code, stdout, _ = run(capsys, "verify", str(witness))
    assert code == 0

    verifies = _count_verifies(monkeypatch)
    code, stdout, _ = run(capsys, "certify", str(witness), "--format", "json",
                          "--emit-matrix")
    assert code == 0
    cert = json.loads(stdout)
    assert cert["bound_confirmed"] is True
    assert cert["rank"] == cert["m"] + 2
    assert len(cert["matrix"]) == cert["m"] + 2
    assert all(len(row) == cert["t"] + 1 for row in cert["matrix"])
    assert len(verifies) == 1  # one verify pass per certify command

    code, stdout, _ = run(capsys, "certify", str(witness))
    assert code == 0
    assert "bound_confirmed: true" in stdout
    assert len(verifies) == 2


def test_certify_rejects_affine_input(tmp_path, capsys):
    fam_file = tmp_path / "affine.json"
    run(capsys, "construct", "--n", "1", "--q", "2", "--out", str(fam_file))
    code, _, err = run(capsys, "certify", str(fam_file))
    assert code == 2
    assert "projective" in err


def test_certify_fails_on_unverified_family(tmp_path, capsys, monkeypatch):
    code, stdout, _ = run(capsys, "search", "--n", "1", "--q", "2",
                          "--kind", "projective", "--out", "-")
    # stdout holds the text report then the family JSON; rebuild the file
    family_text = stdout[stdout.index("{"):]
    data = json.loads(family_text)
    data["pairs"][0]["B"] = data["pairs"][0]["A"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    verifies = _count_verifies(monkeypatch)
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 1
    assert "does not verify" in err
    assert len(verifies) == 1


def test_search_text_output_and_exit_codes(capsys):
    code, stdout, _ = run(capsys, "search", "--n", "2", "--q", "2",
                          "--kind", "affine", "--restricted")
    assert code == 0
    assert "max_size: 6" in stdout

    code, _, err = run(capsys, "search", "--n", "2", "--q", "2",
                       "--kind", "affine", "--restricted", "--budget", "3")
    assert code == 3
    assert "budget" in err

    code, _, err = run(capsys, "search", "--n", "1", "--q", "2",
                       "--kind", "projective", "--restricted")
    assert code == 2

    code, _, err = run(capsys, "search", "--n", "2", "--q", "2",
                       "--kind", "affine", "--max-candidates", "3")
    assert code == 2
    assert "candidates" in err


def test_json_search_report_fields(capsys):
    code, stdout, _ = run(capsys, "search", "--n", "2", "--q", "3",
                          "--kind", "affine", "--restricted", "--format", "json")
    assert code == 0
    report = json.loads(stdout)
    assert report["max_size"] == 8
    assert len(report["witness"]) == 8
    assert report["restricted"] is True
    assert isinstance(report["nodes_explored"], int)
    assert report["blocks"] == 4  # one per hyperplane direction


def test_search_reports_its_block_count(capsys):
    code, stdout, _ = run(capsys, "search", "--n", "2", "--q", "5", "--kind", "affine",
                          "--restricted", "--format", "json")
    assert code == 0
    assert json.loads(stdout)["blocks"] == 6
    assert json.loads(stdout)["states"] == 42  # memo entries
    code, stdout, _ = run(capsys, "search", "--n", "2", "--q", "3", "--kind", "projective")
    assert code == 0
    assert "blocks: 1" in stdout.splitlines()
    assert "states: 68" in stdout.splitlines()


def test_hyperplanes_and_points_listings(capsys):
    code, stdout, _ = run(capsys, "hyperplanes", "--n", "2", "--q", "2",
                          "--format", "json")
    assert code == 0
    data = json.loads(stdout)
    assert data["count"] == 3
    assert data["normals"] == [[0, 1], [1, 0], [1, 1]]

    code, stdout, _ = run(capsys, "points", "--n", "1", "--q", "2")
    assert code == 0
    assert stdout.splitlines() == ["count: 3", "(1, 0)", "(0, 1)", "(1, 1)"]


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "16", "--q", "2"],
    ["construct", "--n", "16", "--q", "2", "--lower-bound"],
    ["hyperplanes", "--n", "16", "--q", "2"],
    ["construct", "--n", "8", "--q", "3"],
    ["hyperplanes", "--n", "5", "--q", "16"],
    ["hyperplanes", "--n", "2", "--q", "2^16"],
    ["construct", "--n", str(10 ** 9), "--q", "2"],
])
def test_construct_and_hyperplanes_bound_their_output_first(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before bounding the output")

    for name in ("enumerate_hyperplanes", "construct_extremal_affine",
                 "construct_lower_bound_affine"):
        monkeypatch.setattr(cli_module, name, refuse)
    start = time.perf_counter()
    code, stdout, stderr = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_every_construct_and_hyperplanes_instance_in_use_is_accepted(capsys, tmp_path):
    # The instances of the tests, the README and the benchmark workloads.
    for n, q in [(1, "2"), (2, "2"), (3, "2"), (4, "2"), (6, "2"), (2, "3"), (3, "3"),
                 (4, "3"), (1, "4"), (2, "4"), (3, "4"), (2, "5"), (3, "8")]:
        out = str(tmp_path / f"fam_{n}_{q}.json")
        assert run(capsys, "construct", "--n", str(n), "--q", q, "--out", out)[0] == 0
        assert run(capsys, "construct", "--n", str(n), "--q", q, "--lower-bound")[0] == 0
    for n, q in [(2, "2"), (3, "2")]:
        assert run(capsys, "hyperplanes", "--n", str(n), "--q", q)[0] == 0


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "construct", "--n", "2", "--q", "6")[0] == 2
    assert run(capsys, "construct", "--q", "2")[0] == 2       # missing --n
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{\"version\": 99}")
    assert run(capsys, "verify", str(junk))[0] == 2


def _set(path, value):
    def corrupt(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return corrupt


def _pair_as_list(data):
    data["pairs"][0] = [data["pairs"][0]["A"], data["pairs"][0]["B"]]


@pytest.mark.parametrize("corrupt", [
    _set(["n"], "2"),
    _set(["field"], None),
    _set(["pairs"], 3),
    _pair_as_list,
    _set(["pairs", 0, "A", "rep"], [True, False]),
    _set(["version"], True),
    _set(["version"], 1.0),
], ids=["n-string", "field-null", "pairs-int", "pair-list", "rep-bools", "version-true",
        "version-float"])
def test_malformed_family_files_exit_2(tmp_path, capsys, corrupt):
    _, stdout, _ = run(capsys, "construct", "--n", "2", "--q", "2")
    data = json.loads(stdout)
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["verify", "certify"])
def test_deeply_nested_family_file_exits_2(tmp_path, capsys, command):
    # json.loads raises RecursionError here, not JSONDecodeError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("option", ["--budget", "--max-candidates"])
def test_negative_budget_and_cap_are_usage_errors(capsys, option):
    code, _, err = run(capsys, "search", "--n", "2", "--q", "2",
                       "--kind", "affine", option, "-1")
    assert code == 2
    assert "must be >= 0" in err


def test_zero_budget_is_exceeded_not_rejected(capsys):
    code, _, err = run(capsys, "search", "--n", "2", "--q", "2",
                       "--kind", "affine", "--budget", "0")
    assert code == 3
    assert "node budget of 0" in err


@pytest.mark.parametrize("kind,n,q", [("projective", 10 ** 8, "2"), ("affine", 10 ** 9, "3")])
def test_huge_search_dimension_exits_2_at_once(capsys, kind, n, q):
    start = time.perf_counter()
    code, stdout, err = run(capsys, "search", "--kind", kind, "--n", str(n), "--q", q)
    assert time.perf_counter() - start < 1
    assert code == 2 and stdout == ""
    assert err == "error: instance yields more than 5000 candidates\n"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("argv", [
    ["construct", "--n", "2", "--q", "2"],
    ["search", "--n", "2", "--q", "2", "--kind", "affine", "--restricted"],
], ids=["construct", "search"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


HUGE_PRIME = 1000000000000000003


def _refuse_unbounded_work(monkeypatch):
    """Make a primality test or factor search on any order fail the test."""
    def refuse(n):
        raise AssertionError(f"unbounded work on {n}")

    monkeypatch.setattr(field_module, "is_prime", refuse)
    monkeypatch.setattr(cli_module, "prime_factors", refuse)


def test_oversized_field_in_a_family_file_exits_2(tmp_path, capsys, monkeypatch):
    _, stdout, _ = run(capsys, "construct", "--n", "1", "--q", "2")
    data = json.loads(stdout)
    data["field"]["p"] = HUGE_PRIME
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    _refuse_unbounded_work(monkeypatch)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize("q", [str(HUGE_PRIME), "2^1000000000"])
def test_oversized_field_order_exits_2(capsys, monkeypatch, q):
    _refuse_unbounded_work(monkeypatch)
    code, _, err = run(capsys, "construct", "--n", "1", "--q", q)
    assert code == 2
    assert str(1 << 16) in err


@pytest.mark.usefixtures("refuse_point_walk")
def test_certify_bounds_the_point_walk(tmp_path, capsys):
    data = {"version": 1, "kind": "projective",
            "field": {"p": 2, "k": 1, "modulus": []}, "n": 24,
            "point_order": "lex-first-nonzero-1", "pairs": []}
    path = tmp_path / "pg24.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "certify", str(path))
    assert code == 2
    assert err.startswith("error: ") and str(MAX_ORDER) in err


@pytest.mark.usefixtures("refuse_point_walk")
def test_points_bounds_the_point_walk(capsys):
    code, _, err = run(capsys, "points", "--n", "22", "--q", "2")
    assert code == 2
    assert err.startswith("error: ") and str(MAX_ORDER) in err


def test_rejects_unknown_file_version(tmp_path, capsys):
    code, stdout, _ = run(capsys, "construct", "--n", "1", "--q", "2")
    data = json.loads(stdout)
    data["version"] = 2
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "version" in err


def test_json_output_is_stable(capsys):
    first = run(capsys, "construct", "--n", "2", "--q", "2")
    second = run(capsys, "construct", "--n", "2", "--q", "2")
    assert first == second
    data = json.loads(first[1])
    assert list(data) == ["version", "kind", "field", "n", "point_order", "pairs"]


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


COMMANDS = ["construct", "verify", "certify", "search", "hyperplanes", "points"]
SEARCH = ["search", "--n", "2", "--q", "2", "--kind", "affine"]
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["--", "verify", "x"],
    *([command, "-h"] for command in COMMANDS),
    ["nonsense"], ["nonsense", "--n", "2"],
    ["construct", "--q", "2"], ["verify"], ["search", "--n", "2", "--q", "2"],
    ["verify", "x", "--format", "xml"], ["search", "--n", "2", "--q", "2", "--kind", "both"],
    ["verify", "x", "--form", "json"], ["certify", "x", "--emit", "--format=json"],
    ["search", "--n", "1", "--q", "2", "--kind", "projective", "--max-c", "5"],
    ["verify", "x", "--bogus"], ["verify", "x", "y"], ["verify", "x", "-h"],
    ["verify", "--", "x"], ["construct", "--n", "x", "--q", "2"],
    ["construct", "--n", "1", "--q", "2", "extra"],
    [*SEARCH, "--budget", "-1"], [*SEARCH, "--budget=-1"], [*SEARCH, "--budget", "0"],
    ["points", "--n", "2", "--q", "2", "--format", "json"],
    # the edges of the fast path: argparse alone accepts these or rejects them
    ["construct", "--n=2", "--q", "2"], ["construct", "--n", "2", "--n", "3", "--q", "2"],
    ["construct", "--n", "-1", "--q", "2"], [*SEARCH, "--out", "--format", "json"],
    ["verify", "-"], ["verify", "x", "--format", "json", "--format", "text"],
    # a leading "--" before a command name is dropped on every Python
    ["--", "points", "--n", "2", "--q", "2"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_parse_matches_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    """main reads well-formed argv off the argument table; the reference
    parses every argv with the full tree.  Help, usage errors and outputs
    agree.  A leading "--" before a command name reaches the reference
    already dropped, as Python 3.13.13's argparse drops it and main does
    on every Python; earlier releases would reject it as a command."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # no file named x
    got = run(capsys, *argv)
    monkeypatch.setattr(cli_module, "_parse",
                        lambda argv: cli_module.build_parser().parse_args(argv))
    if argv[:1] == ["--"] and argv[1] in COMMANDS:
        argv = argv[1:]
    assert got == run(capsys, *argv)


def _format_with_equals(argv):
    """The same arguments in a spelling only argparse reads: --format=X."""
    if "--format" in argv:
        i = argv.index("--format")
        return [*argv[:i], f"--format={argv[i + 1]}", *argv[i + 2:]]
    return [*argv, "--format=text"]


def test_parsing_carries_no_state_from_one_command_to_the_next(
        tmp_path, capsys, monkeypatch):
    """Neither path carries one command's values into the next.  The fast
    path builds no parser; argparse builds the full tree (the top-level
    parser and 6 subparsers) for each call and drops it."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for spelled, per_call in ((list, 0), (_format_with_equals, 1 + len(COMMANDS))):
        def call(*argv):
            before = len(built)
            result = run(capsys, *spelled(list(argv)))
            assert len(built) - before == per_call, argv
            return result

        witness = str(tmp_path / "witness.json")
        assert call(*SEARCH, "--budget", "0")[0] == 3
        assert call(*SEARCH)[0] == 0
        assert call("search", "--n", "1", "--q", "2", "--kind", "projective",
                    "--out", witness)[0] == 0

        code, stdout, _ = call("certify", witness, "--emit-matrix")
        assert code == 0 and "matrix:" in stdout
        code, stdout, _ = call("certify", witness)
        assert code == 0 and "bound_confirmed: true" in stdout and "matrix" not in stdout

        code, stdout, _ = call("verify", witness, "--format", "json")
        assert code == 0 and json.loads(stdout)["ok"] is True
        code, stdout, _ = call("verify", witness)
        assert code == 0 and stdout.startswith("kind: projective\n")


# Tokens of every kind the fast path must accept or leave to argparse.
VALUES = ["2", " 3", "0", "-1", " -1", "x", "2^2", "", "affine", "projective", "both",
          "json", "text", "xml", "-", "--", "-h", "--help", "verify"]
OPTION_TOKENS = ["--n=2", "--format=json", "--budget=-1", "--max-c", "--emit", "--form",
                 "--lower", "--res", "--k", "--bogus", "-n"]
GOOD_VALUES = {"--n": ["2", " 3", "0", "17"], "--q": ["3", "2^2", "x"],
               "--kind": ["affine", "projective"], "--budget": ["0", "5"],
               "--max-candidates": ["7", "0"], "--out": ["w.json"],
               "--format": ["json", "text"], "file": ["fam.json"]}


@st.composite
def command_argv(draw):
    """A command, some of its arguments in any order with good or bad
    values, and a few stray tokens inserted anywhere."""
    name = draw(st.sampled_from(COMMANDS))
    pieces = []
    for flag, keywords in cli_module._COMMANDS[name][2]:
        if not (keywords.get("required") or not flag.startswith("-") or draw(st.booleans())):
            continue
        value = draw(st.sampled_from(GOOD_VALUES.get(flag, ["x"])) | st.sampled_from(VALUES))
        if not flag.startswith("-"):
            pieces.append([value])
        elif keywords.get("action") == "store_true":
            pieces.append([flag])
        else:
            pieces.append([flag, value])
    tokens = [token for piece in draw(st.permutations(pieces)) for token in piece]
    stray = st.sampled_from([flag for flag, _ in cli_module._COMMANDS[name][2]]
                            + VALUES + OPTION_TOKENS)
    for position, token in draw(st.lists(st.tuples(st.integers(0, len(tokens)), stray),
                                         max_size=2)):
        tokens.insert(position, token)
    return [name, *tokens]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command_argv())
def test_the_fast_path_returns_the_namespace_of_argparse(argv):
    fast = cli_module._well_formed(argv[0], argv[1:])
    event("fast path" if fast is not None else "argparse")
    if fast is not None:
        # only the grammar _well_formed documents: exact names, each once
        flags = [token for token in argv[1:] if token.startswith("-")]
        declared = {flag for flag, _ in cli_module._COMMANDS[argv[0]][2]}
        assert len(set(flags)) == len(flags) and set(flags) <= declared
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                reference = cli_module.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects {argv}: {stderr.getvalue()}")
        assert vars(fast) == vars(reference)


def _readme_commands():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in section.splitlines()
            if line.startswith("crossflats ")]


def test_documented_and_benchmarked_commands_take_the_fast_path(
        perfbench_run, monkeypatch, tmp_path):
    """The argv shapes users and the benchmark run build no parser."""
    monkeypatch.setattr(perfbench_run, "WORK", str(tmp_path))
    commands = _readme_commands() + [
        argv for name in ("search-dp", "search-graph", "files")
        for _, argv, _ in perfbench_run.build_workload(name, 1).ops]
    assert len(commands) > 8 and {argv[0] for argv in commands} == set(COMMANDS)
    for argv in commands:
        assert cli_module._well_formed(argv[0], argv[1:]) is not None, argv


def test_importing_the_cli_builds_no_parser():
    """Nor does a well-formed command; its help builds the full tree."""
    counting = ("import argparse, sys\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counted(self, *args, **kwargs):\n"
                "    built.append(kwargs.get('prog'))\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counted\n"
                "import crossflats.cli\n"
                "print('built:', built)\n"
                "crossflats.cli.main(['points', '--n', '1', '--q', '2'])\n"
                "print('built:', built)\n"
                "crossflats.cli.main(['points', '--help'])\n"
                "print('built:', built)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", counting], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    built = [line for line in done.stdout.splitlines() if line.startswith("built:")]
    tree = ["crossflats", *(f"crossflats {name}" for name in COMMANDS)]
    assert built == ["built: []", "built: []", f"built: {tree}"]


def test_importing_the_cli_leaves_out_the_code_generation_modules():
    """The value classes need no dataclasses, and so none of the modules it
    pulls in for generating and inspecting code; the CLI loads argparse
    (and with it gettext and locale) only for help and usage errors."""
    recording = ("import json, sys\n"
                 "before = set(sys.modules)\n"
                 "import crossflats, crossflats.cli\n"
                 "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", recording], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    imported = json.loads(done.stdout)
    assert "crossflats.cli" in imported
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(imported)
    assert {"argparse", "gettext", "locale"}.isdisjoint(imported)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_without_a_traceback(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["points", "--n", "2", "--q", "2"]) == 2


@pytest.mark.parametrize("n", [2, 14], ids=["buffered", "mid-write"])
def test_closed_stdout_pipe_exits_2_quietly(n):
    """With stdout block-buffered, a small listing fails only when main
    flushes it and a large one (32,767 lines at n = 14) while printing;
    neither may fail again when the interpreter flushes at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from crossflats.cli import main; sys.exit(main())",
             "points", "--n", str(n), "--q", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")
