"""CLI grammar, exit codes, round trips, canonical JSON output."""

import json

import pytest

from crossflats.cli import main, parse_prime_power
from crossflats.families import dump_family, load_family
from crossflats.field import Field


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
    assert "ok: true" in stdout


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
    assert report["ok"] is False
    assert report["violation"]["reason"] == "diagonal_nonempty"
    assert (report["violation"]["i"], report["violation"]["j"]) == (1, 1)

    offdiag = json.loads(json.dumps(data))
    offdiag["pairs"] = [offdiag["pairs"][0], offdiag["pairs"][0]]
    bad2 = tmp_path / "offdiag.json"
    bad2.write_text(json.dumps(offdiag))
    code, stdout, _ = run(capsys, "verify", str(bad2), "--format", "json")
    assert code == 1
    assert json.loads(stdout)["violation"]["reason"] == "offdiagonal_empty"


def test_search_and_certify_projective(tmp_path, capsys):
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

    code, stdout, _ = run(capsys, "certify", str(witness), "--format", "json",
                          "--emit-matrix")
    assert code == 0
    cert = json.loads(stdout)
    assert cert["bound_confirmed"] is True
    assert cert["rank"] == cert["m"] + 2
    assert len(cert["matrix"]) == cert["m"] + 2
    assert all(len(row) == cert["t"] + 1 for row in cert["matrix"])


def test_certify_rejects_affine_input(tmp_path, capsys):
    fam_file = tmp_path / "affine.json"
    run(capsys, "construct", "--n", "1", "--q", "2", "--out", str(fam_file))
    code, _, err = run(capsys, "certify", str(fam_file))
    assert code == 2
    assert "projective" in err


def test_certify_fails_on_unverified_family(tmp_path, capsys):
    code, stdout, _ = run(capsys, "search", "--n", "1", "--q", "2",
                          "--kind", "projective", "--out", "-")
    # stdout holds the text report then the family JSON; rebuild the file
    family_text = stdout[stdout.index("{"):]
    data = json.loads(family_text)
    data["pairs"][0]["B"] = data["pairs"][0]["A"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "certify", str(bad))
    assert code == 1
    assert "does not verify" in err


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
], ids=["n-string", "field-null", "pairs-int", "pair-list", "rep-bools"])
def test_malformed_family_files_exit_2(tmp_path, capsys, corrupt):
    _, stdout, _ = run(capsys, "construct", "--n", "2", "--q", "2")
    data = json.loads(stdout)
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error: ")


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
