"""The benchmark's recorded search results are what max_family gives.

perfbench/run.py fails a pass whose maximum or lex-min witness differs
from SEARCH_RESULTS; this catches such a change before a benchmark run.
Node and candidate counts are behaviour, not contract, and are not
checked here.
"""

import importlib.util
import pathlib

from crossflats.cli import parse_prime_power
from crossflats.search import candidates_affine, candidates_projective, max_family

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports gen
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_results_match_max_family(monkeypatch):
    results = _load_run(monkeypatch).SEARCH_RESULTS
    assert results
    for (kind, restricted, n, q), (size, witness, _, _) in results.items():
        field = parse_prime_power(str(q))
        if kind == "affine":
            cands = candidates_affine(n, field, restricted)
        else:
            cands = candidates_projective(n, field)
        report = max_family(cands)
        assert (report.max_size, list(report.witness)) == (size, witness), (kind, n, q)
