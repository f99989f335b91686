"""The benchmark's recorded search results are what max_family gives.

perfbench/run.py fails a pass whose maximum or lex-min witness differs
from SEARCH_RESULTS; this catches such a change before a benchmark run.
Node and candidate counts are behaviour, not contract, and are not
checked here.
"""

from crossflats.cli import parse_prime_power
from crossflats.search import candidates_affine, candidates_projective, max_family


def test_search_results_match_max_family(perfbench_run):
    results = perfbench_run.SEARCH_RESULTS
    assert results
    for (kind, restricted, n, q), (size, witness, _, _) in results.items():
        field = parse_prime_power(str(q))
        if kind == "affine":
            cands = candidates_affine(n, field, restricted)
        else:
            cands = candidates_projective(n, field)
        report = max_family(cands)
        assert (report.max_size, list(report.witness)) == (size, witness), (kind, n, q)
