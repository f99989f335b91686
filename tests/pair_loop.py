"""The reference for verify's counters: the plain loop over every pair.

Unlike the point-enumeration oracles in oracles.py, this decides each
pair with the library's own pair test, so it pins what the walk per
class must count, not whether a pair meets.
"""

import itertools

from crossflats.families import _MemberClasses


def pair_loop_verify(fam):
    """(ok, violation, pair_checks, eliminations) of a FamilyPair by one
    disjointness test per pair, in verify's order: the diagonal, then the
    strict upper triangle row-major, up to the first violation.  The
    tests share one _MemberClasses, so eliminations counts the class-pair
    sums it formed."""
    m = len(fam.pairs)
    classes = _MemberClasses(fam)
    order = [(i, i) for i in range(m)] + list(itertools.combinations(range(m), 2))
    violation, checks = None, 0
    for i, j in order:
        checks += 1
        if classes.disjoint(i, j) != (i == j):
            violation = (i + 1, j + 1, "diagonal_nonempty" if i == j else "offdiagonal_empty")
            break
    return violation is None, violation, checks, classes.solves
