"""The reference for verify's counters: the plain loop over every pair.

Unlike the point-enumeration oracles in oracles.py, this decides each
pair with the library's own pair test, so it pins what the walk per
class must count, not whether a pair meets.
"""

import itertools

from crossflats.families import AFFINE, _DirectionClasses
from crossflats.geometry import projective_disjoint


def pair_loop_verify(fam):
    """(ok, violation, pair_checks, eliminations) of a FamilyPair by one
    disjointness test per pair, in verify's order: the diagonal, then the
    strict upper triangle row-major, up to the first violation.  An affine
    family's tests share one _DirectionClasses, so eliminations counts the
    direction-class pair sums it formed; a projective family's count one
    rank test each."""
    m = len(fam.pairs)
    if fam.kind == AFFINE:
        classes = _DirectionClasses(fam)
        disjoint = classes.disjoint
    else:
        classes = None

        def disjoint(i, j):
            return projective_disjoint(fam.pairs[i][0], fam.pairs[j][1])
    order = [(i, i) for i in range(m)] + list(itertools.combinations(range(m), 2))
    violation, checks = None, 0
    for i, j in order:
        checks += 1
        if disjoint(i, j) != (i == j):
            violation = (i + 1, j + 1, "diagonal_nonempty" if i == j else "offdiagonal_empty")
            break
    eliminations = checks if classes is None else classes.solves
    return violation is None, violation, checks, eliminations
