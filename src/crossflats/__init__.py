"""Cross-intersecting families of affine flats and projective subspaces
over finite fields: constructions, verification, rank certificates, and
exhaustive desk-scale search."""

from .certify import (
    CertificateMatrix,
    CertificateReport,
    build_certificate,
    certify_projective_bound,
    evaluate_identities,
)
from .families import (
    AFFINE,
    PROJECTIVE,
    FamilyPair,
    FamilyViolation,
    VerifyReport,
    check_affine_bound,
    construct_extremal_affine,
    construct_lower_bound_affine,
    dump_family,
    load_family,
    verify_cross_intersecting,
)
from .field import Field, make_field
from .geometry import (
    AffineFlat,
    ProjectiveSubspace,
    affine_intersect,
    char_vector,
    enumerate_projective_points,
    gaussian_point_count,
    make_flat,
    make_projective_subspace,
)
from .linalg import (
    Hyperplane,
    Space,
    Subspace,
    contains,
    enumerate_hyperplanes,
    enumerate_subspaces,
    rref,
    subspace_intersection,
    subspace_sum,
)
from .search import (
    BudgetExceeded,
    CandidateCapExceeded,
    CandidatePair,
    SearchReport,
    candidates_affine,
    candidates_projective,
    compatible,
    max_family,
)

__version__ = "0.1.0"

__all__ = [
    "AFFINE",
    "PROJECTIVE",
    "AffineFlat",
    "BudgetExceeded",
    "CandidateCapExceeded",
    "CandidatePair",
    "CertificateMatrix",
    "CertificateReport",
    "FamilyPair",
    "FamilyViolation",
    "Field",
    "Hyperplane",
    "ProjectiveSubspace",
    "SearchReport",
    "Space",
    "Subspace",
    "VerifyReport",
    "affine_intersect",
    "build_certificate",
    "candidates_affine",
    "candidates_projective",
    "certify_projective_bound",
    "char_vector",
    "check_affine_bound",
    "compatible",
    "construct_extremal_affine",
    "construct_lower_bound_affine",
    "contains",
    "dump_family",
    "enumerate_hyperplanes",
    "enumerate_projective_points",
    "enumerate_subspaces",
    "evaluate_identities",
    "gaussian_point_count",
    "load_family",
    "make_field",
    "make_flat",
    "make_projective_subspace",
    "max_family",
    "rref",
    "subspace_intersection",
    "subspace_sum",
    "verify_cross_intersecting",
]
