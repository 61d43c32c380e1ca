"""Exact p-adic invariants of integer matrices.

Smith normal forms and their local valuation profiles, division-free
characteristic polynomials, Newton polygons of eigenvalue valuations,
the characterized/correspondent predicates connecting them, and
exhaustive density enumeration over residue matrices.
"""

from .charpoly import CharPoly, char_poly
from .classify import ClassificationReport, analyze
from .density import Convention, DensityRow, enumerate_density
from .exact import (
    INFINITY,
    IntMatrix,
    MatrixLike,
    MatrixParseError,
    Valuation,
    det,
    parse_matrix,
    rank,
    rem_pm,
    val_p,
)
from .newton import NewtonPolygon, eigenvalue_valuations, newton_polygon
from .smith import LocalSmithProfile, SmithData, determinantal_divisors, local_profile, smith_form
from .transform import TransformSample, sample_correspondent, verify_rem_stability

__all__ = [
    "CharPoly",
    "ClassificationReport",
    "Convention",
    "DensityRow",
    "INFINITY",
    "IntMatrix",
    "MatrixLike",
    "LocalSmithProfile",
    "MatrixParseError",
    "NewtonPolygon",
    "SmithData",
    "TransformSample",
    "Valuation",
    "analyze",
    "char_poly",
    "det",
    "determinantal_divisors",
    "eigenvalue_valuations",
    "enumerate_density",
    "local_profile",
    "newton_polygon",
    "parse_matrix",
    "rank",
    "rem_pm",
    "sample_correspondent",
    "smith_form",
    "val_p",
    "verify_rem_stability",
]

__version__ = "0.1.0"
