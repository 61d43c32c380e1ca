"""Exact p-adic invariants of integer matrices.

Smith normal forms and their local valuation profiles, division-free
characteristic polynomials, Newton polygons of eigenvalue valuations,
the characterized/correspondent predicates connecting them, and
exhaustive density enumeration over residue matrices.
"""

from .charpoly import CharPoly, char_poly
from .classify import ClassificationReport, analyze
from .exact import (
    INFINITY,
    Convention,
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

# The density and transform names are resolved on first use, so that
# importing the package, as a cold `padicsmith analyze` does, loads
# neither module.
_LAZY = {
    "DensityRow": "density",
    "enumerate_density": "density",
    "TransformSample": "transform",
    "sample_correspondent": "transform",
    "verify_rem_stability": "transform",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


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
