"""folclass: exact classification and exhaustive verification of rank-one
p-closed foliation generators on A'xP^1 in characteristic 2, together with
the iterated Cartier/Frobenius trace operator on plane top-forms."""

__version__ = "0.1.0"

from .finite_field import GF, FieldElement, FieldSpec, embed, parse_field
from .polynomial import BiPoly, Poly, parse_poly, poly_gcd
from .derivation import (
    DerivationTriple,
    LieCase,
    chart_at_infinity,
    delta_squared,
    is_valid_foliation,
    oracle_delta_squared,
    scale,
)
from .classifier import FamilyId, FamilyMatch, classify, instantiate
from .cartier import Quadric, SymbolicCoeff, TopForm, TraceOperator, cartier_iter, cartier_once

__all__ = [
    "GF",
    "FieldElement",
    "FieldSpec",
    "embed",
    "parse_field",
    "BiPoly",
    "Poly",
    "parse_poly",
    "poly_gcd",
    "DerivationTriple",
    "LieCase",
    "chart_at_infinity",
    "delta_squared",
    "is_valid_foliation",
    "oracle_delta_squared",
    "scale",
    "FamilyId",
    "FamilyMatch",
    "classify",
    "instantiate",
    "Quadric",
    "SymbolicCoeff",
    "TopForm",
    "TraceOperator",
    "cartier_iter",
    "cartier_once",
    "__version__",
]
