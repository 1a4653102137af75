"""Exact models of X1(N) and the modular-unit generator dictionary.

The package computes the division-polynomial values P_n and the defining
polynomials F_n of X1(n) in Z[B, C], Siegel-function q-expansions, and the
exponent-lattice dictionary between the {b, d, p_n} and Siegel generating
sets, all in exact arithmetic: polynomials and series have integer
coefficients (F_2 is the one quotient), and only exponents are rational.
"""

__version__ = "0.1.0"

from .bivar_poly import (
    BivarPoly,
    NotDivisible,
    RatPoly,
    div_exact,
    render_poly,
)
from .curve_series import CurveExpansion, expand_curve
from .divpoly import DISCRIMINANT, DivPolyCache, FactorizationIncomplete
from .qseries import QSeries, ZeroSeries
from .siegel import (
    BadIndex,
    PhaseNotRational,
    SiegelProduct,
    ZeroIndexError,
    fold_index,
    h_star,
    product_series,
)
from .unit_lattice import (
    ExpVector,
    InsufficientPrecision,
    NotAUnitProduct,
    NotInS,
    PExpression,
    basis_S,
    d_to_h,
    decompose_series,
    expand_p_expression,
    fold_p,
    is_in_S,
    lattice_index,
    p_to_h,
    t_to_h,
    to_p_expression,
    v_to_h,
)

__all__ = [
    "__version__",
    "BivarPoly",
    "RatPoly",
    "NotDivisible",
    "div_exact",
    "render_poly",
    "DivPolyCache",
    "DISCRIMINANT",
    "FactorizationIncomplete",
    "QSeries",
    "ZeroSeries",
    "SiegelProduct",
    "PhaseNotRational",
    "BadIndex",
    "ZeroIndexError",
    "h_star",
    "fold_index",
    "product_series",
    "ExpVector",
    "PExpression",
    "NotInS",
    "InsufficientPrecision",
    "NotAUnitProduct",
    "is_in_S",
    "basis_S",
    "lattice_index",
    "t_to_h",
    "d_to_h",
    "v_to_h",
    "p_to_h",
    "fold_p",
    "to_p_expression",
    "expand_p_expression",
    "decompose_series",
    "CurveExpansion",
    "expand_curve",
]
