"""Random walks on groups acting on Gromov-hyperbolic spaces.

Exact desk-scale models (free groups and finite extensions on their Cayley
trees, plane Cremona maps through degree dynamics, monomial maps through
their exponent matrices) plus a seeded Monte-Carlo harness for measuring
drift, translation-length growth, shadow decay, matching frequencies,
stabilizer censuses, small-cancellation certificates, and the characteristic
index of a measure.
"""

__version__ = "0.1.0"

from .geometry import (
    ActionOracle,
    IsometryClass,
    Shadow,
    classify_isometry,
    four_point_delta,
    gromov_product,
    orbit_gromov_product,
    shadow_contains,
    translation_length_estimate,
)
from .freegroup import (
    ExtendedElement,
    FreeGroupOracle,
    SemidirectOracle,
    axis_overlap_delta,
    characteristic_index,
    exact_shadow_measure,
    fellow_traveling_delta,
    stab_census,
)
from .cremona import (
    CremonaModel,
    MonomialMap,
    MonomialModel,
    dynamical_degree_estimate,
    monomial_dynamical_degree,
)
from .polynomials import HomPoly3, gcd3, normalize_triple, substitute
from .walk import FiniteMeasure, SamplePath, sample_path

__all__ = [
    "ActionOracle",
    "IsometryClass",
    "Shadow",
    "classify_isometry",
    "four_point_delta",
    "gromov_product",
    "orbit_gromov_product",
    "shadow_contains",
    "translation_length_estimate",
    "ExtendedElement",
    "FreeGroupOracle",
    "SemidirectOracle",
    "axis_overlap_delta",
    "characteristic_index",
    "exact_shadow_measure",
    "fellow_traveling_delta",
    "stab_census",
    "CremonaModel",
    "MonomialMap",
    "MonomialModel",
    "dynamical_degree_estimate",
    "monomial_dynamical_degree",
    "HomPoly3",
    "gcd3",
    "normalize_triple",
    "substitute",
    "FiniteMeasure",
    "SamplePath",
    "sample_path",
    "__version__",
]
