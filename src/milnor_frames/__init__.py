"""Milnor-type frames for left-invariant metrics on two solvable families.

The package reduces any inner product on the Lie algebras
``rh2+abelian`` ([e_1, e_2] = e_2 plus an abelian complement) and
``rh-line`` ([e_1, e_i] = e_i for i >= 3, plus a line) to a canonical
orthonormal frame governed by a single parameter λ and a scale k, and
uses that frame to compute curvature, Ricci signatures, and
solvsoliton / Einstein verdicts.
"""

from .curvature import (
    RicciReport,
    closed_form_ricci,
    levi_civita,
    ricci_operator,
    riemann,
    signature,
)
from .derivations import (
    DerivationBasis,
    conjugated_derivation_basis,
    derivation_basis,
    is_derivation,
    pattern_check,
)
from .eigensolve import jacobi_eigh
from .errors import (
    DimensionError,
    NotPositiveDefiniteError,
    ShapeError,
    SingularMatrixError,
    UnsupportedFamilyError,
)
from .frame_reduction import (
    FrameResiduals,
    MilnorFrame,
    gram_to_group_element,
    orbit_parameter_equal,
    parse_gram,
    reduce,
    validate_aut_element,
)
from .lie_core import (
    Family,
    LieAlgebra,
    bracket,
    build_family,
    change_basis,
    jacobi_defect,
    milnor_pattern,
    parse_structure_constants,
)
from .sampling import RandomMetricSpec, SplitMix64, sample_metric
from .solvsoliton import SolitonVerdict, classify_metric, solvsoliton_solve

__version__ = "0.1.0"

__all__ = [
    "DerivationBasis",
    "DimensionError",
    "Family",
    "FrameResiduals",
    "LieAlgebra",
    "MilnorFrame",
    "NotPositiveDefiniteError",
    "RandomMetricSpec",
    "RicciReport",
    "ShapeError",
    "SingularMatrixError",
    "SolitonVerdict",
    "SplitMix64",
    "UnsupportedFamilyError",
    "bracket",
    "build_family",
    "change_basis",
    "classify_metric",
    "closed_form_ricci",
    "conjugated_derivation_basis",
    "derivation_basis",
    "gram_to_group_element",
    "is_derivation",
    "jacobi_defect",
    "jacobi_eigh",
    "levi_civita",
    "milnor_pattern",
    "orbit_parameter_equal",
    "parse_gram",
    "parse_structure_constants",
    "pattern_check",
    "reduce",
    "ricci_operator",
    "riemann",
    "sample_metric",
    "signature",
    "solvsoliton_solve",
    "validate_aut_element",
]
