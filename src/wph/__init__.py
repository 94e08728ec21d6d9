"""Exact combinatorics of weighted projective hypersurfaces.

Weight-system classifiers, quasismoothness existence, diagonal symmetry
groups of explicit polynomials, Jordan-constant order bounds and weight
system censuses, all in exact arbitrary-precision arithmetic.
"""

from .bounds import (
    CURVE_EFFECTIVE_CONSTANT,
    CurveBound,
    ExceptionalCurve,
    Finiteness,
    FinitenessReport,
    JordanEntry,
    JordanTable,
    KLEIN_QUARTIC,
    OrderBound,
    WIMAN_SEXTIC,
    chermak_delgado_bounds,
    curve_bound,
    lin_finiteness,
    lin_order_bound,
    weak_jordan_of_aut,
    worst_case_constant,
)
from .census import DEFAULT_CANDIDATE_CAP, SearchConstraints, enumerate_families
from .errors import (
    DimensionError,
    InfiniteGroupError,
    InvariantViolationError,
    MissingJordanEntryError,
    MissingWitnessError,
    ResourceCapError,
    ValidationError,
    WphError,
)
from .intlinalg import (
    IntMatrix,
    REPRESENTABLE_TARGET_CAP,
    SnfDecomposition,
    integer_determinant,
    smith_normal_form,
)
from .monomials import (
    DEFAULT_MONOMIAL_CAP,
    ExponentVector,
    MonomialExistenceReport,
    PolynomialSupport,
    VariableWitness,
    WeightedPolynomial,
    enumerate_monomials,
    euler_check,
    is_witness_row,
    monomial_existence_check,
    weighted_degree,
)
from .quasismooth import (
    QuasismoothReport,
    SubsetDiagnostic,
    is_linear_cone,
    quasismooth_exists,
)
from .symmetry import (
    FERMAT_DIMENSION_CAP,
    AbelianGroupStructure,
    DistinguishedMinor,
    FermatPrediction,
    MinorChoice,
    distinguished_minor,
    fermat_prediction,
    fermat_support,
    fixing_group,
    forced_central_group,
    lin_diagonal_order,
)
from .weights import (
    CanonicalClassReport,
    CanonicalKind,
    HypersurfaceFamily,
    LinearityVerdict,
    WeightSystem,
    WellFormednessFailure,
    aut_equals_lin,
    canonical_class,
    genericity_condition,
    is_well_formed,
    well_formedness_failures,
)

__version__ = "0.1.0"
