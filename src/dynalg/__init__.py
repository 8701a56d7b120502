"""Exact crossed-product and dynamical-comparison computations for finite
group actions.

The library works over a finite group acting on a finite point set.  Its
pieces: exact scalars and C(X) functions, crossed-product elements and
matrix amplifications with a faithful representation, one-sided
normalizer predicates, the dynamical subequivalence preorder with
explicit witnesses, a compiler between witnesses and one-sided
normalizers, the type semigroup with almost-unperforation checks,
castles and castle order zero maps with an exact decomposition round
trip, and tracial-stability instance evaluation.
"""

from .errors import (
    DynalgError,
    EmptyShape,
    ExactnessError,
    HypothesisViolated,
    IndexOutOfRange,
    InvalidCastle,
    InvalidCastleData,
    InvalidWitness,
    InvariantViolation,
    NotFree,
    NotNormalizerPreserving,
    NotOrderZero,
    NotPositive,
    NotRational,
    ParseError,
    PreconditionFailed,
    RadicalAdditionMismatch,
    ResourceBound,
    StructureError,
    SystemMismatch,
)
from .scalars import FloatScalar, RadScalar, as_scalar
from .dynsys import (
    DynSystem,
    FiniteGroup,
    InvariantMeasure,
    SystemReport,
    extreme_invariant_measures,
    orbits,
    product_with_cyclic,
    validate_system,
)
from .algebra import (
    CrossedElement,
    DiagTuple,
    Func,
    MatrixElement,
    OrbitBlock,
    cond_expectation,
    open_support,
    operator_norm,
    orbit_block_decomposition,
    point_block,
)
from .normalizers import (
    OrthogonalSum,
    check_normalizer_preserving,
    coefficient_supports_disjoint,
    is_normalizer,
    is_r_normalizer,
    is_s_normalizer,
    matrix_is_r_normalizer,
    orthogonal_sum,
)
from .comparison import (
    ComparisonResult,
    TypeSemigroup,
    Witness,
    almost_unperforation_check,
    check_witness,
    cuntz_oracle,
    d_tau,
    diag_subequivalent,
    dynamical_comparison_check,
    search_subequivalence,
    type_semigroup,
)
from .witness import (
    CompiledWitness,
    EquivalenceSuiteReport,
    compile_witness,
    extract_witness,
    prop_equivalence_suite,
)
from .castles import (
    AfCertificate,
    Castle,
    CastleOzmData,
    OrderZeroMap,
    TzsInstance,
    TzsReport,
    almost_finiteness_certificate,
    build_castle_ozm,
    check_tzs_instance,
    decompose_ozm,
    identity_embedding,
    orbit_castle,
    search_tzs_map,
    shape_invariance,
    validate_castle,
    verify_cpc,
    verify_normalizer_preserving,
    verify_order_zero,
)

__version__ = "0.1.0"
