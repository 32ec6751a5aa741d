"""detrec: exact determinant identities at desk scale.

Everything is exact: arbitrary-precision integers, sparse integer-coefficient
polynomials, and quadratic-field elements.  All values are immutable and all
operations are pure functions, so the library is safe to use from multiple
threads without synchronization.
"""

from .errors import (
    DimensionTooSmall,
    ExactDivisionFailure,
    InvalidCycleType,
    NotDivisible,
    TooLarge,
    UnassignedVariable,
)
from .poly import (
    PHI,
    PSI,
    SQRT5,
    MultiPoly,
    QuadExt,
    exact_divide,
    poly_str,
    power_sum,
    scalar_str,
    scalar_sum,
    substitute,
)
from .symfunc import alternant, bialternant, build_E, elementary, homogeneous, schur
from .detmat import (
    SquareMatrix,
    build_A,
    build_C,
    build_F,
    build_G,
    build_S,
    det_bareiss,
    det_cofactor,
)
from .digraph import (
    LinearSubdigraph,
    count_cycle_type,
    det_via_lsd,
    digraph_dot,
    enumerate_lsds,
)
from .combi import (
    cyclic_avoiding_weight,
    enumerate_circular_tilings,
    enumerate_cyclic_words,
    enumerate_increasing_words,
    enumerate_tilings,
    has_cyclic_occurrence,
    lsd_excluded_pair,
    pie_cyclic_sum,
    pie_linear_sum,
    tiling_sum,
    tiling_to_lsd,
    tiling_weight,
    word_weight,
)
from .recurrence import (
    binet_fib,
    binet_lucas,
    eval_recurrence,
    fibonacci,
    lucas,
    racci,
    racci_multinomial,
)
from .identities import (
    VerificationReport,
    coeff_name,
    symbolic_coeffs,
    verify_all,
    verify_binet_fib,
    verify_binet_lucas,
    verify_fib,
    verify_hom_det,
    verify_lucas_symbolic,
    verify_mclaughlin,
    verify_racci,
    verify_recurrence_det,
    verify_sury,
    verify_two_var,
)

__version__ = "0.1.0"
