"""Exact arithmetic for Schur-polynomial ratios, the tableau swap maps
behind their monotonicity, and first Laurent coefficients of symplectic
quotient Hilbert series."""

from .derivative import (
    DerivativeReport,
    derivative_numerator,
    numerator_for_variable,
    p_term,
    quotient_rule_numerator,
    verify_general_case,
    verify_general_case_via_chain,
    verify_pair_cancellation,
    verify_quotient_rule,
)
from .injection import (
    InjectivityReport,
    OneBoxSetting,
    SpanningTreeTrace,
    SwapRegion,
    TableauPair,
    enumerate_pairs,
    greedy_phi,
    greedy_region,
    one_box_instances,
    phi,
    psi,
    psi_inverse,
    spanning_tree_region,
    swap_pair,
    verify_injectivity,
)
from .partitions import (
    Partition,
    SkewShape,
    one_box_chain,
    one_box_pairs,
    partition_contains,
    partitions_of,
)
from .polynomial import SparsePolynomial
from .schur import (
    DegeneratePointError,
    SchurContext,
    default_context,
    horizontal_strips,
    reassemble_decomposition,
    schur_bialternant,
    schur_confluent,
    schur_poly,
    skew_decomposition,
    staircase,
    weyl_dimension,
)
from .sympquot import (
    CircleWeights,
    Gamma0Value,
    LevelSetStats,
    SU2Rep,
    SearchReport,
    coincidence_search,
    gamma0_level_set,
    gamma0_s1,
    gamma0_su2,
    s1_compare,
    s1_upper_bound,
    su2_lower_bound,
    su2_reps_for_dimension,
)
from .tableaux import SkewTableau, count_ssyt, enumerate_ssyt, monomial, validate

__version__ = "1.0.0"
