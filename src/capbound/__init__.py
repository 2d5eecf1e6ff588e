"""Exact-arithmetic toolkit for progression-free sets in F_p^n.

Everything is computed with exact integers mod p (numpy int64 storage) or
big integers; real-valued bounds use decimal arithmetic at configurable
precision. See the README for the CLI and the transcript format.
"""

from .bounds import (
    BoundReport,
    exact_tail_identity,
    exponent_c,
    hoeffding_bound,
    low_third_dimension,
    main_bound,
    verify_entropy_lemma,
)
from .errors import CheckFailure, HypothesisViolation, ProgressionFound
from .gf import (
    FpMatrix,
    PrimeField,
    point_coords,
    point_index,
    row_space_intersection,
)
from .monomials import (
    dim_L,
    enumerate_monomials,
    extended_binomial,
    graded_lex_key,
    verify_duality,
)
from .polyspace import (
    ReducedPoly,
    evaluate,
    evaluate_all,
    gram_matrix,
    indicator_coefficients,
    indicator_poly,
    interpolate,
    shift_coefficient_matrix,
    split_violation,
    support_split_rank_bound,
    zero_set,
)
from .proof import (
    ProofCheck,
    ProofTranscript,
    check_diagonal_size_bound,
    check_gram_rank_bound,
    diagonal_certificate,
    prove_size_bound,
    select_unit_witness,
    verify_transcript,
)
from .sets import (
    PointSet,
    SearchResult,
    greedy_progression_free,
    is_progression_free,
    max_progression_free,
    pair_sums,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CheckFailure",
    "FpMatrix",
    "HypothesisViolation",
    "PointSet",
    "PrimeField",
    "ProgressionFound",
    "ProofCheck",
    "ProofTranscript",
    "ReducedPoly",
    "SearchResult",
    "check_diagonal_size_bound",
    "check_gram_rank_bound",
    "diagonal_certificate",
    "dim_L",
    "enumerate_monomials",
    "evaluate",
    "evaluate_all",
    "exact_tail_identity",
    "exponent_c",
    "extended_binomial",
    "graded_lex_key",
    "gram_matrix",
    "greedy_progression_free",
    "hoeffding_bound",
    "indicator_coefficients",
    "indicator_poly",
    "interpolate",
    "is_progression_free",
    "low_third_dimension",
    "main_bound",
    "max_progression_free",
    "pair_sums",
    "point_coords",
    "point_index",
    "prove_size_bound",
    "row_space_intersection",
    "select_unit_witness",
    "shift_coefficient_matrix",
    "split_violation",
    "support_split_rank_bound",
    "verify_duality",
    "verify_entropy_lemma",
    "verify_transcript",
    "zero_set",
]
