"""Exact-arithmetic toolkit for progression-free sets in F_p^n.

Everything is computed with exact integers mod p (numpy int64 storage) or
big integers; real-valued bounds use decimal arithmetic at configurable
precision. See the README for the CLI and the transcript format.

The package re-exports its entry points. The stages of the certificate and
the dense matrix helpers are imported from their modules, and the
references that tests compare against from `capbound.reference`, which
neither this package nor the CLI imports.
"""

from .bounds import (
    BoundReport,
    exact_tail_identity,
    exponent_c,
    hoeffding_bound,
    main_bound,
    verify_entropy_lemma,
)
from .errors import CheckFailure, HypothesisViolation, ProgressionFound
from .gf import PrimeField
from .monomials import dim_L
from .polyspace import ReducedPoly, evaluate_all, interpolate
from .proof import (
    ProofCheck,
    ProofTranscript,
    prove_size_bound,
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
    "HypothesisViolation",
    "PointSet",
    "PrimeField",
    "ProgressionFound",
    "ProofCheck",
    "ProofTranscript",
    "ReducedPoly",
    "SearchResult",
    "dim_L",
    "evaluate_all",
    "exact_tail_identity",
    "exponent_c",
    "greedy_progression_free",
    "hoeffding_bound",
    "interpolate",
    "is_progression_free",
    "main_bound",
    "max_progression_free",
    "pair_sums",
    "prove_size_bound",
    "verify_entropy_lemma",
    "verify_transcript",
]
