"""Exact-arithmetic toolkit for progression-free sets in F_p^n.

Everything is computed with exact integers mod p (numpy int64 storage) or
big integers; real-valued bounds use decimal arithmetic at 30 significant
digits (`bounds.PRECISION`). See the README for the CLI and the transcript
format.

The package re-exports its entry points, each imported from its module on
first access, so `import capbound` loads no submodule (and no numpy). The
stages of the certificate are imported from their modules. The polynomial
view (`ReducedPoly`, `evaluate_all`, `interpolate`, re-exported here) and
the dense references that tests compare against live in
`capbound.reference`. No module of the package, the CLI included, imports
it: it loads only when one of its names is read.
"""

import importlib

# re-export -> the submodule that defines it, imported on first access (PEP 562)
_EXPORTS = {
    "BoundReport": "bounds",
    "exact_tail_identity": "bounds",
    "exponent_c": "bounds",
    "hoeffding_bound": "bounds",
    "main_bound": "bounds",
    "verify_entropy_lemma": "bounds",
    "CheckFailure": "errors",
    "HypothesisViolation": "errors",
    "ProgressionFound": "errors",
    "PrimeField": "field",
    "dim_L": "monomials",
    "ReducedPoly": "reference",
    "evaluate_all": "reference",
    "interpolate": "reference",
    "prove_size_bound": "proof",
    "verify_transcript": "proof",
    "SearchResult": "search",
    "greedy_progression_free": "search",
    "max_progression_free": "search",
    "PointSet": "sets",
    "is_progression_free": "sets",
    "pair_sums": "sets",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value
