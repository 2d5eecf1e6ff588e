"""Dense and per-point references that the certificate path is checked against.

Neither `capbound` nor `capbound.cli` imports this module. It keeps the
direct forms that tests and acceptance criteria compare with: evaluation at
one point, zero sets, the duality identity over a whole layer-count table,
and the two p^n x p^n rank arguments that `prove` replaces by the diagonal
certificate and by reading the support split off f's terms. Those build the
shift coefficient grid, so they need p^n <= `polyspace.DENSE_MATRIX_CEILING`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HypothesisViolation
from .field import PrimeField
from .monomials import _cumulative_counts, monomial_index
from .polyspace import (
    ReducedPoly,
    _coordinate_products,
    _vandermonde,
    evaluate_all,
    gram_matrix,
    shift_coefficient_matrix,
    support_split_rank_bound,
)
from .sets import PointSet, _members

__all__ = [
    "RankCheck",
    "DiagonalCheck",
    "evaluate",
    "zero_set",
    "verify_duality",
    "check_gram_rank_bound",
    "check_diagonal_size_bound",
]


def evaluate(f: ReducedPoly, point: Sequence[int]) -> int:
    """Value of f at one point, by direct power products per term."""
    if len(point) != f.n:
        raise ValueError(f"point has dimension {len(point)}, expected {f.n}")
    p = f.field.p
    total = 0
    for alpha, c in f._coeffs.items():
        v = c
        for x, e in zip(point, alpha):
            if e:
                v = v * pow(x, e, p) % p
        total += v
    return total % p


def zero_set(f: ReducedPoly) -> PointSet:
    """All points where f vanishes, as a PointSet."""
    return PointSet._from_table(f.field, f.n, np.array(evaluate_all(f)) == 0)


def verify_duality(n: int, field: PrimeField) -> bool:
    """Check dim(d) + dim((p-1)n - d - 1) = p^n exactly for every d.

    This is the complementation map alpha -> (p-1-alpha) on monomials, which
    pairs the degree-<=d slice with the complement of the degree-<=(p-1)n-d-1
    slice.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = field.p**n
    top = (field.p - 1) * n
    cum = _cumulative_counts(n, field.p - 1, top)
    return all(cum[d] + cum[top - d - 1] == total for d in range(top))


@dataclass(frozen=True)
class RankCheck:
    """Evidence that the pairwise-evaluation rank is bounded by the grid rank."""

    rank_gram: int
    rank_shift: int
    factorization_ok: bool
    holds: bool


def check_gram_rank_bound(f: ReducedPoly, A: PointSet, B: PointSet) -> RankCheck:
    """Verify rank of [f(a+b)] <= rank of the shift grid, with factorization.

    The factorization M = Ma^T C Mb, where Ma and Mb tabulate monomial
    powers at the points of A and B, is checked entrywise, reducing mod p
    after each product.
    """
    p = f.field.p
    monos, _ = monomial_index(p, f.n)
    C = shift_coefficient_matrix(f)
    M = gram_matrix(f, A, B)
    Ma, Mb = (_coordinate_products(_members(ps)[1], monos, _vandermonde(p), f.field).array for ps in (A, B))
    factorization_ok = np.array_equal((Ma @ C.array % p) @ Mb.T % p, M.array)
    rg, rc = M.rank(), C.rank()
    return RankCheck(rank_gram=rg, rank_shift=rc, factorization_ok=factorization_ok, holds=rg <= rc)


@dataclass(frozen=True)
class DiagonalCheck:
    """Evidence for the size bound via the diagonal Gram argument."""

    set_size: int
    split_bound: int
    rank_shift: int
    holds: bool


def check_diagonal_size_bound(f: ReducedPoly, A: PointSet, d: int) -> DiagonalCheck:
    """Confirm |A| <= 2 * dim(degree <= d) for f of degree <= 2d that is
    nonzero exactly on the doubled diagonal of A.

    The hypothesis f(a+b) = 0 iff a != b is verified first, on the Gram
    matrix of f over A (the first failing pair in row order is named); the
    bound comes through the support split of the shift grid.
    """
    if f.degree is not None and f.degree > 2 * d:
        raise ValueError(f"degree {f.degree} exceeds 2d = {2 * d}")
    gram = gram_matrix(f, A, A).array
    bad = (gram == 0) == np.eye(len(gram), dtype=bool)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        points = A.points()
        raise HypothesisViolation(
            "hypothesis violated: f(a+b) = 0 iff a != b fails",
            evidence={"a": list(points[i]), "b": list(points[j]), "value": int(gram[i, j])},
        )
    C = shift_coefficient_matrix(f)
    bound = support_split_rank_bound(C, d, f.n, f.field)
    return DiagonalCheck(set_size=A.size, split_bound=bound, rank_shift=C.rank(), holds=A.size <= bound)
