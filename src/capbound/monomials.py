"""Monomials with capped exponents: exponent arrays and exact dimensions.

A monomial is a plain tuple of exponents, each in [0, p-1]. `prove` reads
the monomials of bounded degree as one exponent array in lexicographic
order, `_exponent_array`; the graded-lex lists and index maps of the dense
references are on the tests' side (`tests/dense.py`).

`dim_L` reads one slice dimension as a sum of at most d // p + 1 binomial
terms. `dims` and the tests' `verify_duality` read every slice from one table
of prefix sums, `_cumulative_counts`, built afresh per call in O((p-1) d)
big-integer steps. The module's only cache is `_exponent_array`'s.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from math import comb, perm

from .field import PrimeField

__all__ = ["Monomial", "dim_L"]

Monomial = tuple[int, ...]


@lru_cache(maxsize=2)  # `prove` reads one (n, cap, d) per ambient
def _exponent_array(n: int, cap: int, d: int) -> np.ndarray:
    """All vectors in {0..cap}^n with coordinate sum <= d >= 0, one row each, in
    lexicographic order, built a coordinate at a time: each prefix is repeated
    once per value the next coordinate can take without passing d. Read-only."""
    import numpy as np  # the module's only numpy user; dimensions need none

    exps, room = np.zeros((1, 0), dtype=np.int64), np.array([d], dtype=np.int64)
    for _ in range(n):
        counts = np.minimum(room, cap) + 1
        rows = np.repeat(np.arange(counts.size), counts)
        e = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        exps, room = np.column_stack((exps[rows], e)), room[rows] - e
    exps.flags.writeable = False
    return exps


def _cumulative_counts(n: int, m: int, d: int) -> list[int]:
    """Entries 0..d <= mn: entry k counts vectors in {0..m}^n with sum <= k.

    They sum the layer counts c_k, the coefficients of P = Q^n,
    Q = 1 + x + ... + x^m. Comparing coefficients in Q P' = n Q' P gives
    k c_k = sum_{j=1..m} (j(n+1) - k) c_{k-j} = (n+1) t - k s, an exact
    division by k, where the window sums s = sum_j c_{k-j} and
    t = sum_j j c_{k-j} slide in O(1), so entries 0..d cost O(m d) steps.
    """
    c = deque([1], maxlen=m + 1)  # c_{k-1-m}, ..., c_{k-1}: all the recurrence reads
    s = t = 0
    cum = [1]
    for k in range(1, d + 1):
        out = c[0] if k > m else 0  # c_{k-1-m} leaves the window
        s += c[-1] - out
        t += s - m * out
        c.append(((n + 1) * t - k * s) // k)
        cum.append(cum[-1] + c[-1])
    return cum


def dim_L(n: int, d: int, field: PrimeField) -> int:
    """Exact dimension of the degree-<=d slice of the capped-exponent space:
    sum_{j <= min(n, d // p)} (-1)^j C(n, j) C(d - jp + n, n), stars and bars with
    inclusion-exclusion over the coordinates that pass p-1. A term is the one
    before times -(n-j)/(j+1) * C(x-p+n, n)/C(x+n, n), x = d - jp, a ratio of
    min(p, n) factors a side; a division that leaves a remainder raises."""
    p = field.p
    if not 0 <= d <= (p - 1) * n:
        raise ValueError(f"degree bound {d} out of range [0, {(p - 1) * n}]")
    term = total = comb(d + n, n)
    for j in range(min(n, d // p)):
        x = d - j * p
        num, den = (perm(x, p), perm(x + n, p)) if p <= n else (perm(x - p + n, n), perm(x + n, n))
        term, rest = divmod(-term * (n - j) * num, (j + 1) * den)
        if rest:
            raise ArithmeticError(f"inexact inclusion-exclusion step {j} of dim_L({n}, {d}) over GF({p})")
        total += term
    return total
