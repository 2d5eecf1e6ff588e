"""Monomials with capped exponents: exponent arrays and exact dimensions.

A monomial is a plain tuple of exponents, each in [0, p-1]. `prove` reads
the monomials of bounded degree as one exponent array in lexicographic
order, `_exponent_array`; the graded-lex lists and index maps of the dense
references are in `capbound.reference`.

Dimensions come from one prefix-sum table of layer counts per (n, p-1), built
by a linear recurrence over the last p counts as far as a caller reads, entries
0..d in O((p-1) d) big-integer steps; the last table is cached, read in O(1).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import accumulate, islice

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


def _layer_counts(n: int, m: int):
    """Yield c_0, ..., c_{mn}: c_k counts vectors in {0..m}^n with sum k.

    The c_k are the coefficients of P = Q^n, Q = 1 + x + ... + x^m.
    Comparing coefficients in Q P' = n Q' P gives
    k c_k = sum_{j=1..m} (j(n+1) - k) c_{k-j} = (n+1) t - k s, an exact
    division by k, where s = sum_j c_{k-j} and t = sum_j j c_{k-j} are
    window sums updated in O(1) as the window slides, so c_0..c_d cost
    O(m d) big-integer steps.
    """
    c = deque([1], maxlen=m + 1)  # c_{k-1-m}, ..., c_{k-1}: all the recurrence reads
    s = t = 0
    yield 1
    for k in range(1, m * n + 1):
        out = c[0] if k > m else 0  # c_{k-1-m} leaves the window
        s += c[-1] - out
        t += s - m * out
        c.append(((n + 1) * t - k * s) // k)
        yield c[-1]


@lru_cache(maxsize=1)  # a command reads one (n, m)
def _prefix_table(n: int, m: int):
    """The prefix sums of the layer counts built so far, and the iterator of the rest."""
    return [], accumulate(_layer_counts(n, m))


def _cumulative_counts(n: int, m: int, d: int) -> list[int]:
    """Entry k counts vectors in {0..m}^n with sum <= k; built at least up to entry d <= mn."""
    cum, rest = _prefix_table(n, m)
    cum.extend(islice(rest, max(0, d + 1 - len(cum))))
    return cum


def dim_L(n: int, d: int, field: PrimeField) -> int:
    """Exact dimension of the degree-<=d slice of the capped-exponent space."""
    cap = field.p - 1
    if not 0 <= d <= cap * n:
        raise ValueError(f"degree bound {d} out of range [0, {cap * n}]")
    return _cumulative_counts(n, cap, d)[d]
