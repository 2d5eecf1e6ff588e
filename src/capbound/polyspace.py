"""The polynomial side of the certificate, on value tables and coefficient arrays.

A function F_p^n -> F_p is exactly one polynomial with every exponent
capped at p-1 (x^p = x on points). The certificate reads two things of it,
and this module holds exactly those: the coefficient tensor of f read off
its value table, whose terms give f's degree (a degree of at most 2s also
settles the support split, so no split is read), and the |C| x h
evaluation block [c^beta] of the doubles at the monomials of degree below
the cut, whose left kernel is V (its values f(a + b) over pairs are read
by `proof.diagonal_certificate` without a matrix). Each is a dense numpy
array, and each factors per coordinate, through a p x p table with
entries below p: the indicator coefficients for the tensor, the
Vandermonde table for the block. Nothing here is ambient-sized beyond a
value table or coefficient tensor of p^n entries.
The polynomial view (`ReducedPoly`, evaluation, interpolation, indicators)
and the dense p^n x p^n references are in `capbound.reference`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .field import PrimeField
from .monomials import Monomial

__all__ = ["coefficient_tensor"]


@lru_cache(maxsize=32)
def _vandermonde(p: int) -> np.ndarray:
    """V[v, e] = v^e mod p for v, e in [0, p-1], one column pass per exponent."""
    v, x = np.ones((p, p), dtype=np.int64), np.arange(p)
    for e in range(1, p):
        v[:, e] = v[:, e - 1] * x % p
    return v


@lru_cache(maxsize=32)
def _reduction_stride(p: int) -> int:
    """The largest k with (p-1)^k < 2^63, memoised for `_coordinate_products`: 62 big-integer powers."""
    return max(j for j in range(2, 64) if (p - 1) ** j < 2**63)


@lru_cache(maxsize=32)
def _indicator_rows(p: int) -> np.ndarray:
    """U[s, e] = coefficient of x^e in 1 - (x - s)^(p-1), that is [e = 0] - s^(p-1-e) mod p.

    C(p-1, j) = (-1)^j mod p and p - 1 is even, so the binomial expansion
    leaves one power of s per coefficient, read off the Vandermonde table.
    Row s is the coefficient vector of the univariate point indicator of s;
    the full indicator of a point is the per-coordinate tensor product.
    """
    u = -_vandermonde(p)[:, ::-1]
    u[:, 0] += 1
    return u % p


def coefficient_tensor(values: Sequence[int], field: PrimeField, n: int) -> np.ndarray:
    """Coefficients, at [alpha] the one of x^alpha, of the polynomial with value table `values`.

    This is the linear combination sum_a values[a] * indicator(a); the
    indicator coefficients factor per coordinate, so the sum is evaluated
    as n contractions against the univariate indicator rows, each a matmul
    on the (p, p^(n-1)) reshape that puts the new axis last, rather than by
    solving a p^n x p^n system.
    """
    p = field.p
    if len(values) != p**n:
        raise ValueError(f"value vector has length {len(values)}, expected {p**n}")
    tensor = np.mod(np.array(values, dtype=np.int64), p).reshape((p,) * n, order="F")
    rows = _indicator_rows(p)
    for _ in range(n):
        tensor = (rows.T @ tensor.reshape(p, -1) % p).T.reshape(tensor.shape)
    return tensor


def _coordinate_products(coords: np.ndarray, monos: Sequence[Monomial], table, field: PrimeField) -> np.ndarray:
    """M[c, alpha] = prod_i table[c_i, alpha_i] mod p (c^alpha with `_vandermonde(p)`), rows c from
    `coords`, columns following `monos`. Factor i gathers the table's alpha_i columns, then its c_i
    rows. Entries are below p, so for the largest k with (p-1)^k < 2^63 (k >= 3, `_reduction_stride`)
    the reduced block takes k - 1 factors per reduction."""
    p, n = field.p, coords.shape[1]
    k = _reduction_stride(p)
    exps = np.array(monos, dtype=np.int64).reshape(-1, n)
    block = np.ones((len(coords), len(exps)), dtype=np.int64)
    for lo in range(0, n, k - 1):
        for i in range(lo, min(lo + k - 1, n)):
            block *= table.take(exps[:, i], axis=1).take(coords[:, i], axis=0)
        block %= p
    return block
