"""Polynomials over GF(p) with every exponent capped at p-1.

This space restricts to functions F_p^n -> F_p bijectively (x^p = x on
points), which is what makes evaluation, interpolation and indicator
polynomials exact inverses of each other here. Coefficients are stored
sparsely; whole-space value tables and coefficient grids use dense numpy
tensors, contracted one coordinate at a time, because both the evaluation
and the interpolation kernel factor per coordinate, through two p x p
tables: the Vandermonde table and the indicator coefficients read off it,
both with entries below p. The p^n x p^n shift grid and coefficient vectors
need p^n <= DENSE_MATRIX_CEILING; the certificate path builds neither.
Per-point evaluation and zero sets are in `capbound.reference`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import HypothesisViolation
from .gf import FpMatrix, PrimeField
from .monomials import Monomial, dim_L, graded_lex_key, monomial_index
from .sets import PointSet, _members, _pair_indices

__all__ = [
    "DENSE_MATRIX_CEILING",
    "ReducedPoly",
    "evaluate_all",
    "interpolate",
    "coefficient_tensor",
    "indicator_poly",
    "indicator_coefficients",
    "shift_coefficient_matrix",
    "support_split_rank_bound",
    "split_violation",
    "gram_matrix",
    "pair_values",
    "poly_to_vector",
    "poly_from_vector",
]

DENSE_MATRIX_CEILING = 2048


class ReducedPoly:
    """Immutable sparse polynomial with exponents in [0, p-1].

    The zero polynomial has degree None, a sentinel ordered below every
    degree bound by the callers that care.
    """

    __slots__ = ("field", "n", "_coeffs", "_degree")

    def __init__(self, field: PrimeField, n: int, coeffs: Mapping[Monomial, int]) -> None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        cap = field.p - 1
        clean: dict[Monomial, int] = {}
        for alpha, c in coeffs.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != n:
                raise ValueError(f"monomial {alpha} has arity {len(alpha)}, expected {n}")
            if any(e < 0 or e > cap for e in alpha):
                raise ValueError(f"monomial {alpha} has an exponent outside [0, {cap}]")
            c = int(c) % field.p
            if c:
                clean[alpha] = c
        self.field = field
        self.n = n
        self._coeffs = clean
        self._degree = max((sum(a) for a in clean), default=None)

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "ReducedPoly":
        return cls(field, n, {})

    @classmethod
    def constant(cls, field: PrimeField, n: int, c: int) -> "ReducedPoly":
        return cls(field, n, {(0,) * n: c})

    @classmethod
    def monomial(cls, field: PrimeField, n: int, alpha: Monomial, c: int = 1) -> "ReducedPoly":
        return cls(field, n, {tuple(alpha): c})

    @property
    def degree(self) -> int | None:
        return self._degree

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, alpha: Monomial) -> int:
        return self._coeffs.get(tuple(alpha), 0)

    def terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self._coeffs.items(), key=lambda kv: graded_lex_key(kv[0]))

    def add(self, other: "ReducedPoly") -> "ReducedPoly":
        if other.field != self.field or other.n != self.n:
            raise ValueError("polynomials live in different spaces")
        out = dict(self._coeffs)
        for alpha, c in other._coeffs.items():
            out[alpha] = (out.get(alpha, 0) + c) % self.field.p
        return ReducedPoly(self.field, self.n, out)

    __add__ = add

    def scale(self, k: int) -> "ReducedPoly":
        return ReducedPoly(
            self.field, self.n, {a: (k * c) % self.field.p for a, c in self._coeffs.items()}
        )

    def __sub__(self, other: "ReducedPoly") -> "ReducedPoly":
        return self.add(other.scale(self.field.p - 1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReducedPoly)
            and other.field == self.field
            and other.n == self.n
            and other._coeffs == self._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.n, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        return f"ReducedPoly({self.to_text()!r} over GF({self.field.p}), n={self.n})"

    def to_text(self) -> str:
        """Canonical text form: `c*x1^e1*...*xn^en + ...`, graded-lex order."""
        if not self._coeffs:
            return "0"
        parts = []
        for alpha, c in self.terms():
            factors = [str(c)] + [f"x{i + 1}^{e}" for i, e in enumerate(alpha) if e]
            parts.append("*".join(factors))
        return " + ".join(parts)

    @classmethod
    def _trusted(cls, field: PrimeField, n: int, coeffs: dict[Monomial, int]) -> "ReducedPoly":
        """`coeffs` taken as is: nonzero reduced values of valid monomials."""
        poly = cls(field, n, {})
        poly._coeffs, poly._degree = coeffs, max(map(sum, coeffs), default=None)
        return poly


@lru_cache(maxsize=32)
def _vandermonde(p: int) -> np.ndarray:
    """V[v, e] = v^e mod p for v, e in [0, p-1], one column pass per exponent."""
    v, x = np.ones((p, p), dtype=np.int64), np.arange(p)
    for e in range(1, p):
        v[:, e] = v[:, e - 1] * x % p
    return v


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


def evaluate_all(f: ReducedPoly) -> list[int]:
    """Value table of f over all of F_p^n, indexed by point encoding.

    The coefficient tensor is contracted coordinate by coordinate against
    the Vandermonde matrix; linear in f by construction.
    """
    p, n = f.field.p, f.n
    if n == 0:
        return [f.coefficient(())]
    tensor = np.zeros((p,) * n, dtype=np.int64)
    for alpha, c in f._coeffs.items():
        tensor[alpha] = c
    van = _vandermonde(p)
    for _ in range(n):
        tensor = np.tensordot(tensor, van, axes=([0], [1])) % p
    return tensor.ravel(order="F").tolist()


def interpolate(values: Sequence[int], field: PrimeField, n: int) -> ReducedPoly:
    """The unique capped-exponent polynomial with the given value table."""
    return _from_tensor(coefficient_tensor(values, field, n), field)


def coefficient_tensor(values: Sequence[int], field: PrimeField, n: int) -> np.ndarray:
    """Coefficients, at [alpha] the one of x^alpha, of the polynomial with value table `values`.

    This is the linear combination sum_a values[a] * indicator(a); the
    indicator coefficients factor per coordinate, so the sum is evaluated
    as n tensor contractions against the univariate indicator rows rather
    than by solving a p^n x p^n system.
    """
    p = field.p
    if len(values) != p**n:
        raise ValueError(f"value vector has length {len(values)}, expected {p**n}")
    tensor = np.mod(np.array(values, dtype=np.int64), p).reshape((p,) * n, order="F")
    rows = _indicator_rows(p)
    for _ in range(n):
        tensor = np.tensordot(tensor, rows, axes=([0], [0])) % p
    return tensor


def indicator_poly(point: Sequence[int], field: PrimeField) -> ReducedPoly:
    """Expansion of prod_i (1 - (x_i - a_i)^(p-1)): 1 at `point`, 0 elsewhere.

    Always has the full monomial (p-1, ..., p-1) with coefficient (-1)^n,
    hence degree exactly (p-1)n.
    """
    rows = _indicator_rows(field.p)
    tensor = np.ones((), dtype=np.int64)
    for c in point:
        tensor = np.multiply.outer(tensor, rows[field.validate(c)]) % field.p
    return _from_tensor(tensor, field)


def _from_tensor(tensor: np.ndarray, field: PrimeField) -> ReducedPoly:
    """The polynomial with coefficient tensor[alpha] at x^alpha, for a tensor
    of shape (p,) * n with entries in [0, p-1], read in one flat pass."""
    alphas = map(tuple, np.argwhere(tensor).tolist())
    coeffs = dict(zip(alphas, tensor[tensor != 0].tolist()))
    return ReducedPoly._trusted(field, tensor.ndim, coeffs)


def indicator_coefficients(points: PointSet, monos: Sequence[Monomial]) -> FpMatrix:
    """M[c, alpha] = coefficient of x^alpha in indicator_poly(c).

    Rows are the members of `points` in index order, columns follow `monos`;
    each entry is the product of univariate indicator coefficients, so no
    indicator is expanded over all p^n monomials.
    """
    return _coordinate_products(_members(points)[1], monos, _indicator_rows(points.field.p), points.field)


def _coordinate_products(coords: np.ndarray, monos: Sequence[Monomial], table, field: PrimeField) -> FpMatrix:
    """M[c, alpha] = prod_i table[c_i, alpha_i] mod p (c^alpha with `_vandermonde(p)`), rows c from
    `coords`, columns as in `indicator_coefficients`. Entries are below p, so for the largest k
    with (p-1)^k < 2^63 (k >= 3) the reduced block takes k - 1 factors per reduction."""
    p, n = field.p, coords.shape[1]
    k = max(j for j in range(2, 64) if (p - 1) ** j < 2**63)
    exps = np.array(monos, dtype=np.int64).reshape(-1, n)
    block = np.ones((len(coords), len(exps)), dtype=np.int64)
    for lo in range(0, n, k - 1):
        for i in range(lo, min(lo + k - 1, n)):
            block *= table[coords[:, i, None], exps[None, :, i]]
        block %= p
    return FpMatrix._trusted(block, field)


def _require_dense_ok(field: PrimeField, n: int) -> int:
    total = field.p**n
    if total > DENSE_MATRIX_CEILING:
        raise ValueError(
            f"p^n = {total} exceeds the dense-matrix ceiling {DENSE_MATRIX_CEILING}"
        )
    return total


def shift_coefficient_matrix(f: ReducedPoly) -> FpMatrix:
    """Coefficient grid C with f(x + y) = sum C[alpha, beta] x^alpha y^beta.

    Rows and columns are indexed by the graded-lex monomial order. Each
    term c*x^gamma of f expands through (x_i + y_i)^gamma_i with binomial
    coefficients mod p; exponents never exceed p-1, so no reduction of the
    monomials themselves is needed, and every (alpha, beta) cell receives a
    contribution from at most the single term gamma = alpha + beta.
    """
    field, n = f.field, f.n
    total = _require_dense_ok(field, n)
    monos, index = monomial_index(field.p, n)
    mat = np.zeros((total, total), dtype=np.int64)
    p = field.p
    for gamma, c in f._coeffs.items():
        for alpha in product(*(range(g + 1) for g in gamma)):
            w = c
            for g, a in zip(gamma, alpha):
                w = w * math.comb(g, a) % p
            if w:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                mat[index[alpha], index[beta]] = w
    return FpMatrix(mat, field)


def support_split_rank_bound(C: FpMatrix, d: int, n: int, field: PrimeField) -> int:
    """Verify every nonzero C entry has a low-degree row or column; bound rank.

    For f of degree <= 2d every cell with |alpha| > d and |beta| > d must be
    zero, so the support sits in (low-degree rows) union (low-degree
    columns) and rank C <= 2 * dim of the degree-<=d slice, which is
    returned. A violation means the caller's f had degree > 2d.
    """
    monos, _ = monomial_index(field.p, n)
    degrees = np.array([sum(m) for m in monos], dtype=np.int64)
    rows, cols = np.nonzero(C.array)
    bad = (degrees[rows] > d) & (degrees[cols] > d)
    if bad.any():
        k = int(np.argmax(bad))
        raise HypothesisViolation(
            "degree hypothesis violated",
            evidence={
                "row_monomial": list(monos[int(rows[k])]),
                "col_monomial": list(monos[int(cols[k])]),
                "degree_bound": d,
            },
        )
    return 2 * dim_L(n, d, field)


def split_violation(terms: np.ndarray, d: int) -> Monomial | None:
    """A term of f whose shift-grid cells break the support split at d, or None.

    `terms` holds the exponents of f's terms in lexicographic row order, as
    `np.argwhere` reads them from f's coefficient tensor. Cell (alpha, beta)
    of `shift_coefficient_matrix(f)` is c * prod_i C(gamma_i, alpha_i) for
    the term c x^gamma with gamma = alpha + beta, and no such binomial
    vanishes mod p since gamma_i < p (Lucas). So the grid has a nonzero cell
    with |alpha| > d and |beta| > d exactly when f has a term of degree
    >= 2d + 2; the first one in graded-lex order is returned, and the p^n x
    p^n grid is never built.
    """
    degrees = terms.sum(axis=1)
    bad = degrees >= 2 * d + 2
    if not bad.any():
        return None
    return tuple(terms[np.argmax(bad & (degrees == degrees[bad].min()))].tolist())


def gram_matrix(f: ReducedPoly, A: PointSet, B: PointSet) -> FpMatrix:
    """Matrix of f(a + b) over a in A (rows), b in B (columns), index order."""
    if A.field != f.field or B.field != f.field or A.n != f.n or B.n != f.n:
        raise ValueError("polynomial and point sets live in different spaces")
    return FpMatrix._trusted(pair_values(np.array(evaluate_all(f)), A, B), f.field)


def pair_values(table, A: PointSet, B: PointSet) -> np.ndarray:
    """table[a + b] over a in A (rows), b in B (columns), index order, for a
    table over F_p^n."""
    table = np.asarray(table, dtype=np.int64)
    out = np.zeros((len(A), len(B)), dtype=np.int64)
    for r, c, block in _pair_indices(_members(A)[1], _members(B)[1], A.field.p):
        out[r : r + block.shape[0], c : c + block.shape[1]] = table[block]
    return out


def poly_to_vector(f: ReducedPoly) -> np.ndarray:
    """Coefficient vector of f over the full graded-lex monomial index."""
    total = _require_dense_ok(f.field, f.n)
    _, index = monomial_index(f.field.p, f.n)
    vec = np.zeros(total, dtype=np.int64)
    for alpha, c in f._coeffs.items():
        vec[index[alpha]] = c
    return vec


def poly_from_vector(vec: Sequence[int], field: PrimeField, n: int) -> ReducedPoly:
    monos, _ = monomial_index(field.p, n)
    if len(vec) != len(monos):
        raise ValueError(f"coefficient vector has length {len(vec)}, expected {len(monos)}")
    return ReducedPoly(field, n, {monos[i]: int(c) for i, c in enumerate(vec) if c % field.p})
