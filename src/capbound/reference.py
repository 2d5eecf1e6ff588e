"""The polynomial view, and the dense and per-point references of the certificate.

Neither `capbound` nor `capbound.cli` imports this module (the package's
top level resolves `ReducedPoly`, `evaluate_all` and `interpolate` here on
first access). `prove` and `verify-transcript` work on value tables,
coefficient tensors and one elimination (`polyspace`, `gf`); this module
keeps the forms that library users read and that tests and acceptance
criteria compare with:

- `ReducedPoly`, a sparse polynomial with exponents capped at p-1, with
  `evaluate_all`, `interpolate` and `indicator_poly`; the witness of a
  transcript `t` is `interpolate(proof.value_table(t), field, n)`;
- graded-lex monomial lists and index maps, and the coefficient vectors
  and p^n x p^n shift coefficient grids over them, which need
  p^n <= `DENSE_MATRIX_CEILING`;
- `rank` and `row_space_intersection` (the Zassenhaus block) on arrays;
- evaluation at one point, zero sets, the duality identity over a whole
  layer-count table, and the two p^n x p^n rank arguments that `prove`
  replaces by the diagonal certificate and by the degree cap: a witness of
  degree at most 2s has no shift-grid cell with both degrees above s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import HypothesisViolation
from .field import PrimeField
from .gf import _row_reduce
from .monomials import Monomial, _cumulative_counts, _exponent_array, dim_L
from .polyspace import _coordinate_products, _indicator_rows, _vandermonde, coefficient_tensor
from .sets import PointSet, _members, _pair_indices

__all__ = [
    "DENSE_MATRIX_CEILING",
    "ReducedPoly",
    "evaluate_all",
    "interpolate",
    "indicator_poly",
    "graded_lex_key",
    "enumerate_monomials",
    "monomial_index",
    "rank",
    "row_space_intersection",
    "shift_coefficient_matrix",
    "support_split_rank_bound",
    "gram_matrix",
    "poly_to_vector",
    "poly_from_vector",
    "RankCheck",
    "DiagonalCheck",
    "evaluate",
    "zero_set",
    "verify_duality",
    "check_gram_rank_bound",
    "check_diagonal_size_bound",
]

DENSE_MATRIX_CEILING = 2048


def graded_lex_key(alpha: Monomial) -> tuple[int, Monomial]:
    return (sum(alpha), alpha)


def enumerate_monomials(n: int, field: PrimeField, d: int) -> list[Monomial]:
    """All monomials with exponents <= p-1 and degree <= d, graded-lex sorted."""
    cap = field.p - 1
    if not 0 <= d <= cap * n:
        raise ValueError(f"degree bound {d} out of range [0, {cap * n}]")
    return sorted(map(tuple, _exponent_array(n, cap, d).tolist()), key=graded_lex_key)


@lru_cache(maxsize=32)
def monomial_index(p: int, n: int) -> tuple[tuple[Monomial, ...], dict[Monomial, int]]:
    """Full graded-lex monomial list for GF(p) in n variables, plus its index map."""
    field = PrimeField(p)
    monos = tuple(enumerate_monomials(n, field, (p - 1) * n))
    return monos, {m: i for i, m in enumerate(monos)}


def rank(a, p: int) -> int:
    """Rank over GF(p) of `a`, a 2-d integer array or a list of equal-length rows."""
    return len(_row_reduce(np.mod(np.array(a, dtype=np.int64), p).T, p)[0])


def row_space_intersection(
    basis1: Iterable[Sequence[int]],
    basis2: Iterable[Sequence[int]],
    field: PrimeField,
) -> list[list[int]]:
    """Basis of span(basis1) & span(basis2) via the Zassenhaus block trick.

    Row-reducing [[B1 B1], [B2 0]] leaves the intersection in the right
    halves of the rows whose left halves vanished. For independent input
    families the result has at least |B1| + |B2| - ambient vectors.
    """
    b1 = [list(v) for v in basis1]
    b2 = [list(v) for v in basis2]
    if not b1 or not b2:
        return []
    m = len(b1[0])
    if any(len(v) != m for v in b1) or any(len(v) != m for v in b2):
        raise ValueError("dimension mismatch between vector lengths")
    p = field.p
    block = np.zeros((len(b1) + len(b2), 2 * m), dtype=np.int64)
    block[: len(b1), :m] = np.mod(np.array(b1, dtype=np.int64), p)
    block[: len(b1), m:] = block[: len(b1), :m]
    block[len(b1) :, :m] = np.mod(np.array(b2, dtype=np.int64), p)
    return [row[m:].tolist() for row in _row_reduce(block.T, p)[1].T if not row[:m].any() and row[m:].any()]


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


def _require_dense_ok(field: PrimeField, n: int) -> int:
    total = field.p**n
    if total > DENSE_MATRIX_CEILING:
        raise ValueError(
            f"p^n = {total} exceeds the dense-matrix ceiling {DENSE_MATRIX_CEILING}"
        )
    return total


def shift_coefficient_matrix(f: ReducedPoly) -> np.ndarray:
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
    return mat


def support_split_rank_bound(C: np.ndarray, d: int, n: int, field: PrimeField) -> int:
    """Verify every nonzero C entry has a low-degree row or column; bound rank.

    For f of degree <= 2d every cell with |alpha| > d and |beta| > d must be
    zero, so the support sits in (low-degree rows) union (low-degree
    columns) and rank C <= 2 * dim of the degree-<=d slice, which is
    returned. A violation means the caller's f had degree > 2d.
    """
    monos, _ = monomial_index(field.p, n)
    degrees = np.array([sum(m) for m in monos], dtype=np.int64)
    rows, cols = np.nonzero(C)
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


def gram_matrix(f: ReducedPoly, A: PointSet, B: PointSet) -> np.ndarray:
    """Matrix of f(a + b) over a in A (rows), b in B (columns), index order."""
    if A.field != f.field or B.field != f.field or A.n != f.n or B.n != f.n:
        raise ValueError("polynomial and point sets live in different spaces")
    table = np.array(evaluate_all(f), dtype=np.int64)
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
    Ma, Mb = (_coordinate_products(_members(ps)[1], monos, _vandermonde(p), f.field) for ps in (A, B))
    factorization_ok = np.array_equal((Ma @ C % p) @ Mb.T % p, M)
    rg, rc = rank(M, p), rank(C, p)
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
    gram = gram_matrix(f, A, A)
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
    return DiagonalCheck(set_size=A.size, split_bound=bound, rank_shift=rank(C, f.field.p), holds=A.size <= bound)
