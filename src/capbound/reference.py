"""The polynomial view of the certificate's witness.

Neither `capbound` nor `capbound.cli` imports this module (the package's
top level resolves `ReducedPoly`, `evaluate_all` and `interpolate` here on
first access). `prove` and `verify-transcript` work on value tables,
coefficient tensors and one elimination (`polyspace`, `gf`); this module
keeps the form that library users read: `ReducedPoly`, a sparse
polynomial with exponents capped at p-1, with `evaluate_all`,
`interpolate` and `indicator_poly`. The witness of a transcript `t` is
`interpolate(proof.value_table(t), field, n)`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .field import PrimeField
from .monomials import Monomial
from .polyspace import _indicator_rows, _vandermonde, coefficient_tensor

__all__ = [
    "ReducedPoly",
    "evaluate_all",
    "interpolate",
    "indicator_poly",
    "graded_lex_key",
]


def graded_lex_key(alpha: Monomial) -> tuple[int, Monomial]:
    return (sum(alpha), alpha)


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
