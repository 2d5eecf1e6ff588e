"""Tail bounds and the dimension-growth exponent, with guarded comparisons.

"log" in the exponent c = 1 - 1/(18 log p) is the natural logarithm; that
is what makes p^(n(1-1/(18 log p))) equal p^n * e^(-n/18), and it matches
the headline base 3^c = 2.84 (base-2 or base-10 would give 2.71 or 2.45).

Real comparisons never decide anything close: exact big-integer dimensions
are compared against bounds in log space with a 1e-9 guard margin. Every
real value is evaluated at `PRECISION` = 30 significant digits in a fresh
decimal context, `Context(prec=PRECISION)`, whatever the caller's own
context: 30 digits serve every printed digit of p^c and every verdict
behind the guard.

c, c n ln p and p^(cn) are evaluated in one place, `_p_cn`, which memoises
ln p by p and each row by (p, n); `exponent_c`, `verify_entropy_lemma`,
`main_bound`, the `bound` command and the transcript's asymptotic row all
read it. The degree cut (p-1)n/3 is written once too, in `_split_degree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from .field import PrimeField
from .monomials import dim_L

__all__ = [
    "PRECISION",
    "GUARD_MARGIN",
    "BoundReport",
    "exponent_c",
    "hoeffding_bound",
    "verify_entropy_lemma",
    "exact_tail_identity",
    "main_bound",
]

PRECISION = 30  # significant digits of every real value the package computes
GUARD_MARGIN = Decimal("1e-9")


def _to_decimal(x) -> Decimal:
    if isinstance(x, Decimal):
        return x
    if isinstance(x, int):
        return Decimal(x)
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    if isinstance(x, float):
        return Decimal(repr(x))
    raise ValueError(f"expected a number, got {x!r}")


@lru_cache(maxsize=32)
def _ln_p(p: int) -> tuple[Decimal, Decimal]:
    with localcontext(Context(prec=PRECISION)):
        ln_p = Decimal(p).ln()
        return ln_p, 1 - 1 / (18 * ln_p)


@lru_cache(maxsize=128)
def _p_cn_row(p: int, n: int) -> tuple[Decimal, Decimal, Decimal]:
    ln_p, c = _ln_p(p)
    with localcontext(Context(prec=PRECISION)):
        log_bound = c * n * ln_p
        p_cn = log_bound.exp()
        return log_bound, p_cn, 3 * p_cn


def _p_cn(field: PrimeField, ns=()) -> tuple[Decimal, list[tuple[Decimal, ...]]]:
    """c = 1 - 1/(18 ln p) and, for each n in `ns`, (c n ln p, p^(cn), 3 p^(cn)).
    Each value is memoised by its key, p or (p, n); the list is new on each call."""
    return _ln_p(field.p)[1], [_p_cn_row(field.p, n) for n in ns]


def exponent_c(field: PrimeField) -> Decimal:
    """The exponent c(p) = 1 - 1/(18 ln p), strictly inside (0, 1)."""
    return _p_cn(field)[0]


def hoeffding_bound(t, widths) -> Decimal:
    """Sub-Gaussian tail bound exp(-2 t^2 / sum(widths_i^2)) for t >= 0.

    `widths` are the ranges b_i - a_i of the bounded summands.
    """
    widths = list(widths)
    if not widths:
        raise ValueError("widths must be nonempty")
    with localcontext(Context(prec=PRECISION)):
        td = _to_decimal(t)
        ws = [_to_decimal(w) for w in widths]
        if td < 0:
            raise ValueError("t must be nonnegative")
        if any(w < 0 for w in ws):
            raise ValueError("widths must be nonnegative")
        if td == 0:
            return Decimal(1)
        ssq = sum(w * w for w in ws)
        if ssq == 0:
            raise ValueError("degenerate ranges")
        return (-2 * td * td / ssq).exp()


@dataclass(frozen=True)
class BoundReport:
    """Exact dimension of the low-third degree slice versus its p^(cn) bound."""

    p: int
    n: int
    c: Decimal
    exact_dim: int
    bound_value: Decimal
    margin: Decimal
    holds: bool


def _split_degree(p: int, n: int) -> int:
    """The degree cut (p-1)n/3, the certificate's split degree s, whose cap is D2 = 2s.

    Refuses n < 1 and 3 ∤ (p-1)n."""
    if n < 1 or (p - 1) * n % 3:
        raise ValueError("the degree cut (p-1)n/3 needs n >= 1 and 3 | (p-1)n, so 3 | n unless p = 1 mod 3")
    return (p - 1) * n // 3


def verify_entropy_lemma(field: PrimeField, n: int) -> BoundReport:
    """Check ln(dim of the degree-<=(p-1)n/3 slice) <= c * n * ln p exactly.

    Requires n >= 1 with an integral degree cut (see `_split_degree`). The
    dimension is one `dim_L` read, which builds no table. `holds` demands a
    margin above the 1e-9 guard, which no valid case sits anywhere near.
    """
    exact = dim_L(n, _split_degree(field.p, n), field)
    c, [(log_bound, p_cn, _)] = _p_cn(field, [n])
    with localcontext(Context(prec=PRECISION)):
        margin = log_bound - Decimal(exact).ln()
    return BoundReport(
        p=field.p, n=n, c=c, exact_dim=exact, bound_value=p_cn, margin=margin, holds=margin > GUARD_MARGIN
    )


def exact_tail_identity(
    field: PrimeField, n: int, k: int
) -> tuple[Fraction, Decimal | None]:
    """Exact Pr[S <= k] for S a sum of n uniforms on {0..p-1}, plus its bound.

    The probability is a big rational: the number of capped monomials of
    degree <= k, dim_L(n, k), divided by p^n.
    The second component is the Hoeffding bound at t = (p-1)n/2 - k, only
    meaningful below the mean (None above it).
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = field.p - 1
    tail = Fraction(dim_L(n, k, field), field.p**n)  # dim_L refuses k outside [0, mn]
    mean_twice = m * n  # 2 * E[S]
    if 2 * k > mean_twice:
        return tail, None
    t = Fraction(mean_twice, 2) - k
    return tail, hoeffding_bound(t, [m] * n)


def main_bound(field: PrimeField, n: int) -> Decimal:
    """The concrete size bound 3 * p^(c n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _, [(_, _, bound)] = _p_cn(field, [n])
    return bound
