"""The field GF(p) for an odd prime p < 2^16, without numpy.

The integer-only commands (`bound`, `dims`, `entropy-check`) need only the
modulus, so this module imports nothing heavier than `numbers`; `gf`
re-exports `PrimeField` and `MAX_MODULUS` next to its exact elimination.
"""

from __future__ import annotations

import numbers

__all__ = ["MAX_MODULUS", "PrimeField"]

MAX_MODULUS = 1 << 16


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """GF(p) for an odd prime p with 3 <= p < 2^16.

    Elements are plain ints in [0, p-1]; instances only carry the modulus
    and the inverse of 2.
    """

    __slots__ = ("p", "inv2")

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an int, got {p!r}")
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus {p} is too large, need p < 2^16")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("p = 2 is rejected: an odd prime is required")
        self.p = p
        self.inv2 = pow(2, -1, p)

    def validate(self, a: int) -> int:
        if not isinstance(a, numbers.Integral) or isinstance(a, bool):
            raise ValueError(f"field element must be an int, got {a!r}")
        if not 0 <= a < self.p:
            raise ValueError(f"element {a} out of range [0, {self.p - 1}]")
        return int(a)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"
