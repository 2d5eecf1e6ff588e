"""Exact linear algebra over GF(p): dense matrices and elimination.

The field itself, `PrimeField`, lives in the numpy-free `field` module and
is re-exported here with `MAX_MODULUS`. Field elements are plain ints in
[0, p-1]. Matrices keep their entries in int64 numpy arrays so row
operations vectorize. Elimination reduces mod p lazily: after k pivots an
entry has |entry| < p + k(p-1)^2, and it runs in the narrowest of int16,
int32 and int64 that holds that bound (int64 does for p < 2^16 while
k < 2^31), so all linear algebra here is exact.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .field import MAX_MODULUS, PrimeField

__all__ = [
    "MAX_MODULUS",
    "PrimeField",
    "FpMatrix",
    "row_space_intersection",
]


def _row_reduce(a: np.ndarray, p: int) -> list[int]:
    """In-place reduced row echelon form mod p of `a`, whose entries are in
    [0, p); returns pivot column indices.

    One Gauss-Jordan pass with lazy reduction: per pivot only its column and
    its scaled row are taken mod p, and one rank-1 update subtracts the row,
    from the pivot column on, from the rows nonzero in that column when they
    are under half (a gathered row costs more than a sliced one), else from
    every row. Each pivot lowers an entry by at most (p-1)^2, so after k <=
    min(rows, cols) pivots |entry| < p + k(p-1)^2. The pass runs in the
    narrowest of int16, int32 and int64 that holds this bound (int64 does for
    p < 2^16 while k < 2^31), on a copy unless that is `a`'s dtype, and the
    result is written back into `a`. The bound needs the pivot row taken mod
    p at every pivot, even when it leads with 1: its other entries carry
    earlier pivots' updates. Pivots are the first nonzero entry in column
    order; the RREF is unique, so the result is deterministic.
    """
    bound = p + min(a.shape) * (p - 1) ** 2
    w = a.astype(np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64, copy=False)
    rows, cols = w.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = w[:, c]
        col %= p
        nz = col.nonzero()[0]
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        i = int(nz[k])
        row = w[i, c:] % p
        inv = pow(int(row[0]), -1, p)
        if inv != 1:
            row *= inv
            row %= p
        sel = nz if 2 * nz.size < rows else slice(None)
        w[sel, c:] -= col[sel, None] * row
        if i != r:  # rows r and i are zero left of c
            w[i, c:] = w[r, c:]
        w[r, c:] = row
        pivots.append(c)
        r += 1
    np.remainder(w, p, out=a)
    return pivots


class FpMatrix:
    """Dense matrix over GF(p) with exact elimination primitives."""

    __slots__ = ("field", "_a")

    def __init__(self, entries, field: PrimeField) -> None:
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {a.shape}")
        self.field = field
        self._a = np.mod(a, field.p)

    @classmethod
    def _trusted(cls, a: np.ndarray, field: PrimeField) -> "FpMatrix":
        """Wrap `a`, a 2-d int64 array already reduced mod p, without a copy."""
        mat = cls.__new__(cls)
        mat.field, mat._a = field, a
        return mat

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Copy of the underlying entry array (instances stay immutable)."""
        return self._a.copy()

    def transpose(self) -> "FpMatrix":
        return FpMatrix._trusted(self._a.T, self.field)

    def rank(self) -> int:
        return len(_row_reduce(self._a.copy(), self.field.p))

    def pivot_columns(self) -> list[int]:
        """Column indices whose restriction has full column rank.

        These are the leftmost pivots of left-to-right elimination, so the
        selection is deterministic and stable under row permutations (any
        rank-many independent column set stays independent).
        """
        return _row_reduce(self._a.copy(), self.field.p)

    def unit_kernel_vector(self) -> tuple[np.ndarray, np.ndarray]:
        """(free, v): the columns without a pivot in right-to-left elimination (a
        bool mask) and the kernel vector equal to 1 on them. By matroid duality
        these are the leftmost pivots of the RREF of any kernel basis, and v is
        the sum of that RREF's rows; at pivot row r, v = -(row r summed over free)."""
        p = self.field.p
        a = self._a[:, ::-1].copy()
        pivots = _row_reduce(a, p)
        free = np.ones(self.cols, dtype=bool)
        free[pivots] = False
        v = free.astype(np.int64)
        v[pivots] = -a[: len(pivots), free].sum(axis=1) % p
        return free[::-1], v[::-1]

    def solve(self, rhs: Sequence[int]) -> list[int] | None:
        """One solution of M x = rhs (free coordinates zero), or None."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        p = self.field.p
        aug = np.zeros((self.rows, self.cols + 1), dtype=np.int64)
        aug[:, : self.cols] = self._a
        aug[:, self.cols] = np.mod(np.array(rhs, dtype=np.int64), p)
        pivots = _row_reduce(aug, p)
        if pivots and pivots[-1] == self.cols:
            return None
        x = [0] * self.cols
        for j, pc in enumerate(pivots):
            x[pc] = int(aug[j, self.cols])
        return x

    def __repr__(self) -> str:
        return f"FpMatrix({self.rows}x{self.cols} over GF({self.field.p}))"


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
    _row_reduce(block, p)
    out = []
    for row in block:
        if not row[:m].any() and row[m:].any():
            out.append([int(x) for x in row[m:]])
    return out
