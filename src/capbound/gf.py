"""Exact elimination over GF(p) on plain int64 numpy arrays.

The field itself, `PrimeField`, lives in the numpy-free `field` module and
is re-exported here with `MAX_MODULUS`. Field elements are plain ints in
[0, p-1], and a matrix is a 2-d int64 array with entries in [0, p), so row
operations vectorize. This module holds what the certificate runs: the one
Gauss-Jordan pass, `_row_reduce`, and `unit_kernel_vector`, which `prove`
applies to the |C| x h evaluation block. Elimination reduces mod p lazily:
after k pivots an entry has |entry| < p + k(p-1)^2, and it runs in the
narrowest of int16, int32 and int64 that holds that bound (int64 does for
p < 2^16 while k < 2^31), so it is exact. Rank and row-space intersection
are in `capbound.reference`.
"""

from __future__ import annotations

import numpy as np

from .field import MAX_MODULUS, PrimeField

__all__ = ["MAX_MODULUS", "PrimeField", "unit_kernel_vector"]


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


def unit_kernel_vector(block: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(free, v) for `block`, an int64 array with entries in [0, p): a bool
    mask of its rows that get no pivot when its transpose is eliminated right
    to left, and the vector of its left kernel equal to 1 on them. By matroid
    duality these are the leftmost pivots of the RREF of any basis of that
    kernel, and v is the sum of that RREF's rows; at pivot row r, v = -(row r
    summed over free). The transpose is eliminated as a C-contiguous reversed
    copy, so `block` is left as it is."""
    a = block.T[:, ::-1].copy()
    pivots = _row_reduce(a, p)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivots] = False
    v = free.astype(np.int64)
    v[pivots] = -a[: len(pivots), free].sum(axis=1) % p
    return free[::-1], v[::-1]
