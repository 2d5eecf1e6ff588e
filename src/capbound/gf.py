"""Exact elimination over GF(p) on plain integer numpy arrays.

The field itself, `PrimeField`, lives in the numpy-free `field` module and
is re-exported here with `MAX_MODULUS`. Field elements are plain ints in
[0, p-1], and a matrix is a 2-d integer array with entries in [0, p), so
row operations vectorize. This module holds what the certificate runs: the
one Gauss-Jordan pass, `_row_reduce`, which eliminates the transpose of the
array it is given, so that each pivot updates one contiguous block, in the
narrowest integer type that keeps its lazy reduction exact; and
`unit_kernel_vector`, which `prove` applies to the |C| x h evaluation block
and which hands the pass the block's rows in reverse order. The tests'
dense references (`tests/dense.py`) build rank and row-space
intersection on the same pass, through a transpose.
"""

from __future__ import annotations

import numpy as np

from .field import MAX_MODULUS, PrimeField

__all__ = ["MAX_MODULUS", "PrimeField", "unit_kernel_vector"]


def _row_reduce(m: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """The RREF mod p of the transpose of `m`, whose entries are in [0, p):
    its pivot columns, and the RREF transposed, as a new C-contiguous array.

    One Gauss-Jordan pass with lazy reduction on a copy of `m`, whose rows
    are the columns being eliminated. Per pivot only its column (a row of
    the copy) and its scaled row (a strided column) are taken mod p, and
    their outer product, built in one buffer, is subtracted from the
    contiguous rows from the pivot's on. Each pivot lowers an entry by at
    most (p-1)^2, so after k <= min(m.shape) pivots |entry| < p + k(p-1)^2,
    and the copy is in the narrowest of int16, int32 and int64 that holds
    this bound (int64 does for p < 2^16 while k < 2^31). The pivot row is
    taken mod p even when it leads with 1: its other entries carry earlier
    updates. Pivots are the first nonzero entry in column order; the RREF is
    unique, so the result is deterministic.
    """
    bound = p + min(m.shape) * (p - 1) ** 2
    w = m.astype(np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64, order="C")
    buf = np.empty_like(w)
    cols, rows = w.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = w[c]
        col %= p
        nz = col[r:].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        tail = w[c:]
        row = tail[:, i] % p
        if row[0] != 1:
            row = row * pow(int(row[0]), -1, p) % p
        tail -= np.multiply.outer(row, col, out=buf[: cols - c])
        if i != r:  # columns r and i of w are zero above c
            tail[:, i] = tail[:, r]
        tail[:, r] = row
        pivots.append(c)
        r += 1
    w %= p
    return pivots, w


def unit_kernel_vector(block: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(free, v) for `block`, an integer array with entries in [0, p): a bool
    mask of its rows that get no pivot when its transpose is eliminated right
    to left, and the vector of its left kernel equal to 1 on them. By matroid
    duality these are the leftmost pivots of the RREF of any basis of that
    kernel, and v is the sum of that RREF's rows; at pivot row r, v = -(row r
    summed over free). The elimination reads the block's rows in reverse
    order, narrowed in its one working copy, so `block` is left as it is."""
    pivots, w = _row_reduce(block[::-1], p)
    free = np.ones(len(w), dtype=bool)
    free[pivots] = False
    v = free.astype(np.int64)
    v[pivots] = -w[free, : len(pivots)].sum(axis=0) % p
    return free[::-1], v[::-1]
