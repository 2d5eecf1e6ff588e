"""Subsets of F_p^n and the progression check: what the certificate trusts.

A PointSet is an immutable membership bitmap (one Python int) over the
base-p point encoding, plus its ambient (p, n) of at most 2^24 points.
Progression-freeness means no distinct a, b, c in the set with a + b = 2c.
Since p is odd, that holds exactly when the sums a + b of distinct members
miss the doubles 2c, which keeps every check quadratic.

Pair work runs in one carry-free key kernel (`_key_tables`): each point is
reduced once and keyed per group of digits in base 2p, so the index of a sum
mod p costs one key sum and one table lookup per group. `_pair_indices`
sweeps pair sums in bounded blocks, and `_first_pair` finds the first pair
whose sum a table marks. The searches, in `capbound.search`, build on it.
"""

from __future__ import annotations

import functools
import importlib
import json
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .field import PrimeField

__all__ = [
    "PointSet",
    "is_progression_free",
    "pair_sums",
    "load_json",
    "PAIR_BOUND",
]

_AMBIENT_CEILING = 1 << 24  # most points an ambient F_p^n may have
PAIR_BOUND = 2**25  # pairs a < b of one `pair_sums` sweep: admits |A| <= 8192
_PAIR_CHUNK = 1 << 14  # most entries of one block of `_pair_indices`, so that its temporaries stay in cache
_KEY_TABLE_CEILING = 1 << 12  # most entries of one digit-group table, unless 2p exceeds it


def _ambient_size(field: PrimeField, n: int) -> int:
    """p^n if n >= 0 and p^n <= _AMBIENT_CEILING, else ValueError. Since p > 2,
    n >= 25 is refused before p^n is computed, whatever n an input names."""
    if not 0 <= n < _AMBIENT_CEILING.bit_length() or field.p**n > _AMBIENT_CEILING:
        raise ValueError(f"F_{field.p}^{n} needs n >= 0 and at most {_AMBIENT_CEILING} points")
    return field.p**n


class PointSet:
    """Immutable subset of F_p^n keyed by base-p point encoding."""

    __slots__ = ("field", "n", "_mask", "_size")

    def __init__(self, field: PrimeField, n: int, mask: int) -> None:
        if mask < 0 or mask >> _ambient_size(field, n):
            raise ValueError("membership mask has bits outside [0, p^n)")
        self.field = field
        self.n = n
        self._mask = mask
        self._size = mask.bit_count()

    @classmethod
    def empty(cls, field: PrimeField, n: int) -> "PointSet":
        return cls(field, n, 0)

    @classmethod
    def full(cls, field: PrimeField, n: int) -> "PointSet":
        return cls(field, n, (1 << _ambient_size(field, n)) - 1)

    @classmethod
    def from_indices(cls, field: PrimeField, n: int, indices: Iterable[int]) -> "PointSet":
        """Set of the given indices, which may repeat; the first outside [0, p^n) raises ValueError."""
        total = _ambient_size(field, n)
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        try:
            idx = np.asarray(indices, dtype=np.int64)
            in_range = not idx.size or 0 <= idx.min() <= idx.max() < total
        except OverflowError:
            in_range = False
        if not in_range:
            bad = next(i for i in map(int, indices) if not 0 <= i < total)
            raise ValueError(f"point index {bad} out of range [0, {total})")
        table = np.zeros(total, dtype=bool)
        table[idx] = True
        return cls._from_table(field, n, table)

    @classmethod
    def from_points(
        cls, field: PrimeField, n: int, points: Iterable[Sequence[int]]
    ) -> "PointSet":
        """Set of the given points; a point listed twice raises ValueError.

        Arity, coordinate types and range are each one pass over all points,
        which the index kernel then encodes; the first bad point is looked up
        only to word the error."""
        points = [tuple(c) for c in points]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"point-set n must be an int, got {n!r}")
        total = _ambient_size(field, n)
        if set(map(len, points)) - {n}:
            bad = next(c for c in points if len(c) != n)
            raise ValueError(f"point {bad} has wrong dimension, expected {n}")
        flat = list(chain.from_iterable(points))
        kinds = set(map(type, flat))
        if flat and not (
            all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds)
            and 0 <= min(flat) <= max(flat) < field.p
        ):
            for x in flat:
                field.validate(x)
        table = np.zeros(total, dtype=bool)
        table[_index_of(np.array(flat, dtype=np.int64).reshape(len(points), n), field.p)] = True
        ps = cls._from_table(field, n, table)
        if ps.size < len(points):
            seen: set[tuple] = set()
            raise ValueError(f"duplicate point {next(c for c in points if c in seen or seen.add(c))}")
        return ps

    @classmethod
    def _from_table(cls, field: PrimeField, n: int, table: np.ndarray) -> "PointSet":
        """Set of the indices where a bool array over [0, p^n) is true."""
        packed = np.packbits(table, bitorder="little").tobytes()
        return cls(field, n, int.from_bytes(packed, "little"))

    def _table(self) -> np.ndarray:
        """Membership as a bool array over [0, p^n)."""
        total = self.field.p**self.n
        raw = np.frombuffer(self._mask.to_bytes((total + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=total, bitorder="little").view(bool)

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    def __contains__(self, index: int) -> bool:
        return bool(self._mask >> index & 1)

    def indices(self) -> list[int]:
        return np.flatnonzero(self._table()).tolist()

    def points(self) -> list[tuple[int, ...]]:
        return list(map(tuple, _members(self)[1].tolist()))

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def intersection(self, other: "PointSet") -> "PointSet":
        if other.field != self.field or other.n != self.n:
            raise ValueError("point sets live in different ambient spaces")
        return PointSet(self.field, self.n, self._mask & other._mask)

    def complement(self) -> "PointSet":
        return PointSet(self.field, self.n, ~self._mask & ((1 << self.field.p**self.n) - 1))

    __and__ = intersection

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointSet)
            and other.field == self.field
            and other.n == self.n
            and other._mask == self._mask
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.n, self._mask))

    def __repr__(self) -> str:
        return f"PointSet(p={self.field.p}, n={self.n}, size={self._size})"

    def to_json(self) -> dict:
        return {"p": self.field.p, "n": self.n, "points": _members(self)[1].tolist()}

    @classmethod
    def from_json(cls, data: dict, what: str = "point set") -> "PointSet":
        """Inverse of `to_json`: an object of int p, n and coordinates and no other key;
        anything else raises ValueError, worded for `what` the object is."""
        if not isinstance(data, dict):
            raise ValueError(f"{what} must be an object, got {type(data).__name__}")
        unknown = next((k for k in data if k not in ("p", "n", "points")), None)
        if unknown is not None:
            raise ValueError(f"{what} has unknown key {unknown!r}")
        try:
            return cls.from_points(PrimeField(data["p"]), data["n"], data["points"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{what} needs p, n and a points list: {exc!r}") from None

    def to_text(self) -> str:
        lines = [f"p={self.field.p} n={self.n}"]
        lines += [" ".join(map(str, c)) for c in self.points()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PointSet":
        header = None
        points = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                pairs = [part.partition("=") for part in line.split()]
                if sorted((name, eq) for name, eq, _ in pairs) != [("n", "="), ("p", "=")]:
                    raise ValueError(
                        f"header line must be p=<prime> n=<dim>, each once and nothing else, got {line!r}"
                    )
                fields = {name: value for name, _, value in pairs}
                header = (PrimeField(int(fields["p"])), int(fields["n"]))
                continue
            points.append(tuple(int(t) for t in line.split()))
        if header is None:
            raise ValueError("missing header line 'p=<prime> n=<dim>'")
        return cls.from_points(header[0], header[1], points)


def load_json(text: str):
    """`json.loads(text)`; an object that repeats a key, or nesting too deep
    for the decoder (a RecursionError), is a ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply to read") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"JSON object repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _members(ps: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """Members of `ps` as an ascending index vector and their (m, n) coordinates."""
    idx = np.flatnonzero(ps._table())
    return idx, _coords_of(idx, ps.field.p, ps.n)


def _coords_of(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """(m, n) coordinates of the points with base-p indices `idx`."""
    return np.asarray(idx, dtype=np.int64)[:, None] // p ** np.arange(n, dtype=np.int64) % p


def _index_of(coords: np.ndarray, p: int) -> np.ndarray:
    """Base-p indices of the points in the last axis of `coords`."""
    return coords @ p ** np.arange(coords.shape[-1], dtype=np.int64)


@functools.lru_cache(maxsize=16)
def _key_tables(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, tables) of the carry-free pair kernel on F_p^n, read-only.

    The digits fall into G groups of at most k, the most with (2p)^k <=
    _KEY_TABLE_CEILING (at least 1). Row g of `weights` keys a reduced point
    as sum_i d_i (2p)^i over group g; digits of a sum of two reduced points
    stay below 2p, so keys add without carries, and tables[g][key] =
    sum_i (d_i mod p) p^(i + kg) is group g's share of the sum's index mod p."""
    k = max([1] + [k for k in range(1, n + 1) if (2 * p) ** k <= _KEY_TABLE_CEILING])
    groups = max(1, -(-n // k))
    k = max(1, -(-n // groups))  # as many groups, none longer than needed
    digit = np.arange(n, dtype=np.int64)
    weights = np.where(digit // k == np.arange(groups)[:, None], (2 * p) ** (digit % k), 0)
    sums = np.arange((2 * p) ** k)[:, None] // (2 * p) ** np.arange(k) % (2 * p)
    tables = (sums % p @ p ** np.arange(k)) * p ** (k * np.arange(groups))[:, None]
    weights.flags.writeable = tables.flags.writeable = False
    return weights, tables


def _key_sums(a: np.ndarray, b: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Indices of the sums of the points keyed by `a` and `b`, broadcast in
    each group: one key addition and one table lookup per group."""
    out = tables[0].take(a[0] + b[0])
    for table, x, y in zip(tables[1:], a[1:], b[1:]):
        out += table.take(x + y)
    return out


def _pair_indices(
    u: np.ndarray, v: np.ndarray, p: int, upper: bool = False
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Indices of x + y mod p for every row x of `u` and row y of `v`, all reduced.

    Yields (row, col, block) with block[i, j] the index for u[row + i] and
    v[col + j], in row-major order of the pairs, at most _PAIR_CHUNK pairs a
    block. `upper` (for v = u) sweeps the pairs i < j: a row band's blocks
    start at the column after its first row, a diagonal entry holds p^n,
    one past every index, and an entry j < i repeats the pair (j, i), which
    the same block holds earlier in row-major order."""
    weights, tables = _key_tables(p, u.shape[1])
    ku = (weights @ u.T)[:, :, None]
    kv = ku.transpose(0, 2, 1) if upper else (weights @ v.T)[:, None, :]
    cols = max(1, min(len(v), _PAIR_CHUNK))
    rows = max(1, _PAIR_CHUNK // cols)  # 1 when a row needs several column blocks
    for r in range(0, len(u), rows):
        for c in range(r + 1 if upper else 0, len(v), cols):
            block = _key_sums(ku[:, r : r + rows], kv[:, :, c : c + cols], tables)
            if upper and c < r + len(block):
                np.fill_diagonal(block[c - r :], p ** u.shape[1])
            yield r, c, block


def _members_and_doubles(ps: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of the members a of `ps`, and a bool table over [0, p^n] of
    the doubles 2a; entry p^n, the diagonal of an `upper` sweep, is False."""
    p, coords = ps.field.p, _members(ps)[1]
    doubles = np.zeros(p**ps.n + 1, dtype=bool)
    doubles[_index_of(2 * coords % p, p)] = True
    return coords, doubles


def is_progression_free(ps: PointSet) -> tuple[bool, tuple | None]:
    """Check for distinct a, b, c with a + b = 2c; returns one witness triple.

    `_first_pair` over a table of the doubles: for odd p, a + b = 2c with
    a != b forces c to differ from a and b. The first pair a < b whose sum
    is a double gives (a, b, (a + b)/2)."""
    coords, doubles = _members_and_doubles(ps)
    if (hit := _first_pair(coords, doubles, ps.field.p)) is None:
        return True, None
    a, b = coords[hit[0]], coords[hit[1]]
    return False, tuple(tuple(x.tolist()) for x in (a, b, (a + b) * ps.field.inv2 % ps.field.p))


def _first_pair(coords: np.ndarray, table: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """The first rows a < b of `coords`, in `_pair_indices`' upper order, whose sum has a nonzero
    entry in `table`, over [0, p^n] with entry p^n the sweep's diagonal: (a, b, entry), or None."""
    for r, c, block in _pair_indices(coords, coords, p, upper=True):
        hit = table.take(block)
        if hit.any():
            i, j = np.unravel_index(np.argmax(hit != 0), hit.shape)
            return r + i, c + j, int(hit[i, j])
    return None


def pair_sums(ps: PointSet) -> tuple[PointSet, PointSet]:
    """Sums of distinct pairs, from one sweep over the pairs a < b, and doubles.

    Doubling x -> 2x is injective for odd p, so the doubles set always has
    exactly |A| elements; the two sets are disjoint exactly when A is
    progression-free, so the verdict alone is read off their intersection.
    A set of more than `PAIR_BOUND` pairs is refused (ValueError) before any
    table is allocated."""
    field, n, p = ps.field, ps.n, ps.field.p
    if (pairs := ps.size * (ps.size - 1) // 2) > PAIR_BOUND:
        raise ValueError(
            f"the pair sweep over |A| = {ps.size} points would take {pairs} pairs, above the pair bound {PAIR_BOUND}"
        )
    coords, doubles = _members_and_doubles(ps)
    sums = np.zeros(p**n + 1, dtype=bool)
    for _, _, block in _pair_indices(coords, coords, p, upper=True):
        sums[block] = True
    return PointSet._from_table(field, n, sums[:-1]), PointSet._from_table(field, n, doubles[:-1])


# `perfbench/tracer.py` reads the searches here; ROADMAP item 1a retargets it and deletes this hook.
def __getattr__(name: str):  # PEP 562: resolved on first access, so no certificate command loads `search`
    if name not in ("max_progression_free", "greedy_progression_free"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".search", __package__), name)
