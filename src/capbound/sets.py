"""Subsets of F_p^n and progression-free machinery: verify, build, search.

A PointSet is an immutable membership bitmap (one Python int) over the
base-p point encoding, plus its ambient (p, n) of at most 2^24 points.
Progression-freeness means no distinct a, b, c in the set with a + b = 2c.
Since p is odd, that holds exactly when the sums a + b of distinct members
miss the doubles 2c, which keeps every check quadratic.

Pair work runs in one carry-free key kernel (`_key_tables`): each point is
reduced once and keyed per group of digits in base 2p, so the index of a sum
mod p costs one key sum and one table lookup per group. `_pair_indices`
sweeps pair sums in bounded blocks; `_form_keys` keys the completion forms.

The exact search keeps Python-int masks. Its row table (`_BlockRows`) is
built from the same kernel, one row per point j it reaches. The depth-first
`_walk` memoises the blocking mask of each chosen prefix, so including j
costs about one OR, and goes on in place with one pending state per depth;
`_split`, the breadth-first split into subtrees for `_walk_subtrees`, ORs
one row entry per chosen point. A node budget caps both.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ProgressionFound
from .field import PrimeField

__all__ = [
    "PointSet",
    "SearchResult",
    "is_progression_free",
    "pair_sums",
    "max_progression_free",
    "greedy_progression_free",
    "parse_point_set",
    "load_json",
    "EXACT_SEARCH_CEILING",
]

EXACT_SEARCH_CEILING = 3**6
_AMBIENT_CEILING = 1 << 24  # most points an ambient F_p^n may have
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
        total = _ambient_size(field, n)
        mask = 0
        for i in indices:
            i = int(i)
            if not 0 <= i < total:
                raise ValueError(f"point index {i} out of range [0, {total})")
            mask |= 1 << i
        return cls(field, n, mask)

    @classmethod
    def from_points(
        cls, field: PrimeField, n: int, points: Iterable[Sequence[int]]
    ) -> "PointSet":
        """Set of the given points; a point listed twice raises ValueError.

        Arity, coordinate types and range are each one pass over all points,
        which the index kernel then encodes; the first bad point is looked up
        only to word the error."""
        total = _ambient_size(field, n)
        points = [tuple(c) for c in points]
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

    def _check_ambient(self, other: "PointSet") -> None:
        if other.field != self.field or other.n != self.n:
            raise ValueError("point sets live in different ambient spaces")

    def union(self, other: "PointSet") -> "PointSet":
        self._check_ambient(other)
        return PointSet(self.field, self.n, self._mask | other._mask)

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check_ambient(other)
        return PointSet(self.field, self.n, self._mask & other._mask)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_ambient(other)
        return PointSet(self.field, self.n, self._mask & ~other._mask)

    def complement(self) -> "PointSet":
        return PointSet(self.field, self.n, ~self._mask & ((1 << self.field.p**self.n) - 1))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

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
        return {"p": self.field.p, "n": self.n, "points": [list(c) for c in self.points()]}

    @classmethod
    def from_json(cls, data: dict) -> "PointSet":
        """Inverse of `to_json`: int p, n and coordinates; anything else raises ValueError."""
        try:
            field, n, points = PrimeField(data["p"]), data["n"], [tuple(c) for c in data["points"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"point-set object needs p, n and a points list: {exc!r}") from None
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"point-set n must be an int, got {n!r}")
        return cls.from_points(field, n, points)

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
                pairs = [part.split("=", 1) for part in line.split() if "=" in part]
                names = [name for name, _ in pairs]
                if names.count("p") != 1 or names.count("n") != 1:
                    raise ValueError(f"header line must declare p=<prime> n=<dim>, each once, got {line!r}")
                fields = dict(pairs)
                header = (PrimeField(int(fields["p"])), int(fields["n"]))
                continue
            points.append(tuple(int(t) for t in line.split()))
        if header is None:
            raise ValueError("missing header line 'p=<prime> n=<dim>'")
        return cls.from_points(header[0], header[1], points)


def parse_point_set(text: str) -> PointSet:
    """Accept either the JSON or the plain-text serialization; repeated points are rejected."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return PointSet.from_json(load_json(text))
    return PointSet.from_text(text)


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

    `pair_sums`' sweep over the pairs a < b, looked up in a table of the
    doubles: for odd p, a + b = 2c with a != b forces c to differ from a and
    b. The first hit in index order of the pairs gives (a, b, (a + b)/2)."""
    field, p = ps.field, ps.field.p
    coords, doubles = _members_and_doubles(ps)
    for r, c, block in _pair_indices(coords, coords, p, upper=True):
        hit = doubles.take(block)
        if hit.any():
            i, j = np.unravel_index(np.argmax(hit), hit.shape)
            a, b = coords[r + i], coords[c + j]
            return False, (tuple(a.tolist()), tuple(b.tolist()), tuple(((a + b) * field.inv2 % p).tolist()))
    return True, None


def pair_sums(ps: PointSet) -> tuple[PointSet, PointSet]:
    """Sums of distinct pairs, from one sweep over the pairs a < b, and doubles.

    Doubling x -> 2x is injective for odd p, so the doubles set always has
    exactly |A| elements; the two sets are disjoint exactly when A is
    progression-free, so the verdict alone is read off their intersection."""
    field, n, p = ps.field, ps.n, ps.field.p
    coords, doubles = _members_and_doubles(ps)
    sums = np.zeros(p**n + 1, dtype=bool)
    for _, _, block in _pair_indices(coords, coords, p, upper=True):
        sums[block] = True
    return PointSet._from_table(field, n, sums[:-1]), PointSet._from_table(field, n, doubles[:-1])


@dataclass
class SearchResult:
    """Outcome of a search; the witness is re-verified at construction."""

    best_size: int
    witness: PointSet
    optimal: bool
    nodes_explored: int
    elapsed: float

    def __post_init__(self) -> None:
        ok, triple = is_progression_free(self.witness)
        if not ok:
            raise ProgressionFound("search produced an invalid witness", triple)
        if self.witness.size != self.best_size:
            raise ValueError("witness size disagrees with best_size")


class _BlockRows(dict):
    """Row j, built on first lookup: entry a < j masks the indices that
    {j, a} forbids as later additions, (j + a)/2, 2a - j and 2j - a. The
    search only includes j above every chosen a, so a row holds the prefix
    a < j, one key-kernel pass for the three forms, and j's blocking mask
    is the OR of row[a] over the chosen a, which `_walk` memoises by prefix."""

    def __init__(self, p: int, n: int) -> None:
        super().__init__()
        self._z, self._a = _form_keys(_coords_of(np.arange(p**n), p, n), p)
        self._tables = _key_tables(p, n)[1]

    def __missing__(self, j: int) -> list[int]:
        x, y, z = _key_sums(self._z[:, :, j, None], self._a[:, :, :j], self._tables).tolist()
        row = self[j] = [1 << u | 1 << v | 1 << w for u, v, w in zip(x, y, z)]
        return row


# One table per process, shared by its subtrees: rows depend on (p, n, j) only.
_block_rows = functools.lru_cache(maxsize=1)(_BlockRows)


def _form_keys(coords: np.ndarray, p: int) -> np.ndarray:
    """Keys (2, G, 3, m) of alpha*z and beta*a over the rows of `coords`, for the forms
    alpha*z + beta*a completing a progression with z and a: (z + a)/2, 2z - a, 2a - z."""
    weights, _ = _key_tables(p, coords.shape[1])
    forms = np.array((((p + 1) // 2, (p + 1) // 2), (2, p - 1), (p - 1, 2)))
    return (forms.T[:, :, None, None] * coords % p @ weights.T).transpose(0, 3, 1, 2)


def _split(p: int, n: int, root: tuple, best: int, budget: int | None, target: int):
    """`_walk`'s branch and bound and result from `root`, breadth first until
    `target` states are pending, ORing one row entry per chosen point."""
    rows = _block_rows(p, n)
    todo = deque([root])
    limit = math.inf if budget is None else budget
    best_chosen, nodes = None, 0
    while todo and nodes < limit:
        chosen, avail = todo.popleft()
        nodes += 1
        if len(chosen) + avail.bit_count() <= best:
            continue
        j = (avail & -avail).bit_length() - 1
        row, extra = rows[j], 0
        for a in chosen:
            extra |= row[a]
        avail ^= 1 << j
        picked = chosen + [j]
        if len(picked) > best:
            best, best_chosen = len(picked), picked
        todo += ((picked, avail & ~extra), (chosen, avail))
        if len(todo) >= target:
            break
    return list(todo), best, best_chosen, nodes


def _walk(p: int, n: int, root: tuple, best: int, budget: int | None):
    """Include/exclude branch and bound from `root`, depth first, for at most
    `budget` nodes: (pending states, best, best_chosen or None, nodes).

    A state is (chosen, avail): chosen indices, increasing, and the mask of
    later indices still addable. A node with |chosen| + |avail| <= best is
    pruned; else j = min avail is included, first, and excluded. Chosen sets
    share one `path`. Pending states are one per depth: excluded[d], stored
    only on a descent from d, continues with chosen = path[:d], and a pruned
    node resumes the deepest. An include child that fails the bound is
    counted where it is made and the walk goes on with its exclude sibling;
    one the budget cuts is descended to, to be pending as the current state.
    levels[d][j] memoises the OR of rows[j][a] over path[:d] (level 0 is all
    0): including j at depth d ORs only the levels above the deepest holding
    j; only a descent from d uses level d + 1, so it starts that level afresh.
    The memo, at most depth * p^n masks, is dropped on return."""
    rows = _block_rows(p, n)
    chosen, avail = root
    start = depth = len(chosen)
    path = chosen + [0] * (p**n - len(chosen))
    levels = [dict.fromkeys(range(p**n), 0)] + [{} for _ in path]
    excluded = [0] * len(path)
    limit = math.inf if budget is None else budget
    best_chosen, nodes = None, 0
    while nodes < limit:
        nodes += 1
        if depth + avail.bit_count() <= best:
            if depth == start:
                return [], best, best_chosen, nodes
            depth, avail = depth - 1, excluded[depth - 1]
            continue
        j = (avail & -avail).bit_length() - 1
        if (extra := levels[depth].get(j)) is None:
            k = depth - 1
            while (extra := levels[k].get(j)) is None:
                k -= 1
            row = rows[j]
            for i in range(k, depth):
                extra |= row[path[i]]
                levels[i + 1][j] = extra
        avail ^= 1 << j
        path[depth] = j
        if depth >= best:
            best, best_chosen = depth + 1, path[: depth + 1]
        include = avail & ~extra
        if depth + 1 + include.bit_count() > best or nodes == limit:
            excluded[depth], avail = avail, include
            depth += 1
            levels[depth] = {}
        else:
            nodes += 1
    pending = [(path[:d], excluded[d]) for d in range(start, depth)]
    return pending + [(path[:depth], avail)], best, best_chosen, nodes


_MAX_WORKERS = 256  # most workers an exact search may split for (4 subtrees each)


def _check_search_options(n: int, node_budget: int | None, workers: int) -> None:
    """Refuse n < 1, a negative node budget and a worker count outside [1, _MAX_WORKERS]."""
    if n < 1:
        raise ValueError("n must be positive")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"threads must be in [1, {_MAX_WORKERS}], got {workers}")


def _walk_subtrees(p: int, n: int, best: int, runs: list[tuple], procs: int) -> list[tuple]:
    """`_walk` from `best` on each (root, budget) of `runs`, in their order. With
    `fork`, the caller and procs - 1 forked children claim runs from a shared
    counter; a child's error, or its exit with results unsent (EOFError), raises here."""
    if procs <= 1 or not hasattr(os, "fork"):
        return [_walk(p, n, root, best, budget) for root, budget in runs]
    import multiprocessing  # only when a search forks

    ctx = multiprocessing.get_context("fork")  # a child inherits imports and row table
    counter, children = ctx.Value("i", len(runs)), []  # counts down: the last subtrees are the largest

    def walk_claimed() -> dict | Exception:
        done = {}
        try:
            while True:
                with counter.get_lock():
                    i = counter.value = counter.value - 1
                if i < 0:
                    return done
                done[i] = _walk(p, n, runs[i][0], best, runs[i][1])
        except Exception as exc:  # a child's is sent, then raised in the caller
            return exc

    try:
        for _ in range(procs - 1):
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(target=lambda w: w.send(walk_claimed()), args=(writer,), daemon=True)
            children.append((process, reader))
            process.start()
            writer.close()  # the child's copy is then the only one, so its exit reads as EOF
        results = {}
        for done in chain([walk_claimed()], (reader.recv() for _, reader in children)):
            if isinstance(done, Exception):
                raise done
            results.update(done)
    finally:
        for process, _ in children:
            process.terminate()  # a child that has sent its results has nothing left to do
            process.join()
    return [results[i] for i in range(len(runs))]


def max_progression_free(
    field: PrimeField,
    n: int,
    node_budget: int | None = None,
    workers: int = 1,
) -> SearchResult:
    """Maximum progression-free subset of F_p^n by branch and bound.

    Points are scanned in index order, branching include/exclude with the
    bound size + |remaining unblocked| <= incumbent. Translates of
    progression-free sets are progression-free (midpoints are affine
    invariant), so the search fixes 0 as a member. With `workers` > 1 the
    root is split breadth-first into 4 * workers subtrees, walked from the
    split's incumbent by at most min(workers, CPU count) processes, the
    caller among them; results merge in subtree order, so the output does
    not depend on scheduling. `workers` must lie in [1, _MAX_WORKERS].

    `node_budget` caps `nodes_explored`: the split spends its nodes first
    and the subtrees share the rest. A spent budget yields optimal=False,
    not an error.
    """
    _check_search_options(n, node_budget, workers)
    total = field.p**n
    if total > EXACT_SEARCH_CEILING:
        raise ValueError(
            f"p^n = {total} exceeds the exact-search ceiling {EXACT_SEARCH_CEILING}; "
            "use the greedy search for spaces this large"
        )
    t0 = time.perf_counter()
    seed_set = greedy_progression_free(field, n, order_seed=0)
    search = _walk if workers == 1 else functools.partial(_split, target=4 * workers)
    tasks, best, best_chosen, nodes = search(field.p, n, ([0], (1 << total) - 2), seed_set.size, node_budget)
    exhausted = not tasks
    if workers > 1 and tasks:
        shares = [None] * len(tasks)
        if node_budget is not None:
            q, r = divmod(node_budget - nodes, len(tasks))
            shares = [q + (i < r) for i in range(len(tasks))]
        runs = [(state, share) for state, share in zip(tasks, shares) if share != 0]
        exhausted = len(runs) == len(tasks)
        procs = min(workers, len(runs), os.cpu_count() or 1)  # no child when no run is left
        for pending, size, chosen, task_nodes in _walk_subtrees(field.p, n, best, runs, procs):
            nodes += task_nodes
            exhausted = exhausted and not pending
            if size > best:
                best, best_chosen = size, chosen

    witness = (
        PointSet.from_indices(field, n, best_chosen) if best_chosen is not None else seed_set
    )
    return SearchResult(
        best_size=best,
        witness=witness,
        optimal=exhausted,
        nodes_explored=nodes,
        elapsed=time.perf_counter() - t0,
    )


def greedy_progression_free(field: PrimeField, n: int, order_seed: int = 0) -> PointSet:
    """Scan points in a seeded pseudo-random order, keeping what fits.

    A point is kept unless it is blocked: accepting z blocks, for every
    earlier chosen a, the three points (z + a)/2, 2z - a and 2a - z that
    would complete a progression with {z, a}. Deterministic for a fixed
    seed. The result is not re-verified here: `SearchResult` verifies every
    witness a search returns.
    """
    p = field.p
    total = _ambient_size(field, n)
    order = list(range(total))
    random.Random(order_seed).shuffle(order)
    _, tables = _key_tables(p, n)
    blocked = np.zeros(total, dtype=bool)
    chosen: list[int] = []
    a_keys = np.empty((len(tables), 3, 64), dtype=np.int64)  # of each chosen a, per form
    for idx in order:
        if blocked[idx]:
            continue
        z_keys, keys = _form_keys(_coords_of([idx], p, n), p)
        blocked[_key_sums(z_keys, a_keys[:, :, : len(chosen)], tables)] = True
        if len(chosen) == a_keys.shape[2]:
            a_keys = np.concatenate([a_keys, np.empty_like(a_keys)], axis=2)
        a_keys[:, :, len(chosen)] = keys[:, :, 0]
        chosen.append(idx)
    return PointSet.from_indices(field, n, chosen)
