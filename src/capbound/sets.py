"""Subsets of F_p^n and progression-free machinery: verify, build, search.

A PointSet is an immutable membership bitmap (one Python int) over the
base-p point encoding, plus its ambient (p, n). Progression-freeness means
no distinct a, b, c in the set with a + b = 2c; since p is odd the
midpoint c = (a + b)/2 of any pair is unique, which keeps every check
quadratic.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ProgressionFound
from .gf import PrimeField, point_coords, point_index

__all__ = [
    "PointSet",
    "SearchResult",
    "is_progression_free",
    "pair_sums",
    "max_progression_free",
    "greedy_progression_free",
    "cap_equivalence_check",
    "parse_point_set",
    "EXACT_SEARCH_CEILING",
]

EXACT_SEARCH_CEILING = 3**6


class PointSet:
    """Immutable subset of F_p^n keyed by base-p point encoding."""

    __slots__ = ("field", "n", "_mask", "_size")

    def __init__(self, field: PrimeField, n: int, mask: int) -> None:
        if n < 0:
            raise ValueError("n must be nonnegative")
        if mask < 0 or mask >> field.p**n:
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
        return cls(field, n, (1 << field.p**n) - 1)

    @classmethod
    def from_indices(cls, field: PrimeField, n: int, indices: Iterable[int]) -> "PointSet":
        total = field.p**n
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
        """Set of the given points; a point listed twice raises ValueError."""
        mask = 0
        for coords in points:
            if len(coords) != n:
                raise ValueError(f"point {tuple(coords)} has wrong dimension, expected {n}")
            bit = 1 << point_index(coords, field)
            if mask & bit:
                raise ValueError(f"duplicate point {tuple(coords)}")
            mask |= bit
        return cls(field, n, mask)

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
        out = []
        mask = self._mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def points(self) -> list[tuple[int, ...]]:
        return [point_coords(i, self.n, self.field) for i in self.indices()]

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
                parts = [part.split("=", 1) for part in line.split()]
                fields = {kv[0]: kv[1] for kv in parts if len(kv) == 2}
                if "p" not in fields or "n" not in fields:
                    raise ValueError("header line must declare p=<prime> n=<dim>")
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
        return PointSet.from_json(json.loads(text))
    return PointSet.from_text(text)


def is_progression_free(ps: PointSet) -> tuple[bool, tuple | None]:
    """Check for distinct a, b, c with a + b = 2c; returns one witness triple.

    For every unordered pair the unique midpoint (a + b)/2 is looked up in
    the membership mask, so the whole check is O(|A|^2) point operations.
    """
    field, n, mask = ps.field, ps.n, ps.mask
    p, inv2 = field.p, field.inv2
    members = ps.indices()
    coords = [point_coords(i, n, field) for i in members]
    for i in range(len(members)):
        a = coords[i]
        for j in range(i + 1, len(members)):
            b = coords[j]
            mid = tuple((x + y) * inv2 % p for x, y in zip(a, b))
            mid_idx = point_index(mid, field)
            if mask >> mid_idx & 1 and mid_idx != members[i] and mid_idx != members[j]:
                return False, (a, b, mid)
    return True, None


def pair_sums(ps: PointSet) -> tuple[PointSet, PointSet]:
    """Sums of distinct pairs, and doubles of single points.

    Doubling x -> 2x is injective for odd p, so the doubles set always has
    exactly |A| elements; for progression-free A the two sets are disjoint.
    """
    field, n = ps.field, ps.n
    p = field.p
    coords = ps.points()
    sums_mask = 0
    doubles_mask = 0
    for i, a in enumerate(coords):
        doubles_mask |= 1 << point_index(tuple(2 * x % p for x in a), field)
        for b in coords[i + 1 :]:
            s = tuple((x + y) % p for x, y in zip(a, b))
            sums_mask |= 1 << point_index(s, field)
    return PointSet(field, n, sums_mask), PointSet(field, n, doubles_mask)


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


def _pair_block_mask(x: int, a: int, field: PrimeField, n: int, cache: dict) -> int:
    """Bits of the three indices that {x, a} forbids as future additions.

    A later point z would complete a progression with x and a exactly when
    z = (x + a)/2, z = 2a - x, or z = 2x - a; the set of those three indices
    is symmetric in (x, a).
    """
    key = (x, a) if x < a else (a, x)
    hit = cache.get(key)
    if hit is not None:
        return hit
    p, inv2 = field.p, field.inv2
    cx = point_coords(x, n, field)
    ca = point_coords(a, n, field)
    m = 1 << point_index(tuple((u + v) * inv2 % p for u, v in zip(cx, ca)), field)
    m |= 1 << point_index(tuple((2 * v - u) % p for u, v in zip(cx, ca)), field)
    m |= 1 << point_index(tuple((2 * u - v) % p for u, v in zip(cx, ca)), field)
    cache[key] = m
    return m


def _search_span(
    p: int,
    n: int,
    start: int,
    chosen: list[int],
    blocked: int,
    incumbent: int,
    budget: int | None,
):
    """Exhaust one subtree of the include/exclude search.

    Returns (best_size, best_chosen or None, nodes, exhausted). `blocked`
    marks indices that would break progression-freeness of `chosen`; the
    incumbent only ever increases, so the final value is independent of how
    subtrees are scheduled.
    """
    field = PrimeField(p)
    total = p**n
    full = (1 << total) - 1
    cache: dict = {}
    best = incumbent
    best_chosen: list[int] | None = None
    nodes = 0
    exhausted = True

    def walk(start: int, chosen: list[int], blocked: int) -> None:
        nonlocal best, best_chosen, nodes, exhausted
        while True:
            if not exhausted:
                return
            nodes += 1
            if budget is not None and nodes > budget:
                exhausted = False
                return
            avail = ~blocked & (full >> start << start) & full
            if len(chosen) + avail.bit_count() <= best:
                return
            j = (avail & -avail).bit_length() - 1
            extra = 0
            for a in chosen:
                extra |= _pair_block_mask(j, a, field, n, cache)
            picked = chosen + [j]
            if len(picked) > best:
                best = len(picked)
                best_chosen = picked
            walk(j + 1, picked, blocked | extra)
            start = j + 1  # exclude j, same frame

    walk(start, chosen, blocked)
    return best, best_chosen, nodes, exhausted


def _frontier_tasks(p: int, n: int, incumbent: int, target: int):
    """Breadth-first expansion of the root into independent subtree states."""
    field = PrimeField(p)
    total = p**n
    full = (1 << total) - 1
    cache: dict = {}
    queue: list[tuple[int, list[int], int]] = [(1, [0], 0)]
    best = incumbent
    best_chosen: list[int] | None = None
    nodes = 0
    while queue and len(queue) < target:
        start, chosen, blocked = queue.pop(0)
        nodes += 1
        avail = ~blocked & (full >> start << start) & full
        if len(chosen) + avail.bit_count() <= best:
            continue
        j = (avail & -avail).bit_length() - 1
        extra = 0
        for a in chosen:
            extra |= _pair_block_mask(j, a, field, n, cache)
        picked = chosen + [j]
        if len(picked) > best:
            best = len(picked)
            best_chosen = picked
        queue.append((j + 1, picked, blocked | extra))
        queue.append((j + 1, chosen, blocked))
    return queue, best, best_chosen, nodes


def _run_task(args):
    return _search_span(*args)


def max_progression_free(
    field: PrimeField,
    n: int,
    node_budget: int | None = None,
    workers: int = 1,
    ceiling: int = EXACT_SEARCH_CEILING,
) -> SearchResult:
    """Maximum progression-free subset of F_p^n by branch and bound.

    Points are scanned in index order, branching include/exclude with the
    bound size + |remaining unblocked| <= incumbent. Translates of
    progression-free sets are progression-free (midpoints are affine
    invariant), so the search fixes 0 as a member. With `workers` > 1 the
    root is split breadth-first into subtrees explored in separate
    processes; each inherits the greedy incumbent, and the final size is a
    maximum over an exhaustive partition, hence scheduling-independent.

    A spent `node_budget` yields optimal=False, not an error.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = field.p**n
    if total > ceiling:
        raise ValueError(
            f"p^n = {total} exceeds the exact-search ceiling {ceiling}; "
            "use the greedy search for spaces this large"
        )
    t0 = time.perf_counter()
    seed_set = greedy_progression_free(field, n, order_seed=0)
    best = seed_set.size
    best_chosen: list[int] | None = None
    nodes = 0
    exhausted = True

    if workers <= 1:
        best, best_chosen, nodes, exhausted = _search_span(
            field.p, n, 1, [0], 0, best, node_budget
        )
    else:
        tasks, best, best_chosen, nodes = _frontier_tasks(field.p, n, best, 4 * workers)
        if tasks:
            share = None if node_budget is None else max(1, node_budget // len(tasks))
            args = [(field.p, n, s, ch, bl, best, share) for s, ch, bl in tasks]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for size, chosen, task_nodes, done in pool.map(_run_task, args):
                    nodes += task_nodes
                    exhausted = exhausted and done
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

    Deterministic for a fixed seed; the result is re-verified before it is
    returned.
    """
    p, inv2 = field.p, field.inv2
    total = p**n
    order = list(range(total))
    random.Random(order_seed).shuffle(order)
    chosen_coords: list[tuple[int, ...]] = []
    mask = 0
    for idx in order:
        z = point_coords(idx, n, field)
        ok = True
        for a in chosen_coords:
            # z + a = 2b with b already chosen, or a + b = 2z with b chosen
            mid = point_index(tuple((u + v) * inv2 % p for u, v in zip(z, a)), field)
            opp = point_index(tuple((2 * u - v) % p for u, v in zip(z, a)), field)
            if mask >> mid & 1 or mask >> opp & 1:
                ok = False
                break
        if ok:
            chosen_coords.append(z)
            mask |= 1 << idx
    result = PointSet(field, n, mask)
    ok, triple = is_progression_free(result)
    if not ok:
        raise ProgressionFound("greedy construction violated its invariant", triple)
    return result


def cap_equivalence_check(ps: PointSet) -> bool:
    """For p = 3: compare no-progression against no-three-collinear.

    The two predicates are computed independently (midpoint lookup versus
    a + b + c = 0 completion) and must agree: 2 = -1 in GF(3) makes
    a + b = 2c the same equation as a + b + c = 0.
    """
    if ps.field.p != 3:
        raise ValueError("equivalence specific to p=3")
    progression_free = is_progression_free(ps)[0]
    coords = ps.points()
    mask = ps.mask
    no_line = True
    for i, a in enumerate(coords):
        for b in coords[i + 1 :]:
            third = tuple((-u - v) % 3 for u, v in zip(a, b))
            if mask >> point_index(third, ps.field) & 1 and third != a and third != b:
                no_line = False
                break
        if not no_line:
            break
    return progression_free == no_line
