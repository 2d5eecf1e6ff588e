"""Seeded inputs for the benchmark workloads, built without the package.

Every generator takes a `random.Random` so that one `--seed` fixes every
input of a run. Point sets are lists of coordinate tuples in F_p^n; the
package only ever sees them as files or command-line arguments.
"""

from __future__ import annotations

import random

from checks import progression_triple

# The elliptic quadric z = x^2 + y^2 in F_3^3: a maximum (9-point) cap.
CAP9 = [(x, y, (x * x + y * y) % 3) for x in range(3) for y in range(3)]

# The product of two 9-caps is an 81-point cap in F_3^6 (each coordinate
# block of a progression is itself constant or a progression), and its
# certificate space V has dimension 25, which every affine image keeps.
PRODUCT_CAP = [a + b for a in CAP9 for b in CAP9]
PRODUCT_CAP_DIM_V = 25


def _coords(index: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        index, c = divmod(index, p)
        out.append(c)
    return tuple(out)


def _rank(rows: list[list[int]], p: int) -> int:
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] % p), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def affine_image(points, p: int, n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """x -> Mx + t for a seeded invertible M and translation t over F_p."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank(m, p) == n:
            break
    t = [rng.randrange(p) for _ in range(n)]
    return [
        tuple((sum(m[i][j] * x[j] for j in range(n)) + t[i]) % p for i in range(n))
        for x in points
    ]


def greedy_set(p: int, n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Progression-free set from a seeded scan order, blocking as it goes.

    Accepting z blocks, for every earlier a, the three points that would
    complete a progression with {z, a}: 2z - a, 2a - z and (z + a)/2.
    """
    order = list(range(p**n))
    rng.shuffle(order)
    inv2 = pow(2, -1, p)
    chosen: list[tuple[int, ...]] = []
    blocked: set[tuple[int, ...]] = set()
    for idx in order:
        z = _coords(idx, p, n)
        if z in blocked:
            continue
        for a in chosen:
            blocked.add(tuple((2 * u - v) % p for u, v in zip(z, a)))
            blocked.add(tuple((2 * v - u) % p for u, v in zip(z, a)))
            blocked.add(tuple((u + v) * inv2 % p for u, v in zip(z, a)))
        chosen.append(z)
    return chosen


def point_set_json(p: int, n: int, points) -> dict:
    return {"p": p, "n": n, "points": [list(c) for c in points]}


def prove_inputs(rng: random.Random, rounds: int) -> list[list[tuple[str, dict]]]:
    """`rounds` rounds of (kind, point-set JSON), one input of each kind.

    Kinds: `product_cap` (main branch, dim V = 25), `cap_f3_6` (greedy cap
    in F_3^6, zero branch) and `set_f7_3` (greedy set in F_7^3, zero branch).
    """
    out = []
    for _ in range(rounds):
        pc = affine_image(PRODUCT_CAP, 3, 6, rng)
        row = [
            ("product_cap", point_set_json(3, 6, pc)),
            ("cap_f3_6", point_set_json(3, 6, greedy_set(3, 6, rng))),
            ("set_f7_3", point_set_json(7, 3, greedy_set(7, 3, rng))),
        ]
        for _, data in row:
            if progression_triple(data["p"], data["points"]) is not None:
                raise AssertionError("generated input is not progression-free")
        out.append(row)
    return out


def spread_order(count: int, rng: random.Random) -> list[int]:
    """A seeded rotation of the bit-reversal permutation of range(count).

    Every run of consecutive entries is spread evenly over the range, so
    the first k values taken sample a window as evenly as k values can,
    whichever rotation the seed picks. `count` is a power of two.
    """
    bits = count.bit_length() - 1
    order = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(count)] if bits else [0]
    k = rng.randrange(count)
    return order[k:] + order[:k]


class FreshN:
    """Distinct dimensions n for one prime, drawn in a seeded, even order.

    A window holds the next WINDOW values of n from `lo` up that are (or,
    with `multiple_of_3` false, are not) multiples of 3. Its values are
    paired with their neighbours, the pairs are taken in `spread_order`, so
    op cost does not drift with how many were taken, and the two values of
    a pair come out back to back in alternating order, so that two
    consecutive draws (an op and its traced twin) cost about the same.
    When a window is used up the next one above it opens. No n repeats, so
    the package's memoised dimension tables never serve a hit, and a
    multiple-of-3 pool and a non-multiple pool never share a pair (p, n).
    """

    WINDOW = 32

    def __init__(self, rng: random.Random, lo: int, multiple_of_3: bool) -> None:
        self._rng = rng
        self._lo = lo
        self._multiple_of_3 = multiple_of_3
        self._queue: list[int] = []

    def take(self) -> int:
        if not self._queue:
            values = []
            while len(values) < self.WINDOW:
                if (self._lo % 3 == 0) == self._multiple_of_3:
                    values.append(self._lo)
                self._lo += 1
            for j, i in enumerate(spread_order(self.WINDOW // 2, self._rng)):
                pair = values[2 * i : 2 * i + 2]
                self._queue += pair if j % 2 else pair[::-1]
            self._queue.reverse()
        return self._queue.pop()
