"""Independent brute-force oracles used only by the tests.

Nothing here shares machinery with the production code paths it checks:
rank is defined by enumerating coefficient combinations, maximum
progression-free sizes come from exhaustive subset enumeration over
coordinate tuples with no pruning heuristics, and dimensions are counted
by direct enumeration. The point-set references below are the per-pair
tuple loops that the library's numpy index kernel replaced; they take
coordinate tuples listed in index order, and encode and decode points
themselves.
Layer counts come from the window convolution that the library's
recurrence replaced, and the search's block masks from the per-pair tuple
formula that its row table replaced. The input reader is the
per-point loop; the library reads points in flat passes.
Row reduction is the per-pivot elimination (every updated row reduced mod
p at each pivot, then a separate back-substitution) that the library's
lazy Gauss-Jordan pass replaced.
Interpolation reads the coefficient tensor term by term into a plain
{exponent tuple: coefficient} dict, as before the library's flat read.
Coordinate products are reduced mod p after every coordinate's pass, as
before the library grouped several passes per reduction. The unit
selection is the two-step path that the library's single right-to-left
elimination replaced: a kernel basis, then the RREF of that basis, in
plain ints. The transcript witness spec computes the coefficients of
sum_c lam_c 1_c entry by entry from the recorded values, with no transform.
The exact search's branch and bound is restated over explicit chosen
lists, ORing a block mask per chosen point at every inclusion, as before
the library kept one chosen path and memoised the masks of its prefixes.
The certificate checker tests a transcript's five facts on its recorded
input, selection and witness values alone, reading the witness's degree
off tensor contractions with the univariate indicator table.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import combinations, product

import numpy as np

from capbound.gf import PrimeField


def rows_independent(rows, p: int) -> bool:
    """True iff no nontrivial coefficient combination of the rows vanishes."""
    if not rows:
        return True
    width = len(rows[0])
    for coeffs in product(range(p), repeat=len(rows)):
        if all(c == 0 for c in coeffs):
            continue
        if all(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % p == 0 for j in range(width)
        ):
            return False
    return True


def brute_force_rank(rows, p: int) -> int:
    """Largest independent row subset, by trying every subset."""
    best = 0
    rows = [list(r) for r in rows]
    for size in range(1, len(rows) + 1):
        for subset in combinations(rows, size):
            if rows_independent(list(subset), p):
                best = size
                break
    return best


def has_progression(points: set[tuple[int, ...]], p: int) -> bool:
    """Quadratic recheck: any distinct a, b, c with a + b = 2c coordinatewise."""
    pts = list(points)
    inv2 = pow(2, -1, p)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            c = tuple((x + y) * inv2 % p for x, y in zip(a, b))
            if c in points and c != a and c != b:
                return True
    return False


def point_coords(index: int, p: int, n: int) -> tuple[int, ...]:
    """Coordinates of the point with base-p index `index`, digit by digit."""
    return tuple(index // p**i % p for i in range(n))


def _index(coords, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(coords))


def point_indices(points, p: int, n: int) -> list[int]:
    """Indices of `points` in order, one point at a time. A point of the wrong
    arity, a coordinate that is not an int (a bool is not) in [0, p), or a
    point listed twice raises ValueError."""
    out: list[int] = []
    for coords in points:
        if len(coords) != n:
            raise ValueError(f"arity {len(coords)}")
        for c in coords:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or not 0 <= c < p:
                raise ValueError(f"coordinate {c!r}")
        if _index(coords, p) in out:
            raise ValueError("duplicate")
        out.append(_index(coords, p))
    return out


def first_progression(points: list[tuple[int, ...]], p: int):
    """(a, b, (a + b)/2) for the first pair i < j of `points` whose midpoint
    is in the set and distinct from both, or None."""
    present = set(points)
    inv2 = pow(2, -1, p)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            mid = tuple((x + y) * inv2 % p for x, y in zip(a, b))
            if mid in present and mid != a and mid != b:
                return a, b, mid
    return None


def pair_sum_indices(points: list[tuple[int, ...]], p: int) -> tuple[set[int], set[int]]:
    """Indices of the sums of distinct pairs, and of the doubles 2a."""
    sums = {
        _index(tuple((x + y) % p for x, y in zip(a, b)), p)
        for i, a in enumerate(points)
        for b in points[i + 1 :]
    }
    return sums, {_index(tuple(2 * x % p for x in a), p) for a in points}


def has_line(points: list[tuple[int, ...]]) -> bool:
    """For p = 3: distinct a, b in the set whose completion -a - b is a third member."""
    present = set(points)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            third = tuple((-u - v) % 3 for u, v in zip(a, b))
            if third in present and third != a and third != b:
                return True
    return False


def pair_block_mask(x: int, a: int, p: int, n: int) -> int:
    """Bits of the three points that complete a progression with points x and a:
    (x + a)/2, 2a - x and 2x - a."""
    field = PrimeField(p)
    cx, ca = point_coords(x, p, n), point_coords(a, p, n)
    mid = tuple((u + v) * field.inv2 % p for u, v in zip(cx, ca))
    past_a = tuple((2 * v - u) % p for u, v in zip(cx, ca))
    past_x = tuple((2 * u - v) % p for u, v in zip(cx, ca))
    return 1 << _index(mid, p) | 1 << _index(past_a, p) | 1 << _index(past_x, p)


@functools.cache
def _cached_block_mask(x: int, a: int, p: int, n: int) -> int:
    return pair_block_mask(x, a, p, n)


def branch_and_bound(p: int, n: int, chosen: list[int], avail: int, best: int, budget: int):
    """Include/exclude depth-first search from one state (chosen, avail), over
    explicit chosen lists, for at most `budget` expanded nodes.

    A node with |chosen| + |avail| <= best is pruned; otherwise j = min avail
    is included first (its blocks, `pair_block_mask` against every chosen a,
    leave avail) and excluded second. Returns (pending (chosen, avail) states,
    best, the first largest chosen list found above the start's best or None,
    nodes expanded)."""
    stack = [(list(chosen), avail)]
    best_chosen = None
    nodes = 0
    while stack and nodes < budget:
        chosen, avail = stack.pop()
        nodes += 1
        if len(chosen) + bin(avail).count("1") <= best:
            continue
        j = next(i for i in range(p**n) if avail >> i & 1)
        blocked = 0
        for a in chosen:
            blocked |= _cached_block_mask(j, a, p, n)
        avail &= ~(1 << j)
        if len(chosen) + 1 > best:
            best, best_chosen = len(chosen) + 1, chosen + [j]
        stack.append((chosen, avail))
        stack.append((chosen + [j], avail & ~blocked))
    return stack, best, best_chosen, nodes


def halves(points: list[tuple[int, ...]], doubled, p: int) -> list[int]:
    """Indices, in order, of the points a with the index of 2a in `doubled`."""
    return [
        _index(a, p) for a in points if _index(tuple(2 * x % p for x in a), p) in doubled
    ]


def greedy_indices(p: int, n: int, order_seed: int) -> list[int]:
    """Seeded greedy scan: keep z unless some chosen a has (z + a)/2 or 2z - a chosen."""
    field = PrimeField(p)
    order = list(range(p**n))
    random.Random(order_seed).shuffle(order)
    chosen: list[tuple[int, ...]] = []
    present: set[tuple[int, ...]] = set()
    for idx in order:
        z = point_coords(idx, p, n)
        if not any(
            tuple((u + v) * field.inv2 % p for u, v in zip(z, a)) in present
            or tuple((2 * u - v) % p for u, v in zip(z, a)) in present
            for a in chosen
        ):
            chosen.append(z)
            present.add(z)
    return sorted(_index(z, p) for z in chosen)


def max_pf_all_subsets(p: int, n: int) -> int:
    """Literal iteration over all 2^(p^n) subsets; only for p^n <= 12."""
    total = p**n
    if total > 12:
        raise ValueError("literal subset enumeration is only feasible for p^n <= 12")
    pts = [point_coords(i, p, n) for i in range(total)]
    best = 0
    for mask in range(1 << total):
        chosen = {pts[i] for i in range(total) if mask >> i & 1}
        if len(chosen) > best and not has_progression(chosen, p):
            best = len(chosen)
    return best


def max_pf_recursive(p: int, n: int) -> tuple[int, int]:
    """Exhaustive recursion over progression-free subsets, no pruning.

    Visits every progression-free subset exactly once (points added in
    index order over coordinate tuples kept in a Python set) and returns
    (maximum size, number of subsets visited).
    """
    field = PrimeField(p)
    total = p**n
    pts = [point_coords(i, p, n) for i in range(total)]
    inv2 = field.inv2
    best = 0
    visited = 0

    def addable(z, chosen: set) -> bool:
        for a in chosen:
            mid = tuple((u + v) * inv2 % p for u, v in zip(z, a))
            opp = tuple((2 * u - v) % p for u, v in zip(z, a))
            if mid in chosen or opp in chosen:
                return False
        return True

    def rec(i: int, chosen: set) -> None:
        nonlocal best, visited
        visited += 1
        if len(chosen) > best:
            best = len(chosen)
        for j in range(i, total):
            z = pts[j]
            if addable(z, chosen):
                chosen.add(z)
                rec(j + 1, chosen)
                chosen.remove(z)

    rec(0, set())
    return best, visited


def count_monomials_direct(n: int, p: int, d: int) -> int:
    """Dimension of the degree-<=d slice by direct product enumeration."""
    return sum(1 for alpha in product(range(p), repeat=n) if sum(alpha) <= d)


def layer_counts_convolution(n: int, m: int) -> list[int]:
    """Entry k counts vectors in {0..m}^n with coordinate sum k, by convolving
    n copies of the all-ones window of width m + 1."""
    row = [1]
    for _ in range(n):
        prev = row
        row = [0] * (len(prev) + m)
        for k, v in enumerate(prev):
            for j in range(m + 1):
                row[k + j] += v
    return row


def row_reduce_per_pivot(a: np.ndarray, p: int) -> list[int]:
    """In-place reduced row echelon form mod p, pivots first nonzero in column
    order; returns the pivot columns. Forward elimination takes the whole
    updated rows mod p at every pivot, then a back-substitution pass clears
    the entries above each pivot."""
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - a[idx, c][:, None] * a[r]) % p
        pivots.append(c)
        r += 1
    for j in range(len(pivots) - 1, 0, -1):
        c = pivots[j]
        above = np.nonzero(a[:j, c])[0]
        if above.size:
            a[above] = (a[above] - a[above, c][:, None] * a[j]) % p
    return pivots


def interpolate_term_loop(values, field: PrimeField, n: int) -> dict[tuple[int, ...], int]:
    """The nonzero coefficients, by exponent tuple, of the capped-exponent
    polynomial with value table `values`: the sum of values[a] times the
    indicator of a, contracted one coordinate at a time against the
    coefficients of 1 - (x - s)^(p-1), then read term by term."""
    p = field.p
    if n == 0:
        c = int(values[0]) % p
        return {(): c} if c else {}
    rows = np.array(
        [
            [int(j == 0) - math.comb(p - 1, j) * pow(-s, p - 1 - j, p) for j in range(p)]
            for s in range(p)
        ],
        dtype=np.int64,
    ) % p
    tensor = np.array(values, dtype=np.int64).reshape((p,) * n, order="F") % p
    for _ in range(n):
        tensor = np.tensordot(tensor, rows, axes=([0], [0])) % p
    return {
        tuple(int(e) for e in alpha): int(tensor[tuple(alpha)])
        for alpha in np.argwhere(tensor)
    }


def coordinate_products_per_pass(coords: np.ndarray, exps: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """M[c, alpha] = prod_i table[c_i, alpha_i] mod p for the rows of `coords`
    and of `exps`, reduced after each coordinate's gather-and-multiply pass."""
    block = np.ones((len(coords), len(exps)), dtype=np.int64)
    for i in range(coords.shape[1]):
        block = block * table[coords[:, i, None], exps[None, :, i]] % p
    return block


def indicator_coefficient(s: int, e: int, p: int) -> int:
    """Coefficient of x^e in 1 - (x - s)^(p-1), the univariate indicator of s."""
    return (int(e == 0) - math.comb(p - 1, e) * pow(-s, p - 1 - e, p)) % p


def _rref_rows(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of rows of ints in [0, p): (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def left_kernel_basis(indices: list[int], p: int, n: int) -> list[list[int]]:
    """Values on the points `indices` of a basis of the functions that vanish
    elsewhere and have degree <= (2/3)(p-1)n: the vectors lam with
    sum_c lam_c M[c, alpha] = 0 for every monomial alpha above that cap, where
    M[c, alpha] is the coefficient of x^alpha in the indicator of c; entry by
    entry, one basis vector per free column of the RREF of M^T."""
    d = (p - 1) * n // 3 - 1
    high = [tuple(p - 1 - e for e in a) for a in product(range(p), repeat=n) if sum(a) <= d]
    coords = [point_coords(i, p, n) for i in indices]
    block_t = [
        [math.prod(indicator_coefficient(s, e, p) for s, e in zip(c, alpha)) % p for c in coords]
        for alpha in high
    ]
    reduced, pivots = _rref_rows(block_t, p)
    basis = []
    for free in (j for j in range(len(indices)) if j not in pivots):
        v = [0] * len(indices)
        v[free] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[free] % p
        basis.append(v)
    return basis


def unit_selection(indices: list[int], p: int, n: int) -> tuple[list[int], list[int]]:
    """(C', lam) for the support `indices` (increasing) by the two-step path:
    a basis of the left kernel of the indicator block, then the leftmost
    pivot columns of its RREF as C' and the sum of the reduced rows, the
    kernel vector equal to 1 on C', as lam (all 0 when the kernel is 0)."""
    basis = left_kernel_basis(indices, p, n)
    if not basis:
        return [], [0] * len(indices)
    reduced, pivots = _rref_rows(basis, p)
    return [indices[j] for j in pivots], [sum(col) % p for col in zip(*reduced)]


def witness_coefficients(values: list[int], doubles: list[int], p: int, n: int) -> dict[tuple[int, ...], int]:
    """Nonzero coefficients of f = sum_c values_c 1_c over the points `doubles`,
    entry by entry: at x^alpha, sum_c values_c prod_i u(c_i, alpha_i), with
    u(s, e) the coefficient of x^e in the univariate indicator of s."""
    coords = [point_coords(i, p, n) for i in doubles]
    out = {}
    for alpha in product(range(p), repeat=n):
        terms = (v * math.prod(indicator_coefficient(s, e, p) for s, e in zip(c, alpha)) for v, c in zip(values, coords))
        if coef := sum(terms) % p:
            out[alpha] = coef
    return out


def transcript_witness_spec(t: dict) -> dict | None:
    """The witness claims of a capbound.transcript/3 object `t`, from the spec.

    None when `witness_values` is not a list of one int in [0, p) per
    recorded double. Otherwise `degree` is deg f for f = sum_c lam_c 1_c,
    `in_L` says that the recorded `degree_cap` is the int (2/3)(p-1)n and
    that f has no coefficient above it, and `unit` that lam = 1 on every
    selected double (each of which must be a double)."""
    p, n, values, doubles = t["p"], t["n"], t["witness_values"], t["doubles"]
    if type(values) is not list or len(values) != len(doubles):
        return None
    if any(type(v) is not int or not 0 <= v < p for v in values):
        return None
    coeffs = witness_coefficients(values, doubles, p, n)
    degree = max(map(sum, coeffs), default=0)
    cap = t["degree_cap"]
    in_l = type(cap) is int and cap == 2 * ((p - 1) * n // 3) and all(sum(a) <= cap for a in coeffs)
    at = dict(zip(doubles, values))
    unit = all(at.get(s) == 1 for s in t["selected_doubles"])
    return {"degree": degree, "in_L": in_l, "unit": unit}


def _recorded(t: dict, path: str):
    """The value at a dotted `path` of the transcript `t` (KeyError or TypeError if absent)."""
    for key in path.split("."):
        t = t[key]
    return t


def check_certificate(data: dict) -> list[str] | None:
    """The five facts of a capbound.transcript/3 certificate, checked with numpy
    and `math` alone from its `input`, `selected_doubles` (C') and
    `witness_values` (lam on the doubles C = 2A in index order; null or
    absent reads as 0), at the cap D2 = 2s for the cut s = (p-1)n/3:

    1. B & C is empty, for B = {a + b : a != b in A};
    2. C' lies in C and lam != 0 on C';
    3. every coefficient of f = sum_c lam_c 1_c above degree 2s vanishes,
       read off n contractions of lam's table over F_p^n with the p x p
       table of 1 - (x - c)^(p-1);
    4. |C'| >= |C| - h, for h = dim(degree <= s - 1);
    5. |A| = |C|.

    By 4 and 5, |A| <= h + |C'|; by 1-3 the Gram matrix [f(a + b)] over
    A' = {a : 2a in C'} is diagonal with diagonal lam on C', and its rank
    |C'| is at most 2 dim(degree <= s). None (rejected) when the input
    cannot be read, the cut is not an integer, a fact fails, or a recorded
    value that the facts fix differs from it in value or JSON type;
    otherwise the names of those recorded values, which it certifies.
    """
    try:
        p, n, points = data["input"]["p"], data["input"]["n"], data["input"]["points"]
        if type(p) is not int or type(n) is not int or (data["p"], data["n"]) != (p, n):
            return None
        if p < 3 or any(p % f == 0 for f in range(2, math.isqrt(p) + 1)) or n < 1 or (p - 1) * n % 3:
            return None
        if p**n > 2**20:
            raise OverflowError(f"F_{p}^{n} is too large for the checker")
        A = np.array(point_indices(points, p, n), dtype=np.int64)
        selected, lam = data["selected_doubles"], data.get("witness_values")
    except (KeyError, TypeError, ValueError):
        return None
    s, weights = (p - 1) * n // 3, p ** np.arange(n)
    coords = A[:, None] // weights % p
    C = np.unique(2 * coords % p @ weights)
    first, second = np.triu_indices(len(A), 1)
    B = np.unique((coords[first] + coords[second]) % p @ weights)
    if type(selected) is not list or any(type(c) is not int for c in selected):
        return None
    lam = [0] * len(C) if lam is None else lam
    if type(lam) is not list or len(lam) != len(C) or any(type(v) is not int or not 0 <= v < p for v in lam):
        return None
    table = np.zeros(p**n, dtype=np.int64)
    table[C] = lam
    on_selected = set(selected) <= set(C.tolist()) and all(table[c] for c in selected)
    unit_coefficients = np.array([[indicator_coefficient(c, e, p) for e in range(p)] for c in range(p)])
    coefficients = table.reshape((p,) * n)
    for _ in range(n):  # each pass turns the first remaining value axis into a degree axis, last
        coefficients = np.tensordot(coefficients, unit_coefficients, axes=([0], [0])) % p
    degree = np.indices((p,) * n).sum(axis=0)
    h, low_third = int((degree <= s - 1).sum()), int((degree <= s).sum())
    facts = (
        not np.isin(B, C).any(),
        on_selected,
        not coefficients[degree > 2 * s].any(),
        len(set(selected)) >= len(C) - h,
        len(C) == len(A),
    )
    if not all(facts):
        return None
    bound = h + len(set(selected))
    certified = {
        "input_size": len(A),
        "doubles": C.tolist(),
        "pair_sum_count": len(B),
        "degree_cap": 2 * s,
        "split_degree": s,
        "dims.vanishing_off_doubles": str(len(C)),
        "dims.low_third_minus": str(h),
        "dims.low_third": str(low_third),
        "selected_points": sorted(halves([point_coords(int(a), p, n) for a in A], set(selected), p)),
        "conclusion.exact.size": str(len(A)),
        "conclusion.exact.bound": str(bound),
        "conclusion.exact.holds": len(A) <= bound,
    }
    try:
        if any(repr(_recorded(data, key)) != repr(value) for key, value in certified.items()):
            return None
    except (KeyError, TypeError):
        return None
    return list(certified)
