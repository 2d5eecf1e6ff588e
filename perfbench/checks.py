"""Output checks written independently of `capbound`.

Each check takes an op's exit code and parsed JSON output and returns a
list of problems; an empty list means the output is accepted. The
progression check here is the benchmark's own O(|A|^2) midpoint lookup,
so a defect in `capbound.sets` cannot hide itself.
"""

from __future__ import annotations

from decimal import Decimal


def progression_triple(p: int, points) -> tuple | None:
    """Return distinct (a, b, c) in `points` with a + b = 2c, or None.

    For odd p every pair a != b has exactly one midpoint (a + b)/2, so one
    set lookup per unordered pair decides the question.
    """
    pts = [tuple(c) for c in points]
    members = set(pts)
    inv2 = pow(2, -1, p)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            mid = tuple((x + y) * inv2 % p for x, y in zip(a, b))
            if mid in members and mid != a and mid != b:
                return a, b, mid
    return None


def check_point_set(data: dict, p: int, n: int, size: int | None = None) -> list[str]:
    """A witness set in F_p^n: right ambient, distinct in-range points, no progression."""
    problems = []
    if data.get("p") != p or data.get("n") != n:
        problems.append(f"ambient F_{data.get('p')}^{data.get('n')}, expected F_{p}^{n}")
        return problems
    pts = [tuple(c) for c in data.get("points", [])]
    if any(len(c) != n or not all(0 <= x < p for x in c) for c in pts):
        problems.append("point outside F_p^n")
    elif len(set(pts)) != len(pts):
        problems.append("repeated point")
    else:
        triple = progression_triple(p, pts)
        if triple is not None:
            problems.append(f"progression {triple}")
    if size is not None and len(pts) != size:
        problems.append(f"witness has {len(pts)} points, reported size {size}")
    return problems


def _exit(code: int, expected: int = 0) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_prove(code: int, out: dict, input_points: dict, dim_v: int | None) -> list[str]:
    """All checks and both conclusions hold, on the given set; dim V if known."""
    problems = _exit(code)
    res = out.get("result", {})
    failed = [c.get("name") for c in res.get("checks", []) if c.get("holds") is not True]
    if failed or not res.get("checks"):
        problems.append(f"checks not holding: {failed}")
    conclusion = res.get("conclusion", {})
    if conclusion.get("exact", {}).get("holds") is not True:
        problems.append("exact conclusion does not hold")
    if conclusion.get("asymptotic", {}).get("holds") is not True:
        problems.append("asymptotic conclusion does not hold")
    got = {tuple(c) for c in res.get("input", {}).get("points", [])}
    if got != {tuple(c) for c in input_points["points"]} or res.get("input_size") != len(got):
        problems.append("transcript input differs from the proved set")
    if dim_v is not None:
        if res.get("branch") != "main":
            problems.append(f"branch {res.get('branch')!r}, expected 'main'")
        if res.get("dims", {}).get("intersection") != str(dim_v):
            problems.append(f"dim V {res.get('dims', {}).get('intersection')}, expected {dim_v}")
    return problems


def check_verify(code: int, out: dict) -> list[str]:
    problems = _exit(code)
    res = out.get("result", {})
    if res.get("valid") is not True:
        problems.append("transcript not valid")
    if not res.get("checks") or any(c.get("holds") is not True for c in res["checks"]):
        problems.append("a recomputed check does not hold")
    return problems


def check_search(
    code: int, out: dict, p: int, n: int, size: int | None, optimal: bool | None
) -> list[str]:
    """Witness valid and of the reported size; size and optimality if expected."""
    problems = _exit(code)
    res = out.get("result", {})
    best = res.get("best_size")
    problems += check_point_set(res.get("witness", {}), p, n, best)
    if size is not None and best != size:
        problems.append(f"best size {best}, expected {size}")
    if optimal is not None and res.get("optimal") is not optimal:
        problems.append(f"optimal = {res.get('optimal')}, expected {optimal}")
    return problems


def check_dims(code: int, out: dict, p: int, n: int) -> list[str]:
    """Duality column all ok; the full slice has dimension p^n; dims grow with d."""
    problems = _exit(code)
    rows = out.get("result", {}).get("rows", [])
    top = (p - 1) * n
    if len(rows) != top + 1:
        problems.append(f"{len(rows)} rows, expected {top + 1}")
        return problems
    if any(r.get("duality") != "ok" for r in rows):
        problems.append("duality column not all ok")
    dims = [int(r["dim"]) for r in rows]
    if dims[0] != 1 or dims[-1] != p**n or any(a >= b for a, b in zip(dims, dims[1:])):
        problems.append("dimensions not increasing from 1 to p^n")
    return problems


def check_entropy(code: int, out: dict, ns: list[int]) -> list[str]:
    """Every row holds, with a positive margin and exact_dim below the bound."""
    problems = _exit(code)
    rows = out.get("result", {}).get("rows", [])
    if [r.get("n") for r in rows] != ns:
        problems.append(f"rows for n = {[r.get('n') for r in rows]}, expected {ns}")
    for r in rows:
        if r.get("holds") is not True or Decimal(r["margin"]) <= 0:
            problems.append(f"n = {r.get('n')}: bound does not hold")
        elif Decimal(int(r["exact_dim"])) > Decimal(r["bound_p_cn"]):
            problems.append(f"n = {r.get('n')}: exact dimension above p^(cn)")
    return problems
