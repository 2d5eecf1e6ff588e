"""Machine-checked size-bound transcripts for progression-free sets.

Given a progression-free A in F_p^n (3 | (p-1)n), the pipeline builds the
doubles set C, which no pair sum meets, the space K of functions vanishing
off C, the low-degree slice L of degree <= (2/3)(p-1)n, their intersection
V, a subset C' of C realizing dim V independent evaluations, a witness
f in V with f = 1 on C', and the diagonal Gram certificate over
A' = {a : 2a in C'}. C' and f come from one elimination of the transposed
block of the doubles' evaluations c^beta at the monomials of degree below
the cut. f vanishes off C, so the transcript records it as its values on C.

The transcript is one JSON object, and the report is its `checks`: one
row per fact of the chain, each an object checked with exact values:
`progression_free` (B & C is empty, so f = 0 on B), on the main branch
`witness_degree` (f in L), `witness_unit_on_selected` (f = 1 on C') and
`selected_size_bound` (|A'| <= 2 dim(degree <= s), the rank of the then
diagonal Gram matrix; degree <= 2s settles the support split), then
`size_bound_exact` (|A| = |C| <= h + |C'|) and `size_bound_asymptotic`.
The transcript can be re-checked from that object alone, without
re-deriving V: f's coefficients come from one interpolation pass over its
value table (`value_table`).

One function, `_derive`, writes every field of a transcript from the
input, the selection C' and the witness's values on C, in one dict
literal whose key order is the order `prove` writes: `prove` calls it on
what its elimination found, `verify_transcript` on the recorded C' and
values, and then compares the whole record with that derivation in one
row, `recorded_claims` (`_first_difference`).

Each decision of the certificate has one home. `_read` parses the three
fields that `_derive` consumes, and every other field, `precision` too, is
a claim, compared with the derived one as JSON (`_same`: true is not 1).
`_DIMENSION_KEYS` names the recorded dimensions. The cut s = (p-1)n/3
(D2 = 2s) is `bounds._split_degree`.

Two conclusions are recorded side by side: an exact one over big-integer
dimensions, and the asymptotic form |A| <= 3 p^(cn) evaluated in decimal
by `bounds._p_cn`, at the `bounds.PRECISION` digits that `precision` records.

This module holds only what `prove` and `verify-transcript` run, on plain
numpy arrays. `capbound.reference` has the witness as a polynomial
(`interpolate(value_table(t), field, n)` for a transcript `t`); the
dense p^n x p^n rank arguments that the diagonal certificate and the
degree cap replace are references on the tests' side (`tests/dense.py`).
Each work bound is checked once, before its work is allocated: `WORK_BOUND`
on the |C| x h block that `prove` eliminates (`select_unit_witness`),
`PAIR_BOUND` on the progression sweep (`_progression_sweep`), and
`VALUE_TABLE_BOUND` on p^(n+1), the cost of interpolating the witness's
value table (`value_table`). The pair bound is the certificate's alone:
`verify-set` and the searches run the same sweep without it.
The Gram matrix over A' is read in the progression check's pair sweep
(`sets._first_pair`) and never built.
"""

from __future__ import annotations

import operator
from decimal import Decimal
from itertools import zip_longest

import numpy as np

from .bounds import PRECISION, _p_cn, _split_degree
from .errors import HypothesisViolation, ProgressionFound
from .gf import PrimeField, unit_kernel_vector
from .monomials import _exponent_array, dim_L
from .polyspace import _coordinate_products, _vandermonde, coefficient_tensor
from .sets import PointSet, _doubles_and_progression, _first_pair, _index_of, _members

__all__ = [
    "WORK_BOUND",
    "PAIR_BOUND",
    "VALUE_TABLE_BOUND",
    "TRANSCRIPT_FORMAT",
    "value_table",
    "select_unit_witness",
    "diagonal_certificate",
    "prove_size_bound",
    "verify_transcript",
]

WORK_BOUND = 2**22  # entries of the |C| x h block that `prove` builds and eliminates
PAIR_BOUND = 2**25  # pairs a < b of the certificate's progression sweep: admits |A| <= 8192
VALUE_TABLE_BOUND = 2**21  # p^(n+1), the products of one interpolation pass over a value table
TRANSCRIPT_FORMAT = "capbound.transcript/4"
_DIMENSION_KEYS = (
    "ambient", "vanishing_off_doubles", "low_degree", "low_third", "low_third_minus", "intersection"
)


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _check(name: str, lhs, relation: str, rhs, note: str = "") -> dict:
    """The row `lhs relation rhs`, with its `note` only when there is one; each
    side is an int or a Decimal, and ints and Decimals compare exactly with each other."""
    holds = _RELATIONS[relation](lhs, rhs)
    row = {"name": name, "relation": relation, "lhs": str(lhs), "rhs": str(rhs), "holds": holds}
    return {**row, "note": note} if note else row


def value_table(t: dict) -> np.ndarray | None:
    """The value table over F_p^n of the witness of transcript `t`: its
    `witness_values` on its `doubles`, 0 elsewhere; None when it records no witness.

    An ambient with p^(n+1) > VALUE_TABLE_BOUND is refused (ValueError)
    before anything is allocated: `prove` and `verify_transcript` read
    the witness's coefficients from this table.
    """
    p, n = t["p"], t["n"]
    if t["witness_values"] is None:
        return None
    if p ** (n + 1) > VALUE_TABLE_BOUND:
        raise ValueError(
            f"the witness's value table over F_{p}^{n} needs p^(n+1) = {p ** (n + 1)} "
            f"products to interpolate, above the value-table bound {VALUE_TABLE_BOUND}"
        )
    table = np.zeros(p**n, dtype=np.int64)
    table[t["doubles"]] = t["witness_values"]
    return table


def select_unit_witness(points: PointSet) -> tuple[PointSet, list[int]]:
    """The selection C' of `points` and the witness's values lam on `points`; needs an integral cut.

    V = K & L for K the functions vanishing off `points` and L the slice of
    degree <= (2/3)(p-1)n. The member sum_c lam_c 1_c of K lies in L exactly
    when sum_c lam_c c^beta = 0 for the h exponents beta of degree <=
    (p-1)n/3 - 1, so V is the left kernel of the |points| x h evaluation
    block [c^beta]. C' is the set of leftmost pivot columns of the RREF of a
    basis of that kernel, so |C'| = dim V, and lam is 1 on C': the sum of
    that RREF's rows. Both come from one elimination of the block's
    transpose (`gf.unit_kernel_vector`), refused (ValueError) above
    `WORK_BOUND` entries before it is built; an empty C' means V = 0 (lam is
    then 0).
    """
    if not points.size:
        return points, []
    field, n = points.field, points.n
    s = _split_degree(field.p, n)
    if points.size * (h := dim_L(n, s - 1, field)) > WORK_BOUND:
        raise ValueError(
            f"the |C| x h block would have |C| = {points.size} times h = {h} entries, "
            f"above the work bound {WORK_BOUND}"
        )
    idx, coords = _members(points)
    block = _coordinate_products(coords, _exponent_array(n, field.p - 1, s - 1), _vandermonde(field.p), field)
    free, lam = unit_kernel_vector(block, field.p)
    return PointSet.from_indices(field, n, idx[free]), lam.tolist()


def diagonal_certificate(values, selected: PointSet) -> np.ndarray:
    """Diagonal [f(2a)] over `selected` of the Gram matrix [f(a + b)], which
    must be diagonal with nonzero diagonal.

    `values` is f's value table over F_p^n. This is exactly where
    progression-freeness is consumed: an off-diagonal nonzero entry means
    f(a + b) != 0 for distinct a, b, i.e. a + b escaped the zero set that
    the construction promised. The matrix is not built: its entries above
    the diagonal are read in a progression sweep (`sets._first_pair`),
    whose pair bound A' within A already meets, and
    the first nonzero is named. A diagonal matrix with nonzero diagonal
    has rank |selected|, so its rank is not computed.
    """
    p, coords = selected.field.p, _members(selected)[1]
    table = np.append(np.asarray(values, dtype=np.int64), 0)  # entry p^n: the sweep's diagonal
    if (hit := _first_pair(coords, table, p)) is not None:
        a, b, value = hit
        raise HypothesisViolation(
            "hypothesis violated: Gram matrix is not diagonal",
            evidence={"row_point": coords[a].tolist(), "col_point": coords[b].tolist(), "value": value},
        )
    diag = table[_index_of(2 * coords % p, p)]
    if not diag.all():
        raise HypothesisViolation(
            "hypothesis violated: zero diagonal entry in Gram matrix",
            evidence={"point": coords[np.argmin(diag != 0)].tolist()},
        )
    return diag


def prove_size_bound(A: PointSet, *, _skip_progression_check: bool = False) -> dict:
    """Run the whole size-bound argument on a concrete set and record it as
    the JSON transcript that `prove` prints.

    Requires 3 | (p-1)n and a progression-free input (checked first unless the
    test hook `_skip_progression_check` forces the pipeline onward, in
    which case the diagonal certificate is where the damage surfaces).
    The steps here are the cut and the progression sweep
    (`_progression_sweep`), whose first progression a refusal names, and
    the one elimination, which gives C' and the witness; `_derive` writes
    every field, exactly as for `verify_transcript`.
    """
    field, n = A.field, A.n
    s = _split_degree(field.p, n)
    doubles, triple = _progression_sweep(A)
    if triple is not None and not _skip_progression_check:
        raise ProgressionFound(
            "input set contains a 3-term progression", [list(c) for c in triple]
        )
    selected, lam = select_unit_witness(doubles)
    t = _derive(A, A.to_json(), s, triple is None, doubles, selected, lam)
    if t["matrix_rank"] == -1:  # raises, naming the entry that breaks the diagonal
        diagonal_certificate(value_table(t), PointSet.from_indices(field, n, t["selected_points"]))
    return t


def _progression_sweep(A: PointSet) -> tuple[PointSet, tuple | None]:
    """C = 2A and the first progression of A, or None, from the certificate's
    one progression sweep (`sets._doubles_and_progression`); a set of more
    than `PAIR_BOUND` pairs is refused (ValueError) before any table is allocated."""
    if (pairs := A.size * (A.size - 1) // 2) > PAIR_BOUND:
        raise ValueError(
            f"the pair sweep over |A| = {A.size} points would take {pairs} pairs, above the pair bound {PAIR_BOUND}"
        )
    return _doubles_and_progression(A)


def _derive(
    A: PointSet, a_json: dict, s: int, free: bool, doubles: PointSet, selected: PointSet, lam: list[int]
) -> dict:
    """The transcript of `A` whose selection is C' = `selected` and whose witness f
    has the values `lam` on the doubles, every field derived from these alone.

    `a_json` is A as the record holds it, in `input`: `prove_size_bound`
    writes `A.to_json()`, and `verify_transcript` passes the recorded input
    that `_read` parsed A from, since the input is read, not claimed.

    `s` is the split degree of the cut, `doubles` is C = 2A, and `free`
    says whether A is progression-free, that is whether no sum of two
    distinct points of A is in C. dim V is recorded as |C'|; the branch is
    the main one exactly when C' is not empty, and only then is `lam` read. The Gram
    rank over A' = {a : 2a in C'} is |A'| when `diagonal_certificate` finds
    the Gram matrix diagonal with nonzero diagonal, else -1; its sweep is
    skipped when A is progression-free and f is 1 on C', which make it so.
    f's degree is read from its coefficients, one interpolation pass over
    its value table. The record is one JSON object, its keys in the order
    `prove` writes them: `prove_size_bound` returns it, and
    `verify_transcript` compares a record with it.
    """
    field, n = A.field, A.n
    c, values = doubles.indices(), lam if selected.size else None
    # refused above its bound here, before C' and A' are listed
    table = value_table({"p": field.p, "n": n, "doubles": c, "witness_values": values})
    c_prime, halves = selected.indices(), _halves_of(selected & doubles)
    slices = [dim_L(n, d, field) for d in (2 * s, s, s - 1)]
    _, low_third, h = slices
    size = A.size
    checks = [_check("progression_free", int(free), "==", 1, note="verified on input")]
    exact, rank = {"size": str(size)}, None
    if table is None:
        # |A| = |C| <= p^n - dim L = dim(degree <= (p-1)n/3 - 1)
        exact_bound, note = h, "zero-dimensional intersection branch"
    else:
        a_prime = PointSet.from_indices(field, n, halves)
        unit = int((table[c_prime] == 1).all())
        rank = a_prime.size
        if not (free and unit):  # else f, 0 off C, is 0 on B and 1 on C': the sweep would find |A'|
            try:
                diagonal_certificate(table, a_prime)
            except HypothesisViolation:
                rank = -1
        degree = int(np.argwhere(coefficient_tensor(table, field, n)).sum(axis=1).max(initial=0))
        checks += [
            _check("witness_degree", degree, "<=", 2 * s),
            _check("witness_unit_on_selected", unit, "==", 1),
            _check(
                "selected_size_bound",
                a_prime.size,
                "<=",
                2 * low_third,
                note="diagonal Gram rank against the support split",
            ),
        ]
        exact_bound, note = h + selected.size, "|A| = |C| <= dim(low third minus one) + |C'|"
        exact.update(low_third_minus=str(h), selected=str(selected.size))
    checks.append(_check("size_bound_exact", size, "<=", exact_bound, note=note))
    exact.update(bound=str(exact_bound), holds=size <= exact_bound)
    row, asymptotic = _asymptotic(field, n, size)
    return {
        "format": TRANSCRIPT_FORMAT,
        "p": field.p,
        "n": n,
        "branch": "main" if selected.size else "zero_intersection",
        "input": a_json,
        "input_size": size,
        "doubles": c,
        "dims": dict(zip(_DIMENSION_KEYS, map(str, (field.p**n, doubles.size, *slices, selected.size)))),
        "degree_cap": 2 * s,
        "split_degree": s,
        "selected_doubles": c_prime,
        "selected_points": halves,
        "witness_values": values,
        "matrix_rank": rank,
        "checks": checks + [row],
        "conclusion": {"exact": exact, "asymptotic": asymptotic},
        "precision": PRECISION,
    }


def _asymptotic(field: PrimeField, n: int, size: int) -> tuple[dict, dict]:
    """The row size <= 3 p^(cn) and the asymptotic conclusion."""
    c, [(_, p_cn, bound)] = _p_cn(field, [n])
    row = _check("size_bound_asymptotic", Decimal(size), "<=", bound)
    return row, {"c": str(c), "p_cn": str(p_cn), "bound": str(bound), "holds": row["holds"]}


def _halves_of(doubled: PointSet) -> list[int]:
    """Indices, in order, of the halves c/2 of the members c of `doubled`.

    Doubling is a bijection for odd p, so for `doubled` within C = 2A these
    are the members a of A with 2a in `doubled`: A' for C' & C."""
    field, coords = doubled.field, _members(doubled)[1]
    return sorted(_index_of(coords * field.inv2 % field.p, field.p).tolist())


def verify_transcript(data: dict) -> tuple[bool, list[dict]]:
    """Re-check a serialized transcript without re-deriving its certificate.

    Reads the three fields that `_derive` consumes (`_read`): the `input` A,
    `selected_doubles` (C') and `witness_values` (a null witness reads as
    0), and runs `_derive`, the derivation that `prove_size_bound` records,
    on them: no kernel, no pivot selection. Every other field is a claim,
    `precision` too. The report is the derived rows, then `recorded_claims`,
    which holds when the record, `format` and `input` aside, equals the
    derivation's as JSON and otherwise names the first field that differs
    (`_first_difference`). dim V is recorded as |C'| and is not re-derived:
    the `size_bound_exact` row (|A| <= h + |C'|) binds it.
    Returns (every row holds, rows).

    Refused (ValueError): a fault in a read field, then, in the order its
    work comes, a cut (p-1)n/3 that is not an integer, the bound of the pair
    sweep and, on the main branch, that of the value table. It builds no
    |C| x h block.
    """
    A, c_prime, values = _read(data)
    field, n = A.field, A.n
    s = _split_degree(field.p, n)
    doubles, triple = _progression_sweep(A)
    selected = PointSet.from_indices(field, n, c_prime)
    derived = _derive(A, data["input"], s, triple is None, doubles, selected, values or [0] * A.size)
    differs = _first_difference(data, derived)
    note = f"recorded {differs} differs" if differs else ""
    checks = derived["checks"] + [_check("recorded_claims", int(differs is None), "==", 1, note=note)]
    return all(c["holds"] for c in checks), checks


def _read(data) -> tuple[PointSet, list[int], list[int] | None]:
    """The fields of a serialized transcript that `_derive` consumes: the input
    A, C' as `selected_doubles` (ints in [0, p^n)) and f's values on the
    doubles as `witness_values` (|A| ints in [0, p), or null); a bool is not
    an int. An absent `witness_values` is derived as null, and the record
    then fails `recorded_claims`, since a missing key differs from null.

    A ValueError names a non-object, then another format, then the first
    of these fields that is missing, then the first that is ill-formed.
    """
    if not isinstance(data, dict):
        raise ValueError(f"transcript must be an object, got {type(data).__name__}")
    if data.get("format") != TRANSCRIPT_FORMAT:
        raise ValueError(f"unrecognized transcript format {data.get('format')!r}")
    missing = next((k for k in ("input", "selected_doubles") if k not in data), None)
    if missing is not None:
        raise ValueError(f"transcript field {missing!r} is missing")
    A = PointSet.from_json(data["input"], what="transcript field 'input'")
    selected, values = _indices(data, "selected_doubles", A.field.p**A.n), data.get("witness_values")
    if values is not None and len(_indices(data, "witness_values", A.field.p)) != A.size:
        raise ValueError(f"transcript field 'witness_values' holds {len(values)} values, not one per double")
    return A, selected, values


def _indices(data: dict, key: str, total: int) -> list[int]:
    """`data[key]`, required to be a list of ints in [0, total), else ValueError naming the field."""
    values = data[key]
    if not isinstance(values, list):
        raise ValueError(f"transcript field {key!r} must be list, got {values!r}")
    if set(map(type, values)) - {int}:
        raise ValueError(f"transcript field {key!r} must hold ints")
    if values and not 0 <= min(values) <= max(values) < total:
        bad = next(v for v in values if not 0 <= v < total)
        raise ValueError(f"transcript field {key!r} holds {bad}, outside [0, {total})")
    return values


_ABSENT = object()  # a key that a JSON object lacks, which differs from every value, null too


def _first_difference(recorded: dict, derived: dict, path: str = "") -> str | None:
    """The first key, `derived`'s in its order then `recorded`'s own, whose
    values differ, as a dotted path; None when every key's values are the same (`_same`).

    One pass, key by key: objects are compared down to the leaf, and check
    rows one by one ("row i (name)"). A key whose two sides are one object,
    such as the input that `verify_transcript` passes through, is skipped.
    """
    for key in [*derived, *(k for k in recorded if k not in derived)]:
        mine, value, where = recorded.get(key, _ABSENT), derived.get(key, _ABSENT), path + key
        if mine is value:
            continue
        if where == "checks" and type(mine) is list:
            for i, (r, d) in enumerate(zip_longest(mine, value, fillvalue=_ABSENT)):
                if not _same(r, d):
                    return f"row {i} ({d['name']})" if d is not _ABSENT else f"row {i}"
        elif type(mine) is dict and type(value) is dict:
            if (inner := _first_difference(mine, value, where + ".")) is not None:
                return inner
        elif not _same(mine, value):
            return where
    return None


def _same(a, b) -> bool:
    """Whether `a` and `b` are equal as JSON: equal, with one JSON type at
    every position, so true is not 1 and 5.0 is not 5, though == holds;
    object keys may come in any order. One level deep: `_first_difference`
    walks objects itself and passes only leaves, lists of leaves and check
    rows of leaves, so nothing nested can hide another type."""
    if type(a) is not type(b) or a != b:
        return False
    if type(a) is dict:
        a, b = list(a.values()), list(map(b.__getitem__, a))
    elif type(a) is not list:
        return True
    return list(map(type, a)) == list(map(type, b))
