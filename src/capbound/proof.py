"""Machine-checked size-bound transcripts for progression-free sets.

Given a progression-free A in F_p^n (with 3 | n), the pipeline builds the
pair-sum set B and the doubles set C, the space K of functions vanishing
off C, the low-degree slice L of degree <= (2/3)(p-1)n, their intersection
V, a subset C' of C realizing dim V independent evaluations, a witness
polynomial f in V with f = 1 on C', and the diagonal Gram certificate over
A' = {a : 2a in C'}. Every claimed (in)equality is checked with exact
values and recorded; the transcript serializes to JSON and can be
re-checked from that form alone, without re-deriving V or f.

Two conclusions are recorded side by side: an exact one over big-integer
dimensions, and the asymptotic form |A| <= 3 p^(cn) evaluated in decimal
at the configured precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from decimal import Decimal, localcontext

import numpy as np

from .bounds import DEFAULT_PRECISION, MAX_PRECISION, exponent_c, precision_digits
from .errors import HypothesisViolation, ProgressionFound
from .gf import FpMatrix, PrimeField, point_index
from .monomials import dim_L, enumerate_monomials, monomial_index
from .polyspace import (
    ReducedPoly,
    evaluate_all,
    gram_matrix,
    indicator_coefficients,
    interpolate,
    shift_coefficient_matrix,
    split_violation,
    support_split_rank_bound,
)
from .sets import PointSet, is_progression_free, pair_sums

__all__ = [
    "PIPELINE_CEILING",
    "TRANSCRIPT_FORMAT",
    "ProofCheck",
    "ProofTranscript",
    "RankCheck",
    "DiagonalCheck",
    "low_degree_kernel",
    "select_unit_witness",
    "diagonal_certificate",
    "prove_size_bound",
    "check_gram_rank_bound",
    "check_diagonal_size_bound",
    "verify_transcript",
]

PIPELINE_CEILING = 2048
TRANSCRIPT_FORMAT = "capbound.transcript/1"


@dataclass(frozen=True)
class ProofCheck:
    """One verified (in)equality: both sides recorded, never just a boolean."""

    name: str
    relation: str
    lhs: str
    rhs: str
    holds: bool
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "relation": self.relation,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
        }
        if self.note:
            out["note"] = self.note
        return out


def _check(name: str, lhs, relation: str, rhs, note: str = "") -> ProofCheck:
    lv = lhs if isinstance(lhs, (int, Decimal)) else int(lhs)
    rv = rhs if isinstance(rhs, (int, Decimal)) else int(rhs)
    if isinstance(lv, Decimal) or isinstance(rv, Decimal):
        lv, rv = Decimal(lv), Decimal(rv)
    if relation == "<=":
        holds = lv <= rv
    elif relation == ">=":
        holds = lv >= rv
    elif relation == "==":
        holds = lv == rv
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return ProofCheck(name, relation, str(lhs), str(rhs), bool(holds), note)


@dataclass
class ProofTranscript:
    """Full record of one size-bound run; self-contained for re-checking."""

    p: int
    n: int
    branch: str
    input_points: PointSet
    input_size: int
    doubles: list[int]
    pair_sum_count: int
    dims: dict[str, int]
    degree_cap: int
    selected_doubles: list[int]
    selected_points: list[int]
    witness: ReducedPoly | None
    witness_values_off_selection: dict[int, int]
    matrix_rank: int | None
    checks: list[ProofCheck]
    conclusion: dict
    precision: int = dataclass_field(default_factory=precision_digits)

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        return {
            "format": TRANSCRIPT_FORMAT,
            "p": self.p,
            "n": self.n,
            "branch": self.branch,
            "input": self.input_points.to_json(),
            "input_size": self.input_size,
            "doubles": list(self.doubles),
            "pair_sum_count": self.pair_sum_count,
            "dims": {k: str(v) for k, v in self.dims.items()},
            "degree_cap": self.degree_cap,
            "selected_doubles": list(self.selected_doubles),
            "selected_points": list(self.selected_points),
            "witness": None if self.witness is None else self.witness.to_json_terms(),
            "witness_values_off_selection": {
                str(k): v for k, v in self.witness_values_off_selection.items()
            },
            "matrix_rank": self.matrix_rank,
            "checks": [c.to_json() for c in self.checks],
            "conclusion": self.conclusion,
            "precision": self.precision,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProofTranscript":
        """Parse a serialized transcript; a missing or ill-typed field raises ValueError."""
        fmt = _field(data, "format", str)
        if fmt != TRANSCRIPT_FORMAT:
            raise ValueError(f"unrecognized transcript format {fmt!r}")
        try:
            input_points = PointSet.from_json(_field(data, "input", dict))
            field, n = input_points.field, input_points.n
            terms = _field(data, "witness", list, optional=True)
            witness = None if terms is None else ReducedPoly.from_json_terms(terms, field, n)
            recorded_off = _field(data, "witness_values_off_selection", dict)
            off_selection = {int(k): int(v) for k, v in recorded_off.items()}
            dims = {k: int(v) for k, v in _field(data, "dims", dict).items()}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed transcript: {type(exc).__name__}: {exc}") from None
        if (_field(data, "p", int), _field(data, "n", int)) != (field.p, n):
            raise ValueError("transcript p and n disagree with its input set")
        precision = _field(data, "precision", int, optional=True)
        precision = DEFAULT_PRECISION if precision is None else precision
        if not 1 <= precision <= MAX_PRECISION:
            raise ValueError(f"transcript precision {precision} is outside [1, {MAX_PRECISION}]")
        checks = [
            ProofCheck(
                name=_field(c, "name", str),
                relation=_field(c, "relation", str),
                lhs=_field(c, "lhs", str),
                rhs=_field(c, "rhs", str),
                holds=_field(c, "holds", bool),
                note=_field(c, "note", str, optional=True) or "",
            )
            for c in _field(data, "checks", list)
        ]
        return cls(
            p=field.p,
            n=n,
            branch=_field(data, "branch", str),
            input_points=input_points,
            input_size=_field(data, "input_size", int),
            doubles=_int_list(data, "doubles"),
            pair_sum_count=_field(data, "pair_sum_count", int),
            dims=dims,
            degree_cap=_field(data, "degree_cap", int),
            selected_doubles=_int_list(data, "selected_doubles"),
            selected_points=_int_list(data, "selected_points"),
            witness=witness,
            witness_values_off_selection=off_selection,
            matrix_rank=_field(data, "matrix_rank", int, optional=True),
            checks=checks,
            conclusion=_field(data, "conclusion", dict),
            precision=precision,
        )


def _field(data, key: str, kind: type, optional: bool = False):
    """data[key], required to be a `kind` (bool is not an int), else ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object holding {key!r}, got {type(data).__name__}")
    value = data.get(key)
    if value is None and optional:
        return None
    if key not in data:
        raise ValueError(f"transcript field {key!r} is missing")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"transcript field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _int_list(data: dict, key: str) -> list[int]:
    values = _field(data, key, list)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"transcript field {key!r} must be a list of ints")
    return values


def low_degree_kernel(points: PointSet) -> list[list[int]]:
    """Value vectors on `points` of a basis of V, for V = K & L; needs 3 | n.

    K is the space of functions vanishing off `points` and L the slice of
    degree <= (2/3)(p-1)n. A member of K with values lam on `points` has
    coefficient sum_c lam_c M[c, alpha] at x^alpha, with M from
    `indicator_coefficients`, so it lies in L exactly when lam is in the
    left kernel of M restricted to the monomials of degree above the cap.
    By complementation alpha -> (p-1, ..., p-1) - alpha these are the
    complements of the h = dim(degree <= (p-1)n/3 - 1) low monomials,
    which gives a |points| x h block instead of any p^n-sized one.
    """
    field, n = points.field, points.n
    if n <= 0 or n % 3 != 0:
        raise ValueError("degree cut requires 3 | n")
    low = enumerate_monomials(n, field, (field.p - 1) * n // 3 - 1)
    high = [tuple(field.p - 1 - e for e in alpha) for alpha in low]
    return indicator_coefficients(points, high).transpose().kernel_basis()


def select_unit_witness(
    span_values: list[list[int]], points: PointSet
) -> tuple[PointSet, ReducedPoly, dict[int, int]]:
    """Pick pivot points of a span of functions on `points` and a witness.

    `span_values` holds the value vectors on `points` (index order) of a
    basis of the span, whose members vanish off `points`. The pivot
    columns of its reduced row echelon form are the selected subset: the
    leftmost pivots, so they depend only on the span, and there are dim
    span of them. The sum of the reduced rows is the unique member equal
    to 1 on every selected point; it is interpolated as the witness. Its
    values on the unselected points are free; they are returned for the
    record.
    """
    if not span_values:
        raise ValueError("span basis is empty; nothing to select")
    field, n = points.field, points.n
    idxs = points.indices()
    reduced, pivots = FpMatrix(span_values, field).rref()
    if len(pivots) != len(span_values):
        raise HypothesisViolation(
            "span values are linearly dependent",
            evidence={"rank": len(pivots), "dim": len(span_values)},
        )
    lam = [int(v) for v in reduced.array.sum(axis=0) % field.p]
    values = [0] * field.p**n
    for i, v in zip(idxs, lam):
        values[i] = v
    selected = PointSet.from_indices(field, n, [idxs[j] for j in pivots])
    off_selection = {i: v for i, v in zip(idxs, lam) if i not in selected}
    return selected, interpolate(values, field, n), off_selection


def diagonal_certificate(f: ReducedPoly, selected: PointSet) -> FpMatrix:
    """Gram matrix of f over `selected`; must be diagonal with nonzero diagonal.

    This is exactly where progression-freeness is consumed: an off-diagonal
    nonzero entry means f(a + b) != 0 for distinct a, b, i.e. a + b escaped
    the zero set that the construction promised. Returns the matrix after
    asserting rank = |selected|.
    """
    mat = gram_matrix(f, selected, selected)
    arr = mat.array
    off = np.array(arr)
    np.fill_diagonal(off, 0)
    idxs = selected.indices()
    if off.any():
        i, j = map(int, np.argwhere(off)[0])
        raise HypothesisViolation(
            "hypothesis violated: Gram matrix is not diagonal",
            evidence={
                "row_point": list(selected.points()[i]),
                "col_point": list(selected.points()[j]),
                "value": int(off[i, j]),
            },
        )
    diag = np.diagonal(arr)
    if len(idxs) and not diag.all():
        k = int(np.argmin(diag != 0))
        raise HypothesisViolation(
            "hypothesis violated: zero diagonal entry in Gram matrix",
            evidence={"point": list(selected.points()[k])},
        )
    if mat.rank() != selected.size:
        raise AssertionError("diagonal matrix with nonzero diagonal must have full rank")
    return mat


@dataclass(frozen=True)
class RankCheck:
    """Evidence that the pairwise-evaluation rank is bounded by the grid rank."""

    rank_gram: int
    rank_shift: int
    factorization_ok: bool
    holds: bool


def check_gram_rank_bound(f: ReducedPoly, A: PointSet, B: PointSet) -> RankCheck:
    """Verify rank of [f(a+b)] <= rank of the shift grid, with factorization.

    The factorization M = Ma^T C Mb, where Ma and Mb tabulate monomial
    powers at the points of A and B, is checked entrywise.
    """
    field, n = f.field, f.n
    monos, _ = monomial_index(field.p, n)
    C = shift_coefficient_matrix(f)
    M = gram_matrix(f, A, B)

    def power_table(ps: PointSet) -> FpMatrix:
        cols = []
        for pt in ps.points():
            cols.append([_monomial_value(m, pt, field.p) for m in monos])
        if not cols:
            return FpMatrix(np.zeros((len(monos), 0), dtype=np.int64), field)
        return FpMatrix(np.array(cols, dtype=np.int64).T, field)

    Ma, Mb = power_table(A), power_table(B)
    product = Ma.transpose().matmul(C).matmul(Mb)
    factorization_ok = product == M
    rg, rc = M.rank(), C.rank()
    return RankCheck(
        rank_gram=rg, rank_shift=rc, factorization_ok=factorization_ok, holds=rg <= rc
    )


def _monomial_value(alpha, pt, p: int) -> int:
    v = 1
    for e, x in zip(alpha, pt):
        if e:
            v = v * pow(x, e, p) % p
    return v


@dataclass(frozen=True)
class DiagonalCheck:
    """Evidence for the size bound via the diagonal Gram argument."""

    set_size: int
    split_bound: int
    rank_shift: int
    holds: bool


def check_diagonal_size_bound(f: ReducedPoly, A: PointSet, d: int) -> DiagonalCheck:
    """Confirm |A| <= 2 * dim(degree <= d) for f of degree <= 2d that is
    nonzero exactly on the doubled diagonal of A.

    The hypothesis f(a+b) = 0 iff a != b is verified pointwise first; the
    bound comes through the support split of the shift grid.
    """
    if f.degree is not None and f.degree > 2 * d:
        raise ValueError(f"degree {f.degree} exceeds 2d = {2 * d}")
    field, n = f.field, f.n
    table = evaluate_all(f)
    pts = A.points()
    p = field.p
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            s = tuple((x + y) % p for x, y in zip(a, b))
            val = table[point_index(s, field)]
            if (val == 0) != (i != j):
                raise HypothesisViolation(
                    "hypothesis violated: f(a+b) = 0 iff a != b fails",
                    evidence={"a": list(a), "b": list(b), "value": val},
                )
    C = shift_coefficient_matrix(f)
    bound = support_split_rank_bound(C, d, n, field)
    return DiagonalCheck(
        set_size=A.size, split_bound=bound, rank_shift=C.rank(), holds=A.size <= bound
    )


def _split_check(f: ReducedPoly, size: int, d: int, note: str = "") -> ProofCheck:
    """size <= 2 dim(degree <= d), the rank bound of f's split shift grid.

    When a term of f breaks the support split the bound is not established
    and the row fails, naming that term, instead of raising.
    """
    bound = 2 * dim_L(f.n, d, f.field)
    term = split_violation(f, d)
    if term is None:
        return _check("selected_size_bound", size, "<=", bound, note=note)
    note = f"support split fails: term {list(term)} has degree >= 2d + 2 = {2 * d + 2}"
    return ProofCheck("selected_size_bound", "<=", str(size), str(bound), False, note)


def prove_size_bound(A: PointSet, *, _skip_progression_check: bool = False) -> ProofTranscript:
    """Run the whole size-bound argument on a concrete set and record it.

    Requires 3 | n and a progression-free input (checked first unless the
    test hook `_skip_progression_check` forces the pipeline onward, in
    which case the diagonal certificate is where the damage surfaces).
    """
    field, n = A.field, A.n
    p = field.p
    if n <= 0 or n % 3 != 0:
        raise ValueError("the size-bound argument requires 3 | n")
    if p**n > PIPELINE_CEILING:
        raise ValueError(f"p^n = {p**n} exceeds the pipeline ceiling {PIPELINE_CEILING}")

    checks: list[ProofCheck] = []
    pf, triple = is_progression_free(A)
    if not pf and not _skip_progression_check:
        raise ProgressionFound(
            "input set contains a 3-term progression", [list(c) for c in triple]
        )
    checks.append(
        _check("progression_free", int(pf), "==", 1, note="verified on input")
    )

    sums, doubles = pair_sums(A)
    checks.append(
        _check(
            "pair_sums_disjoint_from_doubles",
            (sums & doubles).size,
            "==",
            0,
            note="B and C share no point",
        )
    )
    checks.append(_check("doubling_injective", doubles.size, "==", A.size))

    low_third = (p - 1) * n // 3
    dims = _dimension_table(field, n, doubles.size)
    ambient, dim_low, dim_low_third_minus = dims["ambient"], dims["low_degree"], dims["low_third_minus"]
    checks.append(
        _check(
            "low_degree_dim_lower_bound",
            dim_low,
            ">=",
            ambient - dim_low_third_minus,
            note="equality by the complementation duality",
        )
    )

    intersection = low_degree_kernel(doubles)
    dims["intersection"] = len(intersection)
    checks.append(
        _check(
            "intersection_dim_lower_bound",
            len(intersection),
            ">=",
            doubles.size + dim_low - ambient,
        )
    )

    if not intersection:
        # |A| = |C| <= p^n - dim L = dim(degree <= (p-1)n/3 - 1)
        checks.append(
            _check(
                "size_bound_exact",
                A.size,
                "<=",
                dim_low_third_minus,
                note="zero-dimensional intersection branch",
            )
        )
        exact = {
            "size": str(A.size),
            "bound": str(dim_low_third_minus),
            "holds": A.size <= dim_low_third_minus,
        }
        selected_doubles, witness, off_selection = PointSet.empty(field, n), None, {}
        selected_points, rank = [], None
    else:
        selected_doubles, witness, off_selection = select_unit_witness(intersection, doubles)
        checks.append(
            _check("selection_size", selected_doubles.size, "==", len(intersection))
        )
        checks += _witness_checks(witness, doubles, sums, selected_doubles, 2 * low_third)
        selected_points = _halves_of(A, selected_doubles)
        a_prime = PointSet.from_indices(field, n, selected_points)
        checks.append(_check("selected_points_count", a_prime.size, "==", selected_doubles.size))

        rank = diagonal_certificate(witness, a_prime).rank()
        checks.append(_check("gram_rank_equals_selection", rank, "==", a_prime.size))
        checks.append(
            _split_check(
                witness, a_prime.size, low_third, note="diagonal Gram rank against the support split"
            )
        )
        exact_bound = dim_low_third_minus + selected_doubles.size
        checks.append(
            _check(
                "size_bound_exact",
                A.size,
                "<=",
                exact_bound,
                note="|A| = |C| <= dim(low third minus one) + |C'|",
            )
        )
        exact = {
            "size": str(A.size),
            "low_third_minus": str(dim_low_third_minus),
            "selected": str(selected_doubles.size),
            "bound": str(exact_bound),
            "holds": A.size <= exact_bound,
        }

    with localcontext() as ctx:
        ctx.prec = precision_digits()
        c_exp = exponent_c(field)
        p_cn = (c_exp * n * Decimal(p).ln()).exp()
        asympt_bound = 3 * p_cn
    checks.append(_check("size_bound_asymptotic", Decimal(A.size), "<=", asympt_bound))
    conclusion = {
        "exact": exact,
        "asymptotic": {
            "c": str(c_exp),
            "p_cn": str(p_cn),
            "bound": str(asympt_bound),
            "holds": Decimal(A.size) <= asympt_bound,
        },
    }
    return ProofTranscript(
        p=p,
        n=n,
        branch="main" if intersection else "zero_intersection",
        input_points=A,
        input_size=A.size,
        doubles=doubles.indices(),
        pair_sum_count=sums.size,
        dims=dims,
        degree_cap=2 * low_third,
        selected_doubles=selected_doubles.indices(),
        selected_points=selected_points,
        witness=witness,
        witness_values_off_selection=off_selection,
        matrix_rank=rank,
        checks=checks,
        conclusion=conclusion,
    )


def _dimension_table(field: PrimeField, n: int, doubles_size: int) -> dict[str, int]:
    """The recorded dimensions other than dim V, in transcript order."""
    low_third = (field.p - 1) * n // 3
    return {
        "ambient": field.p**n,
        "vanishing_off_doubles": doubles_size,
        "low_degree": dim_L(n, 2 * low_third, field),
        "low_third": dim_L(n, low_third, field),
        "low_third_minus": dim_L(n, low_third - 1, field) if low_third >= 1 else 0,
    }


def _witness_checks(
    witness: ReducedPoly, doubles: PointSet, sums: PointSet, selected, degree_cap: int
) -> list[ProofCheck]:
    """Degree cap, vanishing off C, 1 on the selection and 0 on B, from one value table."""
    table = evaluate_all(witness)
    return [
        _check(
            "witness_degree",
            witness.degree if witness.degree is not None else 0,
            "<=",
            degree_cap,
        ),
        _check(
            "witness_vanishes_off_doubles",
            int(all(v == 0 for i, v in enumerate(table) if i not in doubles)),
            "==",
            1,
        ),
        _check("witness_unit_on_selected", int(all(table[i] == 1 for i in selected)), "==", 1),
        _check("pair_sums_in_zero_set", int(all(table[i] == 0 for i in sums)), "==", 1),
    ]


def _halves_of(A: PointSet, doubled) -> list[int]:
    """Indices, in order, of the members a of A with 2a in `doubled`."""
    field = A.field
    return [
        i
        for i, a in zip(A.indices(), A.points())
        if point_index(tuple(2 * x % field.p for x in a), field) in doubled
    ]


def verify_transcript(data: dict) -> tuple[bool, list[ProofCheck]]:
    """Re-check a serialized transcript without re-deriving its objects.

    Reproduces every recorded boolean from the serialized input set,
    witness and dimensions: set relations and the witness's properties are
    recomputed outright; dimension claims are recomputed from the exact
    dimension tables; the intersection dimension is taken from the record
    (it is certified by the selection size and the diagonal certificate,
    not re-derived). Returns (everything matches and holds, recomputed
    checks).
    """
    t = ProofTranscript.from_json(data)
    field = t.input_points.field
    n, p = t.n, t.p
    recomputed: list[ProofCheck] = []

    pf, _ = is_progression_free(t.input_points)
    recomputed.append(_check("progression_free", int(pf), "==", 1, note="re-verified"))
    sums, doubles = pair_sums(t.input_points)
    recomputed.append(
        _check("pair_sums_disjoint_from_doubles", (sums & doubles).size, "==", 0)
    )
    recomputed.append(_check("doubling_injective", doubles.size, "==", t.input_size))
    if doubles.indices() != t.doubles or sums.size != t.pair_sum_count:
        return False, recomputed

    low_third = (p - 1) * n // 3
    expected = _dimension_table(field, n, doubles.size)
    ambient, dim_low, dim_low_third_minus = (
        expected["ambient"], expected["low_degree"], expected["low_third_minus"]
    )
    dims_ok = t.degree_cap == 2 * low_third and all(t.dims.get(k) == v for k, v in expected.items())
    recomputed.append(_check("recorded_dimensions", int(dims_ok), "==", 1))
    recomputed.append(
        _check("low_degree_dim_lower_bound", dim_low, ">=", ambient - dim_low_third_minus)
    )

    with localcontext() as ctx:
        ctx.prec = max(t.precision, precision_digits())
        asympt_bound = 3 * (exponent_c(field) * n * Decimal(p).ln()).exp()
    recomputed.append(
        _check("size_bound_asymptotic", Decimal(t.input_size), "<=", asympt_bound)
    )

    if t.branch == "zero_intersection":
        ok = (
            t.dims.get("intersection") == 0
            and t.witness is None
            and not t.selected_doubles
            and not t.selected_points
        )
        recomputed.append(_check("branch_shape", int(ok), "==", 1))
        recomputed.append(
            _check(
                "intersection_dim_lower_bound",
                t.dims.get("intersection", -1),
                ">=",
                doubles.size + dim_low - ambient,
            )
        )
        recomputed.append(
            _check("size_bound_exact", t.input_size, "<=", dim_low_third_minus)
        )
    elif t.branch == "main":
        dim_v = t.dims.get("intersection", -1)
        recomputed.append(
            _check(
                "intersection_dim_lower_bound",
                dim_v,
                ">=",
                doubles.size + dim_low - ambient,
            )
        )
        recomputed.append(_check("selection_size", len(t.selected_doubles), "==", dim_v))
        witness = t.witness
        shape_ok = witness is not None and all(i in doubles for i in t.selected_doubles)
        recomputed.append(_check("branch_shape", int(shape_ok), "==", 1))
        if not shape_ok:
            return False, recomputed
        recomputed += _witness_checks(witness, doubles, sums, t.selected_doubles, 2 * low_third)
        selected_points = _halves_of(t.input_points, set(t.selected_doubles))
        points_ok = selected_points == t.selected_points
        recomputed.append(_check("selected_points_count", len(selected_points), "==", dim_v))
        recomputed.append(_check("selected_points_match", int(points_ok), "==", 1))
        a_prime = PointSet.from_indices(field, n, t.selected_points)
        try:
            gram = diagonal_certificate(witness, a_prime)
            diag_ok, rank = True, gram.rank()
        except HypothesisViolation:
            diag_ok, rank = False, -1
        recomputed.append(_check("gram_diagonal", int(diag_ok), "==", 1))
        recomputed.append(_check("gram_rank_equals_selection", rank, "==", a_prime.size))
        recomputed.append(
            _check("matrix_rank_recorded", rank, "==", -1 if t.matrix_rank is None else t.matrix_rank)
        )
        recomputed.append(_split_check(witness, a_prime.size, low_third))
        recomputed.append(
            _check(
                "size_bound_exact",
                t.input_size,
                "<=",
                dim_low_third_minus + len(t.selected_doubles),
            )
        )
    else:
        recomputed.append(_check("branch_shape", 0, "==", 1, note="unknown branch"))

    ok = all(c.holds for c in recomputed)
    return ok, recomputed
